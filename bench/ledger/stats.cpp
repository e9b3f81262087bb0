#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace ledger {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 0.5);
}

Quartiles quartiles(std::vector<double> samples) {
  Quartiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n == 1) {
    out.q1 = out.median = out.q3 = samples[0];
    return out;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i of 4 sits at
  // position i*m/4 (1-based), clamped to [1, n-1], interpolated in exact
  // integer arithmetic.
  const std::size_t m = n + 1;
  double cut[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  }
  out.q1 = cut[0];
  out.median = cut[1];
  out.q3 = cut[2];
  return out;
}

double highest_supported_percentile(std::size_t n, std::size_t min_beyond) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.5};
  for (const double p : kLadder)
    if (static_cast<double>(n) * (1.0 - p) >=
        static_cast<double>(min_beyond) - 1e-9)
      return p;
  return 0.0;
}

}  // namespace ledger
