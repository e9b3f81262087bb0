// Sample statistics the ledger reports: percentiles of per-request samples,
// medians and quartiles of per-rep and per-run values.
#pragma once

#include <cstddef>
#include <vector>

namespace ledger {

/// q-quantile (q in [0, 1]) by linear interpolation between order
/// statistics of the sorted samples; 0 for an empty set.
double percentile(std::vector<double> samples, double q);

double median(const std::vector<double>& samples);

struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};
/// Quartiles by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), so spreads printed here match the
/// ones a Python summary of the same values gives. One sample: all three
/// equal it.
Quartiles quartiles(std::vector<double> samples);

/// The highest of the tail percentiles 0.5, 0.9, 0.95, 0.99, 0.999 that
/// has at least `min_beyond` samples above it in a set of `n`; 0 when even
/// the median lacks them. A tail percentile with fewer samples beyond it
/// is one or two lucky requests, not a property of the system.
double highest_supported_percentile(std::size_t n, std::size_t min_beyond = 10);

}  // namespace ledger
