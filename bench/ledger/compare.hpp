// `tgnn_ledger compare <base-dir> <new-dir>`: per workload and end-to-end
// metric, the median and quartiles of each result set and a verdict
// against the metric's bound in BENCHMARK.json.
#pragma once

#include <string>
#include <vector>

#include "stats.hpp"

namespace ledger {

struct MetricSpec {
  std::string name;
  bool lower_is_better = true;
  /// Allowed worsening: a share of the base median, or for a metric whose
  /// unit is itself a share (`absolute`), an amount in that unit.
  double bound = 0.0;
  bool absolute = false;
};

enum class Verdict { kBetter, kWithinBound, kWorse, kUnresolved };

struct Comparison {
  Quartiles base, next;
  /// Median change in the metric's good direction (positive = better), in
  /// the metric's unit.
  double gain = 0.0;
  double allowed = 0.0;  ///< the bound in the metric's unit
  Verdict verdict = Verdict::kWithinBound;
};

/// Verdict of `next` against `base`, each one or more runs' values, with
/// the bound turned into the metric's unit (`allowed`):
///   * unresolved — either set's quartile spread is wider than the bound
///     (unless every new run beats every base run: better);
///   * worse — the median moved the wrong way by more than the bound;
///   * better — it moved the right way by more than the bound;
///   * within-bound — otherwise.
Comparison compare_metric(const MetricSpec& spec,
                          const std::vector<double>& base,
                          const std::vector<double>& next);

/// The CLI: prints the table and returns the exit code — 1 only when some
/// metric is worse beyond its bound, 2 on bad input.
int compare_main(const std::vector<std::string>& args);

}  // namespace ledger
