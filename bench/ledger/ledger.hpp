// One workload, end to end: set up, serve the warm-up and measured reps,
// check correctness, optionally run the traced rep, the serial replay and
// the kernel probe, then report.
#pragma once

#include <cstdint>
#include <string>

namespace ledger {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Serving time to measure: measured reps continue until their phases
  /// have run this long (at least five reps, at most forty).
  double seconds = 10.0;
  /// false: report the end-to-end metrics. true: also run the traced rep,
  /// write trace.<workload>.json, and report the per-layer metrics.
  bool trace = false;
  std::string out_dir = "ledger-results";
};

/// Run one workload in this process. Prints every metric by name with its
/// unit, writes <out_dir>/<workload>.json, and ends stdout with one JSON
/// line {"correct", "attempted", "failed", "metrics"}. Returns the process
/// exit code: 0, or 1 when a correctness check failed.
int run_workload(const RunOptions& opts);

}  // namespace ledger
