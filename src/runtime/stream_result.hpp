// Shared measurement types for every streaming execution path.
//
// StreamResult is the single latency/throughput accounting struct used by
// the runtime driver and the FPGA accelerator — before the runtime layer
// existed each execution path carried its own copy of this struct and of
// the warmup/stream/measure loop around it.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "graph/temporal_graph.hpp"
#include "tgnn/inference.hpp"

namespace tgnn::runtime {

/// Terminal disposition of one submitted request (edge event) under the
/// serving engine's admission policies. Every request submitted to a
/// ServingEngine ends in exactly one of these — the typed outcome the
/// fault-tolerant serving path reports instead of blocking forever or
/// dying on the first fault.
enum class RequestOutcome : std::uint8_t {
  kServed = 0,   ///< dispatched and completed (has a latency sample)
  kShed = 1,     ///< rejected at admission (kShed policy, queue full)
  kExpired = 2,  ///< dropped before dispatch (kDeadline policy, waited
                 ///< longer than the budget)
  kFailed = 3,   ///< batch execution failed permanently (fault injection /
                 ///< spill I/O); state untouched, stream continued
};

[[nodiscard]] const char* outcome_name(RequestOutcome o);

struct StreamResult {
  double total_seconds = 0.0;  ///< sum of per-batch service latencies
  std::size_t num_edges = 0;
  std::size_t num_embeddings = 0;
  core::PartTimes parts;                ///< per-stage breakdown (if reported)
  std::vector<double> batch_latency_s;  ///< one entry per non-empty batch

  [[nodiscard]] double throughput_eps() const {
    return total_seconds > 0.0 ? static_cast<double>(num_edges) / total_seconds
                               : 0.0;
  }
  [[nodiscard]] double mean_latency_s() const;
  /// q-quantile of the per-batch latencies, q in [0, 1] (0.5 = p50).
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double ns_per_embedding() const {
    return num_embeddings > 0
               ? total_seconds * 1e9 / static_cast<double>(num_embeddings)
               : 0.0;
  }
};

/// q-quantile (q in [0, 1]) of an unsorted sample set — the one quantile
/// implementation shared by StreamResult and the ServingEngine stats.
double percentile_of(std::vector<double> samples, double q);

/// What one streaming step reports back to the shared loop.
struct StepOutcome {
  double latency_s = 0.0;
  std::size_t num_embeddings = 0;
  core::PartTimes parts;
};

/// THE streaming loop: runs `step` over every non-empty batch in order and
/// accumulates a StreamResult. All higher-level drivers (runtime::run_stream,
/// fpga::Accelerator::run, …) are thin wrappers around this.
StreamResult drive_batches(
    const std::vector<graph::BatchRange>& batches,
    const std::function<StepOutcome(const graph::BatchRange&)>& step);

}  // namespace tgnn::runtime
