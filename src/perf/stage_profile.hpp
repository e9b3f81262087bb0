// Low-overhead per-stage profiling of the software serving pipeline — the
// measurement half of the runtime auto-tuner (the other half is the
// calibrated cost model in perf/auto_tuner.hpp).
//
// The ServingEngine feeds one record() per completed micro-batch: the four
// engine-stage times (core::Stage — MemoryUpdate / NeighborGather /
// GnnCompute / Decode), the batch's edge count, its unique-vertex count
// (the gather fan-out / endpoint-dedup factor the Section V model calls
// vertices-per-edge), and the submit-queue depth at completion. The
// profiler keeps an EWMA mean per signal plus a small fixed ring of recent
// samples per stage for percentiles — O(1) doubles per batch, no
// allocation after construction — so it stays on in production serving.
//
// Attribution convention: the engine serves staged backends only (cpu,
// cpu-mt, sharded-cpu), and every scheduler mode times each stage at its
// boundary — the wall time of one StagedBackend::run_stage call — so a
// stage name means the same work in serial, lane and pipelined serving
// (the batched GNN gather counts in NeighborGather, where it runs).
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "tgnn/inference.hpp"

namespace tgnn::perf {

/// Human-readable name of a pipeline stage index (core::Stage order).
[[nodiscard]] const char* stage_name(std::size_t stage);

/// One stage's time statistics over the profiled batches (seconds).
struct StageStat {
  double ewma_s = 0.0;  ///< exponentially weighted mean per-batch time
  double mean_s = 0.0;  ///< plain mean over everything recorded
  double p50_s = 0.0;   ///< percentiles over the recent-sample window
  double p95_s = 0.0;
  /// Affine cost fit t(B) = fixed_s + per_edge_s * B, least-squares over
  /// the recent window's (batch_edges, time) pairs — what lets one live
  /// profile calibrate the software cost model. Live batch sizes vary
  /// (max_wait flushes, contiguous-run caps), which is the variance the
  /// fit needs; when every batch formed at the same size the fit falls
  /// back to through-origin (fixed_s = 0), i.e. "no evidence that
  /// resizing changes per-edge cost".
  double fixed_s = 0.0;
  double per_edge_s = 0.0;
};

/// Snapshot of the measured pipeline shape — everything the software cost
/// model needs to rank serving configurations.
struct StageProfile {
  std::array<StageStat, core::kNumStages> stages;
  std::size_t batches = 0;        ///< records this snapshot summarizes
  double ewma_batch_edges = 0.0;  ///< EWMA micro-batch size (edges)
  double mean_batch_edges = 0.0;
  /// Unique endpoints per edge within a batch (EWMA) — the dedup factor
  /// Section V's Eq. 20 calibrates with measure_vertices_per_edge(); here
  /// it is measured off the live stream instead of sampled a priori.
  double vertices_per_edge = 2.0;
  double ewma_queue_depth = 0.0;  ///< submit-queue depth at batch completion
  /// Sum / max of the per-stage EWMA means — the serial service time and
  /// the pipeline bottleneck period of Eq. 18's software analogue.
  [[nodiscard]] double total_ewma_s() const;
  [[nodiscard]] double bottleneck_ewma_s() const;
  [[nodiscard]] std::size_t bottleneck_stage() const;
  /// One-line summary ("stage ms p50/p95: ...") for bench banners.
  [[nodiscard]] std::string describe() const;
};

/// The accumulator. NOT internally synchronized — the ServingEngine records
/// and snapshots under its own mutex; standalone users do their own locking.
class StageProfiler {
 public:
  /// `alpha` is the EWMA weight of a new sample; `window` the per-stage
  /// ring size percentiles are computed over (memory cost: 4 * window
  /// doubles, fixed at construction).
  explicit StageProfiler(double alpha = 0.2, std::size_t window = 128);

  /// Record one completed micro-batch. `stage_s` are the four stage times
  /// in core::Stage order; `unique_vertices` the batch's deduplicated
  /// endpoint count; `queue_depth` the submit-queue depth right now.
  void record(const std::array<double, core::kNumStages>& stage_s,
              std::size_t batch_edges, std::size_t unique_vertices,
              std::size_t queue_depth);

  /// Percentiles are computed here (sorting a copy of each stage window),
  /// not in record() — snapshots are occasional, records are per-batch.
  [[nodiscard]] StageProfile snapshot() const;

  [[nodiscard]] std::size_t batches() const { return batches_; }

  void reset();

 private:
  double alpha_;
  std::size_t window_;
  std::size_t batches_ = 0;
  std::size_t ring_fill_ = 0;  ///< valid entries per ring (same for all)
  std::size_t ring_pos_ = 0;
  std::array<std::vector<double>, core::kNumStages> ring_;
  std::vector<double> ring_edges_;  ///< batch sizes, aligned with ring_
  std::array<double, core::kNumStages> ewma_{};
  std::array<double, core::kNumStages> sum_{};
  double ewma_edges_ = 0.0;
  double sum_edges_ = 0.0;
  double ewma_vpe_ = 2.0;
  double ewma_queue_ = 0.0;
};

}  // namespace tgnn::perf
