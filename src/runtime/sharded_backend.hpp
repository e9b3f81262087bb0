// "sharded-cpu": N serial InferenceEngine lanes over ONE shared, shard-
// partitioned RuntimeState — the CPU realization of the parallelism the
// paper's hardware Updater exploits (per-vertex chronological writes, no
// global serialization; §II-A / Alg. 1).
//
// Driven through the plain Backend contract (process_batch on lane 0) it
// is bit-identical to the "cpu" backend: same engine numerics, same state.
// As a ConcurrentBackend it is a StagedBackend whose slot i runs on engine
// lane i % lanes(), so every ServingEngine shape uses the same machinery:
// W lanes run whole disjoint batches at once, and a pipeline overlaps the
// stages of adjacent batches. Cross-batch neighbor-memory reads go through
// the per-shard reader/writer locks (graph::ShardLockTable), so disjoint-
// footprint batches never serialize on a global lock, and relaxed (write-
// footprint-only) admission is race-free (race_free_reads() == true).
//
// Each stage call pins its OpenMP thread count to 1: lane- and stage-level
// concurrency replaces intra-batch OpenMP, keeping N lanes from
// oversubscribing the machine N times over.
#pragma once

#include <memory>
#include <vector>

#include "graph/shard_map.hpp"
#include "runtime/backend.hpp"

namespace tgnn::runtime {

class ShardedCpuBackend final : public ConcurrentBackend {
 public:
  /// `lanes` >= 1 execution lanes, state partitioned into `opts.shards`
  /// shards. `model` and `ds` must outlive the backend.
  ShardedCpuBackend(const core::TgnModel& model, const data::Dataset& ds,
                    std::size_t lanes, const BackendOptions& opts);

  BatchOutput process_batch(
      const graph::BatchRange& r,
      std::span<const graph::NodeId> extras = {}) override;
  void warmup(const graph::BatchRange& range) override;
  void reset() override;
  [[nodiscard]] std::string name() const override {
    if (opts_.precision == kernels::Precision::kFp32) return "sharded-cpu";
    return std::string("sharded-cpu:") +
           kernels::precision_name(opts_.precision);
  }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] const data::Dataset& dataset() const override { return ds_; }
  [[nodiscard]] graph::VertexStoreStats store_stats() const override {
    return state_.store_stats();
  }
  /// Degradation seam: flips every lane's numeric mode (legal only with no
  /// batch in flight — the lanes share the model's precision caches).
  bool set_precision(kernels::Precision p) override;
  [[nodiscard]] kernels::Precision precision() const override;
  [[nodiscard]] core::RuntimeState* runtime_state() override {
    return &state_;
  }

  [[nodiscard]] std::size_t lanes() const override { return lanes_.size(); }

  // ---- StagedBackend --------------------------------------------------
  void prepare_pipeline(std::size_t slots,
                        std::size_t max_batch_edges) override;
  [[nodiscard]] std::size_t pipeline_slots() const override {
    return slots_.size();
  }
  void begin_batch(std::size_t slot, const graph::BatchRange& r) override;
  void run_stage(core::Stage s, std::size_t slot) override;
  std::size_t finish_batch(std::size_t slot) override;
  void abort_batch(std::size_t slot) override;
  void read_footprint(const graph::BatchRange& r,
                      std::vector<graph::NodeId>& out) const override;
  [[nodiscard]] bool race_free_reads() const override { return true; }
  void prefetch_rows(std::span<const graph::NodeId> nodes) override {
    state_.prefetch_rows(nodes);
  }

  [[nodiscard]] std::size_t num_shards() const {
    return locks_.map().num_shards();
  }

 private:
  /// Engine lane a pipeline slot's stages execute on.
  [[nodiscard]] core::InferenceEngine& lane_of(std::size_t slot) {
    return *lanes_[slot % lanes_.size()];
  }

  const core::TgnModel& model_;
  const data::Dataset& ds_;
  graph::ShardLockTable locks_;
  core::RuntimeState state_;
  std::vector<std::unique_ptr<core::InferenceEngine>> lanes_;
  BackendOptions opts_;
  std::vector<core::StageContext> slots_;
};

}  // namespace tgnn::runtime
