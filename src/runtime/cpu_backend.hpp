// "cpu", "cpu-mt" and "sharded-cpu": measured execution of the reference
// engine on the host CPU — one class sized by three numbers, the software
// counterpart of the paper's one parameterised datapath sized per device
// (§V):
//
//   threads  OpenMP threads per stage call (the Table I multi-thread
//            baseline threads the batch matrix, never the event order, so
//            the count never moves a bit)
//   lanes    InferenceEngines over ONE shared RuntimeState; pipeline slot i
//            runs on lane i % lanes, so W lanes run whole disjoint batches
//            at once (DESIGN.md "The shard layer")
//   shards   per-shard reader/writer locks (graph::ShardLockTable) guarding
//            cross-batch neighbor-memory reads; 0 = no locks
//
// The registry keys are three points of that space:
//
//   cpu          1 thread,  1 lane,  no locks
//   cpu-mt       N threads, 1 lane,  no locks
//   sharded-cpu  1 thread,  N lanes, S shards (armed even at one lane)
//
// With locks armed, relaxed (write-footprint-only) admission is race-free
// (race_free_reads() == true); without them the serving engine tracks read
// footprints too. Driven through the plain Backend contract (process_batch
// on lane 0) every shape is bit-identical to every other: same engine
// numerics, same state.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/shard_map.hpp"
#include "runtime/backend.hpp"

namespace tgnn::runtime {

class CpuBackend final : public StagedBackend {
 public:
  /// `key` is the display name name() reports. `threads` >= 1, `lanes` >= 1,
  /// `shards` = 0 for no shard locks. `model` and `ds` must outlive the
  /// backend; `opts` supplies precision, memory budget and warmup sizing.
  CpuBackend(std::string key, const core::TgnModel& model,
             const data::Dataset& ds, int threads, std::size_t lanes,
             std::size_t shards, const BackendOptions& opts);
  // The lanes hold pointers to state_ and the shard locks.
  CpuBackend(const CpuBackend&) = delete;
  CpuBackend& operator=(const CpuBackend&) = delete;

  BatchOutput process_batch(
      const graph::BatchRange& r,
      std::span<const graph::NodeId> extras = {}) override;
  void warmup(const graph::BatchRange& range) override;
  void reset() override { state_.reset(); }
  [[nodiscard]] std::string name() const override { return key_; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] const data::Dataset& dataset() const override { return ds_; }
  [[nodiscard]] graph::VertexStoreStats store_stats() const override {
    return state_.store_stats();
  }
  /// Degradation seam: flips every lane's numeric mode (legal only with no
  /// batch in flight — the lanes share the model's precision caches).
  bool set_precision(kernels::Precision p) override;
  [[nodiscard]] kernels::Precision precision() const override {
    return lanes_.front()->precision();
  }
  [[nodiscard]] core::RuntimeState* runtime_state() override {
    return &state_;
  }

  // ---- StagedBackend --------------------------------------------------
  [[nodiscard]] std::size_t lanes() const override { return lanes_.size(); }
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
  [[nodiscard]] bool race_free_reads() const override {
    return locks_.has_value();
  }
  void prefetch_rows(std::span<const graph::NodeId> nodes) override {
    state_.prefetch_rows(nodes);
  }

  /// Lane 0's engine (the one process_batch and warmup run on).
  [[nodiscard]] core::InferenceEngine& engine() { return *lanes_.front(); }
  [[nodiscard]] std::size_t num_shards() const {
    return locks_ ? locks_->map().num_shards() : 0;
  }

 private:
  /// Engine lane a pipeline slot's stages execute on.
  [[nodiscard]] core::InferenceEngine& lane_of(std::size_t slot) {
    return *lanes_[slot % lanes_.size()];
  }

  std::string key_;
  const data::Dataset& ds_;
  int threads_;
  std::optional<graph::ShardLockTable> locks_;  ///< engaged when shards > 0
  core::RuntimeState state_;
  std::vector<std::unique_ptr<core::InferenceEngine>> lanes_;
  BackendOptions opts_;
  std::vector<core::StageContext> slots_;
};

}  // namespace tgnn::runtime
