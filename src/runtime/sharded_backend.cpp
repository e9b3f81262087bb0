#include "runtime/sharded_backend.hpp"

#include <stdexcept>

#include <omp.h>

#include "util/stopwatch.hpp"

namespace tgnn::runtime {

ShardedCpuBackend::ShardedCpuBackend(const core::TgnModel& model,
                                     const data::Dataset& ds,
                                     std::size_t lanes,
                                     const BackendOptions& opts)
    : model_(model), ds_(ds), locks_(opts.shards),
      state_(ds.graph.num_nodes(), model.config(), /*use_fifo=*/true,
             opts.memory_budget),
      opts_(opts) {
  if (lanes == 0)
    throw std::invalid_argument("sharded-cpu: lane count must be >= 1");
  lanes_.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    auto engine = std::make_unique<core::InferenceEngine>(model, ds, state_);
    engine->set_shard_locks(&locks_);
    // Every lane runs the same resolved numeric mode (make_backend already
    // folded key suffix / options / model config). The lanes share the
    // model, so later calls just rewrite the same deterministic snapshot.
    engine->set_precision(opts.precision);
    lanes_.push_back(std::move(engine));
  }
}

BatchOutput ShardedCpuBackend::process_batch(
    const graph::BatchRange& r, std::span<const graph::NodeId> extras) {
  // Serial within the lane, as in run_stage.
  omp_set_num_threads(1);
  BatchOutput out;
  Stopwatch sw;
  out.functional = lanes_[0]->process_batch(r, extras, &out.parts);
  out.latency_s = sw.seconds();
  return out;
}

void ShardedCpuBackend::warmup(const graph::BatchRange& range) {
  for (auto& lane : lanes_) lane->reserve_workspace(opts_.max_batch_hint);
  lanes_[0]->warmup(range, opts_.warmup_batch);
}

void ShardedCpuBackend::reset() { state_.reset(); }

std::string ShardedCpuBackend::describe() const {
  std::string d = "host CPU, " + std::to_string(lanes_.size()) + " lane(s) x " +
                  std::to_string(num_shards()) + " shard(s), conflict-aware";
  if (opts_.precision != kernels::Precision::kFp32)
    d += std::string(", ") + kernels::precision_name(opts_.precision);
  if (opts_.memory_budget != 0)
    d += ", resident budget " +
         std::to_string(opts_.memory_budget / (1024 * 1024)) + " MiB";
  return d + " (measured)";
}

void ShardedCpuBackend::read_footprint(const graph::BatchRange& r,
                                       std::vector<graph::NodeId>& out) const {
  // The engine's footprint query over the shared state (every lane sees
  // the same state, so lane 0 answers for all of them).
  lanes_[0]->read_footprint(r, out);
}

void ShardedCpuBackend::prepare_pipeline(std::size_t slots,
                                         std::size_t max_batch_edges) {
  slots_.clear();
  slots_.resize(slots);
  for (auto& ctx : slots_) lanes_[0]->reserve_context(ctx, max_batch_edges);
}

void ShardedCpuBackend::begin_batch(std::size_t slot,
                                    const graph::BatchRange& r) {
  lane_of(slot).stage_begin(slots_.at(slot), r);
}

void ShardedCpuBackend::run_stage(core::Stage s, std::size_t slot) {
  // Serial within the stage call: lane- and stage-level concurrency
  // replaces intra-batch OpenMP (which would oversubscribe lanes x threads).
  omp_set_num_threads(1);
  lane_of(slot).stage_run(s, slots_.at(slot));
}

std::size_t ShardedCpuBackend::finish_batch(std::size_t slot) {
  return lane_of(slot).stage_finish(slots_.at(slot)).nodes.size();
}

void ShardedCpuBackend::abort_batch(std::size_t slot) {
  lane_of(slot).stage_abort(slots_.at(slot));
}

bool ShardedCpuBackend::set_precision(kernels::Precision p) {
  // Caller guarantees quiescence (no batch in flight on any lane); the
  // lanes share one model whose precision caches are rebuilt once and
  // reused by every lane.
  for (auto& lane : lanes_) lane->set_precision(p);
  return true;
}

kernels::Precision ShardedCpuBackend::precision() const {
  return lanes_[0]->precision();
}

}  // namespace tgnn::runtime
