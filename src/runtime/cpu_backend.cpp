#include "runtime/cpu_backend.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include <omp.h>

#include "util/stopwatch.hpp"

namespace tgnn::runtime {

CpuBackend::CpuBackend(std::string key, const core::TgnModel& model,
                       const data::Dataset& ds, int threads,
                       std::size_t lanes, std::size_t shards,
                       const BackendOptions& opts)
    : key_(std::move(key)), ds_(ds), threads_(threads),
      state_(ds.graph.num_nodes(), model.config(), /*use_fifo=*/true,
             opts.memory_budget),
      opts_(opts) {
  if (threads < 1 || lanes == 0)
    throw std::invalid_argument(key_ +
                                ": thread and lane counts must be >= 1");
  if (shards > 0) locks_.emplace(shards);
  lanes_.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    auto engine = std::make_unique<core::InferenceEngine>(model, ds, state_);
    engine->set_parallel_gnn(threads > 1);
    if (locks_) engine->set_shard_locks(&*locks_);
    // opts.precision arrives fully resolved from make_backend (key suffix >
    // options > ModelConfig). The lanes share the model, so later lanes
    // just rewrite the same deterministic snapshot.
    engine->set_precision(opts.precision);
    lanes_.push_back(std::move(engine));
  }
}

BatchOutput CpuBackend::process_batch(const graph::BatchRange& r,
                                      std::span<const graph::NodeId> extras) {
  // omp_set_num_threads is per calling thread and cheap.
  omp_set_num_threads(threads_);
  BatchOutput out;
  Stopwatch sw;
  out.functional = lanes_.front()->process_batch(r, extras, &out.parts);
  out.latency_s = sw.seconds();
  return out;
}

void CpuBackend::warmup(const graph::BatchRange& range) {
  for (auto& lane : lanes_) lane->reserve_workspace(opts_.max_batch_hint);
  lanes_.front()->warmup(range, opts_.warmup_batch);
}

std::string CpuBackend::describe() const {
  std::string d =
      locks_ ? "host CPU, " + std::to_string(lanes_.size()) + " lane(s) x " +
                   std::to_string(num_shards()) + " shard(s), conflict-aware"
             : "host CPU, " + std::to_string(threads_) + " thread(s)";
  if (opts_.precision != kernels::Precision::kFp32)
    d += std::string(", ") + kernels::precision_name(opts_.precision);
  if (opts_.memory_budget != 0)
    d += ", resident budget " +
         std::to_string(opts_.memory_budget / (1024 * 1024)) + " MiB";
  return d + " (measured)";
}

bool CpuBackend::set_precision(kernels::Precision p) {
  for (auto& lane : lanes_) lane->set_precision(p);
  return true;
}

void CpuBackend::prepare_pipeline(std::size_t slots,
                                  std::size_t max_batch_edges) {
  slots_.clear();
  slots_.resize(slots);
  for (auto& ctx : slots_)
    lanes_.front()->reserve_context(ctx, max_batch_edges);
}

void CpuBackend::begin_batch(std::size_t slot, const graph::BatchRange& r) {
  lane_of(slot).stage_begin(slots_.at(slot), r);
}

void CpuBackend::run_stage(core::Stage s, std::size_t slot) {
  // Split the thread budget across the stages that can actually run
  // concurrently (never more than there are slots): binding the full count
  // in every stage worker would oversubscribe the machine up to kNumStages
  // times over.
  const auto concurrent =
      static_cast<int>(std::min(slots_.size(), core::kNumStages));
  omp_set_num_threads(std::max(1, threads_ / std::max(1, concurrent)));
  lane_of(slot).stage_run(s, slots_.at(slot));
}

std::size_t CpuBackend::finish_batch(std::size_t slot) {
  return lane_of(slot).stage_finish(slots_.at(slot)).nodes.size();
}

void CpuBackend::abort_batch(std::size_t slot) {
  lane_of(slot).stage_abort(slots_.at(slot));
}

void CpuBackend::read_footprint(const graph::BatchRange& r,
                                std::vector<graph::NodeId>& out) const {
  // Every lane sees the same state, so lane 0 answers for all of them.
  lanes_.front()->read_footprint(r, out);
}

}  // namespace tgnn::runtime
