#include "workloads.hpp"

#include "data/synthetic.hpp"
#include "tgnn/config.hpp"
#include "tgnn/inference.hpp"

namespace ledger {

using tgnn::runtime::AdmissionPolicy;
using tgnn::runtime::ServingOptions;

namespace {

ServingOptions batching(std::size_t max_batch, double max_wait_s) {
  ServingOptions o;
  o.max_batch = max_batch;
  o.max_wait_s = max_wait_s;
  return o;
}

std::vector<Workload> build() {
  std::vector<Workload> out;

  // Compute-bound: a serial staged replay of a 200-edge batch spends more
  // than half its time in MemoryUpdate. One batch at a time, all-resident,
  // so the vertex store is bypassed.
  Workload skewed;
  skewed.name = "skewed-serial";
  skewed.why =
      "compute-bound: one batch at a time, MemoryUpdate GRU dominates, "
      "vertex store bypassed";
  skewed.users = 8000;
  skewed.items = 1000;
  skewed.edges = 120000;
  skewed.key = "cpu";
  skewed.closed = batching(200, 2e-3);
  skewed.open = skewed.closed;
  skewed.closed_requests = 20000;
  skewed.open_rps = 15000.0;
  skewed.open_requests = 7500;
  skewed.replay_oracle = true;
  out.push_back(skewed);

  // Runtime-bound: small, mostly disjoint batches on two lanes make
  // dispatch, the hazard ledger and the engine mutex the per-request cost;
  // a monitor polls stats() beside the serving writes. Two lanes, not
  // three: with the scheduler, the submitter and the monitor, three lanes
  // oversubscribe four cores, and which thread waits for a core then
  // varies from run to run (capacity and p99 spreads about twice as wide).
  Workload lanes;
  lanes.name = "uniform-lanes";
  lanes.why =
      "runtime-bound: small disjoint batches on 2 lanes, a monitor polls "
      "stats() beside serving";
  lanes.users = 20000;
  lanes.items = 20000;
  lanes.edges = 55000;
  lanes.user_zipf_s = 0.0;
  lanes.communities = 1;
  lanes.repeat_prob = 0.2;
  lanes.pareto_xm = 3600.0;
  lanes.key = "sharded-cpu";
  lanes.lanes = 2;
  lanes.shards = 64;
  lanes.closed = batching(32, 1e-3);
  lanes.closed.workers = 2;
  lanes.open = lanes.closed;
  lanes.closed_requests = 25000;
  lanes.open_rps = 16000.0;
  lanes.open_requests = 8000;
  lanes.monitor_period_s = 0.02;
  out.push_back(lanes);

  // Graph-bound: vertex state five times the resident budget, so a quarter
  // of row accesses fault through the spill file; the pipelined scheduler
  // is the mode that issues prefetch.
  Workload oocore;
  oocore.name = "oocore-pipelined";
  oocore.why =
      "graph-bound: state 5x the resident budget, pipelined deterministic "
      "engine prefetches spilled rows";
  oocore.users = 80000;
  oocore.items = 20000;
  oocore.edges = 30000;
  oocore.user_zipf_s = 0.0;
  oocore.key = "cpu";
  oocore.memory_pct = 20.0;
  oocore.closed = batching(64, 1e-3);
  oocore.closed.pipelined = true;
  oocore.closed.deterministic = true;
  oocore.closed.pipeline_depth = 4;
  oocore.open = oocore.closed;
  oocore.closed_requests = 6000;
  oocore.open_rps = 3000.0;
  oocore.open_requests = 3000;
  oocore.replay_oracle = true;
  out.push_back(oocore);

  // Admission-bound: offered about 1.5x capacity with shedding and the
  // precision ladder armed; the ladder walks fp32 -> bf16 -> int8.
  Workload overload = skewed;
  overload.name = "overload-degrade";
  overload.why =
      "admission-bound: offered ~1.5x capacity, kShed queue plus the "
      "fp32->bf16->int8 degrade ladder";
  overload.closed.queue_capacity = 512;
  overload.closed.degrade_under_overload = true;
  // A 200-edge formation empties 40% of the queue, so "pressured" must sit
  // below the 0.75 default for the ladder to see a full queue as pressure.
  overload.closed.degrade_high = 0.5;
  overload.open = overload.closed;
  overload.open.admission = AdmissionPolicy::kShed;
  overload.open.shed_wait_s = 0.0;
  overload.closed_requests = 40000;
  overload.open_rps = 400000.0;
  overload.open_requests = 60000;
  out.push_back(overload);

  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = build();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

tgnn::data::Dataset make_stream(const Workload& w, std::uint64_t seed) {
  tgnn::data::SyntheticConfig cfg;
  cfg.name = w.name;
  cfg.num_users = w.users;
  cfg.num_items = w.items;
  cfg.num_edges = w.edges;
  cfg.edge_dim = 172;  // the paper's Wikipedia edge features
  cfg.user_zipf_s = w.user_zipf_s;
  cfg.num_communities = w.communities;
  cfg.repeat_prob = w.repeat_prob;
  cfg.pareto_xm = w.pareto_xm;
  cfg.seed = seed;
  return tgnn::data::make_synthetic(cfg);
}

tgnn::core::TgnModel make_model(const tgnn::data::Dataset& ds,
                                std::uint64_t seed) {
  tgnn::core::TgnModel model(
      tgnn::core::np_config('M', ds.edge_dim(), ds.node_dim()), seed);
  model.fit_lut(tgnn::core::collect_dt_samples(ds, ds.train_range()));
  return model;
}

tgnn::runtime::BackendOptions backend_options(const Workload& w,
                                              const tgnn::core::TgnModel& model,
                                              const tgnn::data::Dataset& ds) {
  tgnn::runtime::BackendOptions o;
  o.threads = static_cast<int>(w.lanes);
  o.shards = w.shards;
  o.max_batch_hint = w.closed.max_batch;
  if (w.memory_pct > 0.0)
    o.memory_budget = tgnn::runtime::parse_memory_budget(
        std::to_string(w.memory_pct) + "%",
        tgnn::core::RuntimeState::state_bytes(ds.graph.num_nodes(),
                                              model.config()));
  return o;
}

}  // namespace ledger
