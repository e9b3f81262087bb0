// The staged dataflow serving pipeline (ServingOptions::pipelined):
//  * deterministic pipelining is bit-identical to the serial "cpu" path on
//    every StagedBackend — cpu, cpu-mt, sharded-cpu (the PR's acceptance
//    contract),
//  * a backend without race-free reads is force-upgraded to read-tracked
//    admission, so even "relaxed" pipelining on "cpu" stays deterministic,
//  * stop() with batches mid-pipeline flushes in order — every submitted
//    request served exactly once, no vertex write dropped or applied twice,
//  * the scheduler machinery (StagedBackend requirement, workers/pipelined
//    exclusivity, occupancy gauges) behaves.
// The concurrency-heavy tests here double as TSan/ASan CI load.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "runtime/driver.hpp"
#include "runtime/serving.hpp"
#include "tensor/ops.hpp"

namespace tgnn::runtime {
namespace {

data::Dataset pipe_ds() {
  data::SyntheticConfig dcfg;
  dcfg.num_users = 400;
  dcfg.num_items = 300;
  dcfg.num_edges = 1400;
  dcfg.edge_dim = 6;
  dcfg.seed = 43;
  return data::make_synthetic(dcfg);
}

core::TgnModel pipe_model(const data::Dataset& ds) {
  core::ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 6;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 5;
  return core::TgnModel(cfg, 11);
}

BackendOptions pipe_opts() {
  BackendOptions bopts;
  bopts.threads = 4;  // cpu-mt thread count / sharded-cpu lane count
  bopts.shards = 16;
  return bopts;
}

/// Serve [0, n) pipelined with deterministic batch boundaries (cap divides
/// n, generous flush deadline); returns the final stats.
ServingStats serve_pipelined(Backend& backend, std::size_t n, std::size_t cap,
                             bool deterministic, std::size_t depth = 4) {
  ServingOptions opts;
  opts.max_batch = cap;
  opts.max_wait_s = 10.0;
  opts.pipelined = true;
  opts.pipeline_depth = depth;
  opts.deterministic = deterministic;
  ServingEngine server(backend, opts);
  for (std::size_t i = 0; i < n; ++i) server.submit(i);
  server.drain();
  for (const auto& b : server.batch_log()) EXPECT_EQ(b.size(), cap);
  return server.stats();
}

/// The acceptance contract: pipelined deterministic serving leaves the
/// backend in the exact state the serial "cpu" path produces — proven by
/// the next batch being bit-identical.
void expect_bit_identical_to_serial(const std::string& key,
                                    bool deterministic) {
  const auto ds = pipe_ds();
  const auto model = pipe_model(ds);
  auto piped = make_backend(key, model, ds, pipe_opts());
  auto serial = make_backend("cpu", model, ds);

  const auto s = serve_pipelined(*piped, 800, 40, deterministic);
  EXPECT_EQ(s.num_requests, 800u) << key;
  run_stream(*serial, {0, 800}, 40);

  const graph::BatchRange next{800, 860};
  const auto a = piped->process_batch(next);
  const auto b = serial->process_batch(next);
  ASSERT_EQ(a.functional.nodes, b.functional.nodes) << key;
  EXPECT_EQ(
      ops::max_abs_diff(a.functional.embeddings, b.functional.embeddings),
      0.0f)
      << key;
}

TEST(PipelinedServing, DeterministicBitIdenticalToSerialCpu) {
  expect_bit_identical_to_serial("cpu", /*deterministic=*/true);
}

TEST(PipelinedServing, DeterministicBitIdenticalToSerialCpuMt) {
  expect_bit_identical_to_serial("cpu-mt", /*deterministic=*/true);
}

TEST(PipelinedServing, DeterministicBitIdenticalToSerialShardedCpu) {
  expect_bit_identical_to_serial("sharded-cpu", /*deterministic=*/true);
}

TEST(PipelinedServing, RelaxedOnCpuIsForceUpgradedToReadTracking) {
  // "cpu" has no shard locks, so relaxed admission would race on neighbor
  // memory reads; the engine must silently track read footprints instead —
  // making even the relaxed flag bit-identical to serial execution.
  expect_bit_identical_to_serial("cpu", /*deterministic=*/false);
}

TEST(PipelinedServing, RelaxedShardedServesAllInOrder) {
  // Relaxed admission on the lock-protected backend: bounded-staleness
  // reads, but every request served exactly once, batches admitted in
  // stream order, contiguous, no overlap.
  const auto ds = pipe_ds();
  const auto model = pipe_model(ds);
  auto backend = make_backend("sharded-cpu", model, ds, pipe_opts());

  ServingOptions opts;
  opts.max_batch = 16;
  opts.max_wait_s = 1e-4;
  opts.pipelined = true;
  opts.pipeline_depth = 4;
  ServingEngine server(*backend, opts);
  const std::size_t n = 1200;
  for (std::size_t i = 0; i < n; ++i) server.submit(i);
  server.drain();

  EXPECT_EQ(server.stats().num_requests, n);
  std::size_t expect = 0;
  for (const auto& b : server.batch_log()) {
    EXPECT_EQ(b.begin, expect);
    expect = b.end;
  }
  EXPECT_EQ(expect, n);
}

TEST(PipelinedServing, StopMidPipelineFlushesInOrderExactlyOnce) {
  // Bursty arrivals with a tiny flush deadline, then stop() with batches
  // still mid-pipeline: everything submitted must be flushed in stream
  // order and served exactly once — the final state matches a serial
  // replay of the very same batch ranges bit for bit (a dropped or
  // double-applied vertex write would diverge it).
  const auto ds = pipe_ds();
  const auto model = pipe_model(ds);
  auto piped = make_backend("sharded-cpu", model, ds, pipe_opts());

  ServingOptions opts;
  opts.max_batch = 24;
  opts.max_wait_s = 1e-5;  // bursts flush as ragged partial batches
  opts.pipelined = true;
  opts.pipeline_depth = 4;
  opts.deterministic = true;
  const std::size_t n = 700;
  auto server = std::make_unique<ServingEngine>(*piped, opts);
  for (std::size_t i = 0; i < n; ++i) server->submit(i);
  server->stop();  // NOT drain(): shutdown races the pipeline

  const auto s = server->stats();
  EXPECT_EQ(s.num_requests, n);  // nothing dropped
  const auto batches = server->batch_log();
  std::size_t expect = 0;
  for (const auto& b : batches) {
    EXPECT_EQ(b.begin, expect);  // in order, no gaps, nothing twice
    expect = b.end;
  }
  EXPECT_EQ(expect, n);

  // stop() is idempotent; late submits are rejected.
  server->stop();
  EXPECT_THROW(server->submit(n), std::logic_error);
  server.reset();

  // Serial replay of the SAME ranges => bit-identical state.
  auto serial = make_backend("cpu", model, ds);
  for (const auto& b : batches) serial->process_batch(b);
  const graph::BatchRange next{n, n + 50};
  const auto a = piped->process_batch(next);
  const auto c = serial->process_batch(next);
  ASSERT_EQ(a.functional.nodes, c.functional.nodes);
  EXPECT_EQ(
      ops::max_abs_diff(a.functional.embeddings, c.functional.embeddings),
      0.0f);
}

TEST(PipelinedServing, RequiresStagedBackend) {
  const auto ds = pipe_ds();
  const auto model = pipe_model(ds);
  auto gpu = make_backend("gpu-sim", model, ds);
  ServingOptions opts;
  opts.pipelined = true;
  EXPECT_THROW(ServingEngine(*gpu, opts), std::invalid_argument);
  // The engine serves staged backends only, in the default shape too.
  EXPECT_THROW(ServingEngine(*gpu, ServingOptions{}), std::invalid_argument);
}

TEST(PipelinedServing, MutuallyExclusiveWithWorkerLanes) {
  const auto ds = pipe_ds();
  const auto model = pipe_model(ds);
  auto backend = make_backend("sharded-cpu", model, ds, pipe_opts());
  ServingOptions opts;
  opts.pipelined = true;
  opts.workers = 4;
  EXPECT_THROW(ServingEngine(*backend, opts), std::invalid_argument);
  opts.workers = 1;
  opts.pipeline_depth = 0;
  EXPECT_THROW(ServingEngine(*backend, opts), std::invalid_argument);
}

TEST(PipelinedServing, OccupancyGaugesObservable) {
  const auto ds = pipe_ds();
  const auto model = pipe_model(ds);
  auto backend = make_backend("sharded-cpu", model, ds, pipe_opts());
  const std::size_t depth = 3;
  const auto s =
      serve_pipelined(*backend, 600, 30, /*deterministic=*/false, depth);
  EXPECT_GE(s.peak_in_flight_batches, 1u);
  EXPECT_LE(s.peak_in_flight_batches, depth + 1);  // formed + depth admitted
  EXPECT_GE(s.peak_parallel_batches, 1u);
  EXPECT_LE(s.peak_parallel_batches, depth);
  EXPECT_GE(s.peak_queue_depth, 1u);
}

TEST(PipelinedServing, DepthOneDegeneratesToSerialPipeline) {
  // One slot: stages still hand off over the FIFOs, but batches never
  // overlap — a correctness floor for the stall semantics.
  const auto ds = pipe_ds();
  const auto model = pipe_model(ds);
  auto backend = make_backend("cpu", model, ds);
  const auto s =
      serve_pipelined(*backend, 400, 40, /*deterministic=*/true, 1);
  EXPECT_EQ(s.num_requests, 400u);
  EXPECT_EQ(s.peak_parallel_batches, 1u);
}

}  // namespace
}  // namespace tgnn::runtime
