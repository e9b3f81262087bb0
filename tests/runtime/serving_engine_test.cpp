#include "runtime/serving.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "data/synthetic.hpp"
#include "perf/auto_tuner.hpp"
#include "runtime/driver.hpp"
#include "tensor/ops.hpp"
#include "util/stopwatch.hpp"

namespace tgnn::runtime {
namespace {

data::Dataset tiny_ds() {
  data::SyntheticConfig dcfg;
  dcfg.num_users = 30;
  dcfg.num_items = 20;
  dcfg.num_edges = 400;
  dcfg.edge_dim = 7;
  dcfg.seed = 99;
  return data::make_synthetic(dcfg);
}

core::TgnModel tiny_model(const data::Dataset& ds) {
  core::ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 6;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 5;
  return core::TgnModel(cfg, 1);
}

TEST(ServingEngine, BatchSizeCapRespected) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.max_batch = 4;
  opts.max_wait_s = 0.1;
  ServingEngine server(*backend, opts);
  for (std::size_t i = 0; i < 12; ++i) server.submit(i);
  server.drain();

  const auto batches = server.batch_log();
  std::size_t total = 0;
  for (const auto& b : batches) {
    EXPECT_LE(b.size(), 4u);
    EXPECT_GE(b.size(), 1u);
    total += b.size();
  }
  EXPECT_EQ(total, 12u);
  EXPECT_EQ(server.stats().num_requests, 12u);
}

TEST(ServingEngine, MaxWaitFlushesPartialBatch) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.max_batch = 100;  // never reached
  opts.max_wait_s = 0.05;
  ServingEngine server(*backend, opts);
  server.submit(0);
  server.submit(1);
  server.submit(2);
  // Do NOT drain: the 50 ms deadline alone must flush the partial batch.
  for (int i = 0; i < 400 && server.stats().num_requests < 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  const auto batches = server.batch_log();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].begin, 0u);
  EXPECT_EQ(batches[0].end, 3u);
  server.drain();
}

TEST(ServingEngine, DrainFlushesPromptly) {
  // drain() must not sit out the remainder of a long max_wait deadline.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.max_batch = 100;
  opts.max_wait_s = 30.0;  // would stall half a minute without force-flush
  ServingEngine server(*backend, opts);
  server.submit(0);
  server.submit(1);
  Stopwatch sw;
  server.drain();
  EXPECT_LT(sw.seconds(), 5.0);
  ASSERT_EQ(server.batch_log().size(), 1u);
  EXPECT_EQ(server.batch_log()[0].size(), 2u);
}

TEST(ServingEngine, BatchesAreChronologicalAndContiguous) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.max_batch = 16;
  opts.max_wait_s = 1e-4;
  ServingEngine server(*backend, opts);
  const std::size_t begin = 100, end = 300;
  for (std::size_t i = begin; i < end; ++i) server.submit(i);
  server.drain();

  const auto batches = server.batch_log();
  ASSERT_FALSE(batches.empty());
  std::size_t expect = begin;
  for (const auto& b : batches) {
    EXPECT_EQ(b.begin, expect);  // in order, no gaps, no overlap
    EXPECT_GT(b.end, b.begin);
    expect = b.end;
  }
  EXPECT_EQ(expect, end);
}

TEST(ServingEngine, OutOfOrderSubmissionThrows) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingEngine server(*backend);
  server.submit(5);
  EXPECT_THROW(server.submit(7), std::invalid_argument);
  EXPECT_THROW(server.submit(4), std::invalid_argument);
  server.submit(6);  // the successor is fine
  server.drain();
}

TEST(ServingEngine, ServedStateMatchesOfflineStream) {
  // Deterministic split: 200 requests, cap 50, generous flush deadline =>
  // exactly four batches of 50 — the same ranges an offline run_stream
  // produces, so both backends end in bit-identical state.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto served = make_backend("cpu", model, ds);
  auto offline = make_backend("cpu", model, ds);

  ServingOptions opts;
  opts.max_batch = 50;
  opts.max_wait_s = 10.0;
  {
    ServingEngine server(*served, opts);
    for (std::size_t i = 0; i < 200; ++i) server.submit(i);
    server.drain();
    for (const auto& b : server.batch_log()) EXPECT_EQ(b.size(), 50u);
  }
  run_stream(*offline, {0, 200}, 50);

  const graph::BatchRange next{200, 250};
  const auto a = served->process_batch(next);
  const auto b = offline->process_batch(next);
  ASSERT_EQ(a.functional.nodes, b.functional.nodes);
  EXPECT_EQ(
      ops::max_abs_diff(a.functional.embeddings, b.functional.embeddings),
      0.0f);
}

TEST(ServingEngine, StatsAreCoherent) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.max_batch = 32;
  opts.max_wait_s = 1e-3;
  ServingEngine server(*backend, opts);
  for (std::size_t i = 0; i < 150; ++i) server.submit(i);
  server.drain();

  const auto s = server.stats();
  EXPECT_EQ(s.num_requests, 150u);
  EXPECT_GT(s.num_batches, 0u);
  EXPECT_LE(s.p50_latency_s, s.p95_latency_s);
  EXPECT_LE(s.p95_latency_s, s.p99_latency_s);
  EXPECT_LE(s.p99_latency_s, s.max_latency_s);
  EXPECT_GT(s.throughput_rps, 0.0);
  EXPECT_NEAR(s.mean_batch_size,
              150.0 / static_cast<double>(s.num_batches), 1e-9);
  EXPECT_EQ(server.request_latency_s().size(), 150u);
  for (double l : server.request_latency_s()) EXPECT_GE(l, 0.0);
}

TEST(ServingEngine, LatencySplitsIntoQueueWaitAndService) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.max_batch = 25;
  opts.max_wait_s = 1e-3;
  ServingEngine server(*backend, opts);
  for (std::size_t i = 0; i < 100; ++i) server.submit(i);
  server.drain();

  const auto s = server.stats();
  // Each per-request end-to-end sample is its queue wait plus its batch's
  // service time, so the end-to-end quantiles dominate each component's
  // (pointwise domination is preserved by order statistics).
  EXPECT_GE(s.p50_queue_wait_s, 0.0);
  EXPECT_GT(s.p50_service_s, 0.0);
  EXPECT_LE(s.p50_queue_wait_s, s.p95_queue_wait_s);
  EXPECT_LE(s.p50_service_s, s.p95_service_s);
  EXPECT_GE(s.p50_latency_s, s.p50_queue_wait_s);
  EXPECT_GE(s.p50_latency_s, s.p50_service_s);
  EXPECT_GE(s.p95_latency_s, s.p95_queue_wait_s);
  EXPECT_GE(s.p95_latency_s, s.p95_service_s);
}

TEST(ServingEngine, IdleEngineStatsAreAllZero) {
  // Regression: stats() before any batch completes used to risk 0/0 NaNs
  // (mean_batch_size, throughput). An idle engine reports plain zeros.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingEngine server(*backend);
  const auto s = server.stats();
  EXPECT_EQ(s.num_requests, 0u);
  EXPECT_EQ(s.num_batches, 0u);
  for (const double v :
       {s.p50_latency_s, s.p95_latency_s, s.p99_latency_s, s.max_latency_s,
        s.p50_queue_wait_s, s.p95_queue_wait_s, s.p50_service_s,
        s.p95_service_s, s.throughput_rps, s.mean_batch_size}) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(v, 0.0);
  }
  EXPECT_EQ(s.peak_parallel_batches, 0u);
  EXPECT_EQ(s.peak_in_flight_batches, 0u);
  EXPECT_EQ(s.peak_queue_depth, 0u);
}

TEST(ServingEngine, StopFlushesPendingAndRejectsLateSubmits) {
  // stop() is the graceful shutdown: everything submitted is flushed and
  // served (even with a deadline that would otherwise park the partial
  // batch for half a minute), repeat calls are no-ops, and submits after
  // stop fail loudly instead of queueing into a dead scheduler.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.max_batch = 100;
  opts.max_wait_s = 30.0;
  ServingEngine server(*backend, opts);
  for (std::size_t i = 0; i < 7; ++i) server.submit(i);
  Stopwatch sw;
  server.stop();
  EXPECT_LT(sw.seconds(), 5.0);
  EXPECT_EQ(server.stats().num_requests, 7u);
  server.stop();  // idempotent
  EXPECT_THROW(server.submit(7), std::logic_error);
  EXPECT_EQ(server.stats().num_requests, 7u);
}

TEST(ServingEngine, OccupancyGaugesTrackSerialMode) {
  // Serial scheduler: at most one batch is ever in flight, and the queue
  // gauge records that requests actually piled up behind the batch cap.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.max_batch = 10;
  opts.max_wait_s = 1e-3;
  ServingEngine server(*backend, opts);
  for (std::size_t i = 0; i < 80; ++i) server.submit(i);
  server.drain();

  const auto s = server.stats();
  EXPECT_EQ(s.num_requests, 80u);
  EXPECT_GE(s.peak_in_flight_batches, 1u);
  EXPECT_EQ(s.peak_parallel_batches, 1u);
  EXPECT_GE(s.peak_queue_depth, 1u);
}

TEST(ServingEngine, RefusesModelledBackendsInEveryShape) {
  // The engine and the tuner serve staged backends only; gpu-sim, apan and
  // fpga run offline through drive_batches.
  const auto ds = tiny_ds();
  core::ModelConfig cfg = tiny_model(ds).config();
  cfg.attention = core::AttentionKind::kSimplified;  // fpga needs it
  cfg.time_encoder = core::TimeEncoderKind::kLut;
  cfg.prune_budget = 3;
  core::TgnModel model(cfg, 1);
  model.fit_lut(core::collect_dt_samples(ds, {0, ds.train_end}));
  ServingOptions lanes;
  lanes.workers = 2;
  ServingOptions pipelined;
  pipelined.pipelined = true;
  for (const std::string key : {"gpu-sim", "apan", "fpga"}) {
    auto backend = make_backend(key, model, ds);
    for (const ServingOptions& opts : {ServingOptions{}, lanes, pipelined})
      EXPECT_THROW(ServingEngine(*backend, opts), std::invalid_argument)
          << key;
    EXPECT_THROW(perf::AutoTuner(*backend, perf::AutoTunerOptions{}),
                 std::invalid_argument)
        << key;
  }
}

TEST(ServingEngine, PercentileOfEmptySamplesIsZero) {
  EXPECT_EQ(percentile_of({}, 0.5), 0.0);
  EXPECT_EQ(percentile_of({}, 1.0), 0.0);
}

}  // namespace
}  // namespace tgnn::runtime
