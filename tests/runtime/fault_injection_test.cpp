// Fault-injection scenarios over the serving engine (ISSUE 9 tentpole c):
// transient faults are absorbed by bounded retry, permanent faults end in
// a typed kFailed outcome with the stream continuing, and no scenario —
// across the stage-execution and channel-handoff sites, in serial,
// pipelined, and multi-worker modes — ever deadlocks or leaves per-vertex
// chronology broken.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "runtime/serving.hpp"
#include "util/fault_injector.hpp"

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

struct InjectorGuard {
  explicit InjectorGuard(std::uint64_t seed) : fi(seed) {
    util::set_fault_injector(&fi);
  }
  ~InjectorGuard() { util::set_fault_injector(nullptr); }
  util::FaultInjector fi;
};

ServingOptions fast_opts() {
  ServingOptions opts;
  opts.max_batch = 16;
  opts.max_wait_s = 1e-4;
  opts.retry_backoff_s = 1e-6;  // keep retried tests fast
  return opts;
}

TEST(FaultInjection, TransientStageFaultsAreRetriedAway) {
  // Exactly 3 injected faults, 3 retries allowed per batch: the first
  // batch eats all three on consecutive attempts and then succeeds.
  // Deterministic — every request is served, none fail.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);

  InjectorGuard g(11);
  util::FaultPlan plan;  // probability 1, transient
  plan.max_faults = 3;
  g.fi.arm(util::FaultSite::kStageExec, plan);

  ServingOptions opts = fast_opts();
  opts.fault_retries = 3;
  ServingEngine server(*backend, opts);
  const std::size_t kN = 100;
  for (std::size_t i = 0; i < kN; ++i) server.submit(i);
  server.drain();

  const auto s = server.stats();
  EXPECT_EQ(s.num_requests, kN);
  EXPECT_EQ(s.num_failed, 0u);
  EXPECT_EQ(s.fault_retries, 3u);
  EXPECT_EQ(g.fi.injected(util::FaultSite::kStageExec), 3u);
}

TEST(FaultInjection, ExhaustedRetriesFailTheBatchTyped) {
  // Four consecutive faults against three retries: the first batch fails
  // permanently with kFailed outcomes; the engine keeps serving and the
  // error is reported, not thrown at the submitter.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);

  InjectorGuard g(11);
  util::FaultPlan plan;
  plan.max_faults = 4;
  g.fi.arm(util::FaultSite::kStageExec, plan);

  ServingOptions opts = fast_opts();
  opts.fault_retries = 3;
  ServingEngine server(*backend, opts);
  const std::size_t kN = 100;
  for (std::size_t i = 0; i < kN; ++i) server.submit(i);
  server.drain();

  const auto s = server.stats();
  EXPECT_GE(s.num_failed, 1u);
  EXPECT_EQ(s.num_requests + s.num_failed, kN);
  EXPECT_FALSE(server.last_error().empty());

  // The stream continued past the failed batch: later batches served, and
  // a post-drain probe batch still executes cleanly (chronology intact).
  EXPECT_GE(s.num_requests, 1u);
  EXPECT_NO_THROW(backend->process_batch({kN, kN + 20}));
}

TEST(FaultInjection, PermanentFaultFailsOnlyItsBatch) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);

  InjectorGuard g(3);
  util::FaultPlan plan;
  plan.transient = false;  // not retryable
  plan.max_faults = 1;
  plan.skip_first = 2;  // fail the third batch, mid-stream
  g.fi.arm(util::FaultSite::kStageExec, plan);

  ServingOptions opts = fast_opts();
  opts.max_batch = 10;
  opts.max_wait_s = 10.0;  // deterministic batches of exactly 10
  ServingEngine server(*backend, opts);
  const std::size_t kN = 100;
  for (std::size_t i = 0; i < kN; ++i) server.submit(i);
  server.drain();

  const auto s = server.stats();
  EXPECT_EQ(s.num_failed, 10u);  // exactly one batch
  EXPECT_EQ(s.num_requests, kN - 10u);
  EXPECT_EQ(s.fault_retries, 0u);  // permanent faults are not retried

  // The failed batch is the third: indices 20..29 resolved kFailed.
  for (const auto& rec : server.outcome_log()) {
    const bool in_failed_batch = rec.index >= 20 && rec.index < 30;
    EXPECT_EQ(rec.outcome, in_failed_batch ? RequestOutcome::kFailed
                                           : RequestOutcome::kServed)
        << "index " << rec.index;
  }
}

TEST(FaultInjection, StageExecChecksPerBatch) {
  // Fault-site accounting per scheduler shape, with an injector installed
  // but not armed: 100 requests in exactly ten 10-edge batches.
  //   * serial cpu and 2-lane sharded-cpu: one worker visit per batch runs
  //     all four stages, so one kStageExec check per batch (10) and no
  //     channel handoff. PermanentFaultFailsOnlyItsBatch relies on this.
  //   * pipelined cpu: four single-stage visits per batch (40 kStageExec
  //     checks) and three pushes between stage workers (30 handoffs).
  struct Case {
    const char* key;
    std::size_t workers;
    bool pipelined;
    std::uint64_t stage_exec, handoff;
  };
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  for (const Case& c : {Case{"cpu", 1, false, 10, 0},
                        Case{"sharded-cpu", 2, false, 10, 0},
                        Case{"cpu", 1, true, 40, 30}}) {
    BackendOptions bopts;
    bopts.threads = 2;
    auto backend = make_backend(c.key, model, ds, bopts);
    InjectorGuard g(1);
    ServingOptions opts = fast_opts();
    opts.max_batch = 10;
    opts.max_wait_s = 10.0;
    opts.workers = c.workers;
    opts.pipelined = c.pipelined;
    {
      ServingEngine server(*backend, opts);
      for (std::size_t i = 0; i < 100; ++i) server.submit(i);
      server.drain();
      EXPECT_EQ(server.stats().num_batches, 10u) << c.key;
    }
    EXPECT_EQ(g.fi.checks(util::FaultSite::kStageExec), c.stage_exec)
        << c.key << " workers " << c.workers << " pipelined " << c.pipelined;
    EXPECT_EQ(g.fi.checks(util::FaultSite::kChannelHandoff), c.handoff)
        << c.key << " workers " << c.workers << " pipelined " << c.pipelined;
  }
}

/// Shared scenario for the threaded modes, where fault placement depends
/// on scheduling: the invariant is the acceptance contract itself —
/// every request ends in a typed outcome (served or failed), nothing
/// deadlocks, and the engine shuts down cleanly.
void expect_typed_outcomes_under_faults(const ServingOptions& base,
                                        const std::string& key,
                                        std::uint64_t seed,
                                        BackendOptions bopts = {}) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend(key, model, ds, bopts);

  InjectorGuard g(seed);
  util::FaultPlan stage;
  stage.probability = 0.05;
  stage.transient = true;
  g.fi.arm(util::FaultSite::kStageExec, stage);
  util::FaultPlan handoff;
  handoff.probability = 0.03;
  handoff.transient = false;  // permanent mid-pipeline drops
  handoff.max_faults = 2;
  g.fi.arm(util::FaultSite::kChannelHandoff, handoff);

  ServingOptions opts = base;
  opts.fault_retries = 8;  // transients at p=0.05 virtually never exhaust
  opts.retry_backoff_s = 1e-6;
  const std::size_t kN = 300;
  {
    ServingEngine server(*backend, opts);
    for (std::size_t i = 0; i < kN; ++i) server.submit(i);
    server.drain();

    const auto s = server.stats();
    EXPECT_EQ(s.num_requests + s.num_failed, kN) << key << " seed " << seed;
    // Everything resolved exactly once.
    std::vector<bool> seen(kN, false);
    for (const auto& rec : server.outcome_log()) {
      ASSERT_LT(rec.index, kN);
      EXPECT_FALSE(seen[rec.index]) << "index resolved twice";
      seen[rec.index] = true;
      EXPECT_TRUE(rec.outcome == RequestOutcome::kServed ||
                  rec.outcome == RequestOutcome::kFailed);
    }
    for (std::size_t i = 0; i < kN; ++i) EXPECT_TRUE(seen[i]);
    server.stop();  // explicit clean shutdown under armed injector
  }
  // Post-mortem probe: the state machine survived the faults.
  EXPECT_NO_THROW({
    util::set_fault_injector(nullptr);
    backend->process_batch({kN, kN + 20});
  });
}

TEST(FaultInjection, SeededMatrixSerial) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull})
    expect_typed_outcomes_under_faults(fast_opts(), "cpu", seed);
}

TEST(FaultInjection, SeededMatrixPipelined) {
  ServingOptions opts = fast_opts();
  opts.pipelined = true;
  for (const std::uint64_t seed : {1ull, 7ull, 42ull})
    expect_typed_outcomes_under_faults(opts, "cpu", seed);
}

TEST(FaultInjection, SeededMatrixPipelinedDeterministic) {
  ServingOptions opts = fast_opts();
  opts.pipelined = true;
  opts.deterministic = true;
  expect_typed_outcomes_under_faults(opts, "cpu", 7);
}

TEST(FaultInjection, SeededMatrixMultiWorker) {
  ServingOptions opts = fast_opts();
  opts.workers = 2;
  BackendOptions bopts;
  bopts.threads = 2;
  for (const std::uint64_t seed : {1ull, 7ull, 42ull})
    expect_typed_outcomes_under_faults(opts, "sharded-cpu", seed, bopts);
}

TEST(FaultInjection, PipelinedPermanentStageFaultAbortsCleanly) {
  // One permanent fault lands on a stage mid-pipeline; the slot must be
  // aborted (pins released, ledger unwound) and every later batch must
  // still flow through all four stages.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);

  InjectorGuard g(5);
  util::FaultPlan plan;
  plan.transient = false;
  plan.max_faults = 1;
  plan.skip_first = 6;
  g.fi.arm(util::FaultSite::kStageExec, plan);

  ServingOptions opts = fast_opts();
  opts.pipelined = true;
  ServingEngine server(*backend, opts);
  const std::size_t kN = 200;
  for (std::size_t i = 0; i < kN; ++i) server.submit(i);
  server.drain();

  const auto s = server.stats();
  EXPECT_GE(s.num_failed, 1u);
  EXPECT_EQ(s.num_requests + s.num_failed, kN);
  EXPECT_FALSE(server.last_error().empty());
}

}  // namespace
}  // namespace tgnn::runtime
