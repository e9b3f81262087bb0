// The serving scheduler's hazard ledger and its audit: the admission
// invariant — no two in-flight batches with intersecting write footprints —
// restated over raw footprints and proven falsifiable, plus the ledger's
// blocking and release rules. The engine-level integration (audit after
// every multi-slot admission) only runs under -DTGNN_CHECKED=ON; the
// primitive itself is always available, so its contract is pinned in every
// build.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "data/synthetic.hpp"
#include "runtime/serving.hpp"
#include "util/check.hpp"

namespace tgnn::runtime {
namespace {

using Footprint = std::vector<graph::NodeId>;

std::vector<std::span<const graph::NodeId>> views(
    const std::vector<Footprint>& fps) {
  return {fps.begin(), fps.end()};
}

TEST(HazardAudit, DisjointFootprintsPass) {
  const std::vector<Footprint> fps{{1, 2, 3}, {4, 5}, {}, {6}};
  audit_disjoint_footprints(views(fps));
  audit_disjoint_footprints({});  // vacuously disjoint
  SUCCEED();
}

TEST(HazardAuditDeathTest, IntersectingFootprintsAbort) {
  const std::vector<Footprint> fps{{1, 2, 3}, {4, 5}, {5, 6}};
  EXPECT_DEATH(audit_disjoint_footprints(views(fps)), "hazard audit");
  // A duplicate WITHIN one footprint is the same corruption (it would
  // double-mark the ledger and double-release at completion).
  const std::vector<Footprint> dup{{7, 8, 7}};
  EXPECT_DEATH(audit_disjoint_footprints(views(dup)), "hazard audit");
}

TEST(HazardLedger, WriteWriteOverlapBlocks) {
  HazardLedger ledger(16);
  const Footprint w1{1, 2}, w2{2, 3}, w3{3, 4};
  ledger.acquire(w1, {});
  EXPECT_FALSE(ledger.writes_clear(w2));
  EXPECT_TRUE(ledger.writes_clear(w3));
  ledger.release(w1, {});
  EXPECT_TRUE(ledger.writes_clear(w2));
  EXPECT_TRUE(ledger.empty());
}

TEST(HazardLedger, ReadOfInFlightWriteBlocks) {
  HazardLedger ledger(16);
  const Footprint w{1, 2}, overlapping{2, 5}, apart{5, 6};
  ledger.acquire(w, {});
  EXPECT_FALSE(ledger.reads_clear(overlapping));
  EXPECT_TRUE(ledger.reads_clear(apart));
  ledger.release(w, {});
  EXPECT_TRUE(ledger.reads_clear(overlapping));
  EXPECT_TRUE(ledger.empty());
}

TEST(HazardLedger, ReadReadOverlapDoesNotBlock) {
  HazardLedger ledger(16);
  const Footprint w1{1}, w2{2}, r{5, 6};
  ledger.acquire(w1, r);
  EXPECT_TRUE(ledger.reads_clear(r));    // a second reader may enter ...
  EXPECT_FALSE(ledger.writes_clear(r));  // ... a writer of those rows not
  ledger.acquire(w2, r);
  ledger.release(w1, r);
  ledger.release(w2, r);
  EXPECT_TRUE(ledger.empty());
}

TEST(HazardLedger, SharedReadFootprintsReleaseIndependently) {
  HazardLedger ledger(16);
  const Footprint w1{1}, w2{2}, r1{5, 7}, r2{5, 8};
  ledger.acquire(w1, r1);
  ledger.acquire(w2, r2);
  ledger.release(w1, r1);
  const Footprint shared{5}, only_first{7}, only_second{8};
  EXPECT_FALSE(ledger.writes_clear(shared));  // still read by the second
  EXPECT_TRUE(ledger.writes_clear(only_first));
  EXPECT_FALSE(ledger.writes_clear(only_second));
  EXPECT_FALSE(ledger.empty());
  ledger.release(w2, r2);
  EXPECT_TRUE(ledger.writes_clear(shared));
  EXPECT_TRUE(ledger.empty());
}

TEST(HazardLedgerDeathTest, ReleasingAnUnacquiredIdDies) {
  if constexpr (!util::kCheckedBuild)
    GTEST_SKIP() << "the release-underflow check runs in checked builds only";
  HazardLedger ledger(8);
  const Footprint w{3};
  EXPECT_DEATH(ledger.release(w, {}), "release underflow");
}

TEST(HazardAudit, CheckedPipelinedServingRunsTheAuditCleanly) {
  // End-to-end: drive both multi-slot shapes — the pipeline and two lanes —
  // whose ledger, in checked builds, audits the in-flight footprints at
  // every admission, over a real stream. Passing means every admission the
  // engine actually made kept the footprints disjoint — in unchecked
  // builds this degrades to a plain serving smoke test.
  data::SyntheticConfig dcfg;
  dcfg.num_users = 40;
  dcfg.num_items = 25;
  dcfg.num_edges = 600;
  dcfg.edge_dim = 5;
  dcfg.seed = 11;
  const auto ds = data::make_synthetic(dcfg);

  core::ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 6;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 4;
  core::TgnModel model(cfg, 1);

  struct Shape {
    const char* key;
    bool pipelined;
    std::size_t workers;
  };
  for (const Shape& shape :
       {Shape{"cpu", true, 1}, Shape{"sharded-cpu", false, 2}}) {
    BackendOptions bopts;
    bopts.threads = 2;
    auto backend = make_backend(shape.key, model, ds, bopts);
    ServingOptions opts;
    opts.pipelined = shape.pipelined;
    opts.workers = shape.workers;
    opts.max_batch = 16;
    opts.max_wait_s = 0.0;  // dispatch eagerly: maximize concurrent batches
    ServingEngine engine(*backend, opts);
    for (std::size_t i = 0; i < 300; ++i) engine.submit(i);
    engine.drain();
    engine.stop();
    const auto stats = engine.stats();
    EXPECT_EQ(stats.num_requests, 300u) << shape.key;
  }
}

}  // namespace
}  // namespace tgnn::runtime
