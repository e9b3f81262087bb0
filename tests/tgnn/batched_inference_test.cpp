// Engine-level acceptance of the batch-level inference pipeline: the
// batched gather -> batched-GEMM -> scatter GNN stage must be BIT-identical
// to the legacy per-row path — across attention variants, ragged batch
// sizes (1, prime, large), pruning, zero-degree vertices (cold extras), and
// every CPU execution mode (serial, OpenMP cpu-mt, sharded-cpu lanes).
#include <gtest/gtest.h>

#include <omp.h>

#include <thread>

#include "data/synthetic.hpp"
#include "runtime/cpu_backend.hpp"
#include "tensor/ops.hpp"
#include "tgnn/decoder.hpp"
#include "tgnn/inference.hpp"
#include "util/rng.hpp"

namespace tgnn::core {
namespace {

data::Dataset tiny_ds(std::size_t edge_dim = 6) {
  data::SyntheticConfig dcfg;
  dcfg.num_users = 40;
  dcfg.num_items = 15;
  dcfg.num_edges = 600;
  dcfg.edge_dim = edge_dim;
  dcfg.seed = 33;
  return data::make_synthetic(dcfg);
}

ModelConfig small_cfg(AttentionKind attn, std::size_t edge_dim,
                      std::size_t prune_budget = 0) {
  ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 6;
  cfg.edge_dim = edge_dim;
  cfg.num_neighbors = 5;
  cfg.prune_budget = prune_budget;
  cfg.attention = attn;
  return cfg;
}

/// Stream `ds` through a batched and a per-row engine in lock-step and
/// require bit-identical embeddings on every batch. `extras_every` > 0
/// adds never-seen (zero-degree) extra vertices to each batch.
void expect_lockstep_identical(const data::Dataset& ds, const TgnModel& model,
                               std::size_t batch_size,
                               std::size_t extras_every = 0) {
  InferenceEngine batched(model, ds);
  InferenceEngine per_row(model, ds);
  per_row.set_batched_gnn(false);
  ASSERT_TRUE(batched.batched_gnn());
  ASSERT_FALSE(per_row.batched_gnn());

  std::vector<graph::NodeId> extras;
  for (const auto& b :
       ds.graph.fixed_size_batches(0, ds.graph.num_edges(), batch_size)) {
    extras.clear();
    if (extras_every > 0) {
      // Cold vertices: valid ids that never appear in the edge stream, so
      // they have no history — zero-degree, empty mailbox, zero memory.
      extras.push_back(ds.graph.num_nodes() - 1);
      extras.push_back(ds.graph.num_nodes() - 2);
    }
    const auto a = batched.process_batch(b, extras);
    const auto r = per_row.process_batch(b, extras);
    ASSERT_EQ(a.nodes, r.nodes);
    ASSERT_EQ(a.embeddings.rows(), r.embeddings.rows());
    EXPECT_EQ(ops::max_abs_diff(a.embeddings, r.embeddings), 0.0f)
        << "batch [" << b.begin << "," << b.end << ")";
  }
}

TEST(BatchedInference, VanillaBitIdenticalAcrossBatchSizes) {
  const auto ds = tiny_ds();
  const TgnModel model(small_cfg(AttentionKind::kVanilla, ds.edge_dim()), 1);
  for (const std::size_t batch : {1u, 7u, 97u})  // ragged: 1, primes
    expect_lockstep_identical(ds, model, batch);
}

TEST(BatchedInference, SimplifiedWithPruningBitIdentical) {
  const auto ds = tiny_ds();
  const TgnModel model(
      small_cfg(AttentionKind::kSimplified, ds.edge_dim(), /*prune=*/3), 1);
  for (const std::size_t batch : {1u, 13u, 80u})
    expect_lockstep_identical(ds, model, batch);
}

TEST(BatchedInference, ZeroDegreeExtrasBitIdentical) {
  // Cold negative-sample vertices exercise the empty-segment path (and the
  // per-row neighborless path) on every batch, for both variants.
  const auto ds = tiny_ds();
  for (const auto kind : {AttentionKind::kVanilla, AttentionKind::kSimplified}) {
    const TgnModel model(small_cfg(kind, ds.edge_dim()), 1);
    expect_lockstep_identical(ds, model, 50, /*extras_every=*/1);
  }
}

TEST(BatchedInference, NoEdgeFeaturesBitIdentical) {
  // edge_dim == 0 shifts every kv gather offset; keep both paths honest.
  const auto ds = tiny_ds(/*edge_dim=*/0);
  for (const auto kind : {AttentionKind::kVanilla, AttentionKind::kSimplified}) {
    const TgnModel model(small_cfg(kind, ds.edge_dim()), 1);
    expect_lockstep_identical(ds, model, 60);
  }
}

TEST(BatchedInference, CpuMtMatchesSerialPerRow) {
  // cpu-mt splits the batch matrices across OpenMP threads (gather loops +
  // GEMM row panels); bits must not move relative to the serial per-row
  // engine.
  const auto ds = tiny_ds();
  const TgnModel model(
      small_cfg(AttentionKind::kSimplified, ds.edge_dim(), /*prune=*/3), 1);

  runtime::BackendOptions opts;
  opts.threads = 2;
  auto mt = runtime::make_backend("cpu-mt", model, ds, opts);
  auto* cpu = dynamic_cast<runtime::CpuBackend*>(mt.get());
  ASSERT_NE(cpu, nullptr);
  ASSERT_TRUE(cpu->engine().batched_gnn());
  InferenceEngine per_row(model, ds);
  per_row.set_batched_gnn(false);

  // process_batch binds the backend's two OpenMP threads on this thread.
  for (const auto& b : ds.graph.fixed_size_batches(0, 400, 37)) {
    const auto a = mt->process_batch(b);
    const auto r = per_row.process_batch(b);
    ASSERT_EQ(a.functional.nodes, r.nodes);
    EXPECT_EQ(ops::max_abs_diff(a.functional.embeddings, r.embeddings), 0.0f);
  }
  omp_set_num_threads(std::max(1, static_cast<int>(
                                      std::thread::hardware_concurrency())));
}

TEST(BatchedInference, ShardedCpuMatchesSerialPerRow) {
  const auto ds = tiny_ds();
  const TgnModel model(
      small_cfg(AttentionKind::kSimplified, ds.edge_dim(), /*prune=*/3), 1);

  runtime::BackendOptions opts;
  opts.threads = 2;
  opts.shards = 8;
  auto sharded = runtime::make_backend("sharded-cpu", model, ds, opts);
  InferenceEngine per_row(model, ds);
  per_row.set_batched_gnn(false);

  for (const auto& b : ds.graph.fixed_size_batches(0, 400, 53)) {
    const auto a = sharded->process_batch(b);
    const auto r = per_row.process_batch(b);
    ASSERT_EQ(a.functional.nodes, r.nodes);
    EXPECT_EQ(ops::max_abs_diff(a.functional.embeddings, r.embeddings), 0.0f);
  }
}

TEST(BatchedInference, EvaluateApMatchesPerRowEngine) {
  // The batched decoder scoring in evaluate_ap must reproduce the per-row
  // engine's AP exactly (same embeddings, same pair scores, same order).
  const auto ds = tiny_ds();
  const TgnModel model(small_cfg(AttentionKind::kVanilla, ds.edge_dim()), 1);
  Rng drng(9);
  const Decoder dec(model.config(), drng);

  InferenceEngine batched(model, ds);
  InferenceEngine per_row(model, ds);
  per_row.set_batched_gnn(false);
  Rng rng_a(42), rng_b(42);
  const double ap_a =
      batched.evaluate_ap({0, ds.graph.num_edges()}, dec, 64, rng_a);
  const double ap_b =
      per_row.evaluate_ap({0, ds.graph.num_edges()}, dec, 64, rng_b);
  EXPECT_EQ(ap_a, ap_b);
}

TEST(BatchedInference, WorkspaceGrowthSurvivesRaggedBatches) {
  // Batches of wildly varying size reuse one workspace; after the first
  // large batch, smaller and equal-sized ones must not reallocate the
  // batched staging matrices (pointers stable = allocation-free steady
  // state).
  const auto ds = tiny_ds();
  const TgnModel model(small_cfg(AttentionKind::kVanilla, ds.edge_dim()), 1);
  InferenceEngine eng(model, ds);
  eng.reserve_workspace(128);
  (void)eng.process_batch({0, 128});
  (void)eng.process_batch({128, 129});   // batch of 1
  (void)eng.process_batch({129, 256});
  SUCCEED();  // exercised: growth policy + ragged reuse without UB (ASan/
              // UBSan builds catch violations; functional bits are covered
              // by the lock-step tests above)
}

}  // namespace
}  // namespace tgnn::core
