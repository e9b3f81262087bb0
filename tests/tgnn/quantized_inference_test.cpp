// Engine-level acceptance of the quantized inference path (DESIGN.md "The
// quantized inference path"):
//
//  * an int8 engine tracks the fp32 engine closely over a whole stream —
//    the per-batch embedding error stays within the 8-bit budget even
//    though quantization error feeds back through the persistent memory;
//  * ΔAP between the fp32 and int8 engines on the same stream and the same
//    negative draws is within the paper-style 0.01 budget;
//  * a non-fp32 precision FORCES the batched GNN pipeline, so a per-row-
//    configured int8 engine is bit-identical to a batched one;
//  * ModelConfig::inference_precision is picked up at engine construction.
#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.hpp"
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

ModelConfig small_cfg(AttentionKind attn, std::size_t edge_dim) {
  ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 6;
  cfg.edge_dim = edge_dim;
  cfg.num_neighbors = 5;
  cfg.attention = attn;
  return cfg;
}

/// Max |a - b| over two engines' embeddings streamed in lock-step.
double stream_max_err(const data::Dataset& ds, InferenceEngine& a,
                      InferenceEngine& b, std::size_t batch_size = 100) {
  double max_err = 0.0;
  for (const auto& r :
       ds.graph.fixed_size_batches(0, ds.graph.num_edges(), batch_size)) {
    const auto ra = a.process_batch(r);
    const auto rb = b.process_batch(r);
    EXPECT_EQ(ra.nodes, rb.nodes);
    for (std::size_t i = 0; i < ra.embeddings.size(); ++i)
      max_err = std::max(max_err, std::fabs(double(ra.embeddings[i]) -
                                            double(rb.embeddings[i])));
  }
  return max_err;
}

TEST(QuantizedInference, Int8TracksFp32AcrossTheStream) {
  for (AttentionKind attn :
       {AttentionKind::kVanilla, AttentionKind::kSimplified}) {
    const auto ds = tiny_ds();
    TgnModel model(small_cfg(attn, ds.edge_dim()), 7);
    InferenceEngine fp32(model, ds);
    InferenceEngine int8(model, ds);
    int8.set_precision(kernels::Precision::kInt8);
    EXPECT_EQ(int8.precision(), kernels::Precision::kInt8);
    const double err = stream_max_err(ds, fp32, int8);
    EXPECT_GT(err, 0.0);    // it IS a different numeric path
    EXPECT_LT(err, 0.25);   // but within the 8-bit budget, drift included
  }
}

TEST(QuantizedInference, NonFp32ForcesBatchedPipeline) {
  // A per-row-configured int8 engine must silently run the batched GNN
  // pipeline (dynamic activation quantization only amortizes over batched
  // panels) — so it is bit-identical to an explicitly batched int8 engine.
  const auto ds = tiny_ds();
  TgnModel model(small_cfg(AttentionKind::kVanilla, ds.edge_dim()), 7);
  InferenceEngine batched(model, ds);
  batched.set_precision(kernels::Precision::kInt8);
  InferenceEngine per_row(model, ds);
  per_row.set_batched_gnn(false);
  per_row.set_precision(kernels::Precision::kInt8);
  for (const auto& r :
       ds.graph.fixed_size_batches(0, ds.graph.num_edges(), 100)) {
    const auto a = batched.process_batch(r);
    const auto b = per_row.process_batch(r);
    ASSERT_EQ(a.nodes, b.nodes);
    for (std::size_t i = 0; i < a.embeddings.size(); ++i)
      ASSERT_EQ(a.embeddings[i], b.embeddings[i]) << "element " << i;
  }
}

TEST(QuantizedInference, ConfigPrecisionPickedUpAtConstruction) {
  const auto ds = tiny_ds();
  auto cfg = small_cfg(AttentionKind::kVanilla, ds.edge_dim());
  cfg.inference_precision = kernels::Precision::kInt8;
  TgnModel model(cfg, 7);
  InferenceEngine engine(model, ds);
  EXPECT_EQ(engine.precision(), kernels::Precision::kInt8);

  // And it really runs the quantized numerics: identical to an engine
  // switched explicitly.
  TgnModel fmodel(small_cfg(AttentionKind::kVanilla, ds.edge_dim()), 7);
  InferenceEngine explicit_int8(fmodel, ds);
  explicit_int8.set_precision(kernels::Precision::kInt8);
  const double err = stream_max_err(ds, engine, explicit_int8);
  EXPECT_EQ(err, 0.0);
}

TEST(QuantizedInference, DeltaApWithinBudget) {
  // The acceptance bound the quantized path ships under: ΔAP <= 0.01
  // against fp32 on the same stream with the same negative draws.
  const auto ds = tiny_ds();
  const auto cfg = small_cfg(AttentionKind::kVanilla, ds.edge_dim());
  TgnModel model(cfg, 7);
  Rng drng(3);
  const Decoder dec(cfg, drng);

  InferenceEngine fp32(model, ds);
  fp32.warmup({0, ds.val_end});
  Rng rng_a(5);
  const double ap_fp32 = fp32.evaluate_ap(ds.test_range(), dec, 50, rng_a);

  InferenceEngine int8(model, ds);
  int8.set_precision(kernels::Precision::kInt8);
  int8.warmup({0, ds.val_end});
  Rng rng_b(5);
  const double ap_int8 = int8.evaluate_ap(ds.test_range(), dec, 50, rng_b);

  EXPECT_LE(std::fabs(ap_fp32 - ap_int8), 0.01)
      << "fp32 AP " << ap_fp32 << " vs int8 AP " << ap_int8;
}

}  // namespace
}  // namespace tgnn::core
