// The batched pipeline's kernel-level contracts:
//
//  * m-invariance — one m-row GEMM call is BIT-identical to m single-row
//    calls (the dispatched micro-kernels accumulate every output element
//    in a source-fixed lane order, so the row-blocking shape never shows);
//  * the segment kernels are exactly the per-row attention loops run over
//    packed CSR segments, including empty segments (zero-degree vertices)
//    and the softmax uniform fallback;
//  * the batched attention entry points equal their per-row counterparts
//    bit-for-bit.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "kernels/fused.hpp"
#include "nn/gru_cell.hpp"
#include "kernels/gemm.hpp"
#include "kernels/gemm_dispatch.hpp"
#include "kernels/segment.hpp"
#include "tensor/ops.hpp"
#include "tgnn/attention.hpp"
#include "tgnn/simplified_attention.hpp"
#include "util/rng.hpp"

namespace tgnn {
namespace {

TEST(BatchedKernels, GemmNtBatchedBitIdenticalToPerRow) {
  // Odd shapes on purpose: row tails (m % 4), column tails (n % 4), inner
  // tails (k % 8) all cross the micro-kernel boundaries.
  struct Shape {
    std::size_t m, k, n;
  };
  for (const Shape& s : {Shape{2, 7, 3}, Shape{5, 100, 100}, Shape{16, 472, 100},
                         Shape{17, 129, 31}, Shape{33, 64, 5}}) {
    Rng rng(3);
    const Tensor a = Tensor::randn(s.m, s.k, rng, 0.5f);
    const Tensor b = Tensor::randn(s.n, s.k, rng, 0.5f);
    Tensor batched(s.m, s.n), per_row(s.m, s.n);
    kernels::gemm_nt(a.data(), b.data(), batched.data(), s.m, s.k, s.n);
    for (std::size_t i = 0; i < s.m; ++i)
      kernels::gemm_nt(a.row(i).data(), b.data(), per_row.row(i).data(), 1,
                       s.k, s.n);
    for (std::size_t i = 0; i < batched.size(); ++i)
      EXPECT_EQ(batched[i], per_row[i])
          << "element " << i << " of " << s.m << "x" << s.k << "x" << s.n
          << " on " << kernels::simd_arch_name();
  }
}

TEST(BatchedKernels, AffineActBatchedBitIdenticalToPerRow) {
  Rng rng(5);
  const std::size_t m = 19, k = 37, n = 23;
  const Tensor x = Tensor::randn(m, k, rng, 0.5f);
  const Tensor w = Tensor::randn(n, k, rng, 0.5f);
  const Tensor b = Tensor::randn(n, 1, rng, 0.5f);
  Tensor batched, row_out;
  kernels::affine_sigmoid_into(x, w, b, batched);
  Tensor xi(1, k);
  for (std::size_t i = 0; i < m; ++i) {
    std::copy(x.row(i).begin(), x.row(i).end(), xi.row(0).begin());
    kernels::affine_sigmoid_into(xi, w, b, row_out);
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(batched(i, j), row_out(0, j)) << i << "," << j;
  }
}

TEST(BatchedKernels, GruForwardBatchedBitIdenticalToPerRow) {
  Rng rng(7);
  nn::GruCell gru("g", 29, 13, rng);
  const std::size_t m = 11;
  const Tensor x = Tensor::randn(m, 29, rng, 0.5f);
  const Tensor h = Tensor::randn(m, 13, rng, 0.5f);
  kernels::GruScratch ws;
  Tensor batched;
  gru.forward_into(x, h, ws, batched);

  Tensor xi(1, 29), hi(1, 13), row_out;
  kernels::GruScratch ws1;
  for (std::size_t i = 0; i < m; ++i) {
    std::copy(x.row(i).begin(), x.row(i).end(), xi.row(0).begin());
    std::copy(h.row(i).begin(), h.row(i).end(), hi.row(0).begin());
    gru.forward_into(xi, hi, ws1, row_out);
    for (std::size_t d = 0; d < 13; ++d)
      EXPECT_EQ(batched(i, d), row_out(0, d)) << i << "," << d;
  }
}

TEST(BatchedKernels, SegmentKernelsMatchPerSegmentLoops) {
  Rng rng(11);
  const std::size_t emb = 9;
  // Ragged segments including empties at the front, middle, and back.
  const std::vector<std::size_t> seg = {0, 0, 3, 3, 7, 8, 8};
  const std::size_t n_segs = seg.size() - 1, total = seg.back();
  const Tensor q = Tensor::randn(n_segs, emb, rng, 0.5f);
  const Tensor k = Tensor::randn(total, emb, rng, 0.5f);
  const Tensor v = Tensor::randn(total, emb, rng, 0.5f);

  std::vector<float> alpha(total), ref(total);
  kernels::segment_attention_logits(q.data(), k.data(), seg, emb,
                                    alpha.data());
  for (std::size_t s = 0; s < n_segs; ++s) {
    const std::size_t len = seg[s + 1] - seg[s];
    if (len == 0) continue;
    kernels::gemm_nt(q.row(s).data(), k.row(seg[s]).data(), ref.data() + seg[s],
                     1, emb, len);
    const float scale = 1.0f / std::sqrt(static_cast<float>(len));
    for (std::size_t r = seg[s]; r < seg[s + 1]; ++r) ref[r] *= scale;
  }
  EXPECT_EQ(alpha, ref);

  kernels::segment_softmax(alpha.data(), seg);
  for (std::size_t s = 0; s < n_segs; ++s) {
    const std::size_t len = seg[s + 1] - seg[s];
    if (len == 0) continue;
    ops::softmax_span({ref.data() + seg[s], len});
  }
  EXPECT_EQ(alpha, ref);

  const std::size_t stride = emb + 4;
  std::vector<float> out(n_segs * stride, -1.0f), out_ref(n_segs * stride,
                                                          -1.0f);
  kernels::segment_weighted_rowsum(alpha.data(), v.data(), seg, emb,
                                   out.data(), stride);
  // Row pointers by arithmetic: the trailing empty segment starts one past
  // the last row, which Tensor::row would (rightly) reject.
  for (std::size_t s = 0; s < n_segs; ++s)
    kernels::weighted_rowsum(ref.data() + seg[s], v.data() + seg[s] * emb,
                             out_ref.data() + s * stride,
                             seg[s + 1] - seg[s], emb);
  EXPECT_EQ(out, out_ref);
  // Empty segments zero-fill exactly emb columns; the stride padding stays.
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[emb], -1.0f);
}

TEST(BatchedKernels, SegmentSoftmaxUniformFallbackMatchesSoftmaxSpan) {
  // An all--inf segment (every slot masked) must fall back to the uniform
  // distribution exactly as ops::softmax_span does, independently per
  // segment.
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> v = {-inf, -inf, 1.0f, 2.0f, -inf};
  const std::vector<std::size_t> seg = {0, 2, 4, 5};
  std::vector<float> ref = v;
  kernels::segment_softmax(v.data(), seg);
  ops::softmax_span({ref.data() + 0, 2});
  ops::softmax_span({ref.data() + 2, 2});
  ops::softmax_span({ref.data() + 4, 1});
  EXPECT_EQ(v, ref);
  EXPECT_FLOAT_EQ(v[0], 0.5f);  // uniform fallback over the masked segment
  EXPECT_FLOAT_EQ(v[1], 0.5f);
}

core::ModelConfig small_cfg() {
  core::ModelConfig cfg;
  cfg.mem_dim = 9;  // odd on purpose
  cfg.time_dim = 5;
  cfg.emb_dim = 7;
  cfg.edge_dim = 3;
  cfg.num_neighbors = 5;
  return cfg;
}

TEST(BatchedKernels, VanillaForwardBatchBitIdenticalToPerRow) {
  const auto cfg = small_cfg();
  Rng rng(13);
  core::VanillaAttention att(cfg, rng);

  // 5 nodes with ragged degrees incl. two zero-degree ones.
  const std::vector<std::size_t> degrees = {0, 3, 5, 0, 1};
  const std::size_t n_nodes = degrees.size();
  std::vector<std::size_t> seg(n_nodes + 1, 0);
  for (std::size_t i = 0; i < n_nodes; ++i) seg[i + 1] = seg[i] + degrees[i];
  const Tensor f_self = Tensor::randn(n_nodes, cfg.mem_dim, rng, 0.5f);
  const Tensor q_in = Tensor::randn(n_nodes, cfg.q_in_dim(), rng, 0.5f);
  const Tensor kv_in = Tensor::randn(seg.back(), cfg.kv_in_dim(), rng, 0.5f);

  core::VanillaAttention::BatchScratch bs;
  Tensor batched(n_nodes, cfg.emb_dim);
  att.forward_batch_into(f_self, q_in, kv_in, seg, bs, batched);

  core::VanillaAttention::InferScratch ws;
  core::AttnNodeInput in;
  std::vector<float> row(cfg.emb_dim);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    in.q_in.resize(1, cfg.q_in_dim());
    std::copy(q_in.row(i).begin(), q_in.row(i).end(), in.q_in.row(0).begin());
    in.kv_in.resize(degrees[i], cfg.kv_in_dim());
    for (std::size_t j = 0; j < degrees[i]; ++j)
      std::copy(kv_in.row(seg[i] + j).begin(), kv_in.row(seg[i] + j).end(),
                in.kv_in.row(j).begin());
    att.forward_into(f_self.row(i), in, ws, row);
    for (std::size_t d = 0; d < cfg.emb_dim; ++d)
      EXPECT_EQ(batched(i, d), row[d]) << "node " << i << " dim " << d;
  }
}

TEST(BatchedKernels, SimplifiedAggregateBatchBitIdenticalToPerRow) {
  const auto cfg = small_cfg();
  Rng rng(17);
  core::SimplifiedAttention sat(cfg, rng);

  // Per-node dt lists of ragged validity (incl. a zero-degree node), scored
  // with a pruning budget so kept < valid on the full rows.
  const std::vector<std::vector<double>> dts = {
      {3.0, 6.0, 9.0}, {}, {2.0, 4.0, 6.0, 8.0, 10.0}, {5.0}};
  const std::size_t n_nodes = dts.size();
  std::vector<core::SimplifiedAttention::Scores> scores(n_nodes);
  std::vector<std::size_t> seg(n_nodes + 1, 0);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    scores[i] = sat.score(dts[i], /*budget=*/3);
    seg[i + 1] = seg[i] + scores[i].keep.size();
  }
  const Tensor f_self = Tensor::randn(n_nodes, cfg.mem_dim, rng, 0.5f);
  const Tensor v_in = Tensor::randn(seg.back(), cfg.kv_in_dim(), rng, 0.5f);
  std::vector<float> logits(seg.back());
  for (std::size_t i = 0; i < n_nodes; ++i)
    for (std::size_t idx = 0; idx < scores[i].keep.size(); ++idx)
      logits[seg[i] + idx] = scores[i].logits[scores[i].keep[idx]];

  core::SimplifiedAttention::BatchScratch bs;
  Tensor batched(n_nodes, cfg.emb_dim);
  sat.aggregate_batch_into(f_self, logits, v_in, seg, bs, batched);

  core::SimplifiedAttention::InferScratch ws;
  Tensor v_node;
  std::vector<float> row(cfg.emb_dim);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const std::size_t kept = scores[i].keep.size();
    v_node.resize(kept, cfg.kv_in_dim());
    for (std::size_t idx = 0; idx < kept; ++idx)
      std::copy(v_in.row(seg[i] + idx).begin(), v_in.row(seg[i] + idx).end(),
                v_node.row(idx).begin());
    sat.aggregate_into(f_self.row(i), scores[i], v_node, ws, row);
    for (std::size_t d = 0; d < cfg.emb_dim; ++d)
      EXPECT_EQ(batched(i, d), row[d]) << "node " << i << " dim " << d;
  }
}

}  // namespace
}  // namespace tgnn
