#include "tgnn/attention.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "kernels/fused.hpp"
#include "kernels/gemm.hpp"
#include "kernels/segment.hpp"
#include "util/rng.hpp"

namespace tgnn::core {

VanillaAttention::VanillaAttention(const ModelConfig& cfg, tgnn::Rng& rng)
    : wq("attn.wq", cfg.q_in_dim(), cfg.emb_dim, rng),
      wk("attn.wk", cfg.kv_in_dim(), cfg.emb_dim, rng),
      wv("attn.wv", cfg.kv_in_dim(), cfg.emb_dim, rng),
      wo("attn.wo", cfg.emb_dim + cfg.mem_dim, cfg.emb_dim, rng) {}

Tensor VanillaAttention::forward(std::span<const float> f_self,
                                 const AttnNodeInput& in, Cache* cache) const {
  const std::size_t n = in.kv_in.rows();
  const std::size_t emb = wq.out_dim();

  Tensor q = wq.forward(in.q_in);  // [1, emb]
  Tensor k, v, logits, alpha, attn(1, emb);
  if (n > 0) {
    k = wk.forward(in.kv_in);  // [n, emb]
    v = wv.forward(in.kv_in);  // [n, emb]
    const float scale = 1.0f / std::sqrt(static_cast<float>(n));
    logits = Tensor(1, n);
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t d = 0; d < emb; ++d) acc += q(0, d) * k(j, d);
      logits(0, j) = acc * scale;
    }
    alpha = logits;
    ops::softmax_span(alpha.row(0));
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t d = 0; d < emb; ++d) attn(0, d) += alpha(0, j) * v(j, d);
  }

  // FTM: h = W_o [attn || f'_i] + b_o
  Tensor fo_in(1, emb + f_self.size());
  for (std::size_t d = 0; d < emb; ++d) fo_in(0, d) = attn(0, d);
  for (std::size_t d = 0; d < f_self.size(); ++d)
    fo_in(0, emb + d) = f_self[d];
  Tensor h = wo.forward(fo_in);

  if (cache) {
    cache->in = in;
    cache->q = std::move(q);
    cache->k = std::move(k);
    cache->v = std::move(v);
    cache->logits = std::move(logits);
    cache->alpha = std::move(alpha);
    cache->attn = std::move(attn);
    cache->fo_in = std::move(fo_in);
  }
  return h;
}

void VanillaAttention::forward_into(std::span<const float> f_self,
                                    const AttnNodeInput& in, InferScratch& ws,
                                    std::span<float> out) const {
  const std::size_t n = in.kv_in.rows();
  const std::size_t emb = wq.out_dim();

  ws.fo_in.resize(1, emb + f_self.size());
  float* fo = ws.fo_in.data();
  if (n > 0) {
    // q feeds only the logits, so a neighborless node skips the projection.
    wq.forward_into(in.q_in, ws.q);
    wk.forward_into(in.kv_in, ws.k);
    wv.forward_into(in.kv_in, ws.v);
    // logits = q Kᵀ / sqrt(n), softmaxed in place, then attn = alpha V
    // accumulated straight into the FTM input's first emb columns.
    ws.alpha.resize(1, n);
    kernels::gemm_nt(ws.q.data(), ws.k.data(), ws.alpha.data(), 1, emb, n);
    const float scale = 1.0f / std::sqrt(static_cast<float>(n));
    for (std::size_t j = 0; j < n; ++j) ws.alpha[j] *= scale;
    ops::softmax_span(ws.alpha.row(0));
    kernels::weighted_rowsum(ws.alpha.data(), ws.v.data(), fo, n, emb);
  } else {
    std::fill(fo, fo + emb, 0.0f);
  }
  std::copy(f_self.begin(), f_self.end(), fo + emb);
  wo.forward_row_into(ws.fo_in.row(0), out);
}

void VanillaAttention::forward_batch_into(
    const Tensor& f_self, const Tensor& q_in, const Tensor& kv_in,
    std::span<const std::size_t> seg, BatchScratch& ws, Tensor& out,
    kernels::Precision p) const {
  const std::size_t n_nodes = q_in.rows();
  const std::size_t total = kv_in.rows();
  const std::size_t emb = wq.out_dim();
  const std::size_t mem = f_self.cols();
  if (seg.size() != n_nodes + 1 || f_self.rows() != n_nodes ||
      (n_nodes > 0 && seg[n_nodes] != total))
    throw std::invalid_argument("forward_batch_into: segment mismatch");

  // Whole-batch projections. q rows of neighborless nodes are computed but
  // never read (their segment is empty) — the GEMM is cheaper batched than
  // branched. Under int8 each staged panel is quantized ONCE; the kv panel
  // feeds both the wk and wv GEMMs.
  switch (p) {
    case kernels::Precision::kInt8:
      kernels::quantize_rows_into(q_in, ws.qq);
      wq.forward_q_into(ws.qq, ws.q);
      if (total > 0) {
        kernels::quantize_rows_into(kv_in, ws.qkv);
        wk.forward_q_into(ws.qkv, ws.k);
        wv.forward_q_into(ws.qkv, ws.v);
      }
      break;
    case kernels::Precision::kFp32:
      wq.forward_into(q_in, ws.q);
      if (total > 0) {
        wk.forward_into(kv_in, ws.k);
        wv.forward_into(kv_in, ws.v);
      }
      break;
  }

  // Ragged attention: per-segment scaled logits -> softmax -> weighted
  // rowsum straight into the FTM staging matrix's first emb columns (empty
  // segments zero-fill, the neighborless-node case).
  ws.alpha.resize(total);
  kernels::segment_attention_logits(ws.q.data(), ws.k.data(), seg, emb,
                                    ws.alpha.data());
  kernels::segment_softmax(ws.alpha.data(), seg);
  ws.fo_in.resize(n_nodes, emb + mem);
  kernels::segment_weighted_rowsum(ws.alpha.data(), ws.v.data(), seg, emb,
                                   ws.fo_in.data(), emb + mem);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const auto fs = f_self.row(i);
    std::copy(fs.begin(), fs.end(), ws.fo_in.row(i).begin() + emb);
  }

  // FTM over the whole batch, written straight into the embeddings matrix.
  switch (p) {
    case kernels::Precision::kInt8:
      kernels::quantize_rows_into(ws.fo_in, ws.qfo);
      wo.forward_q_into(ws.qfo, out);
      break;
    case kernels::Precision::kFp32:
      wo.forward_into(ws.fo_in, out);
      break;
  }
}

void VanillaAttention::prepare(kernels::Precision p) const {
  for (const auto* l : {&wq, &wk, &wv, &wo}) l->prepare(p);
}

std::vector<float> VanillaAttention::logits(std::span<const float> /*f_self*/,
                                            const AttnNodeInput& in) const {
  const std::size_t n = in.kv_in.rows();
  std::vector<float> out(n, 0.0f);
  if (n == 0) return out;
  Tensor q = wq.forward(in.q_in);
  Tensor k = wk.forward(in.kv_in);
  const std::size_t emb = wq.out_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(n));
  for (std::size_t j = 0; j < n; ++j) {
    float acc = 0.0f;
    for (std::size_t d = 0; d < emb; ++d) acc += q(0, d) * k(j, d);
    out[j] = acc * scale;
  }
  return out;
}

VanillaAttention::InputGrads VanillaAttention::backward(const Cache& c,
                                                        const Tensor& dh) {
  const std::size_t n = c.in.kv_in.rows();
  const std::size_t emb = wq.out_dim();
  const std::size_t mem = c.fo_in.cols() - emb;

  // FTM backward.
  Tensor dfo_in = wo.backward(c.fo_in, dh);  // [1, emb+mem]
  Tensor dattn(1, emb);
  InputGrads g;
  g.df_self = Tensor(1, mem);
  for (std::size_t d = 0; d < emb; ++d) dattn(0, d) = dfo_in(0, d);
  for (std::size_t d = 0; d < mem; ++d) g.df_self(0, d) = dfo_in(0, emb + d);

  Tensor dq(1, emb);
  if (n > 0) {
    // attn = sum_j alpha_j v_j
    Tensor dalpha(1, n), dv(n, emb);
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t d = 0; d < emb; ++d) {
        acc += dattn(0, d) * c.v(j, d);
        dv(j, d) = c.alpha(0, j) * dattn(0, d);
      }
      dalpha(0, j) = acc;
    }
    // Softmax backward: dlogit_j = alpha_j * (dalpha_j - sum_k alpha_k dalpha_k)
    float dot = 0.0f;
    for (std::size_t j = 0; j < n; ++j) dot += c.alpha(0, j) * dalpha(0, j);
    Tensor dlogits(1, n);
    for (std::size_t j = 0; j < n; ++j)
      dlogits(0, j) = c.alpha(0, j) * (dalpha(0, j) - dot);

    // logits_j = scale * q . k_j
    const float scale = 1.0f / std::sqrt(static_cast<float>(n));
    Tensor dk(n, emb);
    for (std::size_t j = 0; j < n; ++j) {
      const float dl = dlogits(0, j) * scale;
      for (std::size_t d = 0; d < emb; ++d) {
        dq(0, d) += dl * c.k(j, d);
        dk(j, d) = dl * c.q(0, d);
      }
    }
    // Linear backwards accumulate param grads and give input grads.
    g.dkv_in = wk.backward(c.in.kv_in, dk);
    g.dkv_in += wv.backward(c.in.kv_in, dv);
  } else {
    g.dkv_in = Tensor(0, wk.in_dim());
  }
  g.dq_in = wq.backward(c.in.q_in, dq);
  return g;
}

std::vector<nn::Parameter*> VanillaAttention::parameters() {
  std::vector<nn::Parameter*> out;
  for (auto* l : {&wq, &wk, &wv, &wo})
    for (auto* p : l->parameters()) out.push_back(p);
  return out;
}

}  // namespace tgnn::core
