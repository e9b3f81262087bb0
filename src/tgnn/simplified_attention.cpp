#include "tgnn/simplified_attention.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "kernels/fused.hpp"
#include "kernels/gemm.hpp"
#include "kernels/segment.hpp"
#include "util/rng.hpp"

namespace tgnn::core {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Raw dt spans microseconds to days; W_t consumes log1p(dt) so the logits
// stay in a trainable range at every time scale. Monotone, so "older
// neighbor -> larger input" is preserved.
float dt_feature(double dt) { return std::log1p(static_cast<float>(std::max(0.0, dt))); }

}  // namespace

SimplifiedAttention::SimplifiedAttention(const ModelConfig& cfg, tgnn::Rng& rng)
    : a("sat.a", Tensor(cfg.num_neighbors)),
      wt("sat.wt",
         Tensor::randn(cfg.num_neighbors, cfg.num_neighbors, rng, 0.05f)),
      wv("sat.wv", cfg.kv_in_dim(), cfg.emb_dim, rng),
      wo("sat.wo", cfg.emb_dim + cfg.mem_dim, cfg.emb_dim, rng) {
  // Slight recency prior: newest slot (highest index) starts favored,
  // mirroring the intuition of Eq. 16 that chronology drives attention.
  const std::size_t mr = cfg.num_neighbors;
  for (std::size_t i = 0; i < mr; ++i)
    a.value[i] = 0.1f * static_cast<float>(i) / static_cast<float>(mr);
}

SimplifiedAttention::Scores SimplifiedAttention::score(
    const std::vector<double>& dts, std::size_t budget) const {
  Scores s;
  ScoreScratch ws;
  score_into(dts, budget, ws, s);
  return s;
}

void SimplifiedAttention::score_into(const std::vector<double>& dts,
                                     std::size_t budget, ScoreScratch& ws,
                                     Scores& s) const {
  const std::size_t mr = slots();
  if (dts.size() > mr)
    throw std::invalid_argument("SimplifiedAttention::score: too many dts");
  const std::size_t valid = dts.size();

  s.dts.assign(mr, 0.0);
  std::copy(dts.begin(), dts.end(), s.dts.begin());

  // logits = a + W_t * feat(dt); masked (empty) slots get -inf.
  s.logits.assign(mr, kNegInf);
  ws.feat.assign(mr, 0.0f);
  for (std::size_t j = 0; j < valid; ++j) ws.feat[j] = dt_feature(s.dts[j]);
  for (std::size_t i = 0; i < valid; ++i) {
    float acc = a.value[i];
    for (std::size_t j = 0; j < mr; ++j) acc += wt.value(i, j) * ws.feat[j];
    s.logits[i] = acc;
  }

  // Top-`budget` valid slots by logit (§III-B). Kept indices ascending so
  // downstream consumers keep the chronological slot order.
  const std::size_t k = std::min(budget == 0 ? valid : budget, valid);
  ws.order.resize(valid);
  std::iota(ws.order.begin(), ws.order.end(), 0);
  std::partial_sort(ws.order.begin(), ws.order.begin() + k, ws.order.end(),
                    [&](std::size_t x, std::size_t y) {
                      return s.logits[x] > s.logits[y];
                    });
  s.keep.assign(ws.order.begin(), ws.order.begin() + k);
  std::sort(s.keep.begin(), s.keep.end());
}

Tensor SimplifiedAttention::aggregate(std::span<const float> f_self,
                                      const Scores& scores, const Tensor& v_in,
                                      Cache* cache) const {
  const std::size_t kept = scores.keep.size();
  if (v_in.rows() != kept)
    throw std::invalid_argument("SimplifiedAttention::aggregate: rows != kept");
  const std::size_t emb = wv.out_dim();

  Tensor v, attn(1, emb);
  std::vector<float> alpha(kept, 0.0f);
  if (kept > 0) {
    v = wv.forward(v_in);
    // Softmax over the kept slots' logits only (paper: "apply softmax
    // function only on the temporal neighbors with top logit values").
    // softmax_span also guards the all-masked / non-finite row case.
    for (std::size_t idx = 0; idx < kept; ++idx)
      alpha[idx] = scores.logits[scores.keep[idx]];
    ops::softmax_span(alpha);
    for (std::size_t idx = 0; idx < kept; ++idx)
      for (std::size_t d = 0; d < emb; ++d) attn(0, d) += alpha[idx] * v(idx, d);
  }

  Tensor fo_in(1, emb + f_self.size());
  for (std::size_t d = 0; d < emb; ++d) fo_in(0, d) = attn(0, d);
  for (std::size_t d = 0; d < f_self.size(); ++d) fo_in(0, emb + d) = f_self[d];
  Tensor h = wo.forward(fo_in);

  if (cache) {
    cache->scores = scores;
    cache->alpha = std::move(alpha);
    cache->v_in = v_in;
    cache->v = std::move(v);
    cache->attn = std::move(attn);
    cache->fo_in = std::move(fo_in);
  }
  return h;
}

void SimplifiedAttention::aggregate_into(std::span<const float> f_self,
                                         const Scores& scores,
                                         const Tensor& v_in, InferScratch& ws,
                                         std::span<float> out) const {
  const std::size_t kept = scores.keep.size();
  if (v_in.rows() != kept)
    throw std::invalid_argument("SimplifiedAttention::aggregate: rows != kept");
  const std::size_t emb = wv.out_dim();

  ws.fo_in.resize(1, emb + f_self.size());
  float* fo = ws.fo_in.data();
  if (kept > 0) {
    wv.forward_into(v_in, ws.v);
    ws.alpha.resize(1, kept);
    for (std::size_t idx = 0; idx < kept; ++idx)
      ws.alpha[idx] = scores.logits[scores.keep[idx]];
    ops::softmax_span(ws.alpha.row(0));
    kernels::weighted_rowsum(ws.alpha.data(), ws.v.data(), fo, kept, emb);
  } else {
    std::fill(fo, fo + emb, 0.0f);
  }
  std::copy(f_self.begin(), f_self.end(), fo + emb);
  wo.forward_row_into(ws.fo_in.row(0), out);
}

void SimplifiedAttention::aggregate_batch_into(
    const Tensor& f_self, std::span<float> logits, const Tensor& v_in,
    std::span<const std::size_t> seg, BatchScratch& ws, Tensor& out,
    kernels::Precision p) const {
  const std::size_t n_nodes = f_self.rows();
  const std::size_t total = v_in.rows();
  const std::size_t emb = wv.out_dim();
  const std::size_t mem = f_self.cols();
  if (seg.size() != n_nodes + 1 || logits.size() != total ||
      (n_nodes > 0 && seg[n_nodes] != total))
    throw std::invalid_argument("aggregate_batch_into: segment mismatch");

  if (total > 0) {
    switch (p) {
      case kernels::Precision::kInt8:
        kernels::quantize_rows_into(v_in, ws.qv);
        wv.forward_q_into(ws.qv, ws.v);
        break;
      case kernels::Precision::kFp32:
        wv.forward_into(v_in, ws.v);
        break;
    }
  }

  // Kept-slot softmax per segment (softmax_span semantics, including the
  // uniform fallback on all-masked rows), then the alpha-weighted V sum
  // straight into the FTM staging matrix (empty segments zero-fill — the
  // zero-degree-vertex case).
  kernels::segment_softmax(logits.data(), seg);
  ws.fo_in.resize(n_nodes, emb + mem);
  kernels::segment_weighted_rowsum(logits.data(), ws.v.data(), seg, emb,
                                   ws.fo_in.data(), emb + mem);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const auto fs = f_self.row(i);
    std::copy(fs.begin(), fs.end(), ws.fo_in.row(i).begin() + emb);
  }

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

void SimplifiedAttention::prepare(kernels::Precision p) const {
  wv.prepare(p);
  wo.prepare(p);
}

SimplifiedAttention::InputGrads SimplifiedAttention::backward(const Cache& c,
                                                              const Tensor& dh) {
  const std::size_t kept = c.scores.keep.size();
  const std::size_t emb = wv.out_dim();
  const std::size_t mem = c.fo_in.cols() - emb;

  Tensor dfo_in = wo.backward(c.fo_in, dh);
  Tensor dattn(1, emb);
  InputGrads g;
  g.df_self = Tensor(1, mem);
  for (std::size_t d = 0; d < emb; ++d) dattn(0, d) = dfo_in(0, d);
  for (std::size_t d = 0; d < mem; ++d) g.df_self(0, d) = dfo_in(0, emb + d);

  if (kept == 0) {
    g.dv_in = Tensor(0, wv.in_dim());
    return g;
  }

  // attn = sum alpha_idx v_idx
  std::vector<float> dalpha(kept, 0.0f);
  Tensor dv(kept, emb);
  for (std::size_t idx = 0; idx < kept; ++idx) {
    float acc = 0.0f;
    for (std::size_t d = 0; d < emb; ++d) {
      acc += dattn(0, d) * c.v(idx, d);
      dv(idx, d) = c.alpha[idx] * dattn(0, d);
    }
    dalpha[idx] = acc;
  }
  // Softmax backward over kept slots.
  float dot = 0.0f;
  for (std::size_t idx = 0; idx < kept; ++idx) dot += c.alpha[idx] * dalpha[idx];
  std::vector<float> dlogits_kept(kept);
  for (std::size_t idx = 0; idx < kept; ++idx)
    dlogits_kept[idx] = c.alpha[idx] * (dalpha[idx] - dot);

  // Scatter into full-slot dlogits and push into a / W_t.
  std::vector<float> dlogits(slots(), 0.0f);
  for (std::size_t idx = 0; idx < kept; ++idx)
    dlogits[c.scores.keep[idx]] = dlogits_kept[idx];
  backward_logits(c.scores, dlogits);

  g.dv_in = wv.backward(c.v_in, dv);
  return g;
}

void SimplifiedAttention::backward_logits(const Scores& scores,
                                          std::span<const float> dlogits) {
  const std::size_t mr = slots();
  if (dlogits.size() != mr)
    throw std::invalid_argument("backward_logits: size mismatch");
  std::vector<float> feat(mr, 0.0f);
  for (std::size_t j = 0; j < mr; ++j) feat[j] = dt_feature(scores.dts[j]);
  for (std::size_t i = 0; i < mr; ++i) {
    const float dl = dlogits[i];
    if (dl == 0.0f || scores.logits[i] == kNegInf) continue;
    a.grad[i] += dl;
    for (std::size_t j = 0; j < mr; ++j) wt.grad(i, j) += dl * feat[j];
  }
}

std::vector<nn::Parameter*> SimplifiedAttention::parameters() {
  std::vector<nn::Parameter*> out = {&a, &wt};
  for (auto* l : {&wv, &wo})
    for (auto* p : l->parameters()) out.push_back(p);
  return out;
}

}  // namespace tgnn::core
