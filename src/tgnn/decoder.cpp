#include "tgnn/decoder.hpp"

#include <stdexcept>

#include "kernels/fused.hpp"
#include "util/rng.hpp"

namespace tgnn::core {

Decoder::Decoder(const ModelConfig& cfg, tgnn::Rng& rng)
    : l1("decoder.l1", 3 * cfg.emb_dim, cfg.decoder_hidden, rng),
      l2("decoder.l2", cfg.decoder_hidden, 1, rng) {}

void Decoder::build_pair(std::span<const float> hu, std::span<const float> hv,
                         std::span<float> out) {
  const std::size_t d = hu.size();
  if (hv.size() != d || out.size() != 3 * d)
    throw std::invalid_argument("Decoder::build_pair: size mismatch");
  for (std::size_t i = 0; i < d; ++i) {
    out[i] = hu[i];
    out[d + i] = hv[i];
    out[2 * d + i] = hu[i] * hv[i];
  }
}

void Decoder::route_pair_grad(std::span<const float> dx,
                              std::span<const float> hu,
                              std::span<const float> hv, std::span<float> dhu,
                              std::span<float> dhv) {
  const std::size_t d = hu.size();
  for (std::size_t i = 0; i < d; ++i) {
    dhu[i] += dx[i] + dx[2 * d + i] * hv[i];
    dhv[i] += dx[d + i] + dx[2 * d + i] * hu[i];
  }
}

Tensor Decoder::forward(const Tensor& x, Cache* cache) const {
  Tensor hidden = l1.forward(x);
  ops::relu_inplace(hidden);
  Tensor logits = l2.forward(hidden);
  if (cache) {
    cache->x = x;
    cache->hidden = std::move(hidden);
  }
  return logits;
}

const Tensor& Decoder::forward_into(const Tensor& x, InferScratch& ws,
                                    kernels::Precision p) const {
  switch (p) {
    case kernels::Precision::kInt8:
      kernels::quantize_rows_into(x, ws.qx);
      l1.forward_q_relu_into(ws.qx, ws.hidden);
      kernels::quantize_rows_into(ws.hidden, ws.qh);
      l2.forward_q_into(ws.qh, ws.logits);
      break;
    case kernels::Precision::kFp32:
      l1.forward_relu_into(x, ws.hidden);
      l2.forward_into(ws.hidden, ws.logits);
      break;
  }
  return ws.logits;
}

void Decoder::prepare(kernels::Precision p) const {
  l1.prepare(p);
  l2.prepare(p);
}

void Decoder::refresh_prepared() const {
  if (l1.pw.ready()) prepare(kernels::Precision::kFp32);
  if (l1.qw.ready()) prepare(kernels::Precision::kInt8);
}

double Decoder::score_with(InferScratch& ws, std::span<const float> hu,
                           std::span<const float> hv) const {
  ws.x.resize(1, 3 * hu.size());
  build_pair(hu, hv, ws.x.row(0));
  return forward_into(ws.x, ws)(0, 0);
}

Tensor Decoder::backward(const Cache& c, const Tensor& dlogits) {
  Tensor dhidden = l2.backward(c.hidden, dlogits);
  for (std::size_t i = 0; i < dhidden.size(); ++i)
    if (c.hidden[i] <= 0.0f) dhidden[i] = 0.0f;
  return l1.backward(c.x, dhidden);
}

double Decoder::score(std::span<const float> hu,
                      std::span<const float> hv) const {
  Tensor x(1, 3 * hu.size());
  build_pair(hu, hv, x.row(0));
  return forward(x)(0, 0);
}

std::vector<nn::Parameter*> Decoder::parameters() {
  std::vector<nn::Parameter*> out;
  for (auto* l : {&l1, &l2})
    for (auto* p : l->parameters()) out.push_back(p);
  return out;
}

}  // namespace tgnn::core
