// Downstream temporal link-prediction decoder: a 2-layer MLP scoring a pair
// of dynamic node embeddings. This is the "external downstream edge
// classifier" of §II — it consumes TGNN output embeddings; the TGNN itself
// is trained end-to-end through it by self-supervision on temporal edges.
//
// Input per pair: [h_u || h_v || h_u .* h_v] — the elementwise product term
// gives the MLP a direct affinity channel (without it, a 2-layer MLP
// struggles to express dot-product-like similarity).
#pragma once

#include "nn/linear.hpp"
#include "tgnn/config.hpp"

namespace tgnn::core {

class Decoder {
 public:
  struct Cache {
    Tensor x;       ///< [m, 3*emb]
    Tensor hidden;  ///< [m, hid] post-ReLU
  };

  Decoder() = default;
  Decoder(const ModelConfig& cfg, tgnn::Rng& rng);

  /// Build one input row [h_u || h_v || h_u .* h_v] into `out` (3*emb).
  static void build_pair(std::span<const float> hu, std::span<const float> hv,
                         std::span<float> out);

  /// Given d(input row) and the pair, accumulate into dh_u / dh_v
  /// (routes the concat and product slices).
  static void route_pair_grad(std::span<const float> dx,
                              std::span<const float> hu,
                              std::span<const float> hv, std::span<float> dhu,
                              std::span<float> dhv);

  /// x rows = build_pair outputs; returns logits [m, 1].
  Tensor forward(const Tensor& x, Cache* cache = nullptr) const;

  /// Returns d(x): [m, 3*emb].
  Tensor backward(const Cache& cache, const Tensor& dlogits);

  /// Score one pair without allocating a batch.
  [[nodiscard]] double score(std::span<const float> hu,
                             std::span<const float> hv) const;

  /// Reusable buffers for the fused scoring/forward path. The QuantActs
  /// panels are touched only by the int8 path.
  struct InferScratch {
    Tensor x;       ///< [m, 3*emb]
    Tensor hidden;  ///< [m, hid]
    Tensor logits;  ///< [m, 1]
    kernels::QuantActs qx;  ///< quantized pair-input panel
    kernels::QuantActs qh;  ///< quantized post-ReLU hidden panel
  };

  /// Fused inference forward (affine+ReLU kernel, no cache): logits written
  /// into ws.logits, which is also returned. Non-fp32 precisions (require
  /// prepare(p)) run both MLP GEMMs quantized; the ReLU between them and
  /// the logits are fp32.
  const Tensor& forward_into(const Tensor& x, InferScratch& ws,
                             kernels::Precision p =
                                 kernels::Precision::kFp32) const;

  /// Snapshot l1/l2 for inference at precision p (see nn::Linear).
  void prepare(kernels::Precision p) const;
  /// Re-prepares every precision already prepared (after a weight change).
  void refresh_prepared() const;

  /// score(), allocation-free: reuses `ws` across calls.
  [[nodiscard]] double score_with(InferScratch& ws, std::span<const float> hu,
                                  std::span<const float> hv) const;

  [[nodiscard]] std::vector<nn::Parameter*> parameters();

  nn::Linear l1;  ///< 3*emb -> hidden
  nn::Linear l2;  ///< hidden -> 1
};

}  // namespace tgnn::core
