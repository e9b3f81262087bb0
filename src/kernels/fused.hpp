// Fused affine + activation kernels over Tensor, and the fused GRU forward.
//
// Every function writes into a caller-owned output (resized in place, so a
// reused buffer never re-allocates in steady state) instead of returning a
// fresh Tensor — the allocation-free contract of the inference hot path.
// The reference ops in tensor/ops.cpp stay as the training/gradcheck path;
// tests/kernels pins the two within 1e-6 of each other.
//
// Weights come in two forms. A PackedWeight is the prepared form: packed
// once per model (nn::Linear::prepare, nn::GruCell::prepare) and read by
// every engine call. A raw Tensor weight is packed into scratch on every
// call, through the same kernel, so both forms give the same bits; the raw
// entries serve tests, benches and one-off callers.
//
// Layering: kernels depends only on tensor/. The nn and tgnn layers call
// down into it (GruCell::forward_into, VanillaAttention::forward_into,
// SimplifiedAttention::aggregate_into, Decoder::score_with), each routing
// its scratch through the engine's BatchWorkspace.
#pragma once

#include <span>

#include "kernels/gemm.hpp"
#include "kernels/quant.hpp"
#include "tensor/tensor.hpp"

namespace tgnn::kernels {

/// y = x·wᵀ + b. x: [m,k], w: [n,k], b: [n]; y resized to [m,n].
void affine_into(const Tensor& x, const Tensor& w, const Tensor& b, Tensor& y);
/// y = sigmoid(x·wᵀ + b).
void affine_sigmoid_into(const Tensor& x, const Tensor& w, const Tensor& b,
                         Tensor& y);
/// y = tanh(x·wᵀ + b).
void affine_tanh_into(const Tensor& x, const Tensor& w, const Tensor& b,
                      Tensor& y);
/// y = relu(x·wᵀ + b).
void affine_relu_into(const Tensor& x, const Tensor& w, const Tensor& b,
                      Tensor& y);

/// y = sigmoid(x·wiᵀ + bi + h·whᵀ + bh) — the GRU gate shape with both
/// GEMMs, both biases, and the activation in one kernel.
void affine2_sigmoid_into(const Tensor& x, const Tensor& wi, const Tensor& bi,
                          const Tensor& h, const Tensor& wh, const Tensor& bh,
                          Tensor& y);

/// Single-row affine straight into a caller-owned span (e.g. one row of the
/// batch's embeddings matrix): out = x·wᵀ + b, out.size() == w.rows().
void affine_row_into(std::span<const float> x, const Tensor& w,
                     const Tensor& b, std::span<float> out);

// ---- prepared-weight forms (w packed by pack_weight) ----------------------

/// y = x·wᵀ + b.
void affine_into(const Tensor& x, const PackedWeight& w, const Tensor& b,
                 Tensor& y);
/// y = relu(x·wᵀ + b).
void affine_relu_into(const Tensor& x, const PackedWeight& w, const Tensor& b,
                      Tensor& y);
/// out = x·wᵀ + b for one row.
void affine_row_into(std::span<const float> x, const PackedWeight& w,
                     const Tensor& b, std::span<float> out);

/// Non-owning view of a GruCell's 12 parameter tensors.
struct GruWeights {
  const Tensor *w_ir, *w_iz, *w_in, *b_ir, *b_iz, *b_in;
  const Tensor *w_hr, *w_hz, *w_hn, *b_hr, *b_hz, *b_hn;
};

/// The six GRU weight matrices packed (biases stay with GruWeights).
struct PackedGruWeights {
  PackedWeight w_ir, w_iz, w_in, w_hr, w_hz, w_hn;
  [[nodiscard]] bool ready() const { return w_ir.ready(); }
  /// pack_weight on each matrix.
  void pack(const GruWeights& w);
};

/// Gate scratch for gru_forward_into; embed one per BatchWorkspace. The
/// quantized-activation panels (qx, qh) are touched only by the int8 path,
/// and `panels` only by the raw-weight GRU entry.
struct GruScratch {
  Tensor r, z, q;
  QuantActs qx, qh;
  PackedGruWeights panels;
  void reserve(std::size_t rows, std::size_t hid) {
    r.reserve(rows, hid);
    z.reserve(rows, hid);
    q.reserve(rows, hid);
  }
};

/// Fused GRU forward (Eq. 7-10): out = (1-z)∘tanh(x·w_inᵀ + b_in + r∘q) +
/// z∘h, with r/z gates from two GEMMs each (the second accumulating, with
/// the sigmoid epilogue) and q = h·w_hnᵀ + b_hn. x: [m, in], h: [m, hid];
/// out resized to [m, hid]. Weight matrices from `pw`, biases from `w`.
/// Zero allocations once `ws` and `out` have capacity.
void gru_forward_into(const Tensor& x, const Tensor& h, const GruWeights& w,
                      const PackedGruWeights& pw, GruScratch& ws, Tensor& out);

/// The same with the raw weights, packed into `ws.panels` on each call.
void gru_forward_into(const Tensor& x, const Tensor& h, const GruWeights& w,
                      GruScratch& ws, Tensor& out);

/// One-time int8 snapshot of a GruCell's six weight matrices (biases stay
/// fp32, read from GruWeights).
struct QuantGruWeights {
  QuantWeight w_ir, w_iz, w_in, w_hr, w_hz, w_hn;
  [[nodiscard]] bool ready() const { return w_ir.ready(); }
};

/// Int8 fused GRU forward: x and h are per-row-quantized ONCE into ws.qx /
/// ws.qh and reused across all six gate GEMMs; gates, the elementwise
/// epilogue, and the new state are fp32 — the state the caller commits to
/// VertexMemory is never quantized.
void qgru_forward_into(const Tensor& x, const Tensor& h, const GruWeights& w,
                       const QuantGruWeights& qw, GruScratch& ws, Tensor& out);

}  // namespace tgnn::kernels
