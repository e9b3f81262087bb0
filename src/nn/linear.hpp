// Fully-connected layer with analytic backward.
//
// Forward:  Y = X W^T + b,  X: [m, in], W: [out, in], b: [out].
// Backward: dX = dY W, dW += dY^T X, db += colsum(dY).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "kernels/gemm.hpp"
#include "kernels/quant.hpp"
#include "nn/parameter.hpp"
#include "tensor/ops.hpp"

namespace tgnn {
class Rng;
}

namespace tgnn::nn {

class Linear {
 public:
  Linear() = default;
  Linear(std::string name, std::size_t in_dim, std::size_t out_dim,
         tgnn::Rng& rng);

  [[nodiscard]] Tensor forward(const Tensor& x) const;

  /// Fused inference forward: y = X Wᵀ + b written into a caller-owned
  /// buffer (kernels::affine_into) — no allocation once y has capacity.
  /// Reads the packed panels after prepare(kFp32), else packs W per call.
  void forward_into(const Tensor& x, Tensor& y) const;
  /// Same with a fused ReLU epilogue.
  void forward_relu_into(const Tensor& x, Tensor& y) const;
  /// One row: out = x Wᵀ + b.
  void forward_row_into(std::span<const float> x, std::span<float> out) const;

  /// One-time weight snapshot for inference at precision p: the packed
  /// fp32 panels (kFp32) or the int8 snapshot (kInt8). Call again after
  /// the weights change (a training step, a checkpoint load) — a snapshot
  /// is rewritten only when its bytes change. The fp32 weights always stay
  /// the source of truth, so precisions can be switched freely.
  void prepare(kernels::Precision p) const;

  /// Int8 forward against a caller-quantized activation panel (the caller
  /// owns quantization so one panel can feed several layers — e.g. the
  /// attention kv panel feeds both wk and wv). Requires prepare(kInt8).
  void forward_q_into(const kernels::QuantActs& x, Tensor& y) const;
  /// Same with a fused ReLU epilogue.
  void forward_q_relu_into(const kernels::QuantActs& x, Tensor& y) const;

  /// Backward: given dY and the forward input X, accumulates weight/bias
  /// grads and returns dX.
  Tensor backward(const Tensor& x, const Tensor& dy);

  [[nodiscard]] std::vector<Parameter*> parameters();

  [[nodiscard]] std::size_t in_dim() const { return w.value.cols(); }
  [[nodiscard]] std::size_t out_dim() const { return w.value.rows(); }

  /// Number of multiply-accumulates for a forward pass over m rows.
  [[nodiscard]] std::size_t macs(std::size_t m_rows) const {
    return m_rows * in_dim() * out_dim();
  }

  Parameter w;  ///< [out, in]
  Parameter b;  ///< [out]

  // Inference weight snapshots (prepare()); mutable because they are
  // derived caches of `w`, not model state — checkpoints never carry them
  // and training never reads them.
  mutable kernels::PackedWeight pw;
  mutable kernels::QuantWeight qw;
};

}  // namespace tgnn::nn
