// GRU cell exactly as the paper's memory updater (Eq. 7-10):
//
//   r = sigmoid(W_ir m + b_ir + W_hr s + b_hr)
//   z = sigmoid(W_iz m + b_iz + W_hz s + b_hz)
//   n = tanh  (W_in m + b_in + r .* (W_hn s + b_hn))
//   s' = (1 - z) .* n + z .* s
//
// where m is the aggregated message (input) and s the node memory (hidden
// state). Forward caches every gate activation so backward() can produce
// analytic gradients for both the parameters and the (m, s) inputs — needed
// because the training loss backpropagates into the message, which itself
// contains node memory and the time encoding.
#pragma once

#include <string>
#include <vector>

#include "kernels/fused.hpp"
#include "nn/parameter.hpp"
#include "tensor/ops.hpp"

namespace tgnn {
class Rng;
}

namespace tgnn::nn {

class GruCell {
 public:
  /// Forward intermediates required by backward().
  struct Cache {
    Tensor x;   ///< input messages [m, in]
    Tensor h;   ///< previous hidden state [m, hid]
    Tensor r;   ///< reset gate post-sigmoid
    Tensor z;   ///< update gate post-sigmoid
    Tensor n;   ///< candidate post-tanh
    Tensor q;   ///< W_hn h + b_hn (pre reset-gating)
  };

  /// Gradients w.r.t. the two inputs.
  struct InputGrads {
    Tensor dx;
    Tensor dh;
  };

  GruCell() = default;
  GruCell(std::string name, std::size_t input_dim, std::size_t hidden_dim,
          tgnn::Rng& rng);

  /// Returns the new hidden state s'; fills cache for backward.
  Tensor forward(const Tensor& x, const Tensor& h, Cache* cache = nullptr) const;

  /// Inference-only fused forward (kernels::gru_forward_into): writes s'
  /// into `out`, reusing `ws` gate buffers — zero steady-state allocations
  /// and vectorized GEMMs. No cache, so not usable for backward; parity
  /// with forward() is pinned to 1e-6 by tests/kernels. fp32 reads the
  /// packed panels after prepare(kFp32), else packs the weights into `ws`
  /// per call. int8 routes to the quantized fused kernels and requires
  /// prepare(kInt8) first; the produced state s' is always fp32
  /// (VertexMemory never holds quantized state).
  void forward_into(const Tensor& x, const Tensor& h, kernels::GruScratch& ws,
                    Tensor& out,
                    kernels::Precision p = kernels::Precision::kFp32) const;

  /// One-time snapshot of the six weight matrices for inference at
  /// precision p (packed fp32 panels or int8; biases stay fp32). Re-run
  /// after weight updates — a snapshot is rewritten only when its bytes
  /// change.
  void prepare(kernels::Precision p) const;

  /// Non-owning view of the 12 parameter tensors.
  [[nodiscard]] kernels::GruWeights weights() const;

  /// Accumulates parameter grads; returns gradients w.r.t. x and h.
  InputGrads backward(const Cache& cache, const Tensor& dh_new);

  [[nodiscard]] std::vector<Parameter*> parameters();

  [[nodiscard]] std::size_t input_dim() const { return w_ir.value.cols(); }
  [[nodiscard]] std::size_t hidden_dim() const { return w_ir.value.rows(); }

  /// MACs for a forward pass over m rows (three input + three hidden GEMMs).
  [[nodiscard]] std::size_t macs(std::size_t m_rows) const {
    return m_rows * 3 * (input_dim() + hidden_dim()) * hidden_dim();
  }

  // Input-to-hidden weights [hid, in] and biases [hid].
  Parameter w_ir, w_iz, w_in, b_ir, b_iz, b_in;
  // Hidden-to-hidden weights [hid, hid] and biases [hid].
  Parameter w_hr, w_hz, w_hn, b_hr, b_hz, b_hn;

  // Inference weight snapshots (prepare()); derived caches, never
  // checkpointed.
  mutable kernels::PackedGruWeights pw;
  mutable kernels::QuantGruWeights qw;
};

}  // namespace tgnn::nn
