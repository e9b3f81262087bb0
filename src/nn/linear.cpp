#include "nn/linear.hpp"

#include "kernels/fused.hpp"
#include "util/rng.hpp"

namespace tgnn::nn {

Linear::Linear(std::string name, std::size_t in_dim, std::size_t out_dim,
               tgnn::Rng& rng)
    : w(name + ".w", Tensor::xavier(out_dim, in_dim, rng)),
      b(name + ".b", Tensor(out_dim)) {}

Tensor Linear::forward(const Tensor& x) const {
  return ops::affine(x, w.value, b.value);
}

void Linear::forward_into(const Tensor& x, Tensor& y) const {
  if (pw.ready())
    kernels::affine_into(x, pw, b.value, y);
  else
    kernels::affine_into(x, w.value, b.value, y);
}

void Linear::forward_relu_into(const Tensor& x, Tensor& y) const {
  if (pw.ready())
    kernels::affine_relu_into(x, pw, b.value, y);
  else
    kernels::affine_relu_into(x, w.value, b.value, y);
}

void Linear::forward_row_into(std::span<const float> x,
                              std::span<float> out) const {
  if (pw.ready())
    kernels::affine_row_into(x, pw, b.value, out);
  else
    kernels::affine_row_into(x, w.value, b.value, out);
}

void Linear::prepare(kernels::Precision p) const {
  switch (p) {
    case kernels::Precision::kInt8:
      kernels::quantize_weight(w.value, qw);
      break;
    case kernels::Precision::kFp32:
      kernels::pack_weight(w.value.data(), w.value.rows(), w.value.cols(), pw);
      break;
  }
}

void Linear::forward_q_into(const kernels::QuantActs& x, Tensor& y) const {
  kernels::qaffine_into(x, qw, b.value, y);
}

void Linear::forward_q_relu_into(const kernels::QuantActs& x,
                                 Tensor& y) const {
  kernels::qaffine_relu_into(x, qw, b.value, y);
}

Tensor Linear::backward(const Tensor& x, const Tensor& dy) {
  // dW += dY^T X : [out, m] x [m, in]
  ops::matmul_tn_acc(dy, x, w.grad);
  Tensor db = ops::colsum(dy);
  b.grad += db;
  // dX = dY W : [m, out] x [out, in]
  return ops::matmul(dy, w.value);
}

std::vector<Parameter*> Linear::parameters() { return {&w, &b}; }

}  // namespace tgnn::nn
