#include "nn/gru_cell.hpp"

#include "util/rng.hpp"

namespace tgnn::nn {

namespace {

Tensor gate_pre(const Tensor& x, const Parameter& wi, const Parameter& bi,
                const Tensor& h, const Parameter& wh, const Parameter& bh) {
  Tensor pre = ops::affine(x, wi.value, bi.value);
  pre += ops::affine(h, wh.value, bh.value);
  return pre;
}

}  // namespace

GruCell::GruCell(std::string name, std::size_t input_dim, std::size_t hidden_dim,
                 tgnn::Rng& rng)
    : w_ir(name + ".w_ir", Tensor::xavier(hidden_dim, input_dim, rng)),
      w_iz(name + ".w_iz", Tensor::xavier(hidden_dim, input_dim, rng)),
      w_in(name + ".w_in", Tensor::xavier(hidden_dim, input_dim, rng)),
      b_ir(name + ".b_ir", Tensor(hidden_dim)),
      b_iz(name + ".b_iz", Tensor(hidden_dim)),
      b_in(name + ".b_in", Tensor(hidden_dim)),
      w_hr(name + ".w_hr", Tensor::xavier(hidden_dim, hidden_dim, rng)),
      w_hz(name + ".w_hz", Tensor::xavier(hidden_dim, hidden_dim, rng)),
      w_hn(name + ".w_hn", Tensor::xavier(hidden_dim, hidden_dim, rng)),
      b_hr(name + ".b_hr", Tensor(hidden_dim)),
      b_hz(name + ".b_hz", Tensor(hidden_dim)),
      b_hn(name + ".b_hn", Tensor(hidden_dim)) {}

Tensor GruCell::forward(const Tensor& x, const Tensor& h, Cache* cache) const {
  Tensor r = ops::sigmoid(gate_pre(x, w_ir, b_ir, h, w_hr, b_hr));
  Tensor z = ops::sigmoid(gate_pre(x, w_iz, b_iz, h, w_hz, b_hz));
  Tensor q = ops::affine(h, w_hn.value, b_hn.value);
  Tensor n_pre = ops::affine(x, w_in.value, b_in.value);
  n_pre += ops::hadamard(r, q);
  Tensor n = ops::tanh(n_pre);

  // s' = (1 - z) .* n + z .* h
  Tensor out(h.rows(), h.cols());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = (1.0f - z[i]) * n[i] + z[i] * h[i];

  if (cache) {
    cache->x = x;
    cache->h = h;
    cache->r = std::move(r);
    cache->z = std::move(z);
    cache->n = std::move(n);
    cache->q = std::move(q);
  }
  return out;
}

kernels::GruWeights GruCell::weights() const {
  return {&w_ir.value, &w_iz.value, &w_in.value, &b_ir.value,
          &b_iz.value, &b_in.value, &w_hr.value, &w_hz.value,
          &w_hn.value, &b_hr.value, &b_hz.value, &b_hn.value};
}

void GruCell::forward_into(const Tensor& x, const Tensor& h,
                           kernels::GruScratch& ws, Tensor& out,
                           kernels::Precision p) const {
  switch (p) {
    case kernels::Precision::kInt8:
      kernels::qgru_forward_into(x, h, weights(), qw, ws, out);
      break;
    case kernels::Precision::kFp32:
      if (pw.ready())
        kernels::gru_forward_into(x, h, weights(), pw, ws, out);
      else
        kernels::gru_forward_into(x, h, weights(), ws, out);
      break;
  }
}

void GruCell::prepare(kernels::Precision p) const {
  switch (p) {
    case kernels::Precision::kInt8:
      kernels::quantize_weight(w_ir.value, qw.w_ir);
      kernels::quantize_weight(w_iz.value, qw.w_iz);
      kernels::quantize_weight(w_in.value, qw.w_in);
      kernels::quantize_weight(w_hr.value, qw.w_hr);
      kernels::quantize_weight(w_hz.value, qw.w_hz);
      kernels::quantize_weight(w_hn.value, qw.w_hn);
      break;
    case kernels::Precision::kFp32:
      pw.pack(weights());
      break;
  }
}

GruCell::InputGrads GruCell::backward(const Cache& c, const Tensor& dh_new) {
  const std::size_t m = dh_new.rows(), hid = dh_new.cols();

  // d n = dh' .* (1 - z); d z = dh' .* (h - n); dh (direct) = dh' .* z
  Tensor dn(m, hid), dz(m, hid), dh(m, hid);
  for (std::size_t i = 0; i < dh_new.size(); ++i) {
    dn[i] = dh_new[i] * (1.0f - c.z[i]);
    dz[i] = dh_new[i] * (c.h[i] - c.n[i]);
    dh[i] = dh_new[i] * c.z[i];
  }

  // Through tanh: dn_pre = dn .* (1 - n^2)
  Tensor dn_pre(m, hid);
  for (std::size_t i = 0; i < dn.size(); ++i)
    dn_pre[i] = dn[i] * (1.0f - c.n[i] * c.n[i]);

  // n_pre = W_in x + b_in + r .* q
  Tensor dr(m, hid), dq(m, hid);
  for (std::size_t i = 0; i < dn_pre.size(); ++i) {
    dr[i] = dn_pre[i] * c.q[i];
    dq[i] = dn_pre[i] * c.r[i];
  }

  // Through sigmoids: pre-activation grads.
  Tensor dr_pre(m, hid), dz_pre(m, hid);
  for (std::size_t i = 0; i < dr.size(); ++i) {
    dr_pre[i] = dr[i] * c.r[i] * (1.0f - c.r[i]);
    dz_pre[i] = dz[i] * c.z[i] * (1.0f - c.z[i]);
  }

  // Accumulate parameter gradients.
  ops::matmul_tn_acc(dr_pre, c.x, w_ir.grad);
  ops::matmul_tn_acc(dz_pre, c.x, w_iz.grad);
  ops::matmul_tn_acc(dn_pre, c.x, w_in.grad);
  b_ir.grad += ops::colsum(dr_pre);
  b_iz.grad += ops::colsum(dz_pre);
  b_in.grad += ops::colsum(dn_pre);

  ops::matmul_tn_acc(dr_pre, c.h, w_hr.grad);
  ops::matmul_tn_acc(dz_pre, c.h, w_hz.grad);
  ops::matmul_tn_acc(dq, c.h, w_hn.grad);
  b_hr.grad += ops::colsum(dr_pre);
  b_hz.grad += ops::colsum(dz_pre);
  b_hn.grad += ops::colsum(dq);

  // Input gradients.
  InputGrads g;
  g.dx = ops::matmul(dr_pre, w_ir.value);
  g.dx += ops::matmul(dz_pre, w_iz.value);
  g.dx += ops::matmul(dn_pre, w_in.value);

  g.dh = std::move(dh);
  g.dh += ops::matmul(dr_pre, w_hr.value);
  g.dh += ops::matmul(dz_pre, w_hz.value);
  g.dh += ops::matmul(dq, w_hn.value);
  return g;
}

std::vector<Parameter*> GruCell::parameters() {
  return {&w_ir, &w_iz, &w_in, &b_ir, &b_iz, &b_in,
          &w_hr, &w_hz, &w_hn, &b_hr, &b_hz, &b_hn};
}

}  // namespace tgnn::nn
