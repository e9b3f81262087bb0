#include "kernels/fused.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "kernels/gemm_dispatch.hpp"

namespace tgnn::kernels {

namespace {

using detail::Act;

void check(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

void check_affine(const Tensor& x, const Tensor& w, const Tensor& b,
                  const char* who) {
  if (w.cols() != x.cols() || b.size() != w.rows())
    throw std::invalid_argument(std::string(who) + ": shape mismatch");
}

template <Act A>
void affine_act_into(const Tensor& x, const Tensor& w, const Tensor& b,
                     Tensor& y, const char* who) {
  check_affine(x, w, b, who);
  y.resize(x.rows(), w.rows());
  detail::active_kernels().gemm(A, /*accumulate=*/false, x.data(), w.data(),
                                b.data(), y.data(), x.rows(), x.cols(),
                                w.rows());
}

}  // namespace

void affine_into(const Tensor& x, const Tensor& w, const Tensor& b,
                 Tensor& y) {
  affine_act_into<Act::kNone>(x, w, b, y, "affine_into");
}

void affine_sigmoid_into(const Tensor& x, const Tensor& w, const Tensor& b,
                         Tensor& y) {
  affine_act_into<Act::kSigmoid>(x, w, b, y, "affine_sigmoid_into");
}

void affine_tanh_into(const Tensor& x, const Tensor& w, const Tensor& b,
                      Tensor& y) {
  affine_act_into<Act::kTanh>(x, w, b, y, "affine_tanh_into");
}

void affine_relu_into(const Tensor& x, const Tensor& w, const Tensor& b,
                      Tensor& y) {
  affine_act_into<Act::kRelu>(x, w, b, y, "affine_relu_into");
}

void affine2_sigmoid_into(const Tensor& x, const Tensor& wi, const Tensor& bi,
                          const Tensor& h, const Tensor& wh, const Tensor& bh,
                          Tensor& y) {
  check_affine(x, wi, bi, "affine2_sigmoid_into(x)");
  check_affine(h, wh, bh, "affine2_sigmoid_into(h)");
  check(x.rows() == h.rows() && wi.rows() == wh.rows(),
        "affine2_sigmoid_into: row mismatch");
  y.resize(x.rows(), wi.rows());
  const detail::KernelTable& kt = detail::active_kernels();
  kt.gemm(Act::kNone, /*accumulate=*/false, x.data(), wi.data(), bi.data(),
          y.data(), x.rows(), x.cols(), wi.rows());
  kt.gemm(Act::kSigmoid, /*accumulate=*/true, h.data(), wh.data(), bh.data(),
          y.data(), h.rows(), h.cols(), wh.rows());
}

void affine_row_into(std::span<const float> x, const Tensor& w,
                     const Tensor& b, std::span<float> out) {
  check(x.size() == w.cols() && out.size() == w.rows() &&
            b.size() == w.rows(),
        "affine_row_into: shape mismatch");
  detail::active_kernels().gemm(Act::kNone, /*accumulate=*/false, x.data(),
                                w.data(), b.data(), out.data(), 1, x.size(),
                                w.rows());
}

namespace {

/// The shared GRU elementwise epilogue: n = tanh(out + r∘q), s' =
/// (1-z)∘n + z∘h, in place over `out`. One definition so the fp32 and int8
/// paths finish identically.
void gru_elementwise_finish(const Tensor& h, GruScratch& ws, Tensor& out,
                            std::size_t m, std::size_t hid) {
  float* po = out.data();
  const float* pr = ws.r.data();
  const float* pz = ws.z.data();
  const float* pq = ws.q.data();
  const float* ph = h.data();
  const std::size_t total = m * hid;
  // tanhf dominates this pass at serving batch sizes; split rows across
  // the team like the GEMMs do (elementwise, so bit-invariant to threads).
#pragma omp parallel for schedule(static) if (m >= 16)
  for (std::size_t i = 0; i < total; ++i) {
    const float n = std::tanh(po[i] + pr[i] * pq[i]);
    po[i] = (1.0f - pz[i]) * n + pz[i] * ph[i];
  }
}

}  // namespace

void gru_forward_into(const Tensor& x, const Tensor& h, const GruWeights& w,
                      GruScratch& ws, Tensor& out) {
  const std::size_t m = x.rows(), hid = h.cols();
  check(h.rows() == m, "gru_forward_into: batch mismatch");

  // r = sigmoid(W_ir x + b_ir + W_hr h + b_hr); z likewise.
  affine2_sigmoid_into(x, *w.w_ir, *w.b_ir, h, *w.w_hr, *w.b_hr, ws.r);
  affine2_sigmoid_into(x, *w.w_iz, *w.b_iz, h, *w.w_hz, *w.b_hz, ws.z);
  // q = W_hn h + b_hn (pre reset-gating).
  affine_into(h, *w.w_hn, *w.b_hn, ws.q);
  // out <- W_in x + b_in, then one elementwise pass finishes
  // n = tanh(out + r∘q) and s' = (1-z)∘n + z∘h.
  affine_into(x, *w.w_in, *w.b_in, out);
  gru_elementwise_finish(h, ws, out, m, hid);
}

void qgru_forward_into(const Tensor& x, const Tensor& h, const GruWeights& w,
                       const QuantGruWeights& qw, GruScratch& ws,
                       Tensor& out) {
  const std::size_t m = x.rows(), hid = h.cols();
  check(h.rows() == m, "qgru_forward_into: batch mismatch");

  // Quantize each input panel once; all six GEMMs reuse the panels, so the
  // per-row scale pass costs O(m·k) against the GEMMs' O(3·m·k·hid).
  quantize_rows_into(x, ws.qx);
  quantize_rows_into(h, ws.qh);
  qaffine2_sigmoid_into(ws.qx, qw.w_ir, *w.b_ir, ws.qh, qw.w_hr, *w.b_hr,
                        ws.r);
  qaffine2_sigmoid_into(ws.qx, qw.w_iz, *w.b_iz, ws.qh, qw.w_hz, *w.b_hz,
                        ws.z);
  qaffine_into(ws.qh, qw.w_hn, *w.b_hn, ws.q);
  qaffine_into(ws.qx, qw.w_in, *w.b_in, out);
  gru_elementwise_finish(h, ws, out, m, hid);
}

}  // namespace tgnn::kernels
