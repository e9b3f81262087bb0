#include "kernels/fused.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "kernels/gemm_dispatch.hpp"

namespace tgnn::kernels {

namespace {

using detail::Act;

void check(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

void check_affine(std::size_t x_cols, std::size_t w_rows, std::size_t w_cols,
                  const Tensor& b, const char* who) {
  if (w_cols != x_cols || b.size() != w_rows)
    throw std::invalid_argument(std::string(who) + ": shape mismatch");
}

/// y[m, w.rows] = act((accumulate ? y : 0) + x·wᵀ + b) over packed panels.
void gemm_into(Act act, bool accumulate, const Tensor& x, const float* panels,
               std::size_t n, const Tensor& b, Tensor& y) {
  if (!accumulate) y.resize(x.rows(), n);
  detail::active_kernels().gemm(act, accumulate, x.data(), panels, b.data(),
                                y.data(), x.rows(), x.cols(), n);
}

void affine_raw(Act act, const Tensor& x, const Tensor& w, const Tensor& b,
                Tensor& y, const char* who) {
  check_affine(x.cols(), w.rows(), w.cols(), b, who);
  gemm_into(act, false, x, detail::scratch_panels(w.data(), w.rows(), w.cols()),
            w.rows(), b, y);
}

void affine_packed(Act act, bool accumulate, const Tensor& x,
                   const PackedWeight& w, const Tensor& b, Tensor& y,
                   const char* who) {
  check_affine(x.cols(), w.rows, w.cols, b, who);
  check(w.ready() || w.rows * w.cols == 0,
        "affine: weight not packed (call prepare first)");
  gemm_into(act, accumulate, x, w.data.data(), w.rows, b, y);
}

}  // namespace

void affine_into(const Tensor& x, const Tensor& w, const Tensor& b,
                 Tensor& y) {
  affine_raw(Act::kNone, x, w, b, y, "affine_into");
}

void affine_sigmoid_into(const Tensor& x, const Tensor& w, const Tensor& b,
                         Tensor& y) {
  affine_raw(Act::kSigmoid, x, w, b, y, "affine_sigmoid_into");
}

void affine_tanh_into(const Tensor& x, const Tensor& w, const Tensor& b,
                      Tensor& y) {
  affine_raw(Act::kTanh, x, w, b, y, "affine_tanh_into");
}

void affine_relu_into(const Tensor& x, const Tensor& w, const Tensor& b,
                      Tensor& y) {
  affine_raw(Act::kRelu, x, w, b, y, "affine_relu_into");
}

void affine2_sigmoid_into(const Tensor& x, const Tensor& wi, const Tensor& bi,
                          const Tensor& h, const Tensor& wh, const Tensor& bh,
                          Tensor& y) {
  check_affine(x.cols(), wi.rows(), wi.cols(), bi, "affine2_sigmoid_into(x)");
  check_affine(h.cols(), wh.rows(), wh.cols(), bh, "affine2_sigmoid_into(h)");
  check(x.rows() == h.rows() && wi.rows() == wh.rows(),
        "affine2_sigmoid_into: row mismatch");
  gemm_into(Act::kNone, false, x,
            detail::scratch_panels(wi.data(), wi.rows(), wi.cols()),
            wi.rows(), bi, y);
  gemm_into(Act::kSigmoid, true, h,
            detail::scratch_panels(wh.data(), wh.rows(), wh.cols()),
            wh.rows(), bh, y);
}

void affine_row_into(std::span<const float> x, const Tensor& w,
                     const Tensor& b, std::span<float> out) {
  check(x.size() == w.cols() && out.size() == w.rows() &&
            b.size() == w.rows(),
        "affine_row_into: shape mismatch");
  detail::active_kernels().gemm(
      Act::kNone, /*accumulate=*/false, x.data(),
      detail::scratch_panels(w.data(), w.rows(), w.cols()), b.data(),
      out.data(), 1, x.size(), w.rows());
}

void affine_into(const Tensor& x, const PackedWeight& w, const Tensor& b,
                 Tensor& y) {
  affine_packed(Act::kNone, false, x, w, b, y, "affine_into");
}

void affine_relu_into(const Tensor& x, const PackedWeight& w, const Tensor& b,
                      Tensor& y) {
  affine_packed(Act::kRelu, false, x, w, b, y, "affine_relu_into");
}

void affine_row_into(std::span<const float> x, const PackedWeight& w,
                     const Tensor& b, std::span<float> out) {
  check(x.size() == w.cols && out.size() == w.rows && b.size() == w.rows &&
            (w.ready() || w.rows * w.cols == 0),
        "affine_row_into: shape mismatch or weight not packed");
  detail::active_kernels().gemm(Act::kNone, /*accumulate=*/false, x.data(),
                                w.data.data(), b.data(), out.data(), 1,
                                x.size(), w.rows);
}

void PackedGruWeights::pack(const GruWeights& w) {
  const std::pair<const Tensor*, PackedWeight*> mats[] = {
      {w.w_ir, &w_ir}, {w.w_iz, &w_iz}, {w.w_in, &w_in},
      {w.w_hr, &w_hr}, {w.w_hz, &w_hz}, {w.w_hn, &w_hn}};
  for (const auto& [t, p] : mats)
    pack_weight(t->data(), t->rows(), t->cols(), *p);
}

namespace {

/// The shared GRU elementwise epilogue: n = tanh(out + r∘q), s' =
/// (1-z)∘n + z∘h, in place over `out`. One definition so the fp32 and int8
/// paths finish identically; rows split across the team like the GEMMs
/// (elementwise, so bit-invariant to threads).
void gru_elementwise_finish(const Tensor& h, GruScratch& ws, Tensor& out,
                            std::size_t m, std::size_t hid) {
  detail::active_kernels().gru_finish(out.data(), ws.r.data(), ws.z.data(),
                                      ws.q.data(), h.data(), m * hid,
                                      m >= 16);
}

}  // namespace

void gru_forward_into(const Tensor& x, const Tensor& h, const GruWeights& w,
                      const PackedGruWeights& pw, GruScratch& ws,
                      Tensor& out) {
  check(h.rows() == x.rows(), "gru_forward_into: batch mismatch");
  // r = sigmoid(W_ir x + b_ir + W_hr h + b_hr); z likewise.
  affine_packed(Act::kNone, false, x, pw.w_ir, *w.b_ir, ws.r, "gru(w_ir)");
  affine_packed(Act::kSigmoid, true, h, pw.w_hr, *w.b_hr, ws.r, "gru(w_hr)");
  affine_packed(Act::kNone, false, x, pw.w_iz, *w.b_iz, ws.z, "gru(w_iz)");
  affine_packed(Act::kSigmoid, true, h, pw.w_hz, *w.b_hz, ws.z, "gru(w_hz)");
  // q = W_hn h + b_hn (pre reset-gating).
  affine_packed(Act::kNone, false, h, pw.w_hn, *w.b_hn, ws.q, "gru(w_hn)");
  // out <- W_in x + b_in, then one elementwise pass finishes
  // n = tanh(out + r∘q) and s' = (1-z)∘n + z∘h.
  affine_packed(Act::kNone, false, x, pw.w_in, *w.b_in, out, "gru(w_in)");
  gru_elementwise_finish(h, ws, out, x.rows(), h.cols());
}

void gru_forward_into(const Tensor& x, const Tensor& h, const GruWeights& w,
                      GruScratch& ws, Tensor& out) {
  ws.panels.pack(w);
  gru_forward_into(x, h, w, ws.panels, ws, out);
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
