#include "kernels/quant.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "kernels/gemm_dispatch.hpp"
#include "kernels/quant_core.hpp"

namespace tgnn::kernels {

namespace {

using detail::Act;

// Quantize rows on the whole team once a panel holds this many elements
// (a 9-row, 472-wide GRU input); below it the fork costs more than it saves.
constexpr std::size_t kQuantParallelElems = 1u << 12;

void check(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

}  // namespace

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kInt8:
      return "int8";
    case Precision::kFp32:
      break;
  }
  return "fp32";
}

bool parse_precision(const std::string& s, Precision& out) {
  if (s == "fp32") {
    out = Precision::kFp32;
  } else if (s == "int8") {
    out = Precision::kInt8;
  } else {
    return false;
  }
  return true;
}

void quantize_row_with_scale(std::span<const float> x, float scale,
                             std::span<std::int8_t> q) {
  check(x.size() == q.size(), "quantize_row_with_scale: size mismatch");
  if (!(scale > 0.0f)) {  // scale-0 guard (also catches NaN/negative scales)
    std::fill(q.begin(), q.end(), std::int8_t{0});
    return;
  }
  // Scalar half-even rounding — bit-identical to the cvtps2dq the vector
  // tiers use, so weights (quantized here once at load) and activations
  // (quantized by the dispatched pass below) share one rounding rule.
  detail::quantize_span_scalar(x.data(), 1.0f / scale, q.data(), x.size());
}

float quantize_row(std::span<const float> x, std::span<std::int8_t> q) {
  check(x.size() == q.size(), "quantize_row: size mismatch");
  float scale = 0.0f;
  detail::active_quant_kernels().quantize(x.data(), 1, x.size(), x.size(),
                                          q.data(), &scale);
  return scale;
}

void quantize_rows_into(const Tensor& x, QuantActs& out) {
  const std::size_t m = x.rows(), k = x.cols();
  out.rows = m;
  out.cols = k;
  out.stride = quant_padded(k);
  if (out.data.size() < m * out.stride) out.data.resize(m * out.stride);
  if (out.scale.size() < m) out.scale.resize(m);
  // Hot path: one dispatched pass per row (see QuantizeRowsFn in
  // gemm_dispatch.hpp for why this is hand-vectorized per tier), split
  // across the team that runs the GEMMs it feeds. Rows are independent,
  // so the split never changes a bit.
  const detail::QuantizeRowsFn quantize =
      detail::active_quant_kernels().quantize;
  const float* src = x.data();
  std::int8_t* q = out.data.data();
  float* scale = out.scale.data();
  const std::size_t stride = out.stride;
#pragma omp parallel for schedule(static) if (m * k >= kQuantParallelElems)
  for (std::size_t i = 0; i < m; ++i)
    quantize(src + i * k, 1, k, stride, q + i * stride, scale + i);
}

void dequantize_into(const QuantActs& a, Tensor& out) {
  out.resize(a.rows, a.cols);
  for (std::size_t i = 0; i < a.rows; ++i) {
    const float s = a.scale[i];
    float* row = out.data() + i * a.cols;
    const std::int8_t* q = a.data.data() + i * a.stride;
    for (std::size_t j = 0; j < a.cols; ++j)
      row[j] = static_cast<float>(q[j]) * s;
  }
}

void quantize_weight(const Tensor& w, QuantWeight& out) {
  QuantWeight fresh;
  const std::size_t rows = w.rows(), cols = w.cols();
  fresh.rows = rows;
  fresh.cols = cols;
  fresh.stride = quant_padded(cols);
  fresh.data.assign(rows * fresh.stride, 0);
  fresh.row_sum.assign(rows, 0);
  fresh.scale = detail::quant_scale_from_absmax(
      detail::row_absmax_simd(w.data(), w.size()));
  for (std::size_t r = 0; r < rows; ++r) {
    std::int8_t* qrow = &fresh.data[r * fresh.stride];
    quantize_row_with_scale(w.row(r), fresh.scale,
                            std::span<std::int8_t>(qrow, cols));
    std::int32_t s = 0;
    for (std::size_t cidx = 0; cidx < cols; ++cidx) s += qrow[cidx];
    fresh.row_sum[r] = s;
  }
  // The panels derive from the codes alone, so equal codes and scale mean
  // an equal snapshot.
  if (out.rows == rows && out.cols == cols && out.scale == fresh.scale &&
      out.data == fresh.data)
    return;
  const detail::QuantKernelTable& tab = detail::active_quant_kernels();
  if (tab.pack != nullptr) {
    fresh.panels.resize(detail::panel_count(rows) * fresh.stride *
                        detail::kPanel * tab.code_bytes);
    tab.pack(fresh.data.data(), rows, fresh.stride, fresh.panels.data());
  }
  out = std::move(fresh);
}

void dequantize_weight(const QuantWeight& w, Tensor& out) {
  out.resize(w.rows, w.cols);
  for (std::size_t i = 0; i < w.rows; ++i)
    for (std::size_t j = 0; j < w.cols; ++j)
      out.data()[i * w.cols + j] =
          static_cast<float>(w.data[i * w.stride + j]) * w.scale;
}

namespace {

void check_qaffine(const QuantActs& x, const QuantWeight& w, const Tensor& b,
                   const char* who) {
  if (!w.ready())
    throw std::logic_error(std::string(who) +
                           ": weight not quantized (call prepare first)");
  if (w.cols != x.cols || b.size() != w.rows)
    throw std::invalid_argument(std::string(who) + ": shape mismatch");
}

void qaffine_act_into(Act act, bool accumulate, const QuantActs& x,
                      const QuantWeight& w, const Tensor& b, Tensor& y,
                      const char* who) {
  check_qaffine(x, w, b, who);
  if (!accumulate) y.resize(x.rows, w.rows);
  // The GEMM runs over the PADDED row length: the pad codes are zero, which
  // every tier's integer dot treats as an exact no-op, and k becoming a
  // vector-width multiple means no kernel ever takes its scalar k-tail.
  const std::int8_t* codes =
      w.panels.empty() ? w.data.data() : w.panels.data();
  detail::active_quant_kernels().qgemm(act, accumulate, x.data.data(),
                                       x.scale.data(), codes, w.scale,
                                       w.row_sum.data(), b.data(), y.data(),
                                       x.rows, x.stride, w.rows);
}

}  // namespace

void qaffine_into(const QuantActs& x, const QuantWeight& w, const Tensor& b,
                  Tensor& y) {
  qaffine_act_into(Act::kNone, false, x, w, b, y, "qaffine_into");
}

void qaffine_relu_into(const QuantActs& x, const QuantWeight& w,
                       const Tensor& b, Tensor& y) {
  qaffine_act_into(Act::kRelu, false, x, w, b, y, "qaffine_relu_into");
}

void qaffine2_sigmoid_into(const QuantActs& x, const QuantWeight& wi,
                           const Tensor& bi, const QuantActs& h,
                           const QuantWeight& wh, const Tensor& bh,
                           Tensor& y) {
  check(x.rows == h.rows && wi.rows == wh.rows,
        "qaffine2_sigmoid_into: row mismatch");
  qaffine_act_into(Act::kNone, false, x, wi, bi, y, "qaffine2_sigmoid_into(x)");
  qaffine_act_into(Act::kSigmoid, true, h, wh, bh, y,
                   "qaffine2_sigmoid_into(h)");
}

const char* quant_arch_name() {
  return detail::active_quant_kernels().name;
}

bool int8_faster_than_fp32() {
  return detail::active_quant_kernels().beats_fp32;
}

}  // namespace tgnn::kernels
