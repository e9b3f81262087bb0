// INTERNAL: the portable int8 GEMM core and the dequantization epilogue
// shared by every int8 ISA tier. Not part of the kernels/ public API —
// include quant.hpp instead.
//
// The int8 kernels have a stronger determinism story than the fp32 lanes:
// the int32 accumulation is EXACT, so the per-element integer dot product
// is identical no matter how a tier blocks or vectorizes it. The only
// floating-point arithmetic is the fixed epilogue below — one expression,
// shared by every tier — so generic / avx2-maddubs / avx512-vnni are
// bit-identical, per element, across row counts and thread counts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "kernels/gemm_core.hpp"

namespace tgnn::kernels::detail {

// ---- quantization primitives shared by every tier --------------------------
// The per-row quantize pass is itself dispatched (QuantizeRowsFn): GCC will
// not autovectorize a float->int8 narrowing store, so the avx tiers use
// cvtps2dq + pack intrinsics. Everything scalar here rounds half-to-even
// (rint under the default rounding mode) to MATCH cvtps2dq bit-for-bit, so
// the quantized panels are identical across tiers for finite inputs.

/// Row scale from a row's absolute maximum; a row of inf/NaN degrades to the
/// largest finite scale (elements then saturate deterministically), a
/// zero row yields scale 0 (callers emit all-zero codes — the scale-0 guard).
inline float quant_scale_from_absmax(float absmax) {
  if (!std::isfinite(absmax)) absmax = std::numeric_limits<float>::max();
  return absmax / 127.0f;
}

/// Exact max over |x|; max is order-insensitive for finite floats, so every
/// tier's blocking produces the same value.
inline float row_absmax_simd(const float* x, std::size_t len) {
  float m = 0.0f;
#pragma omp simd reduction(max : m)
  for (std::size_t i = 0; i < len; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

/// Scalar quantize of `len` elements with the scale pre-inverted: clamp to
/// ±127 BEFORE the convert (huge/inf inputs saturate instead of hitting
/// float->int UB; a NaN element clamps through fmin to +127), then round
/// half-to-even. Used by the generic tier and every vector tier's k-tail.
inline void quantize_span_scalar(const float* x, float inv, std::int8_t* q,
                                 std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    float v = x[i] * inv;
    v = std::fmax(-127.0f, std::fmin(v, 127.0f));
    q[i] = static_cast<std::int8_t>(
        static_cast<std::int32_t>(std::rint(v)));
  }
}

/// Baseline-ISA QuantizeRowsFn: per-row absmax -> scale -> scalar quantize,
/// rows stored at `stride` with zeroed padding.
inline void quantize_rows_generic(const float* x, std::size_t m, std::size_t k,
                                  std::size_t stride, std::int8_t* q,
                                  float* scale) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = x + i * k;
    std::int8_t* qrow = q + i * stride;
    std::memset(qrow + k, 0, stride - k);
    const float s = quant_scale_from_absmax(row_absmax_simd(row, k));
    scale[i] = s;
    if (!(s > 0.0f)) {
      std::memset(qrow, 0, k);
      continue;
    }
    quantize_span_scalar(row, 1.0f / s, qrow, k);
  }
}

/// The ONE dequantization epilogue: c = act(base + idot·s + bias), where
/// s = a_scale[i]·b_scale is folded by the caller. Every tier must funnel
/// its exact int32 dot through this expression, in this association order.
template <Act A>
inline float quant_finish(float base, std::int32_t idot, float s, float bias) {
  return activate<A>(base + static_cast<float>(idot) * s + bias);
}

inline std::int32_t qdot_scalar(const std::int8_t* a, const std::int8_t* b,
                                std::size_t k) {
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < k; ++i)
    acc += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  return acc;
}

/// c = act((Accumulate ? c : 0) + (a_scale[i]·b_scale)·(a[m,k]·b[n,k]ᵀ) +
/// bias), bias nullable. Baseline-ISA build; the omp-simd widening dot
/// vectorizes to pmaddwd-class code where the autovectorizer can.
template <Act A, bool Accumulate>
void qgemm_nt_act(const std::int8_t* a, const float* a_scale,
                  const std::int8_t* b, float b_scale, const float* bias,
                  float* c, std::size_t m, std::size_t k, std::size_t n) {
#pragma omp parallel for schedule(static) if (parallel_worthwhile(m, k, n))
  for (std::size_t i = 0; i < m; ++i) {
    const std::int8_t* arow = a + i * k;
    float* crow = c + i * n;
    const float s = a_scale[i] * b_scale;
    std::size_t j = 0;
    for (; j + kColBlock <= n; j += kColBlock) {
      const std::int8_t* b0 = b + (j + 0) * k;
      const std::int8_t* b1 = b + (j + 1) * k;
      const std::int8_t* b2 = b + (j + 2) * k;
      const std::int8_t* b3 = b + (j + 3) * k;
      std::int32_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
#pragma omp simd reduction(+ : acc0, acc1, acc2, acc3)
      for (std::size_t kk = 0; kk < k; ++kk) {
        const std::int32_t av = arow[kk];
        acc0 += av * b0[kk];
        acc1 += av * b1[kk];
        acc2 += av * b2[kk];
        acc3 += av * b3[kk];
      }
      crow[j + 0] = quant_finish<A>(Accumulate ? crow[j + 0] : 0.0f, acc0, s,
                                    bias != nullptr ? bias[j + 0] : 0.0f);
      crow[j + 1] = quant_finish<A>(Accumulate ? crow[j + 1] : 0.0f, acc1, s,
                                    bias != nullptr ? bias[j + 1] : 0.0f);
      crow[j + 2] = quant_finish<A>(Accumulate ? crow[j + 2] : 0.0f, acc2, s,
                                    bias != nullptr ? bias[j + 2] : 0.0f);
      crow[j + 3] = quant_finish<A>(Accumulate ? crow[j + 3] : 0.0f, acc3, s,
                                    bias != nullptr ? bias[j + 3] : 0.0f);
    }
    for (; j < n; ++j) {
      const std::int32_t acc = qdot_scalar(arow, b + j * k, k);
      crow[j] = quant_finish<A>(Accumulate ? crow[j] : 0.0f, acc, s,
                                bias != nullptr ? bias[j] : 0.0f);
    }
  }
}

}  // namespace tgnn::kernels::detail
