// INTERNAL: the portable int8 GEMM core, the row-tile driver of the
// paneled int8 tiers and the dequantization epilogue shared by every int8
// ISA tier. Not part of the kernels/ public API — include quant.hpp
// instead.
//
// The int8 kernels have a stronger determinism story than the fp32 ones:
// the int32 accumulation is EXACT, so the per-element integer dot product
// is identical no matter how a tier blocks or vectorizes it. The only
// floating-point arithmetic is the fixed epilogue below — one expression,
// shared by every tier — so generic / avx2-madd / avx512-vnni are
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

// Internal linkage for everything below: the ISA TUs each instantiate these
// under their own -m flags (see gemm_core.hpp's activations).
namespace {

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

/// quant_finish over one panel row of kPanel dots, of which the first
/// `cols` are stored — the same expression lane by lane.
template <Act A, bool Accumulate>
inline void quant_finish_row(const std::int32_t* idot, float s,
                             const float* bias, float* c, std::size_t cols) {
  typedef float vrow __attribute__((vector_size(kPanel * sizeof(float))));
  typedef std::int32_t virow
      __attribute__((vector_size(kPanel * sizeof(std::int32_t))));
  const std::size_t bytes = cols * sizeof(float);
  const bool full = cols == kPanel;  // fixed-size copies compile to moves
  vrow base = {}, b = {};
  virow d;
  if (Accumulate) std::memcpy(&base, c, full ? sizeof base : bytes);
  if (bias != nullptr) std::memcpy(&b, bias, full ? sizeof b : bytes);
  std::memcpy(&d, idot, sizeof d);
  const vrow v = activate_v<A>(
      (base + __builtin_convertvector(d, vrow) * s) + b);
  std::memcpy(c, &v, full ? sizeof v : bytes);
}

/// Row-tile driver of the paneled int8 tiers. `T` provides kRows, kAcc
/// (accumulator registers per tile) and tile<R, P>(a, k, panels, stride,
/// j0, n, row_sum, out), which writes the exact int32 dots of R rows of a
/// against P consecutive panels (panel p at panels + p·stride bytes,
/// output columns from j0) to out[R][P·kPanel]. OpenMP splits the row
/// tiles; every element's dot is exact, so nothing depends on the split.
template <class T>
struct QPanelDriver {
  using Finish = void (*)(const std::int32_t*, float, const float*, float*,
                          std::size_t);

  static constexpr std::size_t panels_for(std::size_t rows) {
    const std::size_t p = T::kAcc / (rows * T::kVecs);
    return p < 1 ? 1 : (p > 4 ? 4 : p);
  }

  template <std::size_t R>
  static void slab(Finish fin, const std::int8_t* a, const float* a_scale,
                   const std::int8_t* panels, std::size_t stride,
                   float b_scale, const std::int32_t* row_sum,
                   const float* bias, float* c, std::size_t k,
                   std::size_t n) {
    constexpr std::size_t P = panels_for(R);
    alignas(64) std::int32_t acc[R * P * kPanel];
    const std::size_t np = panel_count(n);
    const auto emit = [&](std::size_t p0, std::size_t count) {
      for (std::size_t r = 0; r < R; ++r) {
        const float s = a_scale[r] * b_scale;
        for (std::size_t p = 0; p < count; ++p) {
          const std::size_t j = (p0 + p) * kPanel;
          if (j >= n) break;
          fin(acc + (r * count + p) * kPanel, s,
              bias != nullptr ? bias + j : nullptr, c + r * n + j,
              n - j < kPanel ? n - j : kPanel);
        }
      }
    };
    std::size_t p = 0;
    for (; p + P <= np; p += P) {
      T::template tile<R, P>(a, k, panels + p * stride, stride, p * kPanel,
                             n, row_sum, acc);
      emit(p, P);
    }
    for (; p < np; ++p) {
      T::template tile<R, 1>(a, k, panels + p * stride, stride, p * kPanel,
                             n, row_sum, acc);
      emit(p, 1);
    }
  }

  template <std::size_t R>
  static void slab_upto(std::size_t rows, Finish fin, const std::int8_t* a,
                        const float* a_scale, const std::int8_t* panels,
                        std::size_t stride, float b_scale,
                        const std::int32_t* row_sum, const float* bias,
                        float* c, std::size_t k, std::size_t n) {
    if constexpr (R > 1) {
      if (rows < R)
        return slab_upto<R - 1>(rows, fin, a, a_scale, panels, stride,
                                b_scale, row_sum, bias, c, k, n);
    }
    slab<R>(fin, a, a_scale, panels, stride, b_scale, row_sum, bias, c, k,
            n);
  }

  template <Act A>
  static Finish finish_for(bool accumulate) {
    return accumulate ? &quant_finish_row<A, true>
                      : &quant_finish_row<A, false>;
  }

  static void gemm(Act act, bool accumulate, const std::int8_t* a,
                   const float* a_scale, const std::int8_t* panels,
                   float b_scale, const std::int32_t* row_sum,
                   const float* bias, float* c, std::size_t m, std::size_t k,
                   std::size_t n) {
    Finish fin = finish_for<Act::kNone>(accumulate);
    if (act == Act::kSigmoid) fin = finish_for<Act::kSigmoid>(accumulate);
    if (act == Act::kTanh) fin = finish_for<Act::kTanh>(accumulate);
    if (act == Act::kRelu) fin = finish_for<Act::kRelu>(accumulate);
    const std::size_t stride = k * kPanel * T::kCodeBytes;
    const std::size_t tiles = (m + T::kRows - 1) / T::kRows;
#pragma omp parallel for schedule(static) if (parallel_worthwhile(m, k, n))
    for (std::size_t t = 0; t < tiles; ++t) {
      const std::size_t i = t * T::kRows;
      const std::size_t rows = m - i < T::kRows ? m - i : T::kRows;
      slab_upto<T::kRows>(rows, fin, a + i * k, a_scale + i, panels, stride,
                          b_scale, row_sum, bias, c + i * n, k, n);
    }
  }
};

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
    for (; j + 4 <= n; j += 4) {
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

}  // namespace
}  // namespace tgnn::kernels::detail
