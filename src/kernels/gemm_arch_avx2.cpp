// AVX2+FMA build of the packed-panel GEMM (gemm_panel.inc) and of the int8
// tier. CMake compiles this TU with -mavx2 -mfma when the compiler supports
// them; otherwise the guards below degrade it to a stub table the
// dispatcher skips.
#include "kernels/gemm_dispatch.hpp"

#if defined(__GNUC__) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstddef>
#include <cstring>

#include "kernels/quant_core.hpp"

#define TGNN_PANEL_NS panel_avx2
#define TGNN_PANEL_VEC 8
#define TGNN_PANEL_ROWS 6
#define TGNN_PANEL_ACC 12
#define TGNN_PANEL_FMADD(a, b, c) _mm256_fmadd_ps((a), (b), (c))
#include "kernels/gemm_panel.inc"
#undef TGNN_PANEL_NS
#undef TGNN_PANEL_VEC
#undef TGNN_PANEL_ROWS
#undef TGNN_PANEL_ACC
#undef TGNN_PANEL_FMADD

namespace tgnn::kernels::detail {

namespace quant_avx2 {

// int8·int8 through pmaddwd: AVX2 has no unsigned×signed dot that cannot
// saturate on ±127 codes in both operands, so codes are widened to int16
// — the weights once, at pack time, into panels of k/2 rows × 16 columns
// × 2 codes; the activations per tile, a k-block of each row at a time,
// into a small stack buffer from which one 32-bit load broadcasts a pair.
// pmaddwd then sums each column's two products into exact int32 lanes
// (2·127² per step), accumulated as an outer product over the panel.

/// Codes [n, k] -> int16 panels of k/2 rows × 16 columns × 2 codes.
void pack(const std::int8_t* q, std::size_t n, std::size_t k,
          std::int8_t* out) {
  std::size_t idx = 0;
  for (std::size_t p = 0; p < panel_count(n); ++p)
    for (std::size_t g = 0; g < k; g += 2)
      for (std::size_t c = 0; c < kPanel; ++c) {
        const std::size_t r = p * kPanel + c;
        for (std::size_t t = 0; t < 2; ++t, idx += 2) {
          const std::int16_t v = r < n ? q[r * k + g + t] : std::int16_t{0};
          std::memcpy(out + idx, &v, sizeof v);
        }
      }
}

inline __m256i loadv(const std::int8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

struct Tier {
  static constexpr std::size_t kRows = 6;
  static constexpr std::size_t kAcc = 12;
  static constexpr std::size_t kVecs = 2;
  static constexpr std::size_t kCodeBytes = 2;
  static constexpr std::size_t kBlock = 256;  // codes per widened k-block

  template <std::size_t R, std::size_t P>
  static void tile(const std::int8_t* a, std::size_t k,
                   const std::int8_t* panels, std::size_t stride,
                   std::size_t /*j0*/, std::size_t /*n*/,
                   const std::int32_t* /*row_sum*/, std::int32_t* out) {
    __m256i acc[R][2 * P];
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t t = 0; t < 2 * P; ++t)
        acc[r][t] = _mm256_setzero_si256();
    alignas(32) std::int16_t wide[R][kBlock];
    // k is a multiple of kQuantKPad (64), so blocks hold whole 16-code
    // groups and whole pairs.
    for (std::size_t k0 = 0; k0 < k; k0 += kBlock) {
      const std::size_t len = k - k0 < kBlock ? k - k0 : kBlock;
      for (std::size_t r = 0; r < R; ++r)
        for (std::size_t g = 0; g < len; g += 16)
          _mm256_store_si256(
              reinterpret_cast<__m256i*>(&wide[r][g]),
              _mm256_cvtepi8_epi16(_mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(a + r * k + k0 + g))));
      for (std::size_t g = 0; g < len; g += 2) {
        const std::int8_t* row = panels + (k0 + g) * 2 * kPanel;
        __m256i b[2 * P];
        for (std::size_t p = 0; p < P; ++p) {
          b[2 * p] = loadv(row + p * stride);
          b[2 * p + 1] = loadv(row + p * stride + 32);
        }
        for (std::size_t r = 0; r < R; ++r) {
          std::int32_t pair;
          std::memcpy(&pair, &wide[r][g], sizeof pair);
          const __m256i av = _mm256_set1_epi32(pair);
          for (std::size_t t = 0; t < 2 * P; ++t)
            acc[r][t] =
                _mm256_add_epi32(acc[r][t], _mm256_madd_epi16(av, b[t]));
        }
      }
    }
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t t = 0; t < 2 * P; ++t)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(out + (r * 2 * P + t) * 8), acc[r][t]);
  }
};

void qgemm_entry(Act act, bool accumulate, const std::int8_t* a,
                 const float* a_scale, const std::int8_t* b, float b_scale,
                 const std::int32_t* b_row_sum, const float* bias, float* c,
                 std::size_t m, std::size_t k, std::size_t n) {
  QPanelDriver<Tier>::gemm(act, accumulate, a, a_scale, b, b_scale, b_row_sum,
                           bias, c, m, k, n);
}

// ---- per-row quantization -------------------------------------------------
// GCC autovectorizes neither the absmax-normalized multiply+round nor the
// float->int8 narrowing store, so the pass is hand-vectorized: cvtps2dq
// rounds half-to-even under the default MXCSR — identical to the rint the
// scalar tiers/tails use — and two saturating packs plus a lane-fixing
// permute narrow 32 int32 to 32 int8 (values are pre-clamped to ±127, so
// the packs never actually saturate).

inline float absmax(const float* x, std::size_t k) {
  const __m256 mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vm = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= k; i += 8)
    vm = _mm256_max_ps(vm, _mm256_and_ps(mask, _mm256_loadu_ps(x + i)));
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(vm),
                         _mm256_extractf128_ps(vm, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
  float m = _mm_cvtss_f32(m4);
  for (; i < k; ++i) m = std::fmax(m, std::fabs(x[i]));
  return m;
}

/// 8 floats -> 8 clamped, half-even-rounded int32. The min-first order
/// sends a NaN element to +127, matching quantize_span_scalar's fmin.
inline __m256i cvt_clamp8(const float* p, __m256 inv, __m256 lo, __m256 hi) {
  __m256 v = _mm256_mul_ps(_mm256_loadu_ps(p), inv);
  v = _mm256_max_ps(_mm256_min_ps(v, hi), lo);
  return _mm256_cvtps_epi32(v);
}

void quantize_rows(const float* x, std::size_t m, std::size_t k,
                   std::size_t stride, std::int8_t* q, float* scale) {
  const __m256 hi = _mm256_set1_ps(127.0f);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  // packs_epi32/16 interleave 128-bit lanes; this permute restores source
  // order (dwords [a0 b0 c0 d0 | a1 b1 c1 d1] -> [a0 a1 b0 b1 ...]).
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = x + i * k;
    std::int8_t* qrow = q + i * stride;
    std::memset(qrow + k, 0, stride - k);
    const float s = quant_scale_from_absmax(absmax(row, k));
    scale[i] = s;
    if (!(s > 0.0f)) {
      std::memset(qrow, 0, k);
      continue;
    }
    const float invf = 1.0f / s;
    const __m256 inv = _mm256_set1_ps(invf);
    std::size_t j = 0;
    for (; j + 32 <= k; j += 32) {
      const __m256i i0 = cvt_clamp8(row + j + 0, inv, lo, hi);
      const __m256i i1 = cvt_clamp8(row + j + 8, inv, lo, hi);
      const __m256i i2 = cvt_clamp8(row + j + 16, inv, lo, hi);
      const __m256i i3 = cvt_clamp8(row + j + 24, inv, lo, hi);
      const __m256i p16a = _mm256_packs_epi32(i0, i1);
      const __m256i p16b = _mm256_packs_epi32(i2, i3);
      const __m256i p8 = _mm256_permutevar8x32_epi32(
          _mm256_packs_epi16(p16a, p16b), perm);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(qrow + j), p8);
    }
    quantize_span_scalar(row + j, invf, qrow + j, k - j);
  }
}

}  // namespace quant_avx2

KernelTable avx2_kernel_table() {
  return {&panel_avx2::gemm_entry, &panel_avx2::gru_finish_entry,
          "avx2+fma"};
}

QuantKernelTable avx2_quant_table() {
  return {&quant_avx2::qgemm_entry, &quant_avx2::quantize_rows,
          &quant_avx2::pack, 2, false, "avx2-madd"};
}

}  // namespace tgnn::kernels::detail

#else

namespace tgnn::kernels::detail {

KernelTable avx2_kernel_table() { return {}; }

QuantKernelTable avx2_quant_table() { return {}; }

}  // namespace tgnn::kernels::detail

#endif
