// AVX-512 VNNI build of the int8 GEMM micro-kernel. CMake compiles this TU
// with -mavx512f/-mavx512vl/-mavx512bw/-mavx512vnni when the compiler
// supports them; otherwise the guards degrade it to a stub tier the
// dispatcher skips. This is a separate TU from gemm_arch_avx512.cpp so the
// fp32 panel kernel is never compiled under VNNI/BW flags its runtime
// check does not verify.
//
// The weights are packed once into the same k-major 16-column panels as
// fp32, with k grouped by four: one 64-byte panel row holds 4 consecutive
// codes of each of the 16 columns, the operand shape of vpdpbusd. The
// micro-kernel broadcasts 4 activation codes per tile row and accumulates
// an outer product — no horizontal reduction.
//
// vpdpbusd computes u8·s8 dots, and AVX-512 has no vpsignb to replay a
// sign trick, so the kernel runs in the offset domain: the s8 activations
// are biased to u8 by XOR 0x80 (a+128), and the surplus 128·Σb_j is
// subtracted up front by starting each column's accumulator at
// −128·row_sum[j] (QuantWeight::row_sum). Products and row lengths here
// keep the i32 accumulators far from overflow: 4·255·127 per step, k <= a
// few thousand.
#include "kernels/gemm_dispatch.hpp"

#if defined(__GNUC__) && defined(__AVX512F__) && defined(__AVX512VL__) && \
    defined(__AVX512BW__) && defined(__AVX512VNNI__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "kernels/quant_core.hpp"

// GCC's 512->256/128 extract intrinsics route _mm256_undefined_si256()
// through a masked builtin, which GCC 12 falsely flags (PR105593). Every
// accumulator below is explicitly initialized.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace tgnn::kernels::detail {

namespace quant_avx512vnni {

/// Codes [n, k] -> panels of k/4 rows × 16 columns × 4 codes.
void pack(const std::int8_t* q, std::size_t n, std::size_t k,
          std::int8_t* out) {
  std::size_t idx = 0;
  for (std::size_t p = 0; p < panel_count(n); ++p)
    for (std::size_t g = 0; g < k; g += 4)
      for (std::size_t c = 0; c < kPanel; ++c) {
        const std::size_t r = p * kPanel + c;
        for (std::size_t t = 0; t < 4; ++t, ++idx)
          out[idx] = r < n ? q[r * k + g + t] : std::int8_t{0};
      }
}

struct Tier {
  static constexpr std::size_t kRows = 8;
  static constexpr std::size_t kAcc = 24;
  static constexpr std::size_t kVecs = 1;
  static constexpr std::size_t kCodeBytes = 1;

  template <std::size_t R, std::size_t P>
  static void tile(const std::int8_t* a, std::size_t k,
                   const std::int8_t* panels, std::size_t stride,
                   std::size_t j0, std::size_t n, const std::int32_t* row_sum,
                   std::int32_t* out) {
    __m512i acc[R][P];
    for (std::size_t p = 0; p < P; ++p) {
      alignas(64) std::int32_t init[kPanel] = {};
      for (std::size_t c = 0; c < kPanel && j0 + p * kPanel + c < n; ++c)
        init[c] = -128 * row_sum[j0 + p * kPanel + c];
      const __m512i v = _mm512_load_si512(init);
      for (std::size_t r = 0; r < R; ++r) acc[r][p] = v;
    }
    const __m512i x80 = _mm512_set1_epi8(static_cast<char>(0x80));
    for (std::size_t g = 0; g < k; g += 4) {
      __m512i b[P];
      for (std::size_t p = 0; p < P; ++p)
        b[p] = _mm512_loadu_si512(panels + p * stride + g * kPanel);
      for (std::size_t r = 0; r < R; ++r) {
        std::int32_t a4;
        std::memcpy(&a4, a + r * k + g, sizeof a4);
        const __m512i ua = _mm512_xor_si512(_mm512_set1_epi32(a4), x80);
        for (std::size_t p = 0; p < P; ++p)
          acc[r][p] = _mm512_dpbusd_epi32(acc[r][p], ua, b[p]);
      }
    }
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t p = 0; p < P; ++p)
        _mm512_store_si512(out + (r * P + p) * kPanel, acc[r][p]);
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
// Same contract as the avx2 tier (see gemm_arch_avx2.cpp): cvtps2dq rounds
// half-to-even like the scalar rint tails, values are clamped to ±127
// before converting, and vpmovsdb narrows 16 int32 straight to 16 int8.

inline float absmax(const float* x, std::size_t k) {
  __m512 vm = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= k; i += 16)
    vm = _mm512_max_ps(vm, _mm512_abs_ps(_mm512_loadu_ps(x + i)));
  float m = _mm512_reduce_max_ps(vm);
  for (; i < k; ++i) m = std::fmax(m, std::fabs(x[i]));
  return m;
}

void quantize_rows(const float* x, std::size_t m, std::size_t k,
                   std::size_t stride, std::int8_t* q, float* scale) {
  const __m512 hi = _mm512_set1_ps(127.0f);
  const __m512 lo = _mm512_set1_ps(-127.0f);
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
    const __m512 inv = _mm512_set1_ps(invf);
    std::size_t j = 0;
    for (; j + 16 <= k; j += 16) {
      __m512 v = _mm512_mul_ps(_mm512_loadu_ps(row + j), inv);
      v = _mm512_max_ps(_mm512_min_ps(v, hi), lo);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(qrow + j),
                       _mm512_cvtsepi32_epi8(_mm512_cvtps_epi32(v)));
    }
    quantize_span_scalar(row + j, invf, qrow + j, k - j);
  }
}

}  // namespace quant_avx512vnni

QuantKernelTable avx512_quant_table() {
  return {&quant_avx512vnni::qgemm_entry, &quant_avx512vnni::quantize_rows,
          &quant_avx512vnni::pack, 1, true, "avx512-vnni"};
}

}  // namespace tgnn::kernels::detail

#else

namespace tgnn::kernels::detail {

QuantKernelTable avx512_quant_table() { return {}; }

}  // namespace tgnn::kernels::detail

#endif
