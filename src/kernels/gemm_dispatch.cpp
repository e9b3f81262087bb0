#include "kernels/gemm_dispatch.hpp"

#include <cstdlib>
#include <cstring>

#include "kernels/quant_core.hpp"

// The generic build of the panel GEMM: baseline ISA, 128-bit vectors, no
// FMA (the product rounds before the add).
#define TGNN_PANEL_NS panel_generic
#define TGNN_PANEL_VEC 4
#define TGNN_PANEL_ROWS 2
#define TGNN_PANEL_ACC 8
#define TGNN_PANEL_FMADD(a, b, c) ((a) * (b) + (c))
#include "kernels/gemm_panel.inc"
#undef TGNN_PANEL_NS
#undef TGNN_PANEL_VEC
#undef TGNN_PANEL_ROWS
#undef TGNN_PANEL_ACC
#undef TGNN_PANEL_FMADD

namespace tgnn::kernels::detail {

namespace {

KernelTable generic_table() {
  return {&panel_generic::gemm_entry, &panel_generic::gru_finish_entry,
          "generic"};
}

void generic_qgemm(Act act, bool accumulate, const std::int8_t* a,
                   const float* a_scale, const std::int8_t* b, float b_scale,
                   const std::int32_t* /*b_row_sum*/, const float* bias,
                   float* c, std::size_t m, std::size_t k, std::size_t n) {
  switch (act) {
    case Act::kNone:
      accumulate
          ? qgemm_nt_act<Act::kNone, true>(a, a_scale, b, b_scale, bias, c, m,
                                           k, n)
          : qgemm_nt_act<Act::kNone, false>(a, a_scale, b, b_scale, bias, c, m,
                                            k, n);
      break;
    case Act::kSigmoid:
      accumulate
          ? qgemm_nt_act<Act::kSigmoid, true>(a, a_scale, b, b_scale, bias, c,
                                              m, k, n)
          : qgemm_nt_act<Act::kSigmoid, false>(a, a_scale, b, b_scale, bias, c,
                                               m, k, n);
      break;
    case Act::kTanh:
      accumulate
          ? qgemm_nt_act<Act::kTanh, true>(a, a_scale, b, b_scale, bias, c, m,
                                           k, n)
          : qgemm_nt_act<Act::kTanh, false>(a, a_scale, b, b_scale, bias, c, m,
                                            k, n);
      break;
    case Act::kRelu:
      accumulate
          ? qgemm_nt_act<Act::kRelu, true>(a, a_scale, b, b_scale, bias, c, m,
                                           k, n)
          : qgemm_nt_act<Act::kRelu, false>(a, a_scale, b, b_scale, bias, c, m,
                                            k, n);
      break;
  }
}

void generic_quantize_rows(const float* x, std::size_t m, std::size_t k,
                           std::size_t stride, std::int8_t* q, float* scale) {
  quantize_rows_generic(x, m, k, stride, q, scale);
}

QuantKernelTable generic_quant_table() {
  return {&generic_qgemm, &generic_quantize_rows, nullptr, 0, false,
          "generic"};
}

QuantKernelTable resolve_quant() {
  // Same TGNN_KERNEL_ARCH cap as the fp32 resolver; the int8 tier ladder
  // just has different runtime requirements per rung.
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup; nothing
  // in the process calls setenv.
  const char* force = std::getenv("TGNN_KERNEL_ARCH");
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  const bool want_512 = force == nullptr || std::strcmp(force, "avx512") == 0;
  const bool want_avx2 = force == nullptr || std::strcmp(force, "avx2") == 0;
  if (want_512 && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vnni")) {
    const QuantKernelTable t = avx512_quant_table();
    if (t.qgemm != nullptr) return t;
  }
  if ((want_512 || want_avx2) && __builtin_cpu_supports("avx2")) {
    const QuantKernelTable t = avx2_quant_table();
    if (t.qgemm != nullptr) return t;
  }
#else
  (void)force;
#endif
  return generic_quant_table();
}

KernelTable resolve() {
  // TGNN_KERNEL_ARCH=generic|avx2|avx512 caps the variant (testing/debug);
  // a capped variant the CPU or build can't run falls back to the next one.
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup; nothing
  // in the process calls setenv.
  const char* force = std::getenv("TGNN_KERNEL_ARCH");
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  const bool want_512 = force == nullptr || std::strcmp(force, "avx512") == 0;
  const bool want_avx2 = force == nullptr || std::strcmp(force, "avx2") == 0;
  if (want_512 && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("fma")) {
    const KernelTable t = avx512_kernel_table();
    if (t.gemm != nullptr) return t;
  }
  if ((want_512 || want_avx2) && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    const KernelTable t = avx2_kernel_table();
    if (t.gemm != nullptr) return t;
  }
#else
  (void)force;
#endif
  return generic_table();
}

}  // namespace

const KernelTable& active_kernels() {
  static const KernelTable table = resolve();
  return table;
}

const QuantKernelTable& active_quant_kernels() {
  static const QuantKernelTable table = resolve_quant();
  return table;
}

}  // namespace tgnn::kernels::detail

namespace tgnn::kernels {

const char* simd_arch_name() { return detail::active_kernels().name; }

}  // namespace tgnn::kernels
