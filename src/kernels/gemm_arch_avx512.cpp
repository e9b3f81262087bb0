// AVX-512 build of the packed-panel GEMM (gemm_panel.inc), at 512-bit
// vectors: one per panel row. The dot-product kernel this replaced ran
// 256-bit lanes here because 512-bit ones measured slower for it; the
// outer-product tile keeps up to 24 independent FMA chains in flight, and
// on one AVX-512 VNNI Xeon core 512-bit vectors ran the 472->100 GRU 1.5x
// and its input GEMMs 1.7-1.9x faster than a 256-bit build of this TU,
// with the pipelined out-of-core serving p99 unchanged within noise (see
// DESIGN.md "The kernel layer"). Both widths give the same bits: every
// lane runs the same FMA chain.
#include "kernels/gemm_dispatch.hpp"

#if defined(__GNUC__) && defined(__AVX512F__) && defined(__AVX512VL__) && \
    defined(__FMA__)

#include <immintrin.h>

#include <cstddef>

#define TGNN_PANEL_NS panel_avx512
#define TGNN_PANEL_VEC 16
#define TGNN_PANEL_ROWS 8
#define TGNN_PANEL_ACC 24
#define TGNN_PANEL_FMADD(a, b, c) _mm512_fmadd_ps((a), (b), (c))
#include "kernels/gemm_panel.inc"
#undef TGNN_PANEL_NS
#undef TGNN_PANEL_VEC
#undef TGNN_PANEL_ROWS
#undef TGNN_PANEL_ACC
#undef TGNN_PANEL_FMADD

namespace tgnn::kernels::detail {

KernelTable avx512_kernel_table() {
  return {&panel_avx512::gemm_entry, &panel_avx512::gru_finish_entry,
          "avx512"};
}

}  // namespace tgnn::kernels::detail

#else

namespace tgnn::kernels::detail {

KernelTable avx512_kernel_table() { return {}; }

}  // namespace tgnn::kernels::detail

#endif
