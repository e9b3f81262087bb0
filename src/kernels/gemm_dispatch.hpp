// INTERNAL: runtime ISA dispatch for the GEMM micro-kernels.
//
// The repo compiles for baseline x86-64 (portability), but the serving hot
// path should run as fast as the *host* allows (ROADMAP north star). The
// packed-panel GEMM (gemm_panel.inc) is therefore built three times:
//
//   generic  — baseline ISA, multiply and add kept separate (no FMA)
//   avx2     — -mavx2 -mfma, 256-bit vectors
//   avx512   — -mavx512f/-mavx512vl -mfma (see gemm_arch_avx512.cpp for
//              the vector width it runs at)
//
// and `active_kernels()` picks the best table the CPU supports, exactly
// once per process. Because the choice is process-global, every caller —
// per-row and batched inference, every backend, every thread — runs the
// same variant.
//
// Every variant computes each output element as one sequential
// multiply-add chain over k, so per element the result does not depend on
// the tile shape, the row count m or the thread count — the property the
// batched pipeline's equivalence tests pin. avx2 and avx512 both fuse the
// chain with FMA and give the same bits; generic (no FMA) rounds the
// product separately and differs from them in the last bits.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/gemm_core.hpp"

namespace tgnn::kernels::detail {

/// c[m,n] = act((accumulate ? c : 0) + a[m,k]·Wᵀ + bias), bias nullable,
/// W [n,k] given as its packed panels (pack_weight in gemm.hpp).
using GemmFn = void (*)(Act act, bool accumulate, const float* a,
                        const float* panels, const float* bias, float* c,
                        std::size_t m, std::size_t k, std::size_t n);

/// The GRU's elementwise tail over `total` elements, in place over out:
/// out = (1 − z)∘tanh(out + r∘q) + z∘h. Built per ISA for speed only: it
/// runs the one vectorized tanh, so every table gives the same bits.
using GruFinishFn = void (*)(float* out, const float* r, const float* z,
                             const float* q, const float* h,
                             std::size_t total, bool parallel);

struct KernelTable {
  GemmFn gemm = nullptr;
  GruFinishFn gru_finish = nullptr;
  const char* name = "none";
};

/// Arch tables; `gemm == nullptr` when the TU was built without the ISA
/// (unsupported compiler flag) — the resolver skips such entries.
KernelTable avx2_kernel_table();
KernelTable avx512_kernel_table();

/// The table every public kernel entry routes through; resolved on first
/// use (thread-safe magic static) from CPU feature detection.
const KernelTable& active_kernels();

/// Packs a raw [n, k] weight into this thread's scratch panels (grown on
/// demand, never shrunk) for the raw-tensor entries; valid until the same
/// thread's next call.
const float* scratch_panels(const float* w, std::size_t n, std::size_t k);

// ---- int8 tier ------------------------------------------------------------
// The quantized GEMM has its own dispatch axis because its ISA ladder
// differs from fp32's (pmaddwd needs avx2 only; the top tier needs
// AVX512BW+VNNI, which not every avx512f/vl machine has). Every int8 tier is
// bit-identical by construction: the int32 accumulation is exact and the
// fp32 epilogue is one shared expression (quant_core.hpp), so mixing tiers
// across processes can never split numerics.

/// c = act((accumulate ? c : 0) + (a_scale[i]·b_scale)·(a[m,k]·b[n,k]ᵀ)
///         + bias). a: per-row-quantized activations (a_scale[m]), rows at
/// stride k; b: the per-tensor-quantized weight in the tier's own layout
/// (QuantWeight::panels when the tier packs, else the row-major codes);
/// b_row_sum[n] = per-output-row sums of b's codes (the unsigned-offset
/// correction the VNNI tier needs; other tiers ignore it). bias nullable.
using QGemmFn = void (*)(Act act, bool accumulate, const std::int8_t* a,
                         const float* a_scale, const std::int8_t* b,
                         float b_scale, const std::int32_t* b_row_sum,
                         const float* bias, float* c, std::size_t m,
                         std::size_t k, std::size_t n);

/// Row-major codes [n, k] -> the tier's k-major kPanel-column panels,
/// columns past n zero; writes panel_count(n)·k·kPanel·code_bytes bytes.
using QPackFn = void (*)(const std::int8_t* q, std::size_t n, std::size_t k,
                         std::int8_t* out);

/// Per-row dynamic quantization of an [m, k] fp32 panel: row i gets
/// scale[i] = absmax(row)/127 (0 for an all-zero row — the scale-0 guard)
/// and q = clamp(round_half_even(x/scale), ±127), written at q + i·stride
/// with the [k, stride) pad bytes zeroed (stride >= k; see kQuantKPad). On
/// the hot path this runs once per staged activation matrix, so it is
/// dispatched like the GEMMs: the float->int8 narrowing store only
/// vectorizes through pack intrinsics. All tiers round half-to-even
/// (cvtps2dq under default MXCSR == rint), so the quantized panel — and
/// hence the whole int8 path — is bit-identical across tiers for finite
/// inputs.
using QuantizeRowsFn = void (*)(const float* x, std::size_t m, std::size_t k,
                                std::size_t stride, std::int8_t* q,
                                float* scale);

struct QuantKernelTable {
  QGemmFn qgemm = nullptr;
  QuantizeRowsFn quantize = nullptr;
  QPackFn pack = nullptr;      ///< nullptr: qgemm reads row-major codes
  std::size_t code_bytes = 0;  ///< bytes per packed code (1 or 2)
  /// Measured, not derived: the tier runs the GRU and the 472->100 affine
  /// faster than the same ISA's fp32 panel kernel at batch 16-128.
  bool beats_fp32 = false;
  const char* name = "none";
};

/// Arch tiers; `qgemm == nullptr` when the TU was built without the ISA.
QuantKernelTable avx2_quant_table();     ///< pmaddwd (gemm_arch_avx2.cpp)
QuantKernelTable avx512_quant_table();   ///< VNNI dpbusd (gemm_arch_avx512vnni.cpp)

/// Resolved once per process, honoring the same TGNN_KERNEL_ARCH cap as the
/// fp32 table ("avx512" selects the VNNI tier where the CPU has it).
const QuantKernelTable& active_quant_kernels();

}  // namespace tgnn::kernels::detail

namespace tgnn::kernels {

/// Name of the micro-kernel variant in use ("generic" | "avx2+fma" |
/// "avx512"), for bench banners and diagnostics.
const char* simd_arch_name();

}  // namespace tgnn::kernels
