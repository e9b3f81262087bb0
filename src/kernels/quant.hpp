// Quantized (int8) inference kernels — the software counterpart of the
// paper's fixed-point accelerator datapath, behind the same runtime-ISA
// dispatch seam as the fp32 GEMMs (gemm_dispatch.hpp).
//
// Scheme (symmetric, zero-point-free):
//   * weights  — per-tensor scale, quantized ONCE at model load:
//                s_w = absmax(W)/127, Q = round(W/s_w), clamped to ±127.
//   * activations — per-ROW dynamic scale, quantized per batch: row i of a
//                staged matrix (vertex memory gathers, packed neighbor kv
//                rows, GRU mail rows) gets s_i = absmax(row)/127. An
//                all-zero row gets s_i = 0 and q = 0 (the scale-0 guard:
//                dequantization multiplies by s_i, so no division ever
//                happens on the zero row).
//   * accumulation — int32 exact (int8·int8 widening dot), dequantized in
//                fp32 in the epilogue: y = act(s_i·s_w·idot + bias). Biases
//                and activation functions stay fp32, so every stage
//                boundary (vertex memory, embeddings, logits) is fp32 and
//                the persistent state layout is untouched.
//
// Because the int32 dot is EXACT, the result is independent of lane width,
// blocking shape, and summation order — every ISA tier (generic, avx2
// pmaddwd, avx512 VNNI) produces bit-identical output, a stronger guarantee
// than the fp32 kernels give (pinned by tests/kernels/quant_test.cpp).
//
// int8 is faster than fp32 only on a tier whose integer dot outruns its
// fp32 FMA: on one Xeon core, avx512-vnni runs the GRU and the 472->100
// affine at 1.6-1.8x the fp32 panel kernel at batch 16-128, while
// avx2-madd (pmaddwd) only matches avx2's fp32 FMA and the generic tier is
// slower (the table is in DESIGN.md "Where int8 pays"). So the serving
// engine offers int8 as an overload rung only where
// int8_faster_than_fp32().
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kernels/gemm.hpp"
#include "tensor/tensor.hpp"

namespace tgnn::kernels {

/// Numeric mode of the inference hot path. Training is always fp32. The
/// values are stable: tuning journals carry them raw.
enum class Precision { kFp32 = 0, kInt8 = 1 };

[[nodiscard]] const char* precision_name(Precision p);
/// "fp32" | "int8" -> enum; false on anything else.
bool parse_precision(const std::string& s, Precision& out);

/// Quantized rows are stored padded to the widest int8 vector width (the
/// avx512 tier eats 64 codes per step). Padding codes are ZERO, and a zero
/// code contributes exactly 0 to every tier's integer dot (in the VNNI
/// offset domain the surplus 128·0 also cancels), so kernels run over the
/// padded length and never need a scalar k-tail — which otherwise dominates
/// at the model's k≈100–500 (e.g. k=472 leaves a 24-element scalar tail per
/// output element).
inline constexpr std::size_t kQuantKPad = 64;
[[nodiscard]] constexpr std::size_t quant_padded(std::size_t k) {
  return (k + kQuantKPad - 1) / kQuantKPad * kQuantKPad;
}

/// Per-tensor-scale int8 snapshot of a [rows, cols] weight matrix (row-major
/// like the fp32 Tensor it shadows, rows padded to `stride` zeros — see
/// kQuantKPad). `row_sum[j]` = sum of row j's quantized values — the VNNI
/// kernel's unsigned-offset correction term. `panels` holds the same codes
/// in the active int8 tier's packed layout (empty on the generic tier,
/// whose kernel reads `data`).
struct QuantWeight {
  std::vector<std::int8_t> data;     ///< [rows * stride]
  std::vector<std::int32_t> row_sum; ///< [rows]
  AlignedVector<std::int8_t> panels;
  float scale = 0.0f;
  std::size_t rows = 0, cols = 0, stride = 0;
  [[nodiscard]] bool ready() const { return !data.empty(); }
};

/// Per-row dynamically quantized activation panel; reused across batches
/// (grow-don't-shrink, like every other workspace buffer). Rows are stored
/// at `stride` = quant_padded(cols), zero-padded like QuantWeight.
struct QuantActs {
  std::vector<std::int8_t> data;  ///< [rows * stride]
  std::vector<float> scale;       ///< [rows]
  std::size_t rows = 0, cols = 0, stride = 0;
};

// ---- quantize / dequantize primitives -------------------------------------

/// Quantize one row with an explicit scale: q = round(x/scale) clamped to
/// ±127 (the saturation guard — values beyond ±127·scale clip). scale <= 0
/// writes all zeros.
void quantize_row_with_scale(std::span<const float> x, float scale,
                             std::span<std::int8_t> q);
/// Per-row dynamic scale: absmax(x)/127 (0 for an all-zero row); quantizes
/// the row with it and returns it.
float quantize_row(std::span<const float> x, std::span<std::int8_t> q);
/// Per-row dynamic quantization of a whole [m, k] panel into `out`.
void quantize_rows_into(const Tensor& x, QuantActs& out);
/// x̂ = q·scale, the round-trip inverse (tests / diagnostics).
void dequantize_into(const QuantActs& a, Tensor& out);

/// Per-tensor weight quantization (scale = absmax/127; all-zero weight gets
/// scale 0 and all-zero q), packed for the active tier. Leaves `out`
/// untouched when it already holds exactly this snapshot, so re-preparing
/// an unchanged model is read-only.
void quantize_weight(const Tensor& w, QuantWeight& out);
/// Dequantized copy ŵ = q·scale (tests / diagnostics).
void dequantize_weight(const QuantWeight& w, Tensor& out);

// ---- int8 fused affine entries --------------------------------------------
// Quantized counterparts of the fused.hpp affine family: x is a per-row-
// quantized panel (quantize_rows_into), w a per-tensor-quantized weight,
// bias/outputs fp32. y resized to [x.rows, w.rows].

/// y = s_x[i]·s_w·(q_x·q_wᵀ) + b
void qaffine_into(const QuantActs& x, const QuantWeight& w, const Tensor& b,
                  Tensor& y);
/// y = relu(...)
void qaffine_relu_into(const QuantActs& x, const QuantWeight& w,
                       const Tensor& b, Tensor& y);
/// y = sigmoid(x-part + h-part) — the GRU gate shape (two quantized GEMMs,
/// both biases, sigmoid on the fp32 sum).
void qaffine2_sigmoid_into(const QuantActs& x, const QuantWeight& wi,
                           const Tensor& bi, const QuantActs& h,
                           const QuantWeight& wh, const Tensor& bh, Tensor& y);

/// Name of the int8 micro-kernel tier in use ("generic" | "avx2-madd" |
/// "avx512-vnni"), resolved once per process like simd_arch_name().
const char* quant_arch_name();

/// Whether the int8 tier in use is measured faster than fp32 on the same
/// machine (true on avx512-vnni only) — the overload ladder's int8 rung.
bool int8_faster_than_fp32();

}  // namespace tgnn::kernels
