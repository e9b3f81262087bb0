// The quantized path's kernel-level contracts (DESIGN.md "The quantized
// inference path"):
//
//  * quantize/dequantize round-trips — saturation clamps to ±127, the
//    all-zero-row scale-0 guard never divides, denormal and huge scales
//    stay finite, and the round-trip error is bounded by half a step;
//  * per-row dynamic scales degrade to the per-tensor scheme exactly when
//    every row shares one absmax (constant-row matrices);
//  * cross-tier bit-identity — the dispatched int8 tier (whatever the host
//    resolves: generic, avx2 maddubs, avx512 VNNI) reproduces the exact
//    scalar integer reference bit-for-bit, both the quantized panel and the
//    GEMM output. The int32 dot is exact and the fp32 epilogue is one
//    shared expression, so this pins ALL tiers to identical numerics;
//  * the k-padding codes (kQuantKPad) are exact no-ops;
//  * the fused int8 entries track their fp32 counterparts within the
//    quantization error budget.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/fused.hpp"
#include "kernels/gemm_dispatch.hpp"
#include "kernels/quant.hpp"
#include "kernels/quant_core.hpp"
#include "nn/gru_cell.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace tgnn::kernels {
namespace {

// ---- quantize / dequantize round-trips ------------------------------------

TEST(Quantize, SaturationClampsToPm127) {
  // Values beyond ±127·scale must clip, not wrap.
  const std::vector<float> x = {1e6f, -1e6f, 300.0f, -300.0f, 1.0f, 0.0f};
  std::vector<std::int8_t> q(x.size());
  quantize_row_with_scale(x, /*scale=*/1.0f, q);
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], -127);
  EXPECT_EQ(q[2], 127);
  EXPECT_EQ(q[3], -127);
  EXPECT_EQ(q[4], 1);
  EXPECT_EQ(q[5], 0);
}

TEST(Quantize, AllZeroRowGetsScaleZeroAndZeroCodes) {
  // The scale-0 guard: dequantization multiplies by the scale, so the zero
  // row must round-trip without any division ever happening.
  Tensor x(3, 9);
  for (std::size_t j = 0; j < 9; ++j) {
    x(0, j) = 0.0f;
    x(1, j) = 0.25f * static_cast<float>(j) - 1.0f;
    x(2, j) = 0.0f;
  }
  QuantActs qa;
  quantize_rows_into(x, qa);
  EXPECT_EQ(qa.scale[0], 0.0f);
  EXPECT_EQ(qa.scale[2], 0.0f);
  EXPECT_GT(qa.scale[1], 0.0f);
  for (std::size_t j = 0; j < qa.stride; ++j) {
    EXPECT_EQ(qa.data[0 * qa.stride + j], 0);
    EXPECT_EQ(qa.data[2 * qa.stride + j], 0);
  }
  Tensor back;
  dequantize_into(qa, back);
  for (std::size_t j = 0; j < 9; ++j) {
    EXPECT_EQ(back(0, j), 0.0f);
    EXPECT_EQ(back(2, j), 0.0f);
    EXPECT_TRUE(std::isfinite(back(1, j)));
  }
}

TEST(Quantize, DenormalAndHugeScalesStayFiniteWhereTheyCan) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float huge = std::numeric_limits<float>::max() / 256.0f;
  Tensor x(2, 5);
  for (std::size_t j = 0; j < 5; ++j) {
    x(0, j) = denorm * static_cast<float>(j + 1);  // absmax is denormal
    x(1, j) = (j % 2 ? -1.0f : 1.0f) * huge / static_cast<float>(j + 1);
  }
  QuantActs qa;
  quantize_rows_into(x, qa);
  Tensor back;
  dequantize_into(qa, back);
  // The denormal row's scale (absmax/127) underflows to 0, so the row
  // quantizes to zeros under the scale-0 guard — the information is lost,
  // but nothing is non-finite and the error is below the smallest normal.
  EXPECT_EQ(qa.scale[0], 0.0f);
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(back(0, j), 0.0f) << j;
    EXPECT_LT(std::fabs(back(0, j) - x(0, j)),
              std::numeric_limits<float>::min())
        << j;
  }
  // The huge row stays finite with the half-a-step round-trip bound (one
  // ulp of slack for the scale division).
  EXPECT_TRUE(std::isfinite(qa.scale[1]));
  EXPECT_EQ(qa.data[1 * qa.stride + 0], 127);  // absmax element saturates
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_TRUE(std::isfinite(back(1, j))) << j;
    EXPECT_LE(std::fabs(back(1, j) - x(1, j)),
              0.5f * qa.scale[1] * (1.0f + 1e-6f))
        << j;
  }

  // At the absolute float ceiling the scale division can round up, making
  // 127·scale overflow on dequantization — codes still clamp to ±127 (no
  // UB anywhere), which is the guarantee the kernel path needs.
  Tensor ceil_row(1, 2);
  ceil_row(0, 0) = std::numeric_limits<float>::max();
  ceil_row(0, 1) = -std::numeric_limits<float>::max();
  QuantActs qc;
  quantize_rows_into(ceil_row, qc);
  EXPECT_TRUE(std::isfinite(qc.scale[0]));
  EXPECT_EQ(qc.data[0], 127);
  EXPECT_EQ(qc.data[1], -127);
}

TEST(Quantize, RoundTripErrorWithinHalfStep) {
  Rng rng(11);
  const Tensor x = Tensor::randn(7, 53, rng, 2.0f);
  QuantActs qa;
  quantize_rows_into(x, qa);
  Tensor back;
  dequantize_into(qa, back);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j)
      EXPECT_LE(std::fabs(back(i, j) - x(i, j)),
                0.5f * qa.scale[i] * (1.0f + 1e-6f))
          << i << "," << j;
}

TEST(Quantize, PerRowEqualsPerTensorOnConstantAbsmaxRows) {
  // When every row shares one absmax, the per-row dynamic scheme IS the
  // per-tensor scheme: same scale, and — because the weight path and every
  // activation tier round half-to-even — the same codes.
  Rng rng(17);
  Tensor x = Tensor::randn(6, 31, rng, 0.5f);
  for (std::size_t i = 0; i < x.rows(); ++i) x(i, 0) = 3.0f;  // shared absmax
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 1; j < x.cols(); ++j)
      x(i, j) = std::fmin(2.9f, std::fmax(-2.9f, x(i, j)));

  QuantActs qa;
  quantize_rows_into(x, qa);
  QuantWeight qw;
  quantize_weight(x, qw);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(qa.scale[i], qw.scale) << "row " << i;
    for (std::size_t j = 0; j < x.cols(); ++j)
      EXPECT_EQ(qa.data[i * qa.stride + j], qw.data[i * qw.stride + j])
          << i << "," << j;
  }
}

// ---- cross-tier bit-identity ----------------------------------------------

TEST(QuantDispatch, QuantizeMatchesScalarReferenceBitForBit) {
  // The dispatched tier (host's best) against the quant_core scalar rule:
  // scale = absmax/127, q = clamp(rint(x/scale)). Any tier that diverged by
  // one rounding would fail here — which is the whole cross-tier identity
  // argument, since every tier must pass on its own hardware.
  Rng rng(23);
  const std::size_t m = 9, k = 201;  // odd k: vector body + scalar tail
  const Tensor x = Tensor::randn(m, k, rng, 1.5f);
  const auto& tab = detail::active_quant_kernels();

  const std::size_t stride = quant_padded(k);
  std::vector<std::int8_t> q(m * stride, 99), q_ref(m * stride, 99);
  std::vector<float> s(m), s_ref(m);
  tab.quantize(x.data(), m, k, stride, q.data(), s.data());
  detail::quantize_rows_generic(x.data(), m, k, stride, q_ref.data(),
                                s_ref.data());
  for (std::size_t i = 0; i < m; ++i)
    EXPECT_EQ(s[i], s_ref[i]) << "scale row " << i << " on " << tab.name;
  for (std::size_t i = 0; i < m * stride; ++i)
    EXPECT_EQ(q[i], q_ref[i]) << "code " << i << " on " << tab.name;
}

TEST(QuantDispatch, QgemmMatchesExactIntegerReferenceBitForBit) {
  // int32 dots are exact, and the epilogue is the one shared quant_finish
  // expression — so the dispatched GEMM must equal a scalar integer
  // reference EXACTLY, not approximately.
  Rng rng(29);
  const std::size_t m = 13, k = 137, n = 27;  // all off vector boundaries
  const Tensor a = Tensor::randn(m, k, rng, 1.0f);
  const Tensor w = Tensor::randn(n, k, rng, 0.7f);
  const Tensor bias = Tensor::randn(n, 1, rng, 0.3f);

  QuantActs qa;
  quantize_rows_into(a, qa);
  QuantWeight qw;
  quantize_weight(w, qw);
  ASSERT_EQ(qa.stride, qw.stride);

  const auto& tab = detail::active_quant_kernels();
  Tensor c(m, n);
  // k = stride: the padded codes are zero, hence exact no-ops (VNNI's
  // offset-domain correction included) — pinned by this very comparison.
  // The tier reads its own packed panels, or the row-major codes when it
  // packs none.
  const std::int8_t* codes =
      qw.panels.empty() ? qw.data.data() : qw.panels.data();
  tab.qgemm(detail::Act::kNone, /*accumulate=*/false, qa.data.data(),
            qa.scale.data(), codes, qw.scale, qw.row_sum.data(),
            bias.data(), c.data(), m, qa.stride, n);

  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const std::int32_t idot = detail::qdot_scalar(
          qa.data.data() + i * qa.stride, qw.data.data() + j * qw.stride, k);
      const float ref = detail::quant_finish<detail::Act::kNone>(
          0.0f, idot, qa.scale[i] * qw.scale, bias[j]);
      EXPECT_EQ(c(i, j), ref) << i << "," << j << " on " << tab.name;
    }
}

// ---- fused entries vs fp32 ------------------------------------------------

TEST(QuantFused, QaffineTracksFp32) {
  Rng rng(31);
  const std::size_t m = 16, k = 100, n = 40;
  const Tensor x = Tensor::randn(m, k, rng, 0.5f);
  const Tensor w = Tensor::randn(n, k, rng, 0.3f);
  const Tensor b = Tensor::randn(n, 1, rng, 0.2f);

  Tensor ref;
  affine_into(x, w, b, ref);
  QuantActs qx;
  quantize_rows_into(x, qx);
  QuantWeight qw;
  quantize_weight(w, qw);
  Tensor y;
  qaffine_into(qx, qw, b, y);
  ASSERT_EQ(y.rows(), m);
  ASSERT_EQ(y.cols(), n);
  double max_err = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i)
    max_err = std::max(max_err, std::fabs(double(y[i]) - double(ref[i])));
  // Symmetric 8-bit on unit-scale inputs: well under the fp32 signal.
  EXPECT_LT(max_err, 0.25) << "on " << quant_arch_name();
}

TEST(QuantFused, QgruTracksFp32Gru) {
  Rng rng(37);
  const std::size_t m = 12, in = 57, hid = 24;
  nn::GruCell cell("q", in, hid, rng);
  const Tensor x = Tensor::randn(m, in, rng, 0.5f);
  const Tensor h = Tensor::randn(m, hid, rng, 0.5f);

  GruScratch ws_ref, ws_q;
  Tensor ref, out;
  cell.forward_into(x, h, ws_ref, ref);
  cell.prepare(Precision::kInt8);
  cell.forward_into(x, h, ws_q, out, Precision::kInt8);
  double max_err = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    max_err = std::max(max_err, std::fabs(double(out[i]) - double(ref[i])));
  // Gates squash through sigmoid/tanh, so the state error stays small.
  EXPECT_LT(max_err, 0.05) << "on " << quant_arch_name();
}

}  // namespace
}  // namespace tgnn::kernels
