// The packed-panel kernel's contracts (DESIGN.md "The kernel layer"):
//
//  * the avx2 and avx512 fp32 tables give bit-identical outputs — each
//    output element is one FMA chain over k in both, whatever the vector
//    width (a tier the CPU lacks is skipped);
//  * one fp32 call and one int8 call give the same bits at 1 and at 4
//    OpenMP threads (row tiles and quantized rows split freely);
//  * the vectorized sigmoid and tanh stay within a stated error of libm,
//    handle ±0, ±inf and NaN, and give the same bits at every width;
//  * prepared weight snapshots follow the weights: re-preparing after a
//    change, and an engine built after load_checkpoint, serve the new ones.
#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "kernels/fused.hpp"
#include "kernels/gemm.hpp"
#include "kernels/gemm_dispatch.hpp"
#include "nn/gru_cell.hpp"
#include "nn/linear.hpp"
#include "tensor/ops.hpp"
#include "tgnn/inference.hpp"
#include "tgnn/serialize.hpp"
#include "util/rng.hpp"

// The 16-lane test vector below is passed by value in a baseline-ISA TU.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace tgnn {
namespace {

using kernels::detail::Act;

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         same_bits(a.data(), b.data(), a.size());
}

TEST(PanelKernels, Avx2AndAvx512TablesAreBitIdentical) {
  const kernels::detail::KernelTable t2 = kernels::detail::avx2_kernel_table();
  const kernels::detail::KernelTable t5 =
      kernels::detail::avx512_kernel_table();
  if (t2.gemm == nullptr || t5.gemm == nullptr ||
      !__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma") ||
      !__builtin_cpu_supports("avx512f") ||
      !__builtin_cpu_supports("avx512vl"))
    GTEST_SKIP() << "needs both the avx2 and the avx512 tier";

  struct Shape {
    std::size_t m, k, n;
  };
  // Row counts off every tile height, column counts off the 16-wide panel.
  for (const Shape s : {Shape{1, 1, 1}, Shape{1, 7, 3}, Shape{3, 13, 5},
                        Shape{2, 129, 31}, Shape{9, 100, 17},
                        Shape{17, 101, 33}, Shape{13, 472, 100}}) {
    Rng rng(41);
    const Tensor a = Tensor::randn(s.m, s.k, rng, 0.5f);
    const Tensor w = Tensor::randn(s.n, s.k, rng, 0.5f);
    const Tensor bias = Tensor::randn(s.n, 1, rng, 0.5f);
    const Tensor c0 = Tensor::randn(s.m, s.n, rng, 0.5f);
    kernels::PackedWeight pw;
    kernels::pack_weight(w.data(), s.n, s.k, pw);
    for (const Act act : {Act::kNone, Act::kSigmoid, Act::kTanh, Act::kRelu})
      for (const bool acc : {false, true}) {
        Tensor c2 = c0, c5 = c0;
        t2.gemm(act, acc, a.data(), pw.data.data(), bias.data(), c2.data(),
                s.m, s.k, s.n);
        t5.gemm(act, acc, a.data(), pw.data.data(), bias.data(), c5.data(),
                s.m, s.k, s.n);
        EXPECT_TRUE(same_bits(c2, c5))
            << s.m << "x" << s.k << "x" << s.n << " act "
            << static_cast<int>(act) << " accumulate " << acc;
      }
  }

  // The GRU's elementwise tail, over a length off the panel width.
  Rng rng(43);
  const std::size_t total = 1603;
  const Tensor r = Tensor::randn(1, total, rng), z = Tensor::randn(1, total, rng);
  const Tensor q = Tensor::randn(1, total, rng), h = Tensor::randn(1, total, rng);
  Tensor o2 = Tensor::randn(1, total, rng, 2.0f);
  Tensor o5 = o2;
  t2.gru_finish(o2.data(), r.data(), z.data(), q.data(), h.data(), total,
                false);
  t5.gru_finish(o5.data(), r.data(), z.data(), q.data(), h.data(), total,
                false);
  EXPECT_TRUE(same_bits(o2, o5));
}

TEST(PanelKernels, OneCallIsBitIdenticalAtOneAndFourThreads) {
  // 64 rows at the paper's 472 -> 100 GRU: every GEMM, the elementwise
  // tail and the int8 quantization pass run on the whole team.
  Rng rng(47);
  nn::GruCell gru("t", 472, 100, rng);
  gru.prepare(kernels::Precision::kFp32);
  gru.prepare(kernels::Precision::kInt8);
  const Tensor x = Tensor::randn(64, 472, rng, 0.5f);
  const Tensor h = Tensor::randn(64, 100, rng, 0.5f);

  const int saved = omp_get_max_threads();
  Tensor out[2][2];
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    for (const auto p : {kernels::Precision::kFp32, kernels::Precision::kInt8}) {
      kernels::GruScratch ws;
      gru.forward_into(x, h, ws, out[threads == 4][static_cast<int>(p)], p);
    }
  }
  omp_set_num_threads(saved);
  EXPECT_TRUE(same_bits(out[0][0], out[1][0])) << "fp32";
  EXPECT_TRUE(same_bits(out[0][1], out[1][1])) << "int8";
}

TEST(Activations, SigmoidAndTanhStayWithinStatedErrorOfLibm) {
  // Against double-precision libm over a dense sweep of [-30, 30]:
  // absolute error <= 2e-7 and relative error <= 4e-7 (measured 8.9e-8 /
  // 1.5e-7 for sigmoid, 7.6e-8 / 1.4e-7 for tanh; a float-rounded exact
  // value is already up to 6e-8 off).
  constexpr double kAbs = 2e-7, kRel = 4e-7;
  const int n = 2000001;
  double sig_abs = 0.0, sig_rel = 0.0, tanh_abs = 0.0, tanh_rel = 0.0;
  for (int i = 0; i < n; ++i) {
    const float x = -30.0f + 60.0f * static_cast<float>(i) /
                                 static_cast<float>(n - 1);
    const double s = kernels::detail::activate<Act::kSigmoid>(x);
    const double t = kernels::detail::activate<Act::kTanh>(x);
    const double sref = 1.0 / (1.0 + std::exp(-static_cast<double>(x)));
    const double tref = std::tanh(static_cast<double>(x));
    sig_abs = std::max(sig_abs, std::fabs(s - sref));
    sig_rel = std::max(sig_rel, std::fabs(s - sref) / sref);
    tanh_abs = std::max(tanh_abs, std::fabs(t - tref));
    if (tref != 0.0)
      tanh_rel = std::max(tanh_rel, std::fabs(t - tref) / std::fabs(tref));
  }
  EXPECT_LE(sig_abs, kAbs);
  EXPECT_LE(sig_rel, kRel);
  EXPECT_LE(tanh_abs, kAbs);
  EXPECT_LE(tanh_rel, kRel);

  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto sig = [](float v) {
    return kernels::detail::activate<Act::kSigmoid>(v);
  };
  const auto th = [](float v) { return kernels::detail::activate<Act::kTanh>(v); };
  EXPECT_EQ(sig(0.0f), 0.5f);
  EXPECT_EQ(sig(-0.0f), 0.5f);
  EXPECT_EQ(sig(inf), 1.0f);
  EXPECT_LE(sig(-inf), 1e-38f);
  EXPECT_GE(sig(-inf), 0.0f);
  EXPECT_TRUE(std::isnan(sig(nan)));
  EXPECT_EQ(th(0.0f), 0.0f);
  EXPECT_FALSE(std::signbit(th(0.0f)));
  EXPECT_TRUE(std::signbit(th(-0.0f)));
  EXPECT_EQ(th(-0.0f), 0.0f);
  EXPECT_EQ(th(inf), 1.0f);
  EXPECT_EQ(th(-inf), -1.0f);
  EXPECT_TRUE(std::isnan(th(nan)));
}

TEST(Activations, VectorLanesEqualTheScalarForm) {
  // One definition at every width: a 16-lane call and the 1-lane scalar
  // wrapper agree bit for bit, lane by lane.
  typedef float v16 __attribute__((vector_size(16 * sizeof(float))));
  Rng rng(53);
  for (int rep = 0; rep < 64; ++rep) {
    v16 x;
    for (int i = 0; i < 16; ++i) x[i] = static_cast<float>(12.0 * rng.normal());
    const v16 s = kernels::detail::activate_v<Act::kSigmoid>(x);
    const v16 t = kernels::detail::activate_v<Act::kTanh>(x);
    for (int i = 0; i < 16; ++i) {
      const float ss = kernels::detail::activate<Act::kSigmoid>(x[i]);
      const float ts = kernels::detail::activate<Act::kTanh>(x[i]);
      EXPECT_EQ(std::memcmp(&ss, &s[i], sizeof ss), 0) << x[i];
      EXPECT_EQ(std::memcmp(&ts, &t[i], sizeof ts), 0) << x[i];
    }
  }
}

TEST(PreparedWeights, RepreparedLayersServeTheNewWeights) {
  Rng rng(59);
  nn::Linear lin("l", 37, 21, rng);
  nn::GruCell gru("g", 29, 19, rng);
  const Tensor x = Tensor::randn(5, 37, rng, 0.5f);
  const Tensor gx = Tensor::randn(5, 29, rng, 0.5f);
  const Tensor gh = Tensor::randn(5, 19, rng, 0.5f);
  for (const auto p : {kernels::Precision::kFp32, kernels::Precision::kInt8}) {
    lin.prepare(p);
    gru.prepare(p);
  }

  // Change every weight, re-prepare, and compare against a fresh layer
  // that was prepared only once, with the new weights.
  for (auto* prm : lin.parameters()) prm->value *= -1.5f;
  for (auto* prm : gru.parameters()) prm->value *= -1.5f;
  nn::Linear lin_fresh = lin;
  nn::GruCell gru_fresh = gru;
  lin_fresh.pw = {};
  lin_fresh.qw = {};
  gru_fresh.pw = {};
  gru_fresh.qw = {};
  for (const auto p : {kernels::Precision::kFp32, kernels::Precision::kInt8}) {
    lin.prepare(p);
    gru.prepare(p);
    lin_fresh.prepare(p);
    gru_fresh.prepare(p);
  }

  Tensor y, y_fresh;
  lin.forward_into(x, y);
  lin_fresh.forward_into(x, y_fresh);
  EXPECT_TRUE(same_bits(y, y_fresh));
  EXPECT_LT(ops::max_abs_diff(y, lin.forward(x)), 1e-5f);

  kernels::QuantActs qx;
  kernels::quantize_rows_into(x, qx);
  lin.forward_q_into(qx, y);
  lin_fresh.forward_q_into(qx, y_fresh);
  EXPECT_TRUE(same_bits(y, y_fresh));

  for (const auto p : {kernels::Precision::kFp32, kernels::Precision::kInt8}) {
    kernels::GruScratch ws, ws_fresh;
    Tensor s, s_fresh;
    gru.forward_into(gx, gh, ws, s, p);
    gru_fresh.forward_into(gx, gh, ws_fresh, s_fresh, p);
    EXPECT_TRUE(same_bits(s, s_fresh)) << kernels::precision_name(p);
  }
}

TEST(PreparedWeights, EngineBuiltAfterLoadCheckpointServesLoadedWeights) {
  data::SyntheticConfig dcfg;
  dcfg.num_users = 30;
  dcfg.num_items = 10;
  dcfg.num_edges = 300;
  dcfg.edge_dim = 6;
  dcfg.seed = 3;
  const auto ds = data::make_synthetic(dcfg);
  core::ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 6;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 4;

  core::TgnModel a(cfg, 1);
  core::TgnModel b(cfg, 99);
  // An engine on b prepares b's own weights first.
  core::InferenceEngine before(b, ds, true);
  before.process_batch({0, 100});

  const std::string path =
      ::testing::TempDir() + "tgnn_prepared_after_load.bin";
  ASSERT_TRUE(core::save_checkpoint(path, a));
  ASSERT_TRUE(core::load_checkpoint(path, b));
  std::remove(path.c_str());

  core::InferenceEngine ea(a, ds, true), eb(b, ds, true);
  for (const auto& r : ds.graph.fixed_size_batches(0, 200, 50)) {
    const auto ra = ea.process_batch(r);
    const auto rb = eb.process_batch(r);
    EXPECT_TRUE(same_bits(ra.embeddings, rb.embeddings));
  }
}

}  // namespace
}  // namespace tgnn
