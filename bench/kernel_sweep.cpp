// Kernel sweep: reference vs fused vs batch-level hot-path kernels at
// serving-realistic micro-batch sizes, reported as ns/event and GFLOP/s
// and written to BENCH_kernels.json — the repo's kernel-level perf
// trajectory (each PR's CI run uploads the JSON as an artifact).
//
// Three variants per kernel and batch size m:
//   reference  — the scalar training-path ops
//   single-row — the fused kernel driven one event at a time (m calls),
//                i.e. what a per-row inference pipeline pays per event
//   fused      — ONE m-row batched call (the batch-level pipeline)
// "fused" rows carry speedup_vs_reference and, for m > 1,
// speedup_vs_single_row — the gain that batching alone buys (register-
// blocked micro-kernels + row-panel threading; single-row calls can use
// neither).
//
// Unlike bench/micro_kernels (google-benchmark, optional dependency), this
// binary is dependency-free so the perf-smoke CI job can always build and
// run it. --require_gru_speedup N gates fused-vs-reference at batch <= 32;
// --require_batched_gru_speedup N gates fused-vs-single-row at batch >= 16
// — the regression gates on the fused layer's and the batched pipeline's
// reasons to exist.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include <omp.h>

#include "kernels/fused.hpp"
#include "kernels/gemm.hpp"
#include "kernels/gemm_dispatch.hpp"
#include "kernels/quant.hpp"
#include "nn/gru_cell.hpp"
#include "tgnn/attention.hpp"
#include "tgnn/config.hpp"
#include "tgnn/decoder.hpp"
#include "tgnn/simplified_attention.hpp"
#include "util/argparse.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

using namespace tgnn;

namespace {

struct Row {
  std::string kernel;
  std::string variant;  ///< "reference" | "single-row" | "fused"
  std::string dtype = "fp32";  ///< "fp32" | "int8"
  std::size_t batch;    ///< events (rows / nodes) per measured unit
  double ns_per_event = 0.0;
  double gflops = 0.0;
  double speedup = 0.0;         ///< fused rows: reference over fused
  double speedup_single = 0.0;  ///< fused rows: single-row over fused
  double speedup_fp32 = 0.0;    ///< non-fp32 rows: fp32 fused over this
};

/// Time `fn` (one call = `events` events, `flops` flops): warm up, then run
/// until `min_s` elapsed, and report per-event latency + throughput.
template <typename Fn>
Row time_kernel(const std::string& kernel, const std::string& variant,
                std::size_t events, double flops, double min_s, Fn&& fn) {
  for (int i = 0; i < 3; ++i) fn();
  Stopwatch sw;
  std::size_t iters = 0;
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = sw.seconds();
  } while (elapsed < min_s);
  Row r;
  r.kernel = kernel;
  r.variant = variant;
  r.batch = events;
  const double per_call = elapsed / static_cast<double>(iters);
  r.ns_per_event = per_call * 1e9 / static_cast<double>(events);
  r.gflops = flops / per_call * 1e-9;
  return r;
}

double gru_flops(const nn::GruCell& gru, std::size_t m) {
  return 2.0 * static_cast<double>(gru.macs(m));
}

void write_json(const std::string& path, const core::ModelConfig& cfg,
                const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"kernel_sweep\",\n");
  std::fprintf(f, "  \"simd_arch\": \"%s\",\n", kernels::simd_arch_name());
  std::fprintf(f, "  \"quant_arch\": \"%s\",\n", kernels::quant_arch_name());
  std::fprintf(f, "  \"omp_threads\": %d,\n", omp_get_max_threads());
  std::fprintf(f,
               "  \"config\": {\"mem_dim\": %zu, \"time_dim\": %zu, "
               "\"emb_dim\": %zu, \"edge_dim\": %zu, \"num_neighbors\": %zu},\n",
               cfg.mem_dim, cfg.time_dim, cfg.emb_dim, cfg.edge_dim,
               cfg.num_neighbors);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"variant\": \"%s\", \"dtype\": "
                 "\"%s\", \"batch\": %zu, \"ns_per_event\": %.1f, "
                 "\"gflops\": %.3f",
                 r.kernel.c_str(), r.variant.c_str(), r.dtype.c_str(), r.batch,
                 r.ns_per_event, r.gflops);
    if (r.speedup > 0.0)
      std::fprintf(f, ", \"speedup_vs_reference\": %.2f", r.speedup);
    if (r.speedup_single > 0.0)
      std::fprintf(f, ", \"speedup_vs_single_row\": %.2f", r.speedup_single);
    if (r.speedup_fp32 > 0.0)
      std::fprintf(f, ", \"speedup_vs_fp32\": %.2f", r.speedup_fp32);
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_flag("out", "BENCH_kernels.json", "output JSON path");
  args.add_flag("min_ms", "120", "min measured wall time per kernel (ms)");
  args.add_flag("require_gru_speedup", "0",
                "exit non-zero unless fused GRU >= this x reference at "
                "batch <= 32 (0 = report only)");
  args.add_flag("require_batched_gru_speedup", "0",
                "exit non-zero unless one batched fused GRU call >= this x "
                "the same rows driven single-row, at batch >= 16 (0 = "
                "report only)");
  args.add_flag("require_int8_speedup", "0",
                "exit non-zero unless the int8 batched affine GEMM >= this x "
                "the fp32 fused call at batch >= 16 (0 = report only; "
                "auto-downgrades to report-only on the generic int8 tier or "
                "a single hardware thread)");
  if (!args.parse(argc, argv)) return 1;
  const std::string out_path = args.get("out");
  const double min_s = static_cast<double>(args.get_int("min_ms")) * 1e-3;
  const double require = args.get_double("require_gru_speedup");
  const double require_batched =
      args.get_double("require_batched_gru_speedup");
  const double require_int8 = args.get_double("require_int8_speedup");

  core::ModelConfig cfg;  // paper dims: mem 100, time 100, emb 100, edge 172
  Rng rng(1);
  std::vector<Row> rows;
  std::printf("kernel dispatch: %s (fp32), %s (int8)\n\n",
              kernels::simd_arch_name(), kernels::quant_arch_name());

  // Append reference / (optional) single-row / fused rows of one kernel at
  // one batch size and derive both speedups.
  auto push = [&rows](Row ref, Row single, Row fused, bool has_single) {
    fused.speedup = ref.ns_per_event / fused.ns_per_event;
    rows.push_back(ref);
    if (has_single) {
      fused.speedup_single = single.ns_per_event / fused.ns_per_event;
      rows.push_back(single);
    }
    rows.push_back(fused);
  };

  // ---- GRU memory updater: the per-event serving bottleneck.
  nn::GruCell gru("g", cfg.gru_in_dim(), cfg.mem_dim, rng);
  // One-time weight snapshots, outside every timer, as at model load.
  gru.prepare(kernels::Precision::kFp32);
  gru.prepare(kernels::Precision::kInt8);
  for (const std::size_t m : {1u, 8u, 16u, 32u, 128u}) {
    const Tensor x = Tensor::randn(m, cfg.gru_in_dim(), rng, 0.5f);
    const Tensor h = Tensor::randn(m, cfg.mem_dim, rng, 0.5f);
    kernels::GruScratch ws, ws1;
    Tensor out, out1;
    Tensor xi(1, cfg.gru_in_dim()), hi(1, cfg.mem_dim);
    const double flops = gru_flops(gru, m);
    Row ref = time_kernel("gru_forward", "reference", m, flops, min_s, [&] {
      Tensor s = gru.forward(x, h);
      (void)s;
    });
    Row single;
    if (m > 1)
      single = time_kernel("gru_forward", "single-row", m, flops, min_s, [&] {
        for (std::size_t r = 0; r < m; ++r) {
          std::copy(x.row(r).begin(), x.row(r).end(), xi.row(0).begin());
          std::copy(h.row(r).begin(), h.row(r).end(), hi.row(0).begin());
          gru.forward_into(xi, hi, ws1, out1);
        }
      });
    Row fused = time_kernel("gru_forward", "fused", m, flops, min_s,
                            [&] { gru.forward_into(x, h, ws, out); });
    push(ref, single, fused, m > 1);
    if (m >= 16) {
      // The quantized fused GRU: per-batch activation quantization is paid
      // inside the timer, the weight snapshot outside (one-time at model
      // load) — exactly the serving cost split.
      kernels::GruScratch wsq;
      Tensor outq;
      Row qrow = time_kernel("gru_forward", "fused", m, flops, min_s, [&] {
        gru.forward_into(x, h, wsq, outq, kernels::Precision::kInt8);
      });
      qrow.dtype = "int8";
      qrow.speedup_fp32 = fused.ns_per_event / qrow.ns_per_event;
      rows.push_back(qrow);
    }
  }

  // ---- Vanilla attention: nodes with full neighbor tables, per node
  // (single-row = the per-row GNN stage) and whole-micro-batch batched.
  {
    const std::size_t n = cfg.num_neighbors;
    core::VanillaAttention att(cfg, rng);
    att.prepare(kernels::Precision::kFp32);
    for (const std::size_t m : {1u, 16u, 32u}) {
      std::vector<std::size_t> seg(m + 1);
      for (std::size_t i = 0; i <= m; ++i) seg[i] = i * n;
      const Tensor f = Tensor::randn(m, cfg.mem_dim, rng, 0.5f);
      const Tensor q_in = Tensor::randn(m, cfg.q_in_dim(), rng, 0.5f);
      const Tensor kv_in = Tensor::randn(m * n, cfg.kv_in_dim(), rng, 0.5f);
      const double flops =
          2.0 * static_cast<double>(att.wq.macs(m) + att.wk.macs(m * n) +
                                    att.wv.macs(m * n) + att.wo.macs(m) +
                                    2 * m * n * cfg.emb_dim);
      core::VanillaAttention::InferScratch ws;
      core::VanillaAttention::BatchScratch bs;
      core::AttnNodeInput in;
      in.q_in.reserve(1, cfg.q_in_dim());
      in.kv_in.reserve(n, cfg.kv_in_dim());
      std::vector<float> out_row(cfg.emb_dim);
      Tensor out(m, cfg.emb_dim);
      Row ref =
          time_kernel("vanilla_attention", "reference", m, flops, min_s, [&] {
            for (std::size_t i = 0; i < m; ++i) {
              in.q_in.resize(1, cfg.q_in_dim());
              std::copy(q_in.row(i).begin(), q_in.row(i).end(),
                        in.q_in.row(0).begin());
              in.kv_in.resize(n, cfg.kv_in_dim());
              for (std::size_t j = 0; j < n; ++j)
                std::copy(kv_in.row(i * n + j).begin(),
                          kv_in.row(i * n + j).end(), in.kv_in.row(j).begin());
              Tensor hh = att.forward(f.row(i), in);
              (void)hh;
            }
          });
      Row single;
      if (m > 1)
        single = time_kernel(
            "vanilla_attention", "single-row", m, flops, min_s, [&] {
              for (std::size_t i = 0; i < m; ++i) {
                in.q_in.resize(1, cfg.q_in_dim());
                std::copy(q_in.row(i).begin(), q_in.row(i).end(),
                          in.q_in.row(0).begin());
                in.kv_in.resize(n, cfg.kv_in_dim());
                for (std::size_t j = 0; j < n; ++j)
                  std::copy(kv_in.row(i * n + j).begin(),
                            kv_in.row(i * n + j).end(),
                            in.kv_in.row(j).begin());
                att.forward_into(f.row(i), in, ws, out_row);
              }
            });
      Row fused = time_kernel("vanilla_attention", "fused", m, flops, min_s,
                              [&] {
                                att.forward_batch_into(f, q_in, kv_in, seg, bs,
                                                       out);
                              });
      push(ref, single, fused, m > 1);
    }
  }

  // ---- Simplified attention (score + aggregate), full budget.
  {
    core::SimplifiedAttention sat(cfg, rng);
    sat.prepare(kernels::Precision::kFp32);
    std::vector<double> dts(cfg.num_neighbors);
    for (std::size_t j = 0; j < dts.size(); ++j)
      dts[j] = 10.0 * static_cast<double>(j + 1);
    const auto scores0 = sat.score(dts, 0);
    const std::size_t kept = scores0.keep.size();
    for (const std::size_t m : {1u, 16u, 32u}) {
      std::vector<std::size_t> seg(m + 1);
      for (std::size_t i = 0; i <= m; ++i) seg[i] = i * kept;
      const Tensor v_in = Tensor::randn(m * kept, cfg.kv_in_dim(), rng, 0.5f);
      const Tensor f = Tensor::randn(m, cfg.mem_dim, rng, 0.5f);
      const double flops =
          2.0 * static_cast<double>(
                    sat.wv.macs(m * kept) + sat.wo.macs(m) +
                    m * cfg.num_neighbors * cfg.num_neighbors +
                    m * kept * cfg.emb_dim);
      core::SimplifiedAttention::InferScratch ws;
      core::SimplifiedAttention::ScoreScratch sws;
      core::SimplifiedAttention::Scores scores;
      core::SimplifiedAttention::BatchScratch bs;
      std::vector<float> logits(m * kept);
      Tensor v_node(kept, cfg.kv_in_dim());
      std::vector<float> out_row(cfg.emb_dim);
      Tensor out(m, cfg.emb_dim);
      Row ref = time_kernel(
          "simplified_attention", "reference", m, flops, min_s, [&] {
            for (std::size_t i = 0; i < m; ++i) {
              const auto s = sat.score(dts, 0);
              for (std::size_t r = 0; r < kept; ++r)
                std::copy(v_in.row(i * kept + r).begin(),
                          v_in.row(i * kept + r).end(), v_node.row(r).begin());
              Tensor hh = sat.aggregate(f.row(i), s, v_node);
              (void)hh;
            }
          });
      Row single;
      if (m > 1)
        single = time_kernel(
            "simplified_attention", "single-row", m, flops, min_s, [&] {
              for (std::size_t i = 0; i < m; ++i) {
                sat.score_into(dts, 0, sws, scores);
                for (std::size_t r = 0; r < kept; ++r)
                  std::copy(v_in.row(i * kept + r).begin(),
                            v_in.row(i * kept + r).end(),
                            v_node.row(r).begin());
                sat.aggregate_into(f.row(i), scores, v_node, ws, out_row);
              }
            });
      Row fused = time_kernel(
          "simplified_attention", "fused", m, flops, min_s, [&] {
            for (std::size_t i = 0; i < m; ++i) {
              sat.score_into(dts, 0, sws, scores);
              for (std::size_t idx = 0; idx < kept; ++idx)
                logits[i * kept + idx] = scores.logits[scores.keep[idx]];
            }
            sat.aggregate_batch_into(f, logits, v_in, seg, bs, out);
          });
      push(ref, single, fused, m > 1);
    }
  }

  // ---- Link-prediction decoder.
  {
    core::Decoder dec(cfg, rng);
    dec.prepare(kernels::Precision::kFp32);
    for (const std::size_t m : {1u, 32u}) {
      const Tensor x = Tensor::randn(m, 3 * cfg.emb_dim, rng, 0.5f);
      const double flops =
          2.0 * static_cast<double>(dec.l1.macs(m) + dec.l2.macs(m));
      core::Decoder::InferScratch ws, ws1;
      Tensor xi(1, 3 * cfg.emb_dim);
      Row ref = time_kernel("decoder", "reference", m, flops, min_s, [&] {
        Tensor y = dec.forward(x);
        (void)y;
      });
      Row single;
      if (m > 1)
        single = time_kernel("decoder", "single-row", m, flops, min_s, [&] {
          for (std::size_t r = 0; r < m; ++r) {
            std::copy(x.row(r).begin(), x.row(r).end(), xi.row(0).begin());
            dec.forward_into(xi, ws1);
          }
        });
      Row fused = time_kernel("decoder", "fused", m, flops, min_s,
                              [&] { dec.forward_into(x, ws); });
      push(ref, single, fused, m > 1);
    }
  }

  // ---- GEMM (the GRU input-gate shape) for the GFLOP/s headline, over
  // weights packed once like a prepared layer's (zero bias).
  {
    const std::size_t m = 32, k = cfg.gru_in_dim(), n = cfg.mem_dim;
    const Tensor a = Tensor::randn(m, k, rng, 0.5f);
    const Tensor b = Tensor::randn(n, k, rng, 0.5f);
    const Tensor zero(1, n);
    kernels::PackedWeight pb;
    kernels::pack_weight(b.data(), n, k, pb);
    Tensor c(m, n);
    const double flops = 2.0 * static_cast<double>(m * k * n);
    Row ref = time_kernel("gemm_nt_32x472x100", "reference", m, flops, min_s,
                          [&] {
                            Tensor y = ops::matmul_nt(a, b);
                            (void)y;
                          });
    Row single =
        time_kernel("gemm_nt_32x472x100", "single-row", m, flops, min_s, [&] {
          for (std::size_t r = 0; r < m; ++r)
            kernels::affine_row_into(a.row(r), pb, zero, c.row(r));
        });
    Row fused = time_kernel("gemm_nt_32x472x100", "fused", m, flops, min_s,
                            [&] { kernels::affine_into(a, pb, zero, c); });
    push(ref, single, fused, true);
  }

  // ---- Precision on the batched affine GEMM (the GRU gate shape): fp32
  // fused vs int8 (dynamic per-row activation quantization + integer GEMM,
  // quantization inside the timer). The int8 rows' speedup_vs_fp32 is what
  // --require_int8_speedup gates.
  {
    const std::size_t k = cfg.gru_in_dim(), n = cfg.mem_dim;
    const Tensor w = Tensor::randn(n, k, rng, 0.5f);
    const Tensor bias(1, n);  // zero bias: pure GEMM + epilogue
    kernels::PackedWeight pw;
    kernels::pack_weight(w.data(), n, k, pw);
    kernels::QuantWeight qw;
    kernels::quantize_weight(w, qw);
    for (const std::size_t m : {16u, 32u, 128u}) {
      const Tensor x = Tensor::randn(m, k, rng, 0.5f);
      Tensor y;
      const double flops = 2.0 * static_cast<double>(m * k * n);
      const std::string name = "affine_nt_472x100";
      Row fp = time_kernel(name, "fused", m, flops, min_s,
                           [&] { kernels::affine_into(x, pw, bias, y); });
      kernels::QuantActs qx;
      Row qi = time_kernel(name, "fused", m, flops, min_s, [&] {
        kernels::quantize_rows_into(x, qx);
        kernels::qaffine_into(qx, qw, bias, y);
      });
      qi.dtype = "int8";
      qi.speedup_fp32 = fp.ns_per_event / qi.ns_per_event;
      rows.push_back(fp);
      rows.push_back(qi);
    }
  }

  std::printf("%-26s %-11s %-5s %7s %14s %10s %8s %8s %8s\n", "kernel",
              "variant", "dtype", "batch", "ns/event", "GFLOP/s", "vs-ref",
              "vs-1row", "vs-fp32");
  auto ratio = [](double v) {
    return v > 0.0 ? std::to_string(v).substr(0, 4) + "x" : std::string("-");
  };
  for (const Row& r : rows)
    std::printf("%-26s %-11s %-5s %7zu %14.1f %10.3f %8s %8s %8s\n",
                r.kernel.c_str(), r.variant.c_str(), r.dtype.c_str(), r.batch,
                r.ns_per_event, r.gflops, ratio(r.speedup).c_str(),
                ratio(r.speedup_single).c_str(),
                ratio(r.speedup_fp32).c_str());

  write_json(out_path, cfg, rows);
  std::printf("\nwrote %s\n", out_path.c_str());

  bool ok = true;
  if (require > 0.0) {
    for (const Row& r : rows)
      if (r.kernel == "gru_forward" && r.variant == "fused" &&
          r.dtype == "fp32" && r.batch <= 32 && r.speedup < require) {
        std::fprintf(stderr,
                     "FAIL: fused gru_forward batch=%zu speedup %.2fx < "
                     "required %.2fx vs reference\n",
                     r.batch, r.speedup, require);
        ok = false;
      }
    if (ok)
      std::printf("fused GRU speedup >= %.2fx at every batch <= 32: OK\n",
                  require);
  }
  if (require_batched > 0.0 && omp_get_max_threads() < 2) {
    // The batched-vs-single-row target combines register blocking with the
    // row-panel OpenMP split; on one core the second lever doesn't exist
    // (micro-kernels alone measure ~1.4-1.9x), so the gate would fail by
    // construction. Report-only there; CI runners are multi-core.
    std::printf(
        "batched GRU gate skipped: single hardware thread (report-only)\n");
  } else if (require_batched > 0.0) {
    for (const Row& r : rows)
      if (r.kernel == "gru_forward" && r.variant == "fused" &&
          r.dtype == "fp32" && r.batch >= 16 &&
          r.speedup_single < require_batched) {
        std::fprintf(stderr,
                     "FAIL: batched gru_forward batch=%zu speedup %.2fx < "
                     "required %.2fx vs single-row\n",
                     r.batch, r.speedup_single, require_batched);
        ok = false;
      }
    if (ok)
      std::printf(
          "batched GRU speedup >= %.2fx vs single-row at every batch >= 16: "
          "OK\n",
          require_batched);
  }
  if (require_int8 > 0.0 &&
      std::string(kernels::quant_arch_name()) == "generic") {
    // Without an int8 SIMD tier (avx2 maddubs / avx512 VNNI) the integer
    // path has no dot-product instruction advantage over fp32 FMA and the
    // gate would fail by construction. Report-only there.
    std::printf(
        "int8 GEMM gate skipped: generic int8 tier (report-only)\n");
  } else if (require_int8 > 0.0 && omp_get_max_threads() < 2) {
    // Parity with the batched-GRU gate: single-hardware-thread runners
    // measure under scheduler noise big enough to flake a 2x bar.
    std::printf(
        "int8 GEMM gate skipped: single hardware thread (report-only)\n");
  } else if (require_int8 > 0.0) {
    for (const Row& r : rows)
      if (r.kernel == "affine_nt_472x100" && r.dtype == "int8" &&
          r.batch >= 16 && r.speedup_fp32 < require_int8) {
        std::fprintf(stderr,
                     "FAIL: int8 affine batch=%zu speedup %.2fx < required "
                     "%.2fx vs fp32 fused\n",
                     r.batch, r.speedup_fp32, require_int8);
        ok = false;
      }
    if (ok)
      std::printf(
          "int8 affine speedup >= %.2fx vs fp32 fused at every batch >= 16: "
          "OK\n",
          require_int8);
  }
  return ok ? 0 : 1;
}
