#include "ledger.hpp"

#include <malloc.h>
#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "json.hpp"
#include "kernels/fused.hpp"
#include "loadgen.hpp"
#include "nn/gru_cell.hpp"
#include "perf/auto_tuner.hpp"
#include "replay.hpp"
#include "runtime/driver.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace ledger {

namespace {

using tgnn::runtime::Backend;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinReps = 5;
constexpr std::size_t kMaxReps = 40;
constexpr std::size_t kSetups = 3;  // timed data + model set-ups per run
constexpr double kSloS = 10e-3;  // the latency limit slo_ok_share counts

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric sets, in print order. BENCHMARK.json's end_to_end and
// per_layer lists name exactly these; bench/ledger/README.md says what each
// one should move.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"capacity_rps", "req/s"},
    {"goodput_rps", "req/s"},  {"p50_ms", "ms"},
    {"p99_ms", "ms"},          {"slo_ok_share", "share"},
    {"served_share", "share"}, {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"runtime.queue_wait_ms.p50", "ms"},
    {"runtime.queue_wait_ms.p95", "ms"},
    {"runtime.service_ms.p50", "ms"},
    {"runtime.service_ms.p95", "ms"},
    {"runtime.batch_size.mean", "count"},
    {"runtime.peak_queue_depth", "count"},
    {"runtime.peak_parallel_batches", "count"},
    {"runtime.overlap_x", "x"},
    {"runtime.residual_us.per_batch", "us"},
    {"runtime.submit_us.p99", "us"},
    {"runtime.stats_ms.p50", "ms"},
    {"runtime.stats_ms.max", "ms"},
    {"runtime.degrade_steps", "count"},
    {"runtime.engine_stage_ms.memory_update.p50", "ms"},
    {"runtime.engine_stage_ms.neighbor_gather.p50", "ms"},
    {"runtime.engine_stage_ms.gnn_compute.p50", "ms"},
    {"runtime.engine_stage_ms.decode.p50", "ms"},
    {"tgnn.memory_update_us.p50", "us"},
    {"tgnn.memory_update_us.p95", "us"},
    {"tgnn.neighbor_gather_us.p50", "us"},
    {"tgnn.neighbor_gather_us.p95", "us"},
    {"tgnn.gnn_compute_us.p50", "us"},
    {"tgnn.gnn_compute_us.p95", "us"},
    {"tgnn.decode_us.p50", "us"},
    {"tgnn.decode_us.p95", "us"},
    {"tgnn.begin_us.p50", "us"},
    {"tgnn.finish_us.p50", "us"},
    {"tgnn.batch_us.mean", "us"},
    {"tgnn.memory_update_share", "share"},
    {"graph.hit_rate", "share"},
    {"graph.misses_per_req", "count"},
    {"graph.evictions_per_req", "count"},
    {"graph.spill_reads_per_req", "count"},
    {"graph.spill_writes_per_req", "count"},
    {"graph.prefetch_loads_per_req", "count"},
    {"graph.writeback_invalidations", "count"},
    {"graph.overcommit_frames", "count"},
    {"kernels.gru_fp32_gflops", "GFLOP/s"},
    {"kernels.affine_fp32_gflops", "GFLOP/s"},
    {"kernels.gru_int8_gflops", "GFLOP/s"},
    {"kernels.gru_bytes_per_call", "bytes"},
    {"perf.model_error_x", "x"},
    {"data.generate_s", "s"},
    {"runtime.build_s", "s"},
    {"runtime.fast_forward_s", "s"},
    {"loadgen.late_ms.p99", "ms"},
    {"loadgen.trace_overhead_x", "x"},
};

constexpr const char* kStageKey[tgnn::core::kNumStages] = {
    "memory_update", "neighbor_gather", "gnn_compute", "decode"};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// One rep: a fresh backend fast-forwarded over the prefix, then the
/// closed-loop and open-loop phases on it, back to back.
struct Rep {
  double build_s = 0.0, fast_forward_s = 0.0;
  PhaseResult closed, open;
  tgnn::graph::VertexStoreStats store_before, store_after;
  std::unique_ptr<Backend> backend;  ///< kept for the end-of-run checks
};

struct Setup {
  const Workload& w;
  tgnn::data::Dataset ds;
  tgnn::core::TgnModel model;
  tgnn::runtime::BackendOptions bopts;
};

std::unique_ptr<Backend> fresh_backend(const Setup& s, double* build_s,
                                       double* fast_forward_s) {
  const auto t0 = Clock::now();
  auto backend = tgnn::runtime::make_backend(s.w.key, s.model, s.ds, s.bopts);
  const auto t1 = Clock::now();
  tgnn::runtime::fast_forward(*backend, s.w.prefix);
  if (build_s != nullptr)
    *build_s = std::chrono::duration<double>(t1 - t0).count();
  if (fast_forward_s != nullptr) *fast_forward_s = seconds_since(t1);
  return backend;
}

Rep run_rep(const Setup& s, Tracer* tracer) {
  const Workload& w = s.w;
  // Hand the freed heap of earlier reps back to the kernel, so that each
  // rep's fresh backend starts from the allocator state of a fresh process.
  // Without this, peak_rss_mb on oocore-pipelined measures how the
  // fragments of earlier reps' backends happened to fall (14% spread
  // between runs, against 5% with it).
  malloc_trim(0);
  Rep rep;
  rep.backend = fresh_backend(s, &rep.build_s, &rep.fast_forward_s);
  rep.store_before = rep.backend->store_stats();
  rep.closed = run_closed(*rep.backend, w.closed, w.prefix, w.closed_requests,
                          w.monitor_period_s, tracer);
  // The open phase serves at the precision the closed phase left the
  // backend at: on overload-degrade the closed phase walks the ladder down
  // to int8, and the open phase measures the overload it settles into. A
  // walk at the start of a short open phase would put its few slow fp32
  // and bf16 batches right at p99, and make every open-phase metric swing
  // with the walk's timing.
  rep.open = run_open(*rep.backend, w.open, w.prefix + w.closed_requests,
                      w.open_requests, w.open_rps, w.monitor_period_s, tracer);
  rep.store_after = rep.backend->store_stats();
  return rep;
}

// ---- one rep's end-to-end values ------------------------------------------

double capacity_rps(const Rep& r) {
  return static_cast<double>(r.closed.served) / r.closed.wall_s;
}
double goodput_rps(const Rep& r) {
  return static_cast<double>(r.open.served) / r.open.wall_s;
}
double p50_ms(const Rep& r) { return percentile(r.open.latency_s, 0.50) * 1e3; }
double p99_ms(const Rep& r) { return percentile(r.open.latency_s, 0.99) * 1e3; }
/// Shed, expired and failed requests count as misses.
double slo_ok_share(const Rep& r) {
  const auto ok = std::count_if(r.open.latency_s.begin(),
                                r.open.latency_s.end(),
                                [](double l) { return l <= kSloS; });
  return static_cast<double>(ok) / static_cast<double>(r.open.sent);
}
double served_share(const Rep& r) {
  return static_cast<double>(r.closed.served + r.open.served) /
         static_cast<double>(r.closed.sent + r.open.sent);
}

/// f(rep) for every rep, in rep order.
template <typename F>
std::vector<double> per_rep(const std::vector<Rep>& reps, F&& f) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const Rep& r : reps) v.push_back(f(r));
  return v;
}

struct Checks {
  bool outcomes_resolved = true;  ///< every sent index resolved exactly once
  bool state_finite = true;
  std::string replay_oracle = "skipped";  ///< "pass" | "fail" | "skipped"
  [[nodiscard]] bool ok() const {
    return outcomes_resolved && state_finite && replay_oracle != "fail";
  }
};

/// The served rep's logs replayed serially on a fresh backend; when the
/// workload is deterministic, the two final states must be byte-identical.
ReplayTimes check_rep(const Setup& s, Rep& rep, Tracer* tracer,
                      const std::string& state_file, Checks& checks) {
  checks.state_finite = checks.state_finite && state_finite(*rep.backend);
  auto backend = fresh_backend(s, nullptr, nullptr);
  const std::vector<ServedLog> phases = {
      {rep.closed.batches, rep.closed.tuning},
      {rep.open.batches, rep.open.tuning}};
  ReplayTimes times = replay(*backend, phases, {true, false},
                             s.w.closed.max_batch, tracer);
  if (s.w.replay_oracle) {
    const bool same = state_digest(*rep.backend, state_file) ==
                      state_digest(*backend, state_file);
    checks.replay_oracle = same ? "pass" : "fail";
  }
  return times;
}

struct KernelProbe {
  double gru_fp32_gflops = 0.0, affine_fp32_gflops = 0.0,
         gru_int8_gflops = 0.0, gru_bytes_per_call = 0.0;
};

/// The fp32 and int8 fused GRU and the fp32 affine kernel, called directly
/// at `rows` rows and the paper's 472 -> 100 dims on one thread.
KernelProbe probe_kernels(std::size_t rows, std::uint64_t seed) {
  omp_set_num_threads(1);
  const tgnn::core::ModelConfig cfg;
  const std::size_t in = cfg.gru_in_dim(), hid = cfg.mem_dim;
  tgnn::Rng rng(seed);
  tgnn::nn::GruCell gru("ledger_gru", in, hid, rng);
  gru.prepare(tgnn::kernels::Precision::kInt8);
  const tgnn::kernels::GruWeights w{
      &gru.w_ir.value, &gru.w_iz.value, &gru.w_in.value, &gru.b_ir.value,
      &gru.b_iz.value, &gru.b_in.value, &gru.w_hr.value, &gru.w_hz.value,
      &gru.w_hn.value, &gru.b_hr.value, &gru.b_hz.value, &gru.b_hn.value};
  const tgnn::Tensor x = tgnn::Tensor::randn(rows, in, rng, 0.5f);
  const tgnn::Tensor h = tgnn::Tensor::randn(rows, hid, rng, 0.5f);
  const tgnn::Tensor aw = tgnn::Tensor::randn(hid, in, rng, 0.5f);
  const tgnn::Tensor ab(1, hid);
  tgnn::kernels::GruScratch ws;
  tgnn::Tensor out;

  const auto rate = [](double flops, auto&& fn) {
    for (int i = 0; i < 3; ++i) fn();
    const auto t0 = Clock::now();
    std::size_t iters = 0;
    double elapsed = 0.0;
    do {
      fn();
      ++iters;
      elapsed = seconds_since(t0);
    } while (elapsed < 0.15);
    return flops * static_cast<double>(iters) / elapsed * 1e-9;
  };
  const double gru_flops = 2.0 * static_cast<double>(gru.macs(rows));
  KernelProbe p;
  p.gru_fp32_gflops = rate(
      gru_flops, [&] { tgnn::kernels::gru_forward_into(x, h, w, ws, out); });
  p.gru_int8_gflops = rate(gru_flops, [&] {
    tgnn::kernels::qgru_forward_into(x, h, w, gru.qw, ws, out);
  });
  p.affine_fp32_gflops =
      rate(2.0 * static_cast<double>(rows * in * hid),
           [&] { tgnn::kernels::affine_into(x, aw, ab, out); });
  // Bytes one fp32 GRU call must touch, from tensor sizes: six weight
  // matrices, six biases, the x and h panels in and the new state out.
  p.gru_bytes_per_call = static_cast<double>(
      sizeof(float) * (3 * in * hid + 3 * hid * hid + 6 * hid + rows * in +
                       2 * rows * hid));
  return p;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Computed values by name, with the number of observations behind each.
struct Report {
  struct Entry {
    double value = 0.0;
    std::size_t samples = 0;
    std::vector<double> reps;  ///< per-rep values, for end-to-end metrics
  };
  std::map<std::string, Entry> values;
  void set(const std::string& name, double value, std::size_t samples) {
    values[name] = {value, samples, {}};
  }
  /// The best quartile of per-rep values: the upper quartile of a metric
  /// where higher is better, the lower quartile otherwise. On a shared
  /// host, other tenants slow every thread by up to a third in stretches of
  /// a few hundred milliseconds, so each short rep lands in a fast or a
  /// slow stretch. A median flips between the two; the best quartile stays
  /// with the uncontended reps, which is the behaviour a change to the code
  /// moves.
  double set_best_quartile(const std::string& name, std::vector<double> reps,
                           bool higher_better) {
    const Quartiles q = quartiles(reps);
    const double v = higher_better ? q.q3 : q.q1;
    values[name] = {v, reps.size(), std::move(reps)};
    return v;
  }
};

/// Print `defs` as "name = value unit" lines and return them as the
/// contract's metrics object.
template <std::size_t N>
std::string emit_metrics(const Report& report, const MetricDef (&defs)[N]) {
  std::string obj = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = report.values.find(defs[i].name);
    if (it == report.values.end())
      throw std::logic_error(std::string("metric not computed: ") +
                             defs[i].name);
    std::printf("  %-44s %14.6g %s  (n=%zu)\n", defs[i].name, it->second.value,
                defs[i].unit, it->second.samples);
    obj += (i == 0 ? "" : ", ") + json::quote(defs[i].name) +
           ": {\"value\": " + json::number(it->second.value) +
           ", \"unit\": " + json::quote(defs[i].unit) + "}";
  }
  return obj + "}";
}

template <std::size_t N>
void write_metric_entries(std::FILE* f, const Report& report,
                          const MetricDef (&defs)[N], bool& first) {
  for (const MetricDef& d : defs) {
    const auto it = report.values.find(d.name);
    if (it == report.values.end()) continue;
    std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s, \"samples\": %zu",
                 first ? "" : ",", json::quote(d.name).c_str(),
                 json::number(it->second.value).c_str(),
                 json::quote(d.unit).c_str(), it->second.samples);
    if (!it->second.reps.empty()) {
      std::fprintf(f, ", \"reps\": [");
      for (std::size_t i = 0; i < it->second.reps.size(); ++i)
        std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                     json::number(it->second.reps[i]).c_str());
      std::fprintf(f, "]");
    }
    std::fprintf(f, "}");
    first = false;
  }
}

}  // namespace

int run_workload(const RunOptions& opts) {
  const Workload* wp = find_workload(opts.workload);
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", opts.workload.c_str());
    for (const Workload& w : workloads())
      std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload& w = *wp;
  if (w.prefix + w.closed_requests + w.open_requests > w.edges)
    throw std::logic_error("workload " + w.name +
                           ": its phases run past the end of its stream");
  namespace fs = std::filesystem;
  fs::create_directories(opts.out_dir);
  const std::string state_file =
      (fs::path(opts.out_dir) / (w.name + ".state.tmp")).string();

  std::printf("workload %s (seed %llu, %.0f s): %s\n", w.name.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              w.why.c_str());
  std::fflush(stdout);

  // ---- set-up: inputs from the seed and the model, timed kSetups times
  // (setup_s takes the medians), then a fresh backend per rep -------------
  std::vector<double> generate_s, model_s;
  tgnn::data::Dataset ds;
  std::optional<tgnn::core::TgnModel> model;
  for (std::size_t k = 0; k < kSetups; ++k) {
    auto t0 = Clock::now();
    ds = make_stream(w, opts.seed);
    generate_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    model.emplace(make_model(ds, opts.seed));
    model_s.push_back(seconds_since(t0));
  }
  const tgnn::runtime::BackendOptions bopts = backend_options(w, *model, ds);
  const Setup setup{w, std::move(ds), std::move(*model), bopts};

  // ---- untraced reps: one discarded warm-up, then measured reps ---------
  (void)run_rep(setup, nullptr);
  std::vector<Rep> reps;
  double measured_s = 0.0;
  while (reps.size() < kMinReps ||
         (measured_s < opts.seconds && reps.size() < kMaxReps)) {
    if (!reps.empty()) reps.back().backend.reset();  // keep only the last
    reps.push_back(run_rep(setup, nullptr));
    measured_s += reps.back().closed.wall_s + reps.back().open.wall_s;
  }
  const double rss_mib = peak_rss_mib();

  Checks checks;
  std::size_t attempted = 0, failed = 0, min_served = reps.front().open.served;
  const auto account = [&](const Rep& r) {
    for (const PhaseResult* p : {&r.closed, &r.open}) {
      attempted += p->sent;
      failed += p->failed;
      checks.outcomes_resolved = checks.outcomes_resolved && p->unresolved == 0;
    }
  };
  std::vector<double> backend_s, build_s, fast_forward_s, late_s;
  for (const Rep& r : reps) {
    account(r);
    min_served = std::min(min_served, r.open.served);
    backend_s.push_back(r.build_s + r.fast_forward_s);
    build_s.push_back(r.build_s);
    fast_forward_s.push_back(r.fast_forward_s);
    late_s.insert(late_s.end(), r.open.late_s.begin(), r.open.late_s.end());
  }

  Report report;
  const std::size_t n_reps = reps.size();
  report.set("setup_s",
             median(generate_s) + median(model_s) + median(backend_s), n_reps);
  report.set_best_quartile("capacity_rps", per_rep(reps, capacity_rps), true);
  report.set_best_quartile("goodput_rps", per_rep(reps, goodput_rps), true);
  const double p50 =
      report.set_best_quartile("p50_ms", per_rep(reps, p50_ms), false);
  report.set_best_quartile("p99_ms", per_rep(reps, p99_ms), false);
  report.set_best_quartile("slo_ok_share", per_rep(reps, slo_ok_share), true);
  report.set_best_quartile("served_share", per_rep(reps, served_share), true);
  report.set("peak_rss_mb", rss_mib, 1);
  const double tail_p = highest_supported_percentile(min_served);
  if (tail_p < 0.99)
    std::printf("note: %zu served requests in a rep support only p%g\n",
                min_served, tail_p * 100.0);

  // ---- correctness of the measured runs, or the traced rep + layers -----
  Tracer tracer;
  if (!opts.trace) {
    (void)check_rep(setup, reps.back(), nullptr, state_file, checks);
  } else {
    Rep traced = run_rep(setup, &tracer);
    account(traced);
    const ReplayTimes rt = check_rep(setup, traced, &tracer, state_file, checks);
    const KernelProbe kp = probe_kernels(w.closed.max_batch, opts.seed);

    const auto& os = traced.open.stats;
    const auto& cs = traced.closed.stats;
    const std::size_t n_open = traced.open.served;
    const std::size_t n_closed_batches = traced.closed.batches.size();
    report.set("runtime.queue_wait_ms.p50", os.p50_queue_wait_s * 1e3, n_open);
    report.set("runtime.queue_wait_ms.p95", os.p95_queue_wait_s * 1e3, n_open);
    report.set("runtime.service_ms.p50", os.p50_service_s * 1e3, n_open);
    report.set("runtime.service_ms.p95", os.p95_service_s * 1e3, n_open);
    report.set("runtime.batch_size.mean", os.mean_batch_size, os.num_batches);
    report.set("runtime.peak_queue_depth",
               static_cast<double>(os.peak_queue_depth), 1);
    report.set("runtime.peak_parallel_batches",
               static_cast<double>(cs.peak_parallel_batches), 1);
    report.set("runtime.overlap_x", rt.stage_sum_s / traced.closed.wall_s,
               n_closed_batches);
    report.set("runtime.residual_us.per_batch",
               (traced.closed.wall_s / static_cast<double>(n_closed_batches) -
                mean(rt.batch_s)) * 1e6,
               n_closed_batches);
    report.set("runtime.submit_us.p99",
               percentile(traced.open.submit_s, 0.99) * 1e6,
               traced.open.submit_s.size());
    std::vector<double> stats_calls = traced.closed.stats_call_s;
    stats_calls.insert(stats_calls.end(), traced.open.stats_call_s.begin(),
                       traced.open.stats_call_s.end());
    report.set("runtime.stats_ms.p50", percentile(stats_calls, 0.5) * 1e3,
               stats_calls.size());
    report.set("runtime.stats_ms.max", percentile(stats_calls, 1.0) * 1e3,
               stats_calls.size());
    report.set("runtime.degrade_steps",
               static_cast<double>(cs.degrade_steps + os.degrade_steps), 1);
    for (std::size_t k = 0; k < tgnn::core::kNumStages; ++k) {
      report.set(std::string("runtime.engine_stage_ms.") + kStageKey[k] +
                     ".p50",
                 cs.p50_stage_s[k] * 1e3, cs.num_batches);
      const std::string tg = std::string("tgnn.") + kStageKey[k] + "_us";
      report.set(tg + ".p50", percentile(rt.stage_s[k], 0.5) * 1e6,
                 rt.stage_s[k].size());
      report.set(tg + ".p95", percentile(rt.stage_s[k], 0.95) * 1e6,
                 rt.stage_s[k].size());
    }
    report.set("tgnn.begin_us.p50", percentile(rt.begin_s, 0.5) * 1e6,
               rt.begin_s.size());
    report.set("tgnn.finish_us.p50", percentile(rt.finish_s, 0.5) * 1e6,
               rt.finish_s.size());
    report.set("tgnn.batch_us.mean", mean(rt.batch_s) * 1e6, rt.batch_s.size());
    double batch_sum = 0.0, mu_sum = 0.0;
    for (const double b : rt.batch_s) batch_sum += b;
    for (const double m : rt.stage_s[0]) mu_sum += m;
    report.set("tgnn.memory_update_share",
               batch_sum > 0.0 ? mu_sum / batch_sum : 0.0, rt.batch_s.size());

    // Store counters over the traced rep's two phases (the backend's
    // counters also cover its fast-forward, which is set-up).
    const auto& a = traced.store_after;
    const auto& b = traced.store_before;
    const double sent = static_cast<double>(traced.closed.sent +
                                            traced.open.sent);
    const auto per_req = [&](std::uint64_t after, std::uint64_t before) {
      return static_cast<double>(after - before) / sent;
    };
    const std::uint64_t hits = a.hits - b.hits, misses = a.misses - b.misses;
    const auto n_sent = static_cast<std::size_t>(sent);
    report.set("graph.hit_rate",
               hits + misses == 0 ? 1.0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(hits + misses),
               hits + misses);
    report.set("graph.misses_per_req", per_req(a.misses, b.misses), n_sent);
    report.set("graph.evictions_per_req", per_req(a.evictions, b.evictions),
               n_sent);
    report.set("graph.spill_reads_per_req",
               per_req(a.spill_page_reads, b.spill_page_reads), n_sent);
    report.set("graph.spill_writes_per_req",
               per_req(a.spill_page_writes, b.spill_page_writes), n_sent);
    report.set("graph.prefetch_loads_per_req",
               per_req(a.prefetch_loads, b.prefetch_loads), n_sent);
    report.set("graph.writeback_invalidations",
               static_cast<double>(a.writeback_invalidations -
                                   b.writeback_invalidations),
               1);
    report.set("graph.overcommit_frames",
               static_cast<double>(a.overcommit_frames - b.overcommit_frames),
               1);

    report.set("kernels.gru_fp32_gflops", kp.gru_fp32_gflops, 1);
    report.set("kernels.affine_fp32_gflops", kp.affine_fp32_gflops, 1);
    report.set("kernels.gru_int8_gflops", kp.gru_int8_gflops, 1);
    report.set("kernels.gru_bytes_per_call", kp.gru_bytes_per_call, 1);

    // The software Fig. 6 row: the engine's own profile-calibrated model
    // against the capacity this rep measured, as the factor (>= 1) by
    // which the prediction misses in either direction.
    tgnn::perf::SoftwarePerfModel pm(cs.stage_profile);
    pm.set_hardware_threads(
        std::max(1u, std::thread::hardware_concurrency()));
    pm.set_num_nodes(setup.ds.graph.num_nodes());
    tgnn::perf::SwCandidate cand;
    cand.max_batch = w.closed.max_batch;
    cand.workers = w.closed.workers;
    cand.pipelined = w.closed.pipelined;
    cand.pipeline_depth = w.closed.pipeline_depth;
    const double ratio = pm.predict(cand).throughput_rps / capacity_rps(traced);
    report.set("perf.model_error_x", std::max(ratio, 1.0 / ratio), 1);

    report.set("data.generate_s", median(generate_s), kSetups);
    // The model and its LUT, then make_backend: the parts of setup_s
    // between generating the stream and fast-forwarding over its prefix.
    report.set("runtime.build_s", median(model_s) + median(build_s), n_reps);
    report.set("runtime.fast_forward_s", median(fast_forward_s), n_reps);
    report.set("loadgen.late_ms.p99", percentile(late_s, 0.99) * 1e3,
               late_s.size());
    report.set("loadgen.trace_overhead_x", p50_ms(traced) / p50, 1);
  }

  const bool correct = checks.ok() && failed == 0;
  std::printf("checks: outcomes %s, state %s, replay oracle %s\n",
              checks.outcomes_resolved ? "resolved exactly once" : "BROKEN",
              checks.state_finite ? "finite" : "NON-FINITE",
              checks.replay_oracle.c_str());
  std::printf("%zu measured reps, %zu requests attempted, %zu failed\n",
              n_reps, attempted, failed);

  // ---- result file, trace file, and the contract's last line ------------
  const std::string result_path =
      (fs::path(opts.out_dir) / (w.name + ".json")).string();
  if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"workload\": %s,\n  \"seed\": %llu,\n  \"seconds\": "
                 "%s,\n  \"trace\": %s,\n  \"reps\": %zu,\n  \"correct\": %s,\n"
                 "  \"attempted\": %zu,\n  \"failed\": %zu,\n  \"checks\": "
                 "{\"outcomes_resolved\": %s, \"state_finite\": %s, "
                 "\"replay_oracle\": %s},\n  \"tail_percentile\": %s,\n"
                 "  \"metrics\": {",
                 json::quote(w.name).c_str(),
                 static_cast<unsigned long long>(opts.seed),
                 json::number(opts.seconds).c_str(),
                 opts.trace ? "true" : "false", n_reps,
                 correct ? "true" : "false", attempted, failed,
                 checks.outcomes_resolved ? "true" : "false",
                 checks.state_finite ? "true" : "false",
                 json::quote(checks.replay_oracle).c_str(),
                 json::number(tail_p).c_str());
    bool first = true;
    write_metric_entries(f, report, kEndToEnd, first);
    write_metric_entries(f, report, kPerLayer, first);
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
  }
  if (opts.trace) {
    const std::string trace_path =
        (fs::path(opts.out_dir) / ("trace." + w.name + ".json")).string();
    if (!tracer.write_chrome(trace_path, "tgnn_ledger " + w.name))
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
  }

  std::printf("%s metrics:\n", opts.trace ? "per-layer" : "end-to-end");
  const std::string metrics = opts.trace ? emit_metrics(report, kPerLayer)
                                         : emit_metrics(report, kEndToEnd);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace ledger
