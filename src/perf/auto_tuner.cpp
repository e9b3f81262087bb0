#include "perf/auto_tuner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace tgnn::perf {

std::string SwCandidate::describe() const {
  char buf[96];
  if (pipelined)
    std::snprintf(buf, sizeof buf, "batch %zu, pipelined depth %zu",
                  max_batch, pipeline_depth);
  else if (workers > 1)
    std::snprintf(buf, sizeof buf, "batch %zu, %zu workers", max_batch,
                  workers);
  else
    std::snprintf(buf, sizeof buf, "batch %zu, serial", max_batch);
  return buf;
}

SoftwarePerfModel::SoftwarePerfModel(const StageProfile& profile) {
  for (std::size_t k = 0; k < core::kNumStages; ++k) {
    fixed_[k] = profile.stages[k].fixed_s;
    per_edge_[k] = profile.stages[k].per_edge_s;
  }
  vpe_ = profile.vertices_per_edge;
}

SoftwarePerfModel::SoftwarePerfModel(const StageProfile& lo,
                                     const StageProfile& hi) {
  const double e_lo = lo.ewma_batch_edges;
  const double e_hi = hi.ewma_batch_edges;
  const double spread = e_hi - e_lo;
  for (std::size_t k = 0; k < core::kNumStages; ++k) {
    const double m_lo = lo.stages[k].ewma_s;
    const double m_hi = hi.stages[k].ewma_s;
    const auto through_origin = [&] {
      fixed_[k] = 0.0;
      per_edge_[k] = e_hi > 0.0 ? m_hi / e_hi : 0.0;
    };
    if (spread < 1.0) {  // less than one edge apart: no slope information
      through_origin();
      continue;
    }
    const double slope = (m_hi - m_lo) / spread;
    const double intercept = m_lo - slope * e_lo;
    // Monotonicity prior, as in the windowed fit: stage time cannot shrink
    // with batch size and fixed cost cannot be negative.
    if (slope < 0.0 || intercept < 0.0) {
      through_origin();
      continue;
    }
    fixed_[k] = intercept;
    per_edge_[k] = slope;
  }
  vpe_ = hi.vertices_per_edge;
}

void SoftwarePerfModel::set_hardware_threads(std::size_t hw) {
  hw_ = std::max<std::size_t>(hw, 1);
}

void SoftwarePerfModel::set_num_nodes(std::size_t n) { num_nodes_ = n; }

void SoftwarePerfModel::set_backend_threads(std::size_t t) {
  backend_threads_ = std::max<std::size_t>(t, 1);
}

void SoftwarePerfModel::calibrate_overhead(const StageProfile& lo,
                                           double rps_lo,
                                           const StageProfile& hi,
                                           double rps_hi) {
  const double b_lo = lo.mean_batch_edges;
  const double b_hi = hi.mean_batch_edges;
  if (rps_lo <= 0.0 || rps_hi <= 0.0 || b_lo <= 0.0 || b_hi <= 0.0) return;
  const auto residual = [&](double b, double rps) {
    double stage_s = 0.0;
    for (std::size_t k = 0; k < core::kNumStages; ++k)
      stage_s += fixed_[k] + per_edge_[k] * b;
    return b / rps - stage_s;  // measured period minus bucketed period
  };
  const double r_lo = residual(b_lo, rps_lo);
  const double r_hi = residual(b_hi, rps_hi);
  const double spread = b_hi - b_lo;
  if (spread < 1.0) {  // no slope information: all-fixed overhead
    oh_fixed_s_ = std::max(r_hi, 0.0);
    oh_per_item_s_ = 0.0;
    return;
  }
  const double slope = (r_hi - r_lo) / spread;
  const double intercept = r_lo - slope * b_lo;
  // Same monotonicity prior as the stage fits: overhead cannot be
  // negative and cannot shrink with batch size. A negative slope means
  // the lo point was noisy — keep the fixed character (mean residual);
  // a negative intercept means the overhead is item-dominated — keep the
  // through-origin slope.
  if (slope < 0.0) {
    oh_fixed_s_ = std::max(0.5 * (r_lo + r_hi), 0.0);
    oh_per_item_s_ = 0.0;
  } else if (intercept < 0.0) {
    oh_fixed_s_ = 0.0;
    oh_per_item_s_ = std::max(r_hi, 0.0) / b_hi;
  } else {
    oh_fixed_s_ = intercept;
    oh_per_item_s_ = slope;
  }
}

double SoftwarePerfModel::stage_time_s(std::size_t stage,
                                       std::size_t batch_edges) const {
  return fixed_[stage] +
         per_edge_[stage] * static_cast<double>(batch_edges);
}

SwPrediction SoftwarePerfModel::predict(const SwCandidate& c) const {
  SwPrediction p;
  const auto batch = static_cast<double>(std::max<std::size_t>(c.max_batch, 1));
  for (std::size_t k = 0; k < core::kNumStages; ++k) {
    p.stage_s[k] = stage_time_s(k, c.max_batch);
    p.batch_s += p.stage_s[k];
    p.bottleneck_s = std::max(p.bottleneck_s, p.stage_s[k]);
  }
  p.fill_s = p.batch_s;
  p.period_s = p.batch_s;
  if (c.pipelined) {
    const std::size_t overlap = std::max<std::size_t>(
        std::min({c.pipeline_depth, core::kNumStages, hw_}), 1);
    const auto dilate = static_cast<double>(
        std::min<std::size_t>(overlap, backend_threads_));
    p.fill_s = p.batch_s * dilate;
    p.period_s = std::max(p.bottleneck_s * dilate,
                          p.batch_s * dilate / static_cast<double>(overlap));
  } else if (c.workers > 1) {
    const auto w =
        static_cast<double>(std::min<std::size_t>(c.workers, hw_));
    const double footprint = vpe_ * batch;
    const double disjoint =
        num_nodes_ > 0
            ? std::exp(-(footprint * footprint) /
                       static_cast<double>(num_nodes_))
            : 1.0;
    const double parallelism = 1.0 + (w - 1.0) * disjoint;
    p.period_s = p.batch_s / parallelism;
  }
  // Scheduler overhead (batch formation, queue handoff, bookkeeping) is
  // serialized on the dispatch path in every mode — it adds to the period
  // whole, never overlapped or divided across lanes.
  const double oh = overhead_s(batch);
  p.period_s += oh;
  p.fill_s += oh;
  if (p.period_s > 0.0) p.throughput_rps = batch / p.period_s;
  p.latency_s = p.fill_s;
  return p;
}

AutoTuner::AutoTuner(runtime::Backend& backend, AutoTunerOptions opts)
    : backend_(runtime::staged_backend(backend, "AutoTuner")),
      opts_(std::move(opts)) {
  if (opts_.hardware_threads == 0)
    opts_.hardware_threads =
        std::max(1u, std::thread::hardware_concurrency());
}

runtime::ServingOptions AutoTuner::options_for(const SwCandidate& c) const {
  runtime::ServingOptions o;
  o.max_batch = std::max<std::size_t>(c.max_batch, 1);
  o.max_wait_s = opts_.max_wait_s;
  o.queue_capacity = std::max<std::size_t>(4 * o.max_batch, 4096);
  o.workers = c.pipelined ? 1 : c.workers;
  o.pipelined = c.pipelined;
  o.pipeline_depth = c.pipeline_depth;
  return o;
}

std::vector<SwCandidate> AutoTuner::candidates() const {
  std::vector<SwCandidate> out;
  for (std::size_t b : opts_.batch_grid) {
    SwCandidate c;
    c.max_batch = b;
    out.push_back(c);
    for (std::size_t w : opts_.worker_grid)
      if (w > 1 && w <= backend_.lanes()) {
        c.workers = w;
        out.push_back(c);
      }
    c.workers = 1;
    c.pipelined = true;
    for (std::size_t d : opts_.depth_grid)
      if (d >= 2) {
        c.pipeline_depth = d;
        out.push_back(c);
      }
  }
  return out;
}

StageProfile AutoTuner::profile_run(const runtime::ServingOptions& sopts,
                                    std::size_t begin, std::size_t events,
                                    double* measured_rps) {
  runtime::ServingEngine server(backend_, sopts);
  for (std::size_t i = begin; i < begin + events; ++i) server.submit(i);
  server.drain();
  const auto stats = server.stats();
  if (measured_rps != nullptr) *measured_rps = stats.throughput_rps;
  return stats.stage_profile;
}

TuneResult AutoTuner::search(std::size_t start_index) {
  TuneResult result;
  result.next_index = start_index;
  result.options = runtime::ServingOptions{};

  // ---- calibration: two short serves at deliberately different batch
  // sizes (the two-point affine needs the spread closed-loop traffic
  // would otherwise never produce).
  SwCandidate calib;
  calib.max_batch = opts_.calib_batch_lo;
  double calib_rps_lo = 0.0;
  const StageProfile lo = profile_run(options_for(calib), result.next_index,
                                      opts_.calib_events, &calib_rps_lo);
  result.next_index += opts_.calib_events;
  calib.max_batch = opts_.calib_batch_hi;
  double calib_rps_hi = 0.0;
  const StageProfile hi = profile_run(options_for(calib), result.next_index,
                                      opts_.calib_events, &calib_rps_hi);
  result.next_index += opts_.calib_events;
  result.profile = hi;

  SoftwarePerfModel model(lo, hi);
  model.set_hardware_threads(opts_.hardware_threads);
  model.set_num_nodes(backend_.dataset().graph.num_nodes());
  model.set_backend_threads(opts_.backend_threads);
  model.calibrate_overhead(lo, calib_rps_lo, hi, calib_rps_hi);

  for (const SwCandidate& c : candidates())
    result.ranked.push_back({c, model.predict(c), 0.0});
  std::stable_sort(result.ranked.begin(), result.ranked.end(),
                   [](const RankedCandidate& a, const RankedCandidate& b) {
                     return a.predicted.throughput_rps >
                            b.predicted.throughput_rps;
                   });

  // ---- validation: re-measure the top-K predicted candidates and let the
  // measurement overrule the model among them (the model orders the whole
  // space; the measurement picks within the shortlist).
  const std::size_t k =
      std::min<std::size_t>(opts_.validate_top_k, result.ranked.size());
  std::size_t best = 0;
  for (std::size_t i = 0; i < k; ++i) {
    double rps = 0.0;
    profile_run(options_for(result.ranked[i].candidate), result.next_index,
                opts_.validate_events, &rps);
    result.next_index += opts_.validate_events;
    result.ranked[i].measured_rps = rps;
    if (rps > result.ranked[best].measured_rps) best = i;
  }

  result.chosen = result.ranked[best].candidate;
  result.predicted = result.ranked[best].predicted;
  result.options = options_for(result.chosen);
  return result;
}

std::string TuneResult::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "auto-tuned: %s (predicted %.0f req/s, period %.3f ms)",
                chosen.describe().c_str(), predicted.throughput_rps,
                predicted.period_s * 1e3);
  std::string out = buf;
  const std::size_t show = std::min<std::size_t>(ranked.size(), 5);
  for (std::size_t i = 0; i < show; ++i) {
    std::snprintf(buf, sizeof buf, "\n  #%zu %-28s predicted %8.0f req/s",
                  i + 1, ranked[i].candidate.describe().c_str(),
                  ranked[i].predicted.throughput_rps);
    out += buf;
    if (ranked[i].measured_rps > 0.0) {
      std::snprintf(buf, sizeof buf, "  measured %8.0f req/s",
                    ranked[i].measured_rps);
      out += buf;
    }
  }
  return out;
}

}  // namespace tgnn::perf
