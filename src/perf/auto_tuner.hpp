// The paper's design-space-exploration loop, applied to the software
// runtime: a calibrated cost model over measured stage profiles
// (perf/stage_profile.hpp) ranks ServingOptions candidates, and an offline
// searcher picks the best configuration for a backend + workload.
//
// SoftwarePerfModel is the sibling of the Section V analytic model
// (perf/perf_model.hpp): where PerfModel predicts the accelerator's
// pipeline period Tp = max stage and fill = sum of stages from design
// parameters (Eq. 18-22), SoftwarePerfModel predicts the serving engine's
// period and fill from MEASURED per-stage affine cost fits
// t_k(B) = fixed_k + per_edge_k * B:
//
//   serial       period = sum_k t_k(B)                  (one batch at a time)
//   pipelined    period = max(max_k t_k(B) * d, sum_k t_k(B) * d / overlap)
//                with overlap = min(depth, kNumStages, hw threads) and
//                d = min(overlap, backend internal threads): a backend whose
//                serial batch already ran on T omp threads gives each
//                concurrent stage only T/overlap of them, so stage times
//                dilate — pipelining buys nothing a work-conserving
//                parallel backend didn't already have.
//   workers W    period = sum_k t_k(B) / P with
//                P = 1 + (min(W, hw) - 1) * exp(-(vpe*B)^2 / num_nodes):
//                the probability two batch footprints of vpe*B vertices
//                drawn from num_nodes collide (birthday approximation)
//                discounts the lanes head-of-line admission will stall.
//
//   throughput = B / period,  first-batch latency = fill = sum_k t_k(B) * d
//
// On top of the stage terms every mode's period pays oh(B) — the affine
// per-batch scheduler overhead (formation, queue handoff, bookkeeping)
// that the stage buckets cannot see, fitted by calibrate_overhead() from
// the residual between measured and bucketed period at the two
// calibration serves (zero if never calibrated).
//
// Calibration comes either from one live profile (its windowed affine
// fits) or from two profiles taken at deliberately different batch sizes
// (two-point affine through the EWMA means — the offline tuner's route,
// robust when closed-loop serving gives the window no size variance).
//
// AutoTuner::search() is the DSE loop: run short calibration serves at two
// batch sizes, build the model, rank every candidate the backend's
// contracts admit (worker counts up to its lanes(), every pipeline depth),
// optionally re-measure the top-K predicted candidates, and return the
// winning ServingOptions. Like ServingEngine it tunes staged backends
// only. The search CONSUMES stream events (calibration and validation
// serve real traffic and advance backend state) — tune on a throwaway
// backend, or treat the consumed prefix as warmup and continue serving
// from TuneResult::next_index.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "perf/stage_profile.hpp"
#include "runtime/serving.hpp"

namespace tgnn::perf {

/// One point of the software design space (the knobs ServingOptions
/// exposes that change throughput, minus admission policy).
struct SwCandidate {
  std::size_t max_batch = 256;
  std::size_t workers = 1;       ///< > 1 requires backend lanes() > 1
  bool pipelined = false;
  std::size_t pipeline_depth = core::kNumStages;
  [[nodiscard]] std::string describe() const;
};

/// The model's output for one candidate (the software Eq. 18-22 row).
struct SwPrediction {
  std::array<double, core::kNumStages> stage_s{};  ///< t_k(B)
  double batch_s = 0.0;       ///< sum of stages: serial service time
  double bottleneck_s = 0.0;  ///< max stage: the pipeline's Tp analogue
  double period_s = 0.0;      ///< steady-state time between completions
  double fill_s = 0.0;        ///< first-batch end-to-end (pipeline fill)
  double throughput_rps = 0.0;
  double latency_s = 0.0;     ///< fill + half a formation wait
};

class SoftwarePerfModel {
 public:
  /// Calibrate from one live profile's windowed affine fits.
  explicit SoftwarePerfModel(const StageProfile& profile);
  /// Two-point affine calibration across profiles measured at two batch
  /// sizes (EWMA means vs EWMA batch edges). Degenerate spacing (same
  /// batch size twice) falls back to the through-origin fit of `hi`.
  SoftwarePerfModel(const StageProfile& lo, const StageProfile& hi);

  /// Core count the candidate's parallelism is capped by (default 1).
  void set_hardware_threads(std::size_t hw);
  /// Graph size anchoring the footprint-collision discount for workers.
  void set_num_nodes(std::size_t n);
  /// OpenMP width the calibration profile's serial batches ran with
  /// (default 1); > 1 dilates pipelined stage times (see file comment).
  void set_backend_threads(std::size_t t);

  /// Fold the scheduler overhead the stage buckets cannot see into the
  /// model. The stage fits only cover time spent INSIDE process_batch's
  /// instrumented sections; batch formation, queue handoff, and
  /// bookkeeping are invisible to them yet sit on the serial critical
  /// path every period. Given the measured throughput of the two
  /// calibration serves, this fits the residual
  ///   measured_period(B) - sum_k t_k(B)
  /// as an affine per-batch overhead oh(B) = oh_fixed + oh_per_item * B
  /// (clamped non-negative) that predict() adds to every candidate's
  /// period and fill. Without this call the overhead is zero and
  /// predictions are pure stage sums.
  void calibrate_overhead(const StageProfile& lo, double rps_lo,
                          const StageProfile& hi, double rps_hi);
  /// oh(B): calibrated per-batch scheduler overhead (0 before calibration).
  [[nodiscard]] double overhead_s(double batch) const {
    return oh_fixed_s_ + oh_per_item_s_ * batch;
  }

  [[nodiscard]] SwPrediction predict(const SwCandidate& c) const;
  /// t_k(B) from the calibrated fit.
  [[nodiscard]] double stage_time_s(std::size_t stage,
                                    std::size_t batch_edges) const;
  [[nodiscard]] double vertices_per_edge() const { return vpe_; }

 private:
  std::array<double, core::kNumStages> fixed_{};
  std::array<double, core::kNumStages> per_edge_{};
  double oh_fixed_s_ = 0.0;     ///< per-batch scheduler overhead, fixed part
  double oh_per_item_s_ = 0.0;  ///< per-batch scheduler overhead, per item
  double vpe_ = 2.0;
  std::size_t hw_ = 1;
  std::size_t num_nodes_ = 0;
  std::size_t backend_threads_ = 1;
};

struct AutoTunerOptions {
  std::size_t calib_events = 1536;   ///< stream events per calibration run
  std::size_t calib_batch_lo = 32;   ///< the two calibration batch sizes
  std::size_t calib_batch_hi = 128;
  /// Candidate grids. Worker counts above the backend's lanes() and modes
  /// the backend's contracts don't admit are skipped, not errors.
  std::vector<std::size_t> batch_grid = {16, 32, 64, 128, 256, 512};
  std::vector<std::size_t> worker_grid = {2, 4, 8};
  std::vector<std::size_t> depth_grid = {2, core::kNumStages};
  double max_wait_s = 1e-3;  ///< formation wait of every candidate
  std::size_t hardware_threads = 0;  ///< 0 = std::thread::hardware_concurrency
  std::size_t backend_threads = 1;   ///< omp width of a serial batch (cpu-mt)
  /// Re-measure the top-K predicted candidates on real traffic and return
  /// the measured-best (0 = trust the model outright).
  std::size_t validate_top_k = 3;
  std::size_t validate_events = 1024;
};

/// One ranked design point of the search.
struct RankedCandidate {
  SwCandidate candidate;
  SwPrediction predicted;
  double measured_rps = 0.0;  ///< 0 unless this candidate was validated
};

struct TuneResult {
  runtime::ServingOptions options;  ///< the winner, engine-ready
  SwCandidate chosen;
  SwPrediction predicted;           ///< the winner's model row
  StageProfile profile;             ///< calibration profile (batch_hi run)
  std::vector<RankedCandidate> ranked;  ///< every candidate, best first
  std::size_t next_index = 0;  ///< first stream index search() left unconsumed
  [[nodiscard]] std::string describe() const;
};

class AutoTuner {
 public:
  /// The backend must outlive the tuner; search() serves traffic on it.
  /// Throws std::invalid_argument when it is not a StagedBackend (gpu-sim,
  /// apan, fpga).
  explicit AutoTuner(runtime::Backend& backend, AutoTunerOptions opts = {});

  /// Run the DSE loop starting at stream index `start_index` (the backend
  /// must already be fast-forwarded to it). See the file comment.
  [[nodiscard]] TuneResult search(std::size_t start_index);

  /// The candidate list the backend's contracts admit (serial and
  /// pipelined always; worker counts up to the backend's lanes()) — split
  /// out for tests and for callers with their own ranking.
  [[nodiscard]] std::vector<SwCandidate> candidates() const;

  /// ServingOptions realizing one candidate under this tuner's options.
  [[nodiscard]] runtime::ServingOptions options_for(
      const SwCandidate& c) const;

  /// Serve `events` requests from `begin` under `sopts` and return the
  /// engine's stage profile (and, optionally, its measured throughput).
  StageProfile profile_run(const runtime::ServingOptions& sopts,
                           std::size_t begin, std::size_t events,
                           double* measured_rps = nullptr);

 private:
  runtime::StagedBackend& backend_;
  AutoTunerOptions opts_;
};

}  // namespace tgnn::perf
