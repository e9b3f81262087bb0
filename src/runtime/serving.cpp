#include "runtime/serving.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <thread>

#include "kernels/quant.hpp"
#include "perf/auto_tuner.hpp"
#include "tgnn/serialize.hpp"
#include "util/check.hpp"
#include "util/fault_injector.hpp"

namespace tgnn::runtime {

namespace {

/// Lanes actually usable: opts.workers clamped to the backend's lane count
/// (1 when the backend has no concurrent contract).
std::size_t resolve_workers(const ServingOptions& opts,
                            const Backend& backend) {
  const auto* cb = dynamic_cast<const ConcurrentBackend*>(&backend);
  if (opts.workers <= 1 || cb == nullptr) return 1;
  return std::min(opts.workers, cb->lanes());
}

/// The batch's WRITE footprint: its edge endpoints, deduplicated, straight
/// off the immutable stream (safe to compute any time).
void write_footprint(const graph::TemporalGraph& g,
                     const graph::BatchRange& range,
                     std::vector<graph::NodeId>& wfp) {
  wfp.clear();
  for (const auto& e : g.edges(range)) {
    wfp.push_back(e.src);
    wfp.push_back(e.dst);
  }
  std::sort(wfp.begin(), wfp.end());
  wfp.erase(std::unique(wfp.begin(), wfp.end()), wfp.end());
}

/// PartTimes buckets in core::Stage order (memory -> MemoryUpdate,
/// sample -> NeighborGather, gnn -> GnnCompute, update -> Decode); see
/// perf/stage_profile.hpp for the attribution convention.
std::array<double, core::kNumStages> stage_array(const core::PartTimes& p) {
  return {p.memory, p.sample, p.gnn, p.update};
}

}  // namespace

std::string ServingStats::describe() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "%zu requests in %zu batches (mean %.1f/batch), %.0f req/s, "
                "latency p50/p95/p99 %.2f/%.2f/%.2f ms\n",
                num_requests, num_batches, mean_batch_size, throughput_rps,
                p50_latency_s * 1e3, p95_latency_s * 1e3, p99_latency_s * 1e3);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "  queue wait p50 %.2f ms, service p50 %.2f ms; stage "
                "p50/p95 ms:",
                p50_queue_wait_s * 1e3, p50_service_s * 1e3);
  out += buf;
  for (std::size_t k = 0; k < core::kNumStages; ++k) {
    std::snprintf(buf, sizeof buf, " %s %.2f/%.2f",
                  perf::stage_name(k), p50_stage_s[k] * 1e3,
                  p95_stage_s[k] * 1e3);
    out += buf;
  }
  out += '\n';
  std::snprintf(buf, sizeof buf,
                "  knobs: max_batch %zu, max_wait %.2f ms, precision %s; "
                "%zu retune step(s), %zu degrade step(s)\n",
                max_batch, max_wait_s * 1e3,
                kernels::precision_name(precision), retune_steps,
                degrade_steps);
  out += buf;
  if (stage_profile.batches > 0) out += stage_profile.describe();
  return out;
}

ServingEngine::ServingEngine(Backend& backend, ServingOptions opts)
    : backend_(backend),
      staged_(dynamic_cast<StagedBackend*>(&backend)),
      opts_(opts),
      workers_(resolve_workers(opts, backend)),
      base_max_wait_s_(opts.max_wait_s),
      hw_threads_(std::max<std::size_t>(
          1, std::thread::hardware_concurrency())),
      pool_(1 + (opts.pipelined ? core::kNumStages
                                 : (workers_ > 1 ? workers_ : 0))) {
  if (opts_.max_batch == 0)
    throw std::invalid_argument("ServingEngine: max_batch must be > 0");
  if (opts_.queue_capacity == 0)
    throw std::invalid_argument("ServingEngine: queue_capacity must be > 0");
  if (opts_.workers > 1 &&
      dynamic_cast<ConcurrentBackend*>(&backend_) == nullptr)
    throw std::invalid_argument(
        "ServingEngine: workers > 1 requires a ConcurrentBackend "
        "(e.g. \"sharded-cpu\"); backend '" +
        backend_.name() + "' is not one");
  if (opts_.admission == AdmissionPolicy::kShed && opts_.shed_wait_s < 0.0)
    throw std::invalid_argument("ServingEngine: shed_wait_s must be >= 0");
  if (opts_.admission == AdmissionPolicy::kDeadline && opts_.deadline_s <= 0.0)
    throw std::invalid_argument("ServingEngine: deadline_s must be > 0");
  if (opts_.degrade_under_overload &&
      !(opts_.degrade_low < opts_.degrade_high))
    throw std::invalid_argument(
        "ServingEngine: degrade_low must be < degrade_high");
  if (opts_.autotune_online) {
    if (opts_.retune_interval == 0)
      throw std::invalid_argument(
          "ServingEngine: retune_interval must be > 0");
    if (opts_.retune_min_batch == 0 ||
        opts_.retune_min_batch > opts_.retune_max_batch)
      throw std::invalid_argument(
          "ServingEngine: retune batch bounds must satisfy "
          "0 < retune_min_batch <= retune_max_batch");
    if (opts_.retune_margin < 1.0)
      throw std::invalid_argument(
          "ServingEngine: retune_margin must be >= 1 (a flip needs a "
          "predicted gain, not a predicted tie)");
  }
  {
    // Degradation ladder, anchored at the backend's base numeric mode.
    // One rung means "never degrade" — either the option is off or the
    // backend already serves int8.
    util::MutexLock lk(mu_);
    ladder_.push_back(backend_.precision());
    if (opts_.degrade_under_overload) {
      if (ladder_.front() == kernels::Precision::kFp32)
        ladder_.push_back(kernels::Precision::kBf16);
      if (ladder_.front() != kernels::Precision::kInt8)
        ladder_.push_back(kernels::Precision::kInt8);
    }
  }
  if (opts_.pipelined) {
    if (staged_ == nullptr)
      throw std::invalid_argument(
          "ServingEngine: pipelined requires a StagedBackend "
          "(cpu | cpu-mt | sharded-cpu); backend '" +
          backend_.name() + "' is not one");
    if (opts_.workers > 1)
      throw std::invalid_argument(
          "ServingEngine: pipelined and workers > 1 are mutually exclusive "
          "(a staged sharded backend composes its lanes as pipeline slots)");
    if (opts_.pipeline_depth == 0)
      throw std::invalid_argument(
          "ServingEngine: pipeline_depth must be > 0");
  }

  // The shape (DESIGN.md §2): S slots, and nodes of workers that each run a
  // stage range [first, last) of one slot per visit. Serial is one slot and
  // one [0,4) worker; lanes are W slots and W [0,4) workers; the pipeline is
  // D slots and four single-stage workers over capacity-1 channels (classic
  // pipeline registers: a stage stalls until its successor drains).
  const std::size_t slots = opts_.pipelined ? opts_.pipeline_depth : workers_;
  if (opts_.pipelined) {
    for (std::size_t k = 0; k < core::kNumStages; ++k)
      nodes_.push_back(std::make_unique<Node>(k, k + 1, 1, 1));
  } else {
    nodes_.push_back(
        std::make_unique<Node>(0, core::kNumStages, slots, slots));
  }
  // One slot and one node: the admitter is the node's worker, so serial
  // serving runs on one thread, as a plain loop would.
  inline_worker_ = slots == 1 && nodes_.size() == 1;
  // One slot needs no hazard check. With more, a backend without
  // internally synchronized cross-batch reads cannot run relaxed admission
  // safely: track read footprints regardless of the requested policy
  // (which also makes execution deterministic).
  track_hazards_ = slots > 1;
  track_reads_ = track_hazards_ &&
                 (opts_.deterministic || !staged_->race_free_reads());
  if (staged_ != nullptr) staged_->prepare_pipeline(slots, opts_.max_batch);
  {
    // The workers don't exist yet, but initializing the guarded state under
    // the lock keeps every write inside the capability.
    util::MutexLock lk(mu_);
    if (track_hazards_)
      ledger_ = HazardLedger(backend_.dataset().graph.num_nodes());
    for (std::size_t s = slots; s-- > 0;) free_slots_.push_back(s);
    slot_meta_.assign(slots, SlotMeta{});
  }
  if (!inline_worker_)
    for (std::size_t n = 0; n < nodes_.size(); ++n)
      for (std::size_t w = 0; w < nodes_[n]->workers; ++w)
        pool_.submit([this, n] { worker_loop(n); });
  pool_.submit([this] { admit_loop(); });
}

ServingEngine::~ServingEngine() { stop(); }

void ServingEngine::stop() {
  {
    util::MutexLock lk(mu_);
    stop_ = true;
  }
  cv_submit_.notify_all();
  cv_state_.notify_all();  // release submitters blocked on queue capacity
  // The scheduler flushes and completes everything still queued or
  // mid-pipeline (next_batch keeps handing out batches until the queue is
  // empty), closes the stage FIFOs, and the workers drain them — so this
  // returns only after every submitted request has been resolved.
  pool_.wait_idle();
}

void ServingEngine::check_submit_locked(std::size_t edge_index) const {
  if (stop_)
    throw std::logic_error("ServingEngine::submit: engine is stopped");
  if (have_origin_ && edge_index != next_index_)
    throw std::invalid_argument(
        "ServingEngine::submit: requests must arrive in stream order (got " +
        std::to_string(edge_index) + ", expected " +
        std::to_string(next_index_) + ")");
}

void ServingEngine::enqueue_locked(std::size_t edge_index) {
  have_origin_ = true;
  next_index_ = edge_index + 1;
  const double now = clock_.seconds();
  if (first_submit_s_ < 0.0) first_submit_s_ = now;
  queue_.push_back({edge_index, now});
  peak_queue_depth_ = std::max(peak_queue_depth_, queue_.size());
  cv_submit_.notify_all();
}

bool ServingEngine::wait_for_space(util::MutexLock& lk, double timeout_s) {
  if (queue_.size() < opts_.queue_capacity) return true;
  const double deadline = clock_.seconds() + std::max(timeout_s, 0.0);
  while (!stop_ && queue_.size() >= opts_.queue_capacity) {
    const double remaining = deadline - clock_.seconds();
    if (remaining <= 0.0) return false;
    cv_state_.wait_for(lk, std::chrono::duration<double>(remaining));
  }
  return !stop_ && queue_.size() < opts_.queue_capacity;
}

bool ServingEngine::submit(std::size_t edge_index) {
  util::MutexLock lk(mu_);
  check_submit_locked(edge_index);
  if (opts_.admission == AdmissionPolicy::kShed) {
    if (!wait_for_space(lk, opts_.shed_wait_s)) {
      if (stop_)
        throw std::logic_error("ServingEngine::submit: engine is stopped");
      // Queue still full after the bounded wait: shed. The request is
      // CONSUMED — the cursor advances so the stream stays in order and
      // the caller moves on to the successor index.
      have_origin_ = true;
      next_index_ = edge_index + 1;
      outcomes_.push_back({edge_index, RequestOutcome::kShed});
      ++shed_;
      return false;
    }
  } else {
    while (!stop_ && queue_.size() >= opts_.queue_capacity) cv_state_.wait(lk);
  }
  if (stop_)
    throw std::logic_error("ServingEngine::submit: engine is stopped");
  enqueue_locked(edge_index);
  return true;
}

bool ServingEngine::submit(std::size_t edge_index, double timeout_s) {
  util::MutexLock lk(mu_);
  check_submit_locked(edge_index);
  if (!wait_for_space(lk, timeout_s)) {
    if (stop_)
      throw std::logic_error("ServingEngine::submit: engine is stopped");
    return false;  // timed out; NOT consumed — the caller may retry
  }
  enqueue_locked(edge_index);
  return true;
}

bool ServingEngine::try_submit(std::size_t edge_index) {
  util::MutexLock lk(mu_);
  check_submit_locked(edge_index);
  if (queue_.size() >= opts_.queue_capacity) return false;  // NOT consumed
  enqueue_locked(edge_index);
  return true;
}

void ServingEngine::drain() {
  util::MutexLock lk(mu_);
  // Force-flush whatever is pending instead of letting a partial batch sit
  // out the remainder of its max_wait deadline.
  if (!queue_.empty()) {
    flush_ = true;
    cv_submit_.notify_all();
  }
  while (!queue_.empty() || in_flight_ != 0) cv_state_.wait(lk);
}

std::size_t ServingEngine::contiguous_run_locked() const {
  std::size_t n = 1;
  while (n < queue_.size() && n < opts_.max_batch &&
         queue_[n].index == queue_[n - 1].index + 1)
    ++n;
  return n;
}

void ServingEngine::expire_stale_locked() {
  const double now = clock_.seconds();
  bool dropped = false;
  while (!queue_.empty() &&
         now - queue_.front().arrival_s > opts_.deadline_s) {
    outcomes_.push_back({queue_.front().index, RequestOutcome::kExpired});
    ++expired_;
    queue_.pop_front();
    dropped = true;
  }
  // Space freed: wake blocked submitters, and a drain() whose last pending
  // requests just expired.
  if (dropped) cv_state_.notify_all();
}

bool ServingEngine::next_batch(util::MutexLock& lk, graph::BatchRange& range,
                               std::vector<double>& arrivals) {
  for (;;) {
    while (!stop_ && queue_.empty()) cv_submit_.wait(lk);
    if (queue_.empty()) return false;  // only reachable when stopping

    // kDeadline: a request whose queue wait already exceeds the budget is
    // dropped before dispatch (also during drain/stop — serving it late
    // would be worse than the typed drop). Arrival times are monotone, so
    // the expired set is exactly a prefix.
    if (opts_.admission == AdmissionPolicy::kDeadline) {
      expire_stale_locked();
      if (queue_.empty()) continue;  // everything pending had expired
    }

    // Coalesce: hold the batch open until the leading contiguous run is
    // full, the oldest pending request hits the flush deadline, or a
    // drain/stop forces a flush. An index gap (left by a shed request)
    // caps the batch early — a BatchRange must be contiguous and the run
    // cannot grow past the gap. Under kDeadline the wait is also bounded
    // by the front request's remaining budget so expiry happens on time.
    bool expired_front = false;
    while (!stop_ && !flush_) {
      const std::size_t run = contiguous_run_locked();
      if (run >= opts_.max_batch) break;
      if (run < queue_.size()) break;  // gap: waiting cannot extend the run
      const double age = clock_.seconds() - queue_.front().arrival_s;
      double remaining = opts_.max_wait_s - age;
      if (opts_.admission == AdmissionPolicy::kDeadline) {
        const double budget = opts_.deadline_s - age;
        if (budget <= 0.0) {
          expired_front = true;
          break;
        }
        remaining = std::min(remaining, budget);
      }
      if (remaining <= 0.0) break;
      cv_submit_.wait_for(lk, std::chrono::duration<double>(remaining));
    }
    if (expired_front) continue;  // sweep the expired prefix, then re-form

    const std::size_t n = contiguous_run_locked();
    range = {queue_.front().index, queue_.front().index + n};
    arrivals.clear();
    arrivals.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      arrivals.push_back(queue_.front().arrival_s);
      queue_.pop_front();
    }
    if (queue_.empty()) flush_ = false;  // forced flush fully served
    ++in_flight_;                        // formed => counted until completed
    peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
    const bool degraded = maybe_degrade();
    maybe_retune(degraded);
    cv_state_.notify_all();  // queue space freed for blocked submitters
    return true;
  }
}

bool ServingEngine::maybe_degrade() {
  if (ladder_.size() <= 1) return false;  // off, or backend cannot degrade
  const double fill = static_cast<double>(queue_.size()) /
                      static_cast<double>(opts_.queue_capacity);
  if (fill >= opts_.degrade_high) {
    ++pressure_run_;
    clear_run_ = 0;
  } else if (fill <= opts_.degrade_low) {
    ++clear_run_;
    pressure_run_ = 0;
  } else {
    pressure_run_ = 0;
    clear_run_ = 0;
  }
  std::size_t target = degrade_level_;
  if (pressure_run_ >= opts_.degrade_patience &&
      degrade_level_ + 1 < ladder_.size())
    target = degrade_level_ + 1;
  else if (clear_run_ >= opts_.degrade_patience && degrade_level_ > 0)
    target = degrade_level_ - 1;
  if (target == degrade_level_) return false;
  // Precision flips require backend quiescence. The only point this
  // scheduler can guarantee it is right after batch formation when the
  // formed batch is the sole in-flight work and nothing is dispatched —
  // always true in serial mode, opportunistic (empty pipeline / idle
  // lanes) otherwise. The flip happens under mu_: set_precision only
  // rebuilds the model's precision caches, takes no engine lock, and
  // holding mu_ keeps stats()'s precision read race-free.
  if (in_flight_ != 1 || executing_ != 0) return false;
  pressure_run_ = 0;
  clear_run_ = 0;
  if (!backend_.set_precision(ladder_[target])) {
    ladder_.resize(1);  // backend refused: never try again
    return false;
  }
  if (target > degrade_level_) ++degrade_steps_;
  degrade_level_ = target;
  tuning_log_.push_back({batches_.size(), TuningEvent::Kind::kPrecision,
                         static_cast<std::size_t>(ladder_[target])});
  return true;
}

void ServingEngine::maybe_retune(bool degrade_flipped) {
  if (!opts_.autotune_online) return;
  ++formations_since_retune_;
  if (formations_since_retune_ < opts_.retune_interval) return;
  // Compose with the degradation ladder instead of fighting it: never two
  // knobs at one quiescent point, and a pressured ladder walk gets to act
  // (or time out) before batches are resized under it.
  if (degrade_flipped || pressure_run_ != 0) return;
  // The same quiescent condition the precision flip requires: the batch
  // just formed is the sole in-flight work. Resizing here means every
  // batch — in any scheduler mode — still forms and executes in stream
  // order against quiescent state, which is what keeps deterministic-mode
  // results bit-identical to a serial replay of batch_log().
  if (in_flight_ != 1 || executing_ != 0) return;
  const perf::StageProfile prof = profiler_.snapshot();
  // Need at least half a window of fresh evidence, and a backend that
  // reports stage times at all (modelled platforms may not).
  if (prof.batches < opts_.retune_interval / 2 || prof.total_ewma_s() <= 0.0)
    return;
  formations_since_retune_ = 0;

  perf::SoftwarePerfModel model(prof);
  model.set_hardware_threads(hw_threads_);
  model.set_num_nodes(backend_.dataset().graph.num_nodes());

  perf::SwCandidate cand;
  cand.workers = workers_;
  cand.pipelined = opts_.pipelined;
  cand.pipeline_depth = opts_.pipeline_depth;
  cand.max_batch = opts_.max_batch;
  const double current_rps = model.predict(cand).throughput_rps;
  std::size_t best_batch = opts_.max_batch;
  double best_rps = current_rps;
  perf::SwPrediction best_pred;
  for (std::size_t b = opts_.retune_min_batch;
       b <= std::min(opts_.retune_max_batch, opts_.queue_capacity); b *= 2) {
    cand.max_batch = b;
    const perf::SwPrediction pred = model.predict(cand);
    if (pred.throughput_rps > best_rps) {
      best_rps = pred.throughput_rps;
      best_batch = b;
      best_pred = pred;
    }
  }
  if (best_batch == opts_.max_batch ||
      best_rps < opts_.retune_margin * current_rps)
    return;
  // Direction hysteresis: reversing the previous flip needs two full
  // intervals of evidence — the no-flip-flop contract the tests pin.
  const int dir = best_batch > opts_.max_batch ? 1 : -1;
  if (dir == -last_retune_dir_ &&
      batches_.size() - last_retune_batch_ < 2 * opts_.retune_interval)
    return;
  opts_.max_batch = best_batch;
  // Re-derive the formation wait from the predicted service time (holding
  // a batch open much longer than it takes to serve one buys nothing),
  // bounded to one order of magnitude around the configured wait.
  opts_.max_wait_s = std::clamp(best_pred.batch_s, base_max_wait_s_ / 8.0,
                                base_max_wait_s_ * 8.0);
  ++retune_steps_;
  last_retune_dir_ = dir;
  last_retune_batch_ = batches_.size();
  tuning_log_.push_back(
      {batches_.size(), TuningEvent::Kind::kMaxBatch, best_batch});
}

void ServingEngine::record_stage_sample(
    const std::array<double, core::kNumStages>& stage_s,
    const graph::BatchRange& range, std::size_t unique_vertices) {
  profiler_.record(stage_s, range.size(), unique_vertices, queue_.size());
  for (std::size_t k = 0; k < core::kNumStages; ++k)
    stage_samples_[k].push_back(stage_s[k]);
}

void ServingEngine::record_batch(const graph::BatchRange& range,
                                 const std::vector<double>& arrivals,
                                 double dispatch_s, double service_s) {
  const double done = clock_.seconds();
  for (double a : arrivals) {
    const double wait = dispatch_s - a;
    latencies_.push_back(wait + service_s);
    queue_waits_.push_back(wait);
    services_.push_back(service_s);
  }
  for (std::size_t i = range.begin; i < range.end; ++i)
    outcomes_.push_back({i, RequestOutcome::kServed});
  last_done_s_ = std::max(last_done_s_, done);
  TGNN_DCHECK(in_flight_ > 0, "batch completion with none in flight");
  --in_flight_;
  cv_state_.notify_all();
}

void ServingEngine::fail_batch(const graph::BatchRange& range) {
  for (std::size_t i = range.begin; i < range.end; ++i)
    outcomes_.push_back({i, RequestOutcome::kFailed});
  failed_ += range.size();
  last_done_s_ = std::max(last_done_s_, clock_.seconds());
  TGNN_DCHECK(in_flight_ > 0, "batch failure with none in flight");
  --in_flight_;
  cv_state_.notify_all();
}

bool ServingEngine::run_with_retries(const std::function<void()>& op) {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      op();
      return true;
    } catch (const util::InjectedFault& e) {
      if (e.transient() && attempt < opts_.fault_retries) {
        {
          util::MutexLock lk(mu_);
          ++fault_retries_;
        }
        if (opts_.retry_backoff_s > 0.0)
          std::this_thread::sleep_for(std::chrono::duration<double>(
              std::ldexp(opts_.retry_backoff_s, static_cast<int>(attempt))));
        continue;
      }
      util::MutexLock lk(mu_);
      last_error_ = e.what();
      return false;
    } catch (const std::exception& e) {
      // Anything else — a SpillIoError that outlived the store's own
      // retries, a backend error — is permanent for this batch.
      util::MutexLock lk(mu_);
      last_error_ = e.what();
      return false;
    }
  }
}

void ServingEngine::admit_loop() {
  // The one admitter: micro-batches are formed in stream order, pass the
  // hazard check head-of-line, and enter the first node. Together with
  // serial per-node stage order this keeps per-vertex state writes
  // chronological, and with read tracking no in-flight batch ever observes
  // another's effects: bit-identical to the serial path.
  const auto& g = backend_.dataset().graph;
  graph::BatchRange range;
  std::vector<double> arrivals;
  std::vector<graph::NodeId> wfp, rfp;
  util::MutexLock lk(mu_);
  while (next_batch(lk, range, arrivals)) {
    // Stage 1: a free slot, and our writes touch nothing any in-flight
    // batch reads or writes. In-flight work only shrinks while we wait
    // (this thread is the only admitter), so the predicate is stable once
    // satisfied. One slot needs no footprint at all.
    if (track_hazards_) write_footprint(g, range, wfp);
    while (free_slots_.empty() || !ledger_.writes_clear(wfp))
      cv_state_.wait(lk);
    // Stage 2 (read tracking): the READ footprint, sampled neighbors of our
    // endpoints. Stage 1 guarantees no in-flight batch writes our
    // endpoints, so their neighbor rows are quiescent and reading them
    // off-lock is safe. Enter once nothing in flight writes what we read.
    if (track_reads_) {
      lk.unlock();
      staged_->read_footprint(range, rfp);
      lk.lock();
      while (!ledger_.reads_clear(rfp)) cv_state_.wait(lk);
    }
    if (track_hazards_) ledger_.acquire(wfp, rfp);
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    batches_.push_back(range);
    ++executing_;
    peak_executing_ = std::max(peak_executing_, executing_);
    // Swap, don't copy: the loop rebuilds wfp/rfp/arrivals each batch, and
    // this runs under the engine-wide mutex.
    SlotMeta& meta = slot_meta_[slot];
    meta.wfp.swap(wfp);
    meta.rfp.swap(rfp);
    meta.arrivals.swap(arrivals);
    meta.range = range;
    meta.dispatch_s = clock_.seconds();
    meta.stage_s.fill(0.0);

    lk.unlock();
    // Until the push, the claimed slot is this thread's alone.
    bool entered = true;
    if (staged_ != nullptr) {
      // Out-of-core prefetch, one stage early: the admitted batch's
      // footprints are faulted in while its predecessors still occupy the
      // workers. No-op on an all-resident store.
      if (track_hazards_) {
        staged_->prefetch_rows(meta.wfp);
        if (!meta.rfp.empty()) staged_->prefetch_rows(meta.rfp);
      }
      // begin_batch reads only the immutable stream; if it throws, the
      // batch fails before any stage ran.
      entered = run_with_retries([&] { staged_->begin_batch(slot, range); });
    }
    if (!entered)
      abort_slot(slot);
    else if (inline_worker_)
      run_visit(0, slot);  // the next batch forms after this one completed
    else
      nodes_.front()->in.push(slot);  // stalls while the first node is full
    lk.lock();
  }
  // Stream over (stop with an empty queue): close the first node's input;
  // the close cascades node by node once each has drained, so everything
  // in flight still completes in order.
  nodes_.front()->in.close();
}

void ServingEngine::worker_loop(std::size_t n) {
  Node& node = *nodes_[n];
  while (const std::optional<std::size_t> slot = node.in.pop())
    run_visit(n, *slot);
  // The node's last worker to exit closes the next node's input.
  if (node.live.fetch_sub(1) == 1 && n + 1 < nodes_.size())
    nodes_[n + 1]->in.close();
}

void ServingEngine::run_visit(std::size_t n, std::size_t slot) {
  const Node& node = *nodes_[n];
  graph::BatchRange range;  // the plain-Backend path runs by range
  if (staged_ == nullptr) {
    util::MutexLock lk(mu_);
    range = slot_meta_[slot].range;
  }
  // Stage times are taken at the stage boundaries, in every shape.
  std::array<double, core::kNumStages> stage_s{};
  BatchOutput plain;
  // One fault check per visit, ahead of the work: a transient retry never
  // re-runs a half-run stage; a permanent fault aborts the batch.
  const bool ran = run_with_retries([&] {
    util::fault_point(util::FaultSite::kStageExec);
    if (staged_ == nullptr) {
      plain = backend_.process_batch(range);
      return;
    }
    for (std::size_t k = node.first; k < node.last; ++k) {
      const double t0 = clock_.seconds();
      staged_->run_stage(static_cast<core::Stage>(k), slot);
      stage_s[k] = clock_.seconds() - t0;
    }
  });
  if (!ran) {
    abort_slot(slot);
    return;
  }
  if (node.last == core::kNumStages) {
    complete_slot(slot, stage_s, plain);
    return;
  }
  {
    util::MutexLock lk(mu_);
    SlotMeta& meta = slot_meta_[slot];
    for (std::size_t k = 0; k < core::kNumStages; ++k)
      meta.stage_s[k] += stage_s[k];
  }
  // The handoff to the next node is a fault site of its own: the software
  // analogue of a dropped FIFO beat between hardware modules.
  if (run_with_retries(
          [] { util::fault_point(util::FaultSite::kChannelHandoff); }))
    nodes_[n + 1]->in.push(slot);
  else
    abort_slot(slot);
}

void ServingEngine::complete_slot(
    std::size_t slot, const std::array<double, core::kNumStages>& stage_s,
    const BatchOutput& plain) {
  // Decode committed the batch's writes; release the backend's result.
  const std::size_t unique_vertices = staged_ != nullptr
                                          ? staged_->finish_batch(slot)
                                          : plain.functional.nodes.size();
  const double done_s = clock_.seconds();  // before waiting for the lock
  util::MutexLock lk(mu_);
  SlotMeta& meta = slot_meta_[slot];
  double service_s = plain.latency_s;
  if (staged_ == nullptr) {
    meta.stage_s = stage_array(plain.parts);
  } else {
    for (std::size_t k = 0; k < core::kNumStages; ++k)
      meta.stage_s[k] += stage_s[k];
    // Admission to completion (inter-node queueing included), so
    // percentiles describe what a request actually saw.
    service_s = done_s - meta.dispatch_s;
  }
  record_stage_sample(meta.stage_s, meta.range, unique_vertices);
  record_batch(meta.range, meta.arrivals, meta.dispatch_s, service_s);
  release_slot_locked(slot);
}

void ServingEngine::abort_slot(std::size_t slot) {
  // Backend first (needs no engine lock): release the slot's pins and
  // scratch. Stages before Decode write only the slot's context, so no
  // persistent state was committed — per-vertex chronology is intact and
  // the stream simply continues past the failed batch.
  if (staged_ != nullptr) staged_->abort_batch(slot);
  util::MutexLock lk(mu_);
  fail_batch(slot_meta_[slot].range);
  release_slot_locked(slot);
}

void ServingEngine::release_slot_locked(std::size_t slot) {
  SlotMeta& meta = slot_meta_[slot];
  if (track_hazards_) ledger_.release(meta.wfp, meta.rfp);
  meta.wfp.clear();
  meta.rfp.clear();
  meta.arrivals.clear();
  free_slots_.push_back(slot);
  --executing_;
}

std::uint64_t ServingEngine::checkpoint(const std::string& path) {
  core::RuntimeState* state = backend_.runtime_state();
  if (state == nullptr)
    throw std::logic_error("ServingEngine::checkpoint: backend '" +
                           backend_.name() +
                           "' does not expose its runtime state");
  // Quiesce: queue empty, nothing in flight, every write committed. The
  // caller must not submit concurrently with the snapshot.
  drain();
  std::uint64_t cursor = 0;
  {
    util::MutexLock lk(mu_);
    cursor = next_index_;
  }
  if (!core::save_state(path, *state, cursor))
    throw std::runtime_error("ServingEngine::checkpoint: cannot write '" +
                             path + "'");
  return cursor;
}

std::uint64_t restore_backend(Backend& backend, const std::string& path) {
  core::RuntimeState* state = backend.runtime_state();
  if (state == nullptr)
    throw std::logic_error("restore_backend: backend '" + backend.name() +
                           "' does not expose its runtime state");
  std::uint64_t cursor = 0;
  if (!core::load_state(path, *state, cursor))
    throw std::runtime_error("restore_backend: cannot read '" + path + "'");
  return cursor;
}

ServingStats ServingEngine::stats() const {
  // Store counters first: the backend's store has its own lock, and the
  // query touches no engine state guarded by mu_.
  graph::VertexStoreStats store = backend_.store_stats();
  util::MutexLock lk(mu_);
  ServingStats s;
  s.store = store;
  s.num_requests = latencies_.size();
  s.num_batches = batches_.size();
  s.peak_parallel_batches = peak_executing_;
  s.peak_in_flight_batches = peak_in_flight_;
  s.peak_queue_depth = peak_queue_depth_;
  s.num_shed = shed_;
  s.num_expired = expired_;
  s.num_failed = failed_;
  s.degrade_steps = degrade_steps_;
  s.fault_retries = fault_retries_;
  s.retune_steps = retune_steps_;
  // Live knob values: under online autotune these move at quiescent
  // points, and this read (under mu_) is how callers observe them.
  s.max_batch = opts_.max_batch;
  s.max_wait_s = opts_.max_wait_s;
  s.stage_profile = profiler_.snapshot();
  for (std::size_t k = 0; k < core::kNumStages; ++k) {
    s.p50_stage_s[k] = percentile_of(stage_samples_[k], 0.50);
    s.p95_stage_s[k] = percentile_of(stage_samples_[k], 0.95);
  }
  // Under mu_ so a concurrent degradation step (which flips under mu_)
  // cannot race this read.
  s.precision = backend_.precision();
  // Idle engine (or every batch still in flight): all-zero stats rather
  // than 0/0 = NaN percentiles and means. percentile_of itself returns 0
  // on an empty sample set, but the explicit gate keeps the contract
  // obvious and guards mean_batch_size's division too.
  if (latencies_.empty() || batches_.empty()) return s;

  s.p50_latency_s = percentile_of(latencies_, 0.50);
  s.p95_latency_s = percentile_of(latencies_, 0.95);
  s.p99_latency_s = percentile_of(latencies_, 0.99);
  s.max_latency_s = percentile_of(latencies_, 1.0);
  s.p50_queue_wait_s = percentile_of(queue_waits_, 0.50);
  s.p95_queue_wait_s = percentile_of(queue_waits_, 0.95);
  s.p50_service_s = percentile_of(services_, 0.50);
  s.p95_service_s = percentile_of(services_, 0.95);

  const double span = last_done_s_ - first_submit_s_;
  s.throughput_rps =
      span > 0.0 ? static_cast<double>(latencies_.size()) / span : 0.0;
  s.mean_batch_size = static_cast<double>(latencies_.size()) /
                      static_cast<double>(batches_.size());
  return s;
}

std::vector<double> ServingEngine::request_latency_s() const {
  util::MutexLock lk(mu_);
  return latencies_;
}

std::vector<graph::BatchRange> ServingEngine::batch_log() const {
  util::MutexLock lk(mu_);
  return batches_;
}

std::vector<OutcomeRecord> ServingEngine::outcome_log() const {
  util::MutexLock lk(mu_);
  return outcomes_;
}

std::vector<TuningEvent> ServingEngine::tuning_log() const {
  util::MutexLock lk(mu_);
  return tuning_log_;
}

std::string ServingEngine::last_error() const {
  util::MutexLock lk(mu_);
  return last_error_;
}

}  // namespace tgnn::runtime
