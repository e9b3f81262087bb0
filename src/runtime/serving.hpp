// Online serving on top of a runtime Backend — the piece that turns the
// repo from an offline replayer into a serving-shaped system.
//
// Callers submit individual edge events (stream indices, in chronological
// order — the fraud-detection / recommendation request pattern of §II-A). A
// dedicated scheduler thread coalesces pending requests into micro-batches
// and dispatches them to the backend when either
//   * `max_batch` requests are pending (batch-size cap), or
//   * the oldest pending request has waited `max_wait_s` (latency flush).
//
// Execution: one admitter thread forms micro-batches in strict stream
// order and hands each to one of S slots; workers carry a slot through the
// four engine stages (core::Stage: MemoryUpdate, NeighborGather,
// GnnCompute, Decode), each worker running a stage range [a,b) per visit.
// By default (S = 1, the admitter itself the one [0,4) worker) batches run
// strictly one after another, the state-write order Algorithm 1 requires,
// while still amortizing per-batch overhead (the paper's Fig. 5 trade).
// `workers > 1` (a ConcurrentBackend, "sharded-cpu") gives W slots and W
// [0,4) lanes, so whole batches overlap — the parallelism the paper's
// hardware Updater exploits. `pipelined` (a StagedBackend: "cpu",
// "cpu-mt", "sharded-cpu") gives `pipeline_depth` slots and four
// single-stage workers wired by bounded StageChannels (the paper's
// inter-module FIFOs), so stage k of batch i overlaps stage k-1 of batch
// i+1. With S > 1 a batch is admitted head-of-line only once its write
// footprint (edge endpoints) touches nothing in flight, so per-vertex
// state writes stay chronological. Read footprints (sampled neighbors) are
// tracked too when `deterministic` is set or the backend's reads are not
// race-free: then no in-flight batch observes another's effects and the
// result is bit-identical to serial execution. Without read tracking
// (sharded-cpu, relaxed) a batch may read a neighbor row another in-flight
// batch — earlier or later in stream order — updates; the shard locks make
// that race-free, but it may see the pre- or the post-update row. The
// gpu-sim, apan and fpga backends are not staged: they run serial only,
// through process_batch.
//
// The submit queue is bounded: what happens when it fills is the
// engine's admission policy (overload behavior under §II-A's bursty
// request arrivals):
//   * kBlock (default): submit() blocks until space frees — backpressure
//     instead of unbounded growth; today's behavior.
//   * kShed: submit() waits at most `shed_wait_s`, then REJECTS the
//     request with a typed RequestOutcome::kShed — the request is consumed
//     (the stream cursor advances past it) and the engine stays
//     responsive instead of propagating the stall upstream.
//   * kDeadline: submit() blocks like kBlock, but a request whose queue
//     wait exceeds `deadline_s` is dropped BEFORE dispatch with
//     RequestOutcome::kExpired — a request that already blew its latency
//     budget is worthless to serve, and dropping it lets the queue clear.
// try_submit() (never blocks) and the timed submit() overload (bounded
// wait, request NOT consumed on timeout) exist for callers that manage
// their own admission.
//
// Under sustained overload the engine can optionally degrade gracefully:
// when the queue stays above `degrade_high` of capacity for
// `degrade_patience` consecutive batch formations it steps the backend's
// numeric mode down one rung (fp32 -> bf16 -> int8, via
// Backend::set_precision at a quiescent point), and steps back up when
// the queue stays below `degrade_low` — trading accuracy for throughput
// exactly along the quantization ladder of the inference path.
//
// Faults: every batch execution runs under a retry envelope. A transient
// util::InjectedFault is retried up to `fault_retries` times with
// exponential backoff; a permanent fault (or exhausted retries, or any
// other exception) fails the BATCH — its requests end in
// RequestOutcome::kFailed, pinned rows are released (StagedBackend::
// abort_batch before Decode, so no partial state commits), the conflict
// ledger is unwound, and the engine keeps serving. Nothing deadlocks and
// per-vertex chronology is preserved: failed batches commit nothing.
//
// Every completed batch also feeds a low-overhead per-stage profiler
// (perf::StageProfiler — EWMA + windowed percentiles over the four
// core::Stage times, gather fan-out, queue depth), exposed via
// ServingStats::stage_profile and the per-stage percentile fields. With
// `autotune_online` set the engine additionally retunes itself from that
// live profile: every `retune_interval` batch formations it asks the
// calibrated SoftwarePerfModel (perf/auto_tuner.hpp) whether a different
// max_batch would beat the current one by at least `retune_margin`, and
// if so flips max_batch (and max_wait_s, re-derived from the predicted
// batch service time) at the SAME quiescent point the precision ladder
// uses — the batch just formed is the sole in-flight work. One knob per
// quiescent point: a formation that stepped the precision ladder (or sits
// mid-pressure-walk) never also resizes batches, and reversing the
// previous resize direction needs two full intervals of evidence — the
// no-flip-flop contract. In deterministic mode the flips stay
// bit-identity-safe: batch boundaries move, but every batch still executes
// in stream order against quiescent state. Flips are journaled in
// tuning_log() for benches and tests.
//
// Per-request latency = queueing wait (measured) + batch service latency
// (on a staged backend, admission to the end of the last stage; otherwise
// the backend's measured or modelled latency_s), so percentiles are
// meaningful for simulated platforms too; the two components are also
// tracked separately (ServingStats queue/service percentiles) so batching
// delay and compute are separable, as in the paper's Fig. 5 trade.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perf/stage_profile.hpp"
#include "runtime/backend.hpp"
#include "runtime/hazard_ledger.hpp"
#include "runtime/stage_channel.hpp"
#include "runtime/stream_result.hpp"
#include "util/mutex.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_annotations.hpp"
#include "util/threadpool.hpp"

namespace tgnn::runtime {

/// What submit() does when the bounded queue is full (see file comment).
enum class AdmissionPolicy : std::uint8_t {
  kBlock = 0,     ///< block until space frees (backpressure)
  kShed = 1,      ///< wait shed_wait_s, then reject with kShed
  kDeadline = 2,  ///< block, but drop requests whose queue wait exceeds
                  ///< deadline_s before dispatch (kExpired)
};

struct ServingOptions {
  std::size_t max_batch = 256;       ///< micro-batch size cap
  double max_wait_s = 2e-3;          ///< oldest-request age that forces a flush
  std::size_t queue_capacity = 4096; ///< bounded queue (submit backpressure)
  std::size_t workers = 1;   ///< parallel dispatch lanes; > 1 requires a
                             ///< ConcurrentBackend (clamped to its lanes())
  bool deterministic = false;  ///< track read footprints too: bit-identical
                               ///< to serial execution (matters only with
                               ///< more than one slot)
  bool pipelined = false;  ///< stage-level cross-batch overlap; requires a
                           ///< StagedBackend, mutually exclusive with
                           ///< workers > 1
  std::size_t pipeline_depth = core::kNumStages;  ///< max in-flight batches
                                                  ///< (StageContext slots)

  // ---- Overload admission (see file comment) --------------------------
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  double shed_wait_s = 0.0;  ///< kShed: bounded wait before rejecting
  double deadline_s = 10e-3; ///< kDeadline: queue-wait budget before a
                             ///< pending request is dropped undispatched

  // ---- Graceful degradation under sustained overload ------------------
  bool degrade_under_overload = false;  ///< step fp32->bf16->int8 when the
                                        ///< queue stays pressured
  double degrade_high = 0.75;  ///< queue fill ratio that counts as pressure
  double degrade_low = 0.25;   ///< queue fill ratio that counts as clear
  std::size_t degrade_patience = 4;  ///< consecutive pressured (clear) batch
                                     ///< formations before stepping down (up)

  // ---- Fault handling -------------------------------------------------
  std::size_t fault_retries = 3;   ///< transient-fault retries per batch
  double retry_backoff_s = 1e-4;   ///< backoff base (doubles per attempt)

  // ---- Online auto-tuning (see file comment) --------------------------
  bool autotune_online = false;  ///< retune max_batch / max_wait_s at
                                 ///< quiescent points from the live profile
  std::size_t retune_interval = 32;  ///< batch formations between retune
                                     ///< evaluations (the hysteresis window)
  double retune_margin = 1.2;  ///< min predicted throughput gain to flip
  std::size_t retune_min_batch = 8;     ///< bounds of the online batch search
  std::size_t retune_max_batch = 1024;
};

struct ServingStats {
  std::size_t num_requests = 0;
  std::size_t num_batches = 0;
  double p50_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double max_latency_s = 0.0;
  /// End-to-end latency split: time spent waiting for the micro-batch to
  /// form/dispatch vs the batch's service (compute) time.
  double p50_queue_wait_s = 0.0;
  double p95_queue_wait_s = 0.0;
  double p50_service_s = 0.0;
  double p95_service_s = 0.0;
  double throughput_rps = 0.0;  ///< requests per wall-clock second
  double mean_batch_size = 0.0;
  /// Most batches ever executing at once (1 in serial mode; > 1 proves
  /// disjoint-footprint batches actually overlapped — across lanes in
  /// worker mode, across stages in pipelined mode).
  std::size_t peak_parallel_batches = 0;
  /// Occupancy gauges: most batches ever formed-but-incomplete (pipeline /
  /// lane occupancy incl. batches waiting on the hazard check) and most
  /// requests ever pending in the submit queue — what makes pipelined vs
  /// serial occupancy observable next to peak_parallel_batches.
  std::size_t peak_in_flight_batches = 0;
  std::size_t peak_queue_depth = 0;
  /// Overload / fault disposition counters. num_requests counts SERVED
  /// requests only (they alone have latency samples); every submitted
  /// request ends up in exactly one of served/shed/expired/failed.
  std::size_t num_shed = 0;      ///< rejected at admission (kShed)
  std::size_t num_expired = 0;   ///< dropped before dispatch (kDeadline)
  std::size_t num_failed = 0;    ///< batch failed permanently (faults)
  std::size_t degrade_steps = 0; ///< precision downshifts taken so far
  std::size_t fault_retries = 0; ///< transient faults absorbed by retry
  /// Numeric mode the backend is serving at right now (moves along the
  /// fp32 -> bf16 -> int8 ladder when degradation is on).
  kernels::Precision precision = kernels::Precision::kFp32;
  /// Out-of-core vertex-store counters (hit/miss/eviction/spill traffic,
  /// write-back invalidations, prefetch effectiveness, spill I/O retries
  /// and permanent failures), queried from the backend at stats() time.
  /// All-zero when serving all-resident.
  graph::VertexStoreStats store;
  /// Per-stage per-batch time percentiles (core::Stage order: MemoryUpdate,
  /// NeighborGather, GnnCompute, Decode) over every completed batch —
  /// which stage the workload actually bottlenecks on, not just the
  /// aggregate service time. Staged backends are timed at the stage
  /// boundaries in every mode; the non-staged modelled backends report
  /// their PartTimes buckets (see perf/stage_profile.hpp).
  std::array<double, core::kNumStages> p50_stage_s{};
  std::array<double, core::kNumStages> p95_stage_s{};
  /// The live profile the online tuner reads (EWMA means, windowed
  /// percentiles, fan-out, queue depth).
  perf::StageProfile stage_profile;
  std::size_t retune_steps = 0;  ///< online max_batch flips taken so far
  std::size_t max_batch = 0;     ///< live knob values (these move under
  double max_wait_s = 0.0;       ///< online autotune)
  /// Multi-line human-readable summary: throughput, latency percentiles,
  /// per-stage breakdown, tuner/degradation state.
  [[nodiscard]] std::string describe() const;
};

/// One online knob flip (precision ladder or batch retune), journaled in
/// ServingEngine::tuning_log(). Tests assert event spacing — the
/// no-flip-flop hysteresis contract; benches print the trajectory.
struct TuningEvent {
  enum class Kind : std::uint8_t { kPrecision = 0, kMaxBatch = 1 };
  std::size_t at_batch = 0;  ///< batches dispatched when the flip happened
  Kind kind = Kind::kMaxBatch;
  std::size_t value = 0;  ///< new max_batch, or the kernels::Precision value
};

/// One request's terminal disposition, in resolution order (the order
/// outcomes were decided, not submission order — a shed is resolved at
/// submit time, a served request at batch completion).
struct OutcomeRecord {
  std::size_t index;        ///< the request's stream index
  RequestOutcome outcome;
};

class ServingEngine {
 public:
  /// The backend must outlive the engine. Warm it up (or reset it) before
  /// construction; the engine owns it exclusively while alive. Throws
  /// std::invalid_argument when opts.workers > 1 and the backend is not a
  /// ConcurrentBackend.
  explicit ServingEngine(Backend& backend, ServingOptions opts = {});
  /// stop()s, draining outstanding requests first.
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Enqueue one edge event. Indices must arrive in stream order (each call
  /// passes the successor of the previous index; the first call sets the
  /// origin) — out-of-order submission throws std::invalid_argument.
  /// Throws std::logic_error after stop().
  ///
  /// Queue-full behavior follows opts.admission: kBlock and kDeadline
  /// block until space frees (always returns true); kShed waits at most
  /// opts.shed_wait_s and then CONSUMES the request as shed — returns
  /// false, the outcome is recorded as kShed, and the next submit must
  /// pass the successor index.
  bool submit(std::size_t edge_index) TGNN_EXCLUDES(mu_);

  /// Bounded-wait admission: like submit(), but waits at most `timeout_s`
  /// for queue space. Returns false when the timeout elapses with the
  /// queue still full — the request is NOT consumed (regardless of the
  /// admission policy), so the caller may retry or shed it itself.
  bool submit(std::size_t edge_index, double timeout_s) TGNN_EXCLUDES(mu_);

  /// Non-blocking admission: enqueue if there is space right now, else
  /// return false WITHOUT consuming the request (the caller may retry the
  /// same index). Same ordering/stopped checks as submit().
  bool try_submit(std::size_t edge_index) TGNN_EXCLUDES(mu_);

  /// Block until every submitted request has been dispatched and completed.
  /// Pending partial batches are force-flushed rather than waiting out the
  /// remainder of their max_wait deadline.
  void drain() TGNN_EXCLUDES(mu_);

  /// Graceful shutdown: everything submitted so far — including batches
  /// mid-pipeline — is flushed, executed in stream order, and recorded;
  /// then the scheduler (and any stage workers) exit. No batch runs
  /// twice, and nothing is dropped silently: under kDeadline, requests
  /// already past their budget still expire with a typed outcome rather
  /// than being served late. Idempotent; further submits throw. The
  /// destructor calls this.
  void stop() TGNN_EXCLUDES(mu_);

  /// Aggregate latency/throughput statistics over everything served so far.
  [[nodiscard]] ServingStats stats() const TGNN_EXCLUDES(mu_);

  /// Per-request end-to-end latencies, in completion order.
  [[nodiscard]] std::vector<double> request_latency_s() const
      TGNN_EXCLUDES(mu_);
  /// Dispatched micro-batches, in dispatch (= chronological) order.
  [[nodiscard]] std::vector<graph::BatchRange> batch_log() const
      TGNN_EXCLUDES(mu_);
  /// Terminal disposition of every resolved request, in resolution order.
  [[nodiscard]] std::vector<OutcomeRecord> outcome_log() const
      TGNN_EXCLUDES(mu_);
  /// Online knob flips (precision / max_batch), in the order taken.
  [[nodiscard]] std::vector<TuningEvent> tuning_log() const
      TGNN_EXCLUDES(mu_);
  /// Message of the most recent permanent batch failure ("" when none).
  [[nodiscard]] std::string last_error() const TGNN_EXCLUDES(mu_);

  /// Snapshot the backend's runtime state (memory / mailbox / neighbor
  /// table, including spilled pages) plus the stream cursor to `path`.
  /// Drains first so the snapshot is quiescent; returns the cursor — the
  /// stream index the restored engine must be fed next. Throws
  /// std::logic_error when the backend exposes no runtime state and
  /// std::runtime_error when the write fails. The engine keeps serving
  /// afterwards.
  std::uint64_t checkpoint(const std::string& path) TGNN_EXCLUDES(mu_);

  /// Worker lanes actually in use (opts.workers clamped to backend lanes).
  [[nodiscard]] std::size_t workers() const { return workers_; }

 private:
  /// Forms batches, admits them past the hazard ledger into free slots,
  /// and feeds the first node.
  void admit_loop() TGNN_EXCLUDES(mu_);
  /// One worker of node n: runs a visit for every slot it pops.
  void worker_loop(std::size_t n) TGNN_EXCLUDES(mu_);
  /// One visit: run node n's stage range on the slot, then hand the slot
  /// to node n+1 (the last node completes the batch instead).
  void run_visit(std::size_t n, std::size_t slot) TGNN_EXCLUDES(mu_);
  /// Pop the next micro-batch (held open per max_batch/max_wait/flush)
  /// under `lk` (which must hold mu_); returns false when stopping with an
  /// empty queue.
  bool next_batch(util::MutexLock& lk, graph::BatchRange& range,
                  std::vector<double>& arrivals) TGNN_REQUIRES(mu_);
  void record_batch(const graph::BatchRange& range,
                    const std::vector<double>& arrivals, double dispatch_s,
                    double service_s) TGNN_REQUIRES(mu_);
  /// Shared submit tail: stamp the arrival, enqueue, advance the cursor.
  void enqueue_locked(std::size_t edge_index) TGNN_REQUIRES(mu_);
  /// Order/stopped preconditions every admission entry point shares.
  void check_submit_locked(std::size_t edge_index) const TGNN_REQUIRES(mu_);
  /// Wait up to timeout_s for queue space; false on timeout or stop.
  bool wait_for_space(util::MutexLock& lk, double timeout_s)
      TGNN_REQUIRES(mu_);
  /// Leading contiguous-index run of the queue, capped at max_batch — the
  /// largest batch the front of the queue can form (shed / expired
  /// requests leave index gaps, and a BatchRange must be contiguous).
  [[nodiscard]] std::size_t contiguous_run_locked() const TGNN_REQUIRES(mu_);
  /// kDeadline: drop the expired prefix of the queue (arrivals are
  /// monotone, so the expired set is exactly a prefix).
  void expire_stale_locked() TGNN_REQUIRES(mu_);
  /// Degradation hysteresis, evaluated at each batch formation; steps the
  /// backend's precision only at a quiescent point (the batch just formed
  /// is the sole in-flight work and nothing is dispatched). Returns true
  /// when a precision flip was taken — the retune pass then yields this
  /// quiescent point (one knob per flip).
  bool maybe_degrade() TGNN_REQUIRES(mu_);
  /// Online retune, evaluated after maybe_degrade at each batch formation:
  /// every retune_interval formations, at the same quiescent condition,
  /// flip max_batch/max_wait_s when the profile-calibrated model predicts
  /// >= retune_margin throughput gain (see file comment for the
  /// composition and hysteresis rules).
  void maybe_retune(bool degrade_flipped) TGNN_REQUIRES(mu_);
  /// Feed one completed batch's stage times into the profiler and the
  /// percentile samples. `unique_vertices` is the batch's deduplicated
  /// endpoint count (the fan-out signal).
  void record_stage_sample(const std::array<double, core::kNumStages>& stage_s,
                           const graph::BatchRange& range,
                           std::size_t unique_vertices) TGNN_REQUIRES(mu_);
  /// Runs `op` under the transient-fault retry envelope (fault_retries,
  /// exponential backoff). False on permanent failure; last_error_ set.
  bool run_with_retries(const std::function<void()>& op) TGNN_EXCLUDES(mu_);
  /// Resolve every request of a permanently failed batch as kFailed and
  /// retire the batch (in-flight count, completion signal).
  void fail_batch(const graph::BatchRange& range) TGNN_REQUIRES(mu_);
  /// The one completion path: feed the profiler and the latency samples,
  /// then free the slot. `stage_s` are this visit's stage times; `plain`
  /// is the output of the non-staged path (unused on a staged backend).
  void complete_slot(std::size_t slot,
                     const std::array<double, core::kNumStages>& stage_s,
                     const BatchOutput& plain) TGNN_EXCLUDES(mu_);
  /// The failure path: abort the slot's batch on the backend (releases
  /// pins; no state was committed — stages before Decode only write the
  /// slot's context), resolve its requests as kFailed, and free the slot.
  void abort_slot(std::size_t slot) TGNN_EXCLUDES(mu_);
  /// Release the slot's ledger marks and return it to the free list.
  void release_slot_locked(std::size_t slot) TGNN_REQUIRES(mu_);

  Backend& backend_;
  StagedBackend* staged_ = nullptr;  ///< null: the plain process_batch path
  ServingOptions opts_;
  std::size_t workers_ = 1;
  bool track_hazards_ = false;  ///< more than one slot: run the ledger
  bool inline_worker_ = false;  ///< one slot, one node: the admitter runs it
  bool track_reads_ = false;  ///< read-footprint admission on
                              ///< (deterministic, or no race-free reads)

  mutable util::Mutex mu_;
  util::CondVar cv_submit_;  ///< signals: new request or stop
  util::CondVar cv_state_;   ///< signals: queue space / lane free /
                             ///< batch completion

  struct Pending {
    std::size_t index;
    double arrival_s;
  };
  std::deque<Pending> queue_ TGNN_GUARDED_BY(mu_);
  bool stop_ TGNN_GUARDED_BY(mu_) = false;
  /// Drain requested: dispatch without waiting.
  bool flush_ TGNN_GUARDED_BY(mu_) = false;
  /// Batches formed or executing.
  std::size_t in_flight_ TGNN_GUARDED_BY(mu_) = 0;
  /// Batches dispatched to a lane right now.
  std::size_t executing_ TGNN_GUARDED_BY(mu_) = 0;
  std::size_t peak_executing_ TGNN_GUARDED_BY(mu_) = 0;
  /// Gauge: in_flight_ high-water.
  std::size_t peak_in_flight_ TGNN_GUARDED_BY(mu_) = 0;
  /// Gauge: submit queue high-water.
  std::size_t peak_queue_depth_ TGNN_GUARDED_BY(mu_) = 0;
  bool have_origin_ TGNN_GUARDED_BY(mu_) = false;
  /// Required index of the next submit.
  std::size_t next_index_ TGNN_GUARDED_BY(mu_) = 0;

  // Overload / fault disposition state.
  std::vector<OutcomeRecord> outcomes_ TGNN_GUARDED_BY(mu_);
  std::size_t shed_ TGNN_GUARDED_BY(mu_) = 0;
  std::size_t expired_ TGNN_GUARDED_BY(mu_) = 0;
  std::size_t failed_ TGNN_GUARDED_BY(mu_) = 0;
  std::size_t fault_retries_ TGNN_GUARDED_BY(mu_) = 0;
  std::string last_error_ TGNN_GUARDED_BY(mu_);

  // Stage profiling + online retune state. The profiler is fed under mu_
  // from every completion path; tuning_log_ journals both knob families.
  perf::StageProfiler profiler_ TGNN_GUARDED_BY(mu_);
  std::array<std::vector<double>, core::kNumStages> stage_samples_
      TGNN_GUARDED_BY(mu_);
  std::vector<TuningEvent> tuning_log_ TGNN_GUARDED_BY(mu_);
  std::size_t retune_steps_ TGNN_GUARDED_BY(mu_) = 0;
  std::size_t formations_since_retune_ TGNN_GUARDED_BY(mu_) = 0;
  std::size_t last_retune_batch_ TGNN_GUARDED_BY(mu_) = 0;
  int last_retune_dir_ TGNN_GUARDED_BY(mu_) = 0;  ///< +1 grew, -1 shrank
  double base_max_wait_s_;    ///< ctor-time max_wait_s (retune drift anchor);
                              ///< immutable after construction
  std::size_t hw_threads_;    ///< cores the retune model caps parallelism at

  // Degradation ladder (built from the backend's base precision at
  // construction; shrunk to one rung when the backend refuses the flip)
  // and the hysteresis run counters.
  std::vector<kernels::Precision> ladder_ TGNN_GUARDED_BY(mu_);
  std::size_t degrade_level_ TGNN_GUARDED_BY(mu_) = 0;
  std::size_t degrade_steps_ TGNN_GUARDED_BY(mu_) = 0;
  std::size_t pressure_run_ TGNN_GUARDED_BY(mu_) = 0;
  std::size_t clear_run_ TGNN_GUARDED_BY(mu_) = 0;

  // Slots and the conflict ledger over them (marked at admission,
  // released at completion or abort; unused with one slot).
  HazardLedger ledger_ TGNN_GUARDED_BY(mu_);
  std::vector<std::size_t> free_slots_ TGNN_GUARDED_BY(mu_);
  /// Per-slot metadata of an in-flight batch, written at admission and
  /// cleared when the slot is freed.
  struct SlotMeta {
    std::vector<graph::NodeId> wfp, rfp;  ///< acquired footprints
    std::vector<double> arrivals;
    graph::BatchRange range;  ///< for typed outcomes at completion/abort
    double dispatch_s = 0.0;
    /// Stage times, added by each worker visit; fed to the profiler at
    /// completion.
    std::array<double, core::kNumStages> stage_s{};
  };
  std::vector<SlotMeta> slot_meta_ TGNN_GUARDED_BY(mu_);
  /// A node: `workers` threads, each running stages [first, last) of one
  /// slot per visit, fed by the `in` channel (slot indices).
  struct Node {
    Node(std::size_t a, std::size_t b, std::size_t k, std::size_t capacity)
        : first(a), last(b), workers(k), in(capacity), live(k) {}
    const std::size_t first, last, workers;
    StageChannel<std::size_t> in;
    std::atomic<std::size_t> live;  ///< workers not yet exited
  };
  /// Immutable after construction (each node synchronizes itself), so it
  /// carries no guard.
  std::vector<std::unique_ptr<Node>> nodes_;

  Stopwatch clock_;
  std::vector<double> latencies_ TGNN_GUARDED_BY(mu_);
  std::vector<double> queue_waits_ TGNN_GUARDED_BY(mu_);
  std::vector<double> services_ TGNN_GUARDED_BY(mu_);
  std::vector<graph::BatchRange> batches_ TGNN_GUARDED_BY(mu_);
  double first_submit_s_ TGNN_GUARDED_BY(mu_) = -1.0;
  double last_done_s_ TGNN_GUARDED_BY(mu_) = 0.0;

  /// Runs admit_loop and every node's workers.
  ThreadPool pool_;
};

/// Restore a ServingEngine::checkpoint into `backend` — load the saved
/// runtime state over the backend's (shapes must match) and return the
/// stream cursor: the index the first submit to a new engine over this
/// backend must pass. Call BEFORE constructing the engine (the first
/// submit sets its origin, so serving resumes exactly where the
/// checkpointed engine left off). Throws std::logic_error when the
/// backend exposes no runtime state, std::runtime_error on a missing /
/// mismatched / corrupt checkpoint.
std::uint64_t restore_backend(Backend& backend, const std::string& path);

}  // namespace tgnn::runtime
