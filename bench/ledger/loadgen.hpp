// Load generation: one submitter thread driving a ServingEngine through its
// public API, closed loop (submit as fast as admission allows) or open loop
// (each request due at a fixed rate, sent when due whatever the engine is
// doing), plus the optional monitor thread that polls stats() beside it.
#pragma once

#include <cstddef>
#include <vector>

#include "runtime/backend.hpp"
#include "runtime/serving.hpp"
#include "trace.hpp"

namespace ledger {

/// One phase's outcome, read back from the engine after drain().
struct PhaseResult {
  std::size_t sent = 0;
  std::size_t served = 0, shed = 0, expired = 0, failed = 0;
  /// Sent indices not resolved exactly once in outcome_log() (missing,
  /// duplicated, or outside the sent range). Must be 0.
  std::size_t unresolved = 0;
  /// Closed: first submit -> drain() returns. Open: first due time ->
  /// drain() returns.
  double wall_s = 0.0;
  /// Open loop, per served request: latency measured from its due time.
  std::vector<double> latency_s;
  /// Open loop, per request: how late the submit() call started.
  std::vector<double> late_s;
  /// Per request: how long submit() took to return.
  std::vector<double> submit_s;
  /// Every stats() call's duration (monitor polls + the end-of-phase read).
  std::vector<double> stats_call_s;
  tgnn::runtime::ServingStats stats;  ///< end-of-phase snapshot
  std::vector<tgnn::graph::BatchRange> batches;
  std::vector<tgnn::runtime::TuningEvent> tuning;
};

/// With a tracer, a phase records a span for one submit() in this many (id =
/// stream index) and for every stats() call; a null tracer records none.
inline constexpr std::size_t kSubmitSpanEvery = 16;

/// Closed loop: submit [begin, begin + n) back to back (kBlock admission
/// makes the submitter wait for queue space), then drain.
PhaseResult run_closed(tgnn::runtime::Backend& backend,
                       const tgnn::runtime::ServingOptions& opts,
                       std::size_t begin, std::size_t n,
                       double monitor_period_s, Tracer* tracer = nullptr);

/// Open loop: request i is due at i / rate_rps after the phase starts and
/// is submitted as soon as it is due, however late the previous submit
/// returned; then drain.
PhaseResult run_open(tgnn::runtime::Backend& backend,
                     const tgnn::runtime::ServingOptions& opts,
                     std::size_t begin, std::size_t n, double rate_rps,
                     double monitor_period_s, Tracer* tracer = nullptr);

/// Sent indices in [begin, end) not resolved exactly once by `outcomes`,
/// plus any record outside that range.
std::size_t unresolved_count(
    const std::vector<tgnn::runtime::OutcomeRecord>& outcomes,
    std::size_t begin, std::size_t end);

/// Latency of each served request measured from when it was due: the time
/// its submit() returned past its due time, plus the engine's own latency
/// for it (queue wait + service). A stall in the submitter or the engine
/// therefore adds to every request due during it, not just the one that
/// hit it.
///
/// The served records of `outcomes` (resolution order) align one-to-one
/// with `engine_latency_s` (request_latency_s(), completion order): the
/// engine appends both in the same step. `due_s` and `submitted_s` are
/// indexed by stream index - `begin`. Throws std::logic_error when the
/// served count and the latency count disagree.
std::vector<double> due_time_latencies(
    const std::vector<tgnn::runtime::OutcomeRecord>& outcomes,
    const std::vector<double>& engine_latency_s, std::size_t begin,
    const std::vector<double>& due_s, const std::vector<double>& submitted_s);

}  // namespace ledger
