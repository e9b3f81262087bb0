// Serial staged replay: the served batch log re-executed one batch at a
// time through the StagedBackend interface on a fresh backend of the same
// key. It is both the per-layer timer of the engine's four stages — the
// same stage boundaries in every scheduler mode — and the correctness
// oracle of the deterministic workloads.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/backend.hpp"
#include "runtime/serving.hpp"
#include "trace.hpp"

namespace ledger {

/// One served phase as the replay re-executes it: its batches in dispatch
/// order and the precision flips the engine took between them.
struct ServedLog {
  std::vector<tgnn::graph::BatchRange> batches;
  std::vector<tgnn::runtime::TuningEvent> tuning;
};

/// Per-batch timings of the replay (seconds), over the batches of the
/// phases flagged `timed`.
struct ReplayTimes {
  std::vector<double> begin_s, finish_s, batch_s;
  std::array<std::vector<double>, tgnn::core::kNumStages> stage_s;
  double stage_sum_s = 0.0;  ///< sum over timed batches of the four stages
};

/// Replay `phases` in order on `backend` (fresh, fast-forwarded to the
/// first batch's start). Precision carries over from phase to phase, as on
/// the served backend; the flips in a phase's tuning log are applied before
/// the batch they were taken at. Spans go to `tracer` when non-null.
ReplayTimes replay(tgnn::runtime::Backend& backend,
                   const std::vector<ServedLog>& phases,
                   const std::vector<bool>& timed, std::size_t max_batch,
                   Tracer* tracer);

/// FNV-1a 64 over core::save_state's bytes of the backend's runtime state,
/// written to (and removed from) `tmp_path`. Throws std::runtime_error
/// on I/O failure or a backend without runtime state.
std::uint64_t state_digest(tgnn::runtime::Backend& backend,
                           const std::string& tmp_path);

/// True when every memory row, and every mailbox row holding mail, is
/// finite.
bool state_finite(tgnn::runtime::Backend& backend);

}  // namespace ledger
