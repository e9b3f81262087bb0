// In-memory span recorder for the traced rep, written out at the end as
// Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
//
// Spans are recorded from the benchmark's own files, around its calls into
// each layer: a submit() per request (track "loadgen"), a stats() per
// monitor poll ("monitor"), and on the replay track each batch with its
// begin / four stages / finish nested inside it — nesting on one track is
// how the trace-event format expresses "caused by".
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/mutex.hpp"

namespace ledger {

struct Span {
  const char* name = "";  ///< static string: "submit", "memory_update", ...
  const char* layer = "";  ///< trace-event category: the layer it times
  int track = 0;           ///< trace-event tid
  double start_us = 0.0;   ///< since the tracer's epoch
  double dur_us = 0.0;
  std::uint64_t id = 0;    ///< request index, or batch number on the replay
  std::uint64_t begin = 0, end = 0;  ///< the batch's stream range, if any
};

enum Track : int { kLoadgenTrack = 1, kMonitorTrack = 2, kReplayTrack = 3 };

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : epoch_(Clock::now()) {}

  /// Microseconds since the epoch of `t`.
  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  /// Thread-safe: the submitter and the monitor record concurrently.
  void record(const Span& s) TGNN_EXCLUDES(mu_);

  /// Write every span as a trace-event JSON array object. Returns false on
  /// I/O error.
  bool write_chrome(const std::string& path,
                    const std::string& process_name) const TGNN_EXCLUDES(mu_);

 private:
  Clock::time_point epoch_;
  mutable tgnn::util::Mutex mu_;
  std::vector<Span> spans_ TGNN_GUARDED_BY(mu_);
};

}  // namespace ledger
