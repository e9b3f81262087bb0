#include "loadgen.hpp"

#include <sys/prctl.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "util/mutex.hpp"

namespace ledger {

using tgnn::runtime::OutcomeRecord;
using tgnn::runtime::RequestOutcome;
using tgnn::runtime::ServingEngine;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Times one stats() call and records its span.
double timed_stats(const ServingEngine& engine, Tracer* tracer,
                   tgnn::runtime::ServingStats* out = nullptr) {
  const auto t0 = Clock::now();
  tgnn::runtime::ServingStats s = engine.stats();
  const auto t1 = Clock::now();
  if (out != nullptr) *out = std::move(s);
  if (tracer != nullptr)
    tracer->record({.name = "stats",
                    .layer = "runtime",
                    .track = kMonitorTrack,
                    .start_us = tracer->us(t0),
                    .dur_us = tracer->us(t1) - tracer->us(t0)});
  return seconds_between(t0, t1);
}

/// The monitor thread: polls stats() every `period_s` until stopped. The
/// engine must outlive it; the destructor joins.
class Monitor {
 public:
  Monitor(const ServingEngine& engine, double period_s, Tracer* tracer)
      : engine_(engine), period_s_(period_s), tracer_(tracer) {
    if (period_s_ > 0.0) thread_ = std::thread([this] { loop(); });
  }
  ~Monitor() { stop(); }
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Stop polling and hand back every call's duration.
  std::vector<double> stop() {
    {
      tgnn::util::MutexLock lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return std::move(calls_s_);
  }

 private:
  void loop() {
    tgnn::util::MutexLock lk(mu_);
    for (;;) {
      const auto wake = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(period_s_));
      while (!stop_ && Clock::now() < wake) cv_.wait_for(lk, wake - Clock::now());
      if (stop_) return;
      lk.unlock();
      calls_s_.push_back(timed_stats(engine_, tracer_));
      lk.lock();
    }
  }

  const ServingEngine& engine_;
  const double period_s_;
  Tracer* const tracer_;
  tgnn::util::Mutex mu_;
  tgnn::util::CondVar cv_;
  bool stop_ TGNN_GUARDED_BY(mu_) = false;
  /// Written only by the monitor thread until join().
  std::vector<double> calls_s_;
  std::thread thread_;
};

/// Read the engine's logs and counters into `r` after drain().
void collect(const ServingEngine& engine, std::size_t begin, PhaseResult& r,
             Tracer* tracer) {
  r.stats_call_s.push_back(timed_stats(engine, tracer, &r.stats));
  r.served = r.stats.num_requests;
  r.shed = r.stats.num_shed;
  r.expired = r.stats.num_expired;
  r.failed = r.stats.num_failed;
  r.unresolved = unresolved_count(engine.outcome_log(), begin, begin + r.sent);
  r.batches = engine.batch_log();
  r.tuning = engine.tuning_log();
}

void record_submit(Tracer* tracer, std::size_t i, std::size_t index,
                   Clock::time_point t0, Clock::time_point t1) {
  if (tracer == nullptr || i % kSubmitSpanEvery != 0) return;
  tracer->record({.name = "submit",
                  .layer = "runtime",
                  .track = kLoadgenTrack,
                  .start_us = tracer->us(t0),
                  .dur_us = tracer->us(t1) - tracer->us(t0),
                  .id = index});
}

}  // namespace

PhaseResult run_closed(tgnn::runtime::Backend& backend,
                       const tgnn::runtime::ServingOptions& opts,
                       std::size_t begin, std::size_t n,
                       double monitor_period_s, Tracer* tracer) {
  PhaseResult r;
  r.sent = n;
  r.submit_s.reserve(n);
  ServingEngine engine(backend, opts);
  Monitor monitor(engine, monitor_period_s, tracer);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    engine.submit(begin + i);
    const auto t1 = Clock::now();
    r.submit_s.push_back(seconds_between(t0, t1));
    record_submit(tracer, i, begin + i, t0, t1);
  }
  engine.drain();
  r.wall_s = seconds_between(start, Clock::now());
  r.stats_call_s = monitor.stop();
  collect(engine, begin, r, tracer);
  return r;
}

PhaseResult run_open(tgnn::runtime::Backend& backend,
                     const tgnn::runtime::ServingOptions& opts,
                     std::size_t begin, std::size_t n, double rate_rps,
                     double monitor_period_s, Tracer* tracer) {
  PhaseResult r;
  r.sent = n;
  std::vector<double> due(n), submitted(n);
  r.late_s.reserve(n);
  r.submit_s.reserve(n);
  ServingEngine engine(backend, opts);
  Monitor monitor(engine, monitor_period_s, tracer);
  // Sleep, don't spin, between sends: a spinning submitter takes a core
  // from the engine's own threads. A 1 us timer slack lets a sleep end
  // within microseconds of the due time instead of the default 50.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = static_cast<double>(i) / rate_rps;
    double now = 0.0;
    while ((now = seconds_between(start, Clock::now())) < due[i]) {
      if (due[i] - now > 30e-6)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(due[i] - now - 15e-6));
      else
        std::this_thread::yield();
    }
    r.late_s.push_back(now - due[i]);
    const auto t0 = Clock::now();
    engine.submit(begin + i);  // false = shed: resolved, no latency sample
    const auto t1 = Clock::now();
    submitted[i] = seconds_between(start, t1);
    r.submit_s.push_back(seconds_between(t0, t1));
    record_submit(tracer, i, begin + i, t0, t1);
  }
  engine.drain();
  r.wall_s = seconds_between(start, Clock::now());
  r.stats_call_s = monitor.stop();
  collect(engine, begin, r, tracer);
  r.latency_s = due_time_latencies(engine.outcome_log(),
                                   engine.request_latency_s(), begin, due,
                                   submitted);
  return r;
}

std::size_t unresolved_count(const std::vector<OutcomeRecord>& outcomes,
                             std::size_t begin, std::size_t end) {
  std::vector<std::uint8_t> seen(end - begin, 0);
  std::size_t bad = 0;
  for (const OutcomeRecord& o : outcomes) {
    if (o.index < begin || o.index >= end || seen[o.index - begin] != 0)
      ++bad;
    else
      seen[o.index - begin] = 1;
  }
  for (const std::uint8_t s : seen)
    if (s == 0) ++bad;
  return bad;
}

std::vector<double> due_time_latencies(
    const std::vector<OutcomeRecord>& outcomes,
    const std::vector<double>& engine_latency_s, std::size_t begin,
    const std::vector<double>& due_s, const std::vector<double>& submitted_s) {
  std::vector<double> out;
  out.reserve(engine_latency_s.size());
  std::size_t k = 0;
  for (const OutcomeRecord& o : outcomes) {
    if (o.outcome != RequestOutcome::kServed) continue;
    if (k >= engine_latency_s.size())
      throw std::logic_error("due_time_latencies: more served records than "
                             "latency samples");
    const std::size_t i = o.index - begin;
    out.push_back((submitted_s.at(i) - due_s.at(i)) + engine_latency_s[k++]);
  }
  if (k != engine_latency_s.size())
    throw std::logic_error("due_time_latencies: fewer served records than "
                           "latency samples");
  return out;
}

}  // namespace ledger
