#include "replay.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "tgnn/serialize.hpp"

namespace ledger {

using tgnn::core::Stage;
using tgnn::runtime::TuningEvent;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kStageSpan[tgnn::core::kNumStages] = {
    "memory_update", "neighbor_gather", "gnn_compute", "decode"};

/// Runs `fn`, returns its wall time, and records it as a replay span.
template <typename Fn>
double timed(Tracer* tracer, const char* name, std::uint64_t id,
             const tgnn::graph::BatchRange& r, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  if (tracer != nullptr)
    tracer->record({.name = name,
                    .layer = "tgnn",
                    .track = kReplayTrack,
                    .start_us = tracer->us(t0),
                    .dur_us = tracer->us(t1) - tracer->us(t0),
                    .id = id,
                    .begin = r.begin,
                    .end = r.end});
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

ReplayTimes replay(tgnn::runtime::Backend& backend,
                   const std::vector<ServedLog>& phases,
                   const std::vector<bool>& timed_phase, std::size_t max_batch,
                   Tracer* tracer) {
  auto* staged = dynamic_cast<tgnn::runtime::StagedBackend*>(&backend);
  if (staged == nullptr)
    throw std::invalid_argument("replay: backend '" + backend.name() +
                                "' is not a StagedBackend");
  staged->prepare_pipeline(1, max_batch);
  ReplayTimes out;
  std::uint64_t batch_no = 0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const ServedLog& log = phases[p];
    std::size_t next_event = 0;
    for (std::size_t j = 0; j < log.batches.size(); ++j, ++batch_no) {
      for (; next_event < log.tuning.size() &&
             log.tuning[next_event].at_batch <= j;
           ++next_event)
        if (log.tuning[next_event].kind == TuningEvent::Kind::kPrecision)
          backend.set_precision(static_cast<tgnn::kernels::Precision>(
              log.tuning[next_event].value));
      const tgnn::graph::BatchRange& r = log.batches[j];
      double begin_s = 0.0, finish_s = 0.0;
      std::array<double, tgnn::core::kNumStages> stage_s{};
      const double batch_s = timed(tracer, "batch", batch_no, r, [&] {
        begin_s = timed(tracer, "begin", batch_no, r,
                        [&] { staged->begin_batch(0, r); });
        for (std::size_t k = 0; k < tgnn::core::kNumStages; ++k)
          stage_s[k] = timed(tracer, kStageSpan[k], batch_no, r, [&] {
            staged->run_stage(static_cast<Stage>(k), 0);
          });
        finish_s = timed(tracer, "finish", batch_no, r,
                         [&] { staged->finish_batch(0); });
      });
      if (!timed_phase[p]) continue;
      out.begin_s.push_back(begin_s);
      out.finish_s.push_back(finish_s);
      out.batch_s.push_back(batch_s);
      for (std::size_t k = 0; k < tgnn::core::kNumStages; ++k) {
        out.stage_s[k].push_back(stage_s[k]);
        out.stage_sum_s += stage_s[k];
      }
    }
  }
  return out;
}

std::uint64_t state_digest(tgnn::runtime::Backend& backend,
                           const std::string& tmp_path) {
  const tgnn::core::RuntimeState* state = backend.runtime_state();
  if (state == nullptr)
    throw std::runtime_error("state_digest: backend '" + backend.name() +
                             "' exposes no runtime state");
  if (!tgnn::core::save_state(tmp_path, *state, 0))
    throw std::runtime_error("state_digest: cannot write " + tmp_path);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  {
    std::ifstream f(tmp_path, std::ios::binary);
    char buf[1 << 16];
    while (f.read(buf, sizeof buf) || f.gcount() > 0) {
      for (std::streamsize i = 0; i < f.gcount(); ++i) {
        h ^= static_cast<unsigned char>(buf[i]);
        h *= 1099511628211ull;
      }
    }
    if (f.bad())
      throw std::runtime_error("state_digest: cannot read " + tmp_path);
  }
  std::remove(tmp_path.c_str());
  return h;
}

bool state_finite(tgnn::runtime::Backend& backend) {
  const tgnn::core::RuntimeState* state = backend.runtime_state();
  if (state == nullptr) return true;
  const auto finite = [](std::span<const float> row) {
    for (const float x : row)
      if (!std::isfinite(x)) return false;
    return true;
  };
  for (tgnn::graph::NodeId v = 0; v < state->memory.num_nodes(); ++v) {
    if (!finite(state->memory.get(v))) return false;
    if (state->mailbox.has_mail(v) && !finite(state->mailbox.mail(v)))
      return false;
  }
  return true;
}

}  // namespace ledger
