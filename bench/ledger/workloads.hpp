// The ledger's four named workloads: a stream shape, an engine
// configuration and the phases each rep runs. Every rate and size here is
// a fixed absolute number — never a fraction of a live capacity probe — so
// every commit is offered exactly the same traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "runtime/backend.hpp"
#include "runtime/serving.hpp"
#include "tgnn/model.hpp"

namespace ledger {

struct Workload {
  std::string name;
  std::string why;  ///< one line: the layer it stresses and how

  // ---- stream (data::SyntheticConfig fields that differ from defaults)
  std::uint32_t users = 0;
  std::uint32_t items = 0;
  std::size_t edges = 0;
  double user_zipf_s = 1.4;      ///< <= 1: uniform users
  std::uint32_t communities = 8;
  double repeat_prob = 0.75;
  double pareto_xm = 30.0;

  // ---- engine
  std::string key;              ///< runtime backend registry key
  std::size_t lanes = 1;        ///< sharded-cpu execution lanes
  std::size_t shards = 16;      ///< sharded-cpu vertex-state shards
  double memory_pct = 0.0;      ///< resident budget, % of state; 0 = all
  tgnn::runtime::ServingOptions closed;  ///< closed-loop phase engine
  tgnn::runtime::ServingOptions open;    ///< open-loop phase engine

  // ---- phases of one rep (all on one fresh backend, in this order)
  std::size_t prefix = 20000;         ///< fast-forwarded before serving
  std::size_t closed_requests = 0;    ///< closed loop, kBlock submitter
  double open_rps = 0.0;              ///< open loop: fixed arrival rate
  std::size_t open_requests = 0;
  double monitor_period_s = 0.0;      ///< > 0: a thread polls stats()
  /// Deterministic engine: the served backend's final state must equal a
  /// serial staged replay of its batch log, byte for byte.
  bool replay_oracle = false;
};

/// Every workload, in the order `--workload all` runs them.
const std::vector<Workload>& workloads();
/// Lookup by name; null when unknown.
const Workload* find_workload(const std::string& name);

/// The stream, generated from `seed` (same seed, same inputs).
tgnn::data::Dataset make_stream(const Workload& w, std::uint64_t seed);
/// The paper's npM model at the stream's dims, LUT encoder fitted on the
/// training split.
tgnn::core::TgnModel make_model(const tgnn::data::Dataset& ds,
                                std::uint64_t seed);
/// Backend options realizing the workload's engine (lanes, shards, budget).
tgnn::runtime::BackendOptions backend_options(const Workload& w,
                                              const tgnn::core::TgnModel& model,
                                              const tgnn::data::Dataset& ds);

}  // namespace ledger
