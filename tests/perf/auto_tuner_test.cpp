// AutoTuner: the candidate space is gated by the backend's contracts,
// options_for realizes candidates into engine-ready ServingOptions, and
// search() runs the full DSE loop — calibrate, rank by prediction,
// validate the top-K on real traffic, return the measured-best — while
// consuming exactly the stream prefix it accounts for in next_index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>

#include "data/synthetic.hpp"
#include "perf/auto_tuner.hpp"
#include "runtime/serving.hpp"

namespace tgnn::perf {
namespace {

data::Dataset tuner_ds() {
  data::SyntheticConfig dcfg;
  dcfg.name = "tuner";
  dcfg.num_users = 500;
  dcfg.num_items = 400;
  dcfg.num_edges = 5000;
  dcfg.edge_dim = 8;
  dcfg.seed = 31;
  return data::make_synthetic(dcfg);
}

core::TgnModel tuner_model(const data::Dataset& ds) {
  core::ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 8;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 5;
  return core::TgnModel(cfg, 13);
}

TEST(AutoTuner, CandidatesGatedByBackendContracts) {
  const auto ds = tuner_ds();
  const auto model = tuner_model(ds);
  AutoTunerOptions topts;
  topts.batch_grid = {32, 128};
  topts.worker_grid = {2, 4, 64};  // 64 exceeds any lane count: skipped
  topts.depth_grid = {2, 4};

  // "cpu" has one lane: serial and pipelined candidates only.
  auto cpu = runtime::make_backend("cpu", model, ds);
  AutoTuner cpu_tuner(*cpu, topts);
  std::size_t serial = 0, workers = 0, pipelined = 0;
  for (const auto& c : cpu_tuner.candidates()) {
    if (c.pipelined)
      ++pipelined;
    else if (c.workers > 1)
      ++workers;
    else
      ++serial;
  }
  EXPECT_EQ(serial, 2u);
  EXPECT_EQ(workers, 0u);
  EXPECT_EQ(pipelined, 4u);  // 2 batches x 2 depths

  // "sharded-cpu" has four lanes: worker candidates appear, capped at
  // lanes().
  runtime::BackendOptions bopts;
  bopts.threads = 4;
  auto sharded = runtime::make_backend("sharded-cpu", model, ds, bopts);
  AutoTuner sh_tuner(*sharded, topts);
  serial = workers = pipelined = 0;
  for (const auto& c : sh_tuner.candidates()) {
    if (c.pipelined)
      ++pipelined;
    else if (c.workers > 1) {
      EXPECT_LE(c.workers, 4u);
      ++workers;
    } else {
      ++serial;
    }
  }
  EXPECT_EQ(serial, 2u);
  EXPECT_EQ(workers, 4u);  // 2 batches x {2, 4} workers; 64 skipped
  EXPECT_EQ(pipelined, 4u);

  // "gpu-sim" is not staged: the tuner refuses it.
  auto gpu = runtime::make_backend("gpu-sim", model, ds);
  EXPECT_THROW(AutoTuner(*gpu, topts), std::invalid_argument);
}

TEST(AutoTuner, OptionsRealizeCandidate) {
  const auto ds = tuner_ds();
  const auto model = tuner_model(ds);
  auto backend = runtime::make_backend("cpu", model, ds);
  AutoTunerOptions topts;
  topts.max_wait_s = 5e-4;
  AutoTuner tuner(*backend, topts);

  SwCandidate c;
  c.max_batch = 2048;
  c.pipelined = true;
  c.pipeline_depth = 3;
  const auto o = tuner.options_for(c);
  EXPECT_EQ(o.max_batch, 2048u);
  EXPECT_TRUE(o.pipelined);
  EXPECT_EQ(o.pipeline_depth, 3u);
  EXPECT_EQ(o.workers, 1u);  // pipelined candidates never set lanes
  EXPECT_EQ(o.max_wait_s, 5e-4);
  EXPECT_GE(o.queue_capacity, 4 * o.max_batch);  // cap never starves a batch

  c.pipelined = false;
  c.workers = 4;
  EXPECT_EQ(tuner.options_for(c).workers, 4u);
}

TEST(AutoTuner, SearchReturnsMeasuredBestAndAccountsForTheStream) {
  const auto ds = tuner_ds();
  const auto model = tuner_model(ds);
  auto backend = runtime::make_backend("cpu", model, ds);

  AutoTunerOptions topts;
  topts.calib_events = 320;
  topts.calib_batch_lo = 16;
  topts.calib_batch_hi = 64;
  topts.batch_grid = {16, 64, 256};
  topts.worker_grid = {};
  topts.depth_grid = {};  // serial-only space: 3 candidates
  topts.validate_top_k = 2;
  topts.validate_events = 256;
  AutoTuner tuner(*backend, topts);

  const auto r = tuner.search(0);
  // Stream accounting: 2 calibration runs + 2 validation runs consumed.
  EXPECT_EQ(r.next_index, 2 * 320u + 2 * 256u);
  EXPECT_EQ(r.ranked.size(), 3u);
  // Ranked best-first by prediction, and predictions are real numbers.
  for (std::size_t i = 1; i < r.ranked.size(); ++i)
    EXPECT_GE(r.ranked[i - 1].predicted.throughput_rps,
              r.ranked[i].predicted.throughput_rps);
  // Exactly the top-K carry measurements, and the chosen candidate is the
  // measured-best among them (the measurement overrules the model).
  EXPECT_GT(r.ranked[0].measured_rps, 0.0);
  EXPECT_GT(r.ranked[1].measured_rps, 0.0);
  EXPECT_EQ(r.ranked[2].measured_rps, 0.0);
  const double winner =
      std::max(r.ranked[0].measured_rps, r.ranked[1].measured_rps);
  const bool chose_0 = r.chosen.max_batch == r.ranked[0].candidate.max_batch;
  EXPECT_EQ(r.ranked[chose_0 ? 0 : 1].measured_rps, winner);
  // The returned options realize the chosen candidate.
  EXPECT_EQ(r.options.max_batch, r.chosen.max_batch);
  EXPECT_FALSE(r.options.pipelined);
  EXPECT_GT(r.profile.batches, 0u);
  EXPECT_FALSE(r.describe().empty());
}

TEST(AutoTuner, SearchWithoutValidationTrustsTheModel) {
  const auto ds = tuner_ds();
  const auto model = tuner_model(ds);
  auto backend = runtime::make_backend("cpu", model, ds);

  AutoTunerOptions topts;
  topts.calib_events = 256;
  topts.batch_grid = {32, 128};
  topts.worker_grid = {};
  topts.depth_grid = {};
  topts.validate_top_k = 0;
  AutoTuner tuner(*backend, topts);

  const auto r = tuner.search(0);
  EXPECT_EQ(r.next_index, 2 * 256u);  // no validation traffic
  ASSERT_FALSE(r.ranked.empty());
  // With no measurement, the model's top prediction wins outright.
  EXPECT_EQ(r.chosen.max_batch, r.ranked[0].candidate.max_batch);
  EXPECT_EQ(r.options.max_batch, r.chosen.max_batch);
}

}  // namespace
}  // namespace tgnn::perf
