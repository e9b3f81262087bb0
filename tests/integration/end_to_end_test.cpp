// Integration tests spanning training, inference, baselines, and the FPGA
// simulator — the small-scale versions of the paper's headline claims.
#include <gtest/gtest.h>

#include "baselines/gpu_sim.hpp"
#include "data/synthetic.hpp"
#include "fpga/accelerator.hpp"
#include "perf/perf_model.hpp"
#include "runtime/driver.hpp"
#include "tgnn/trainer.hpp"

namespace tgnn {
namespace {

data::Dataset small_ds() {
  data::SyntheticConfig dcfg;
  dcfg.num_users = 80;
  dcfg.num_items = 25;
  dcfg.num_edges = 1200;
  dcfg.edge_dim = 8;
  dcfg.seed = 31;
  return data::make_synthetic(dcfg);
}

core::ModelConfig cfg_for(const data::Dataset& ds, bool student) {
  core::ModelConfig cfg;
  cfg.mem_dim = 10;
  cfg.time_dim = 5;
  cfg.emb_dim = 8;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 5;
  cfg.decoder_hidden = 12;
  if (student) {
    cfg.attention = core::AttentionKind::kSimplified;
    cfg.time_encoder = core::TimeEncoderKind::kLut;
    cfg.lut_bins = 16;
    cfg.prune_budget = 3;
  }
  return cfg;
}

TEST(EndToEnd, DistilledStudentApClosesOnTeacher) {
  const auto ds = small_ds();
  core::TrainOptions opts;
  opts.epochs = 3;
  opts.batch_size = 80;

  const auto tcfg = cfg_for(ds, false);
  core::TgnModel teacher(tcfg, 1);
  Rng drng(2);
  core::Decoder tdec(tcfg, drng);
  const auto tfit = core::fit_and_eval(teacher, tdec, ds, opts);

  const auto scfg = cfg_for(ds, true);
  core::TgnModel student(scfg, 3);
  core::Decoder sdec(scfg, drng);
  core::TrainOptions sopts = opts;
  sopts.teacher = &teacher;
  const auto sfit = core::fit_and_eval(student, sdec, ds, sopts);

  EXPECT_GT(tfit.test_ap, 0.55);
  EXPECT_GT(sfit.test_ap, 0.55);
  // The Table II property at small scale: the distilled student stays in
  // the teacher's neighborhood. The band is wide because this smoke test
  // runs 3 epochs on 1.2k edges; bench/table2_model_opts reproduces the
  // paper-scale gap (<0.01).
  EXPECT_GT(sfit.test_ap, tfit.test_ap - 0.25);
}

TEST(EndToEnd, FpgaAccuracyEqualsCpuAccuracy) {
  // §VI-B: "the accuracy of our simplified models are the same on FPGAs as
  // on CPU". The accelerator's functional path must reproduce the engine's
  // AP exactly (same RNG stream, same embeddings).
  const auto ds = small_ds();
  const auto scfg = cfg_for(ds, true);
  core::TgnModel student(scfg, 3);
  Rng drng(2);
  core::Decoder dec(scfg, drng);
  core::TrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = 80;
  core::Trainer(student, dec, ds, opts).train();

  core::InferenceEngine cpu(student, ds, true);
  cpu.warmup({0, ds.val_end});
  Rng r1(9);
  const double cpu_ap = cpu.evaluate_ap(ds.test_range(), dec, 60, r1);

  fpga::Accelerator acc(student, ds, fpga::zcu104_design(), fpga::zcu104());
  acc.warmup({0, ds.val_end});
  Rng r2(9);
  // Evaluate through the accelerator's engine (functional path).
  const double fpga_ap =
      acc.engine().evaluate_ap(ds.test_range(), dec, 60, r2);
  EXPECT_DOUBLE_EQ(cpu_ap, fpga_ap);
}

TEST(EndToEnd, FpgaBeatsMeasuredCpuAtSmallBatch) {
  // The headline latency claim, at test scale: the simulated U200 processes
  // a small batch faster than the measured 1-thread CPU reference.
  const auto ds = small_ds();
  const auto scfg = cfg_for(ds, true);
  core::TgnModel student(scfg, 3);
  student.fit_lut(core::collect_dt_samples(ds, {0, ds.train_end}));

  auto cpu = runtime::make_backend("cpu", student, ds);
  runtime::fast_forward(*cpu, ds.val_end);
  const auto cpu_res = runtime::run_stream(*cpu, ds.test_range(), 100);

  fpga::Accelerator acc(student, ds, fpga::u200_design(), fpga::alveo_u200());
  acc.warmup({0, ds.val_end});
  const auto fpga_res = acc.run(ds.test_range(), 100);

  EXPECT_LT(fpga_res.mean_latency_s(), cpu_res.mean_latency_s());
}

TEST(EndToEnd, GpuModelSlowerThanFpgaAtSmallBatchFasterAtNothing) {
  // Fig. 5 shape: at small batches the GPU is launch-bound and the FPGA
  // wins on latency.
  const auto cfg = core::np_config('M', 172, 0);
  baselines::GpuSim gpu(baselines::titan_xp(), cfg);
  perf::PerfModel pm(fpga::u200_design(), fpga::alveo_u200(), cfg);
  const double gpu_latency = gpu.batch_seconds(200, 400);
  const double fpga_latency = pm.predict(200).latency_s;
  EXPECT_LT(fpga_latency, gpu_latency);
}

}  // namespace
}  // namespace tgnn
