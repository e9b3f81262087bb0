#include "runtime/backend.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "runtime/driver.hpp"

namespace tgnn::runtime {
namespace {

data::Dataset tiny_ds() {
  data::SyntheticConfig dcfg;
  dcfg.num_users = 30;
  dcfg.num_items = 20;
  dcfg.num_edges = 400;
  dcfg.edge_dim = 7;
  dcfg.seed = 99;
  return data::make_synthetic(dcfg);
}

core::ModelConfig sat_cfg(const data::Dataset& ds) {
  core::ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 6;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 5;
  cfg.prune_budget = 3;
  cfg.attention = core::AttentionKind::kSimplified;
  cfg.time_encoder = core::TimeEncoderKind::kLut;
  cfg.lut_bins = 16;
  return cfg;
}

core::TgnModel sat_model(const data::Dataset& ds) {
  core::TgnModel model(sat_cfg(ds), 1);
  model.fit_lut(core::collect_dt_samples(ds, {0, ds.train_end}));
  return model;
}

TEST(BackendFactory, AllRegistryKeysConstructible) {
  const auto ds = tiny_ds();
  const auto model = sat_model(ds);
  EXPECT_EQ(backend_keys().size(), 6u);
  for (const auto& key : backend_keys()) {
    auto b = make_backend(key, model, ds);
    ASSERT_NE(b, nullptr) << key;
    EXPECT_EQ(b->name(), key);
    EXPECT_FALSE(b->describe().empty());
    EXPECT_EQ(&b->dataset(), &ds);
  }
}

TEST(BackendFactory, UnknownKeyThrowsWithRegistry) {
  const auto ds = tiny_ds();
  const auto model = sat_model(ds);
  try {
    make_backend("tpu", model, ds);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cpu-mt"), std::string::npos);
  }
}

TEST(BackendFactory, UnknownFpgaDeviceThrows) {
  const auto ds = tiny_ds();
  const auto model = sat_model(ds);
  BackendOptions opts;
  opts.fpga_device = "versal";
  EXPECT_THROW(make_backend("fpga", model, ds, opts), std::invalid_argument);
}

TEST(BackendFactory, ModelledBackendsFlagTheirTiming) {
  const auto ds = tiny_ds();
  const auto model = sat_model(ds);
  for (const auto& key : backend_keys()) {
    auto b = make_backend(key, model, ds);
    const auto out = b->process_batch({0, 50});
    const bool modelled = key == "gpu-sim" || key == "fpga";
    EXPECT_EQ(out.modelled_timing, modelled) << key;
    EXPECT_GE(out.latency_s, 0.0) << key;
    EXPECT_GT(out.functional.nodes.size(), 0u) << key;
    EXPECT_EQ(out.functional.embeddings.rows(), out.functional.nodes.size())
        << key;
  }
}

TEST(BackendFactory, ResetRestoresInitialBehaviour) {
  const auto ds = tiny_ds();
  const auto model = sat_model(ds);
  for (const auto& key : backend_keys()) {
    auto b = make_backend(key, model, ds);
    const auto first = b->process_batch({0, 60});
    b->process_batch({60, 120});
    b->reset();
    const auto again = b->process_batch({0, 60});
    ASSERT_EQ(first.functional.nodes.size(), again.functional.nodes.size())
        << key;
    for (std::size_t i = 0; i < first.functional.embeddings.size(); ++i)
      EXPECT_EQ(first.functional.embeddings[i], again.functional.embeddings[i])
          << key;
  }
}

TEST(BackendFactory, PrecisionSuffixKeysConstructAndReportTheirMode) {
  const auto ds = tiny_ds();
  const auto model = sat_model(ds);
  for (const std::string key :
       {"cpu:int8", "cpu-mt:int8", "sharded-cpu:int8", "cpu:fp32"}) {
    auto b = make_backend(key, model, ds);
    ASSERT_NE(b, nullptr) << key;
    EXPECT_EQ(b->name(), key == "cpu:fp32" ? "cpu" : key) << key;
    const auto out = b->process_batch({0, 50});
    EXPECT_GT(out.functional.nodes.size(), 0u) << key;
  }
  // ":fp32" names the default path — name() stays the bare key for the
  // sharded backend too, and describe() carries the mode where reduced.
  EXPECT_NE(make_backend("cpu:int8", model, ds)->describe().find("int8"),
            std::string::npos);
}

TEST(BackendFactory, CpuAndCpuMtInt8AreBitIdentical) {
  // The int8 GEMMs accumulate exactly in int32 with a per-element fp32
  // epilogue, so thread count never moves a bit — the same cross-mode
  // contract the fp32 path pins, now for the quantized one.
  const auto ds = tiny_ds();
  const auto model = sat_model(ds);
  auto serial = make_backend("cpu:int8", model, ds);
  BackendOptions opts;
  opts.threads = 4;
  auto mt = make_backend("cpu-mt:int8", model, ds, opts);
  for (const auto& r : ds.graph.fixed_size_batches(0, 300, 60)) {
    const auto a = serial->process_batch(r);
    const auto b = mt->process_batch(r);
    ASSERT_EQ(a.functional.nodes, b.functional.nodes);
    for (std::size_t i = 0; i < a.functional.embeddings.size(); ++i)
      ASSERT_EQ(a.functional.embeddings[i], b.functional.embeddings[i])
          << "element " << i;
  }
}

TEST(BackendFactory, BadPrecisionSuffixThrows) {
  const auto ds = tiny_ds();
  const auto model = sat_model(ds);
  EXPECT_THROW(make_backend("cpu:int4", model, ds), std::invalid_argument);
  EXPECT_THROW(make_backend("cpu:", model, ds), std::invalid_argument);
  // A removed mode's suffix is just an unknown one; the message lists what
  // the grammar accepts.
  const std::string removed = "cpu:bf16";
  try {
    make_backend(removed, model, ds);
    ADD_FAILURE() << removed << " constructed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("(fp32 | int8 | mem=<size>)"),
              std::string::npos)
        << e.what();
  }
}

TEST(BackendFactory, ModelledBackendsRejectExplicitPrecision) {
  const auto ds = tiny_ds();
  const auto model = sat_model(ds);
  for (const std::string key : {"fpga:int8", "gpu-sim:int8", "apan:int8"})
    EXPECT_THROW(make_backend(key, model, ds), std::invalid_argument) << key;
  BackendOptions opts;
  opts.precision = kernels::Precision::kInt8;
  EXPECT_THROW(make_backend("fpga", model, ds, opts), std::invalid_argument);
  // An explicit fp32 suffix on a modelled platform is harmless.
  EXPECT_NE(make_backend("fpga:fp32", model, ds), nullptr);
}

TEST(BackendFactory, CpuKeysPinTheirAdmissionContract) {
  // cpu, cpu-mt and sharded-cpu are three points of one CpuBackend{threads,
  // lanes, shards}: the lanes a multi-worker engine may use and whether it
  // may skip read tracking must stay what each key always promised.
  // sharded-cpu keeps its shard locks armed even at one lane.
  const auto ds = tiny_ds();
  const auto model = sat_model(ds);
  struct Contract {
    const char* key;
    int threads;
    std::size_t lanes;
    bool race_free_reads;
  };
  for (const Contract& c :
       {Contract{"cpu", 1, 1, false}, Contract{"cpu", 4, 1, false},
        Contract{"cpu-mt", 1, 1, false}, Contract{"cpu-mt", 4, 1, false},
        Contract{"sharded-cpu", 1, 1, true},
        Contract{"sharded-cpu", 4, 4, true}}) {
    BackendOptions opts;
    opts.threads = c.threads;
    auto b = make_backend(c.key, model, ds, opts);
    const auto* staged = dynamic_cast<const StagedBackend*>(b.get());
    ASSERT_NE(staged, nullptr) << c.key;
    EXPECT_EQ(staged->lanes(), c.lanes) << c.key << " threads " << c.threads;
    EXPECT_EQ(staged->race_free_reads(), c.race_free_reads)
        << c.key << " threads " << c.threads;
    EXPECT_EQ(b->name(), c.key);
  }
}

TEST(Driver, StreamAccountingMatchesRange) {
  const auto ds = tiny_ds();
  const auto model = sat_model(ds);
  auto b = make_backend("cpu", model, ds);
  const auto res = measure_stream(*b, ds.test_range(), 25);
  EXPECT_EQ(res.num_edges, ds.test_range().size());
  EXPECT_EQ(res.batch_latency_s.size(),
            (ds.test_range().size() + 24) / 25);
  EXPECT_GT(res.num_embeddings, 0u);
  EXPECT_GT(res.throughput_eps(), 0.0);
  EXPECT_GE(res.percentile(1.0), res.percentile(0.5));
}

}  // namespace
}  // namespace tgnn::runtime
