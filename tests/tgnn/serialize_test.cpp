#include "tgnn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "tensor/ops.hpp"
#include "tgnn/inference.hpp"
#include "util/rng.hpp"

namespace tgnn::core {
namespace {

data::Dataset tiny_ds() {
  data::SyntheticConfig dcfg;
  dcfg.num_users = 30;
  dcfg.num_items = 10;
  dcfg.num_edges = 300;
  dcfg.edge_dim = 6;
  dcfg.seed = 3;
  return data::make_synthetic(dcfg);
}

ModelConfig student_cfg(const data::Dataset& ds) {
  ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 6;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 4;
  cfg.attention = AttentionKind::kSimplified;
  cfg.time_encoder = TimeEncoderKind::kLut;
  cfg.lut_bins = 8;
  cfg.prune_budget = 2;
  return cfg;
}

class TempFile {
 public:
  explicit TempFile(const char* name) : path_(std::string("/tmp/") + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Serialize, RejectedCheckpointLeavesTheModelUntouched) {
  // A checkpoint whose LUT section (the last one, after every parameter)
  // is corrupt: the load must throw and leave every parameter of the
  // model and the decoder bit-for-bit as it was.
  const auto ds = tiny_ds();
  const auto cfg = student_cfg(ds);
  TgnModel a(cfg, 1);
  a.fit_lut(collect_dt_samples(ds, ds.train_range()));
  Rng drng(2);
  Decoder dec_a(cfg, drng);
  TempFile ckpt("tgnn_ckpt_bad_lut.bin");
  ASSERT_TRUE(save_checkpoint(ckpt.path(), a, &dec_a));
  std::vector<char> bytes;
  {
    std::ifstream in(ckpt.path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::size_t edges = a.lut_encoder()->edges().size();
  const std::size_t count_at = bytes.size() - edges * sizeof(double) - 8;
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(bytes.data() + count_at, &huge, sizeof huge);
  {
    std::ofstream out(ckpt.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  TgnModel b(cfg, 99);
  b.fit_lut({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
  Rng drng2(77);
  Decoder dec_b(cfg, drng2);
  std::vector<Tensor> before;
  for (auto* p : b.params().params()) before.push_back(p->value);
  for (auto* p : dec_b.parameters()) before.push_back(p->value);
  EXPECT_THROW(load_checkpoint(ckpt.path(), b, &dec_b), std::runtime_error);
  std::size_t i = 0;
  for (auto* p : b.params().params())
    EXPECT_EQ(std::memcmp(p->value.data(), before[i++].data(),
                          p->value.size() * sizeof(float)),
              0)
        << p->name;
  for (auto* p : dec_b.parameters())
    EXPECT_EQ(std::memcmp(p->value.data(), before[i++].data(),
                          p->value.size() * sizeof(float)),
              0)
        << p->name;
}

TEST(Serialize, RoundTripRestoresInferenceExactly) {
  const auto ds = tiny_ds();
  const auto cfg = student_cfg(ds);
  TgnModel a(cfg, 1);
  a.fit_lut(collect_dt_samples(ds, ds.train_range()));
  Rng drng(2);
  Decoder dec_a(cfg, drng);

  TempFile ckpt("tgnn_ckpt_roundtrip.bin");
  ASSERT_TRUE(save_checkpoint(ckpt.path(), a, &dec_a));

  // A differently-seeded model must produce different embeddings ...
  TgnModel b(cfg, 99);
  b.fit_lut({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
  Rng drng2(77);
  Decoder dec_b(cfg, drng2);
  // (First batch is skipped for the difference check: cold state makes all
  // models output exactly zero there.)
  InferenceEngine ea(a, ds, true), eb(b, ds, true);
  ea.process_batch({0, 100});
  eb.process_batch({0, 100});
  const auto ra0 = ea.process_batch({100, 200});
  const auto rb0 = eb.process_batch({100, 200});
  EXPECT_GT(ops::max_abs_diff(ra0.embeddings, rb0.embeddings), 0.0f);

  // ... until the checkpoint is loaded, after which they match bit-for-bit.
  ASSERT_TRUE(load_checkpoint(ckpt.path(), b, &dec_b));
  ea.reset();
  eb.reset();
  for (const auto& r : ds.graph.fixed_size_batches(0, 200, 50)) {
    const auto ra = ea.process_batch(r);
    const auto rb = eb.process_batch(r);
    EXPECT_EQ(ops::max_abs_diff(ra.embeddings, rb.embeddings), 0.0f);
  }
  // Decoder weights too.
  EXPECT_EQ(ops::max_abs_diff(dec_a.l1.w.value, dec_b.l1.w.value), 0.0f);
  // And the LUT edges.
  ASSERT_TRUE(b.lut_encoder()->fitted());
  EXPECT_EQ(a.lut_encoder()->edges(), b.lut_encoder()->edges());
}

TEST(Serialize, MissingFileReturnsFalse) {
  const auto ds = tiny_ds();
  TgnModel m(student_cfg(ds), 1);
  EXPECT_FALSE(load_checkpoint("/tmp/definitely_not_there.bin", m));
}

TEST(Serialize, MismatchedConfigThrows) {
  const auto ds = tiny_ds();
  const auto cfg = student_cfg(ds);
  TgnModel a(cfg, 1);
  a.fit_lut(collect_dt_samples(ds, ds.train_range()));
  TempFile ckpt("tgnn_ckpt_mismatch.bin");
  ASSERT_TRUE(save_checkpoint(ckpt.path(), a));

  auto other = cfg;
  other.mem_dim = 10;  // different shapes
  TgnModel b(other, 1);
  EXPECT_THROW(load_checkpoint(ckpt.path(), b), std::runtime_error);

  auto vanilla = cfg;
  vanilla.attention = AttentionKind::kVanilla;
  vanilla.time_encoder = TimeEncoderKind::kCos;
  TgnModel c(vanilla, 1);
  EXPECT_THROW(load_checkpoint(ckpt.path(), c), std::runtime_error);
}

TEST(Serialize, CorruptFileThrows) {
  TempFile ckpt("tgnn_ckpt_corrupt.bin");
  {
    std::FILE* f = std::fopen(ckpt.path().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a checkpoint", f);
    std::fclose(f);
  }
  const auto ds = tiny_ds();
  TgnModel m(student_cfg(ds), 1);
  EXPECT_THROW(load_checkpoint(ckpt.path(), m), std::runtime_error);
}

TEST(Serialize, VanillaModelWithoutLutSavesEmptyEdgeSection) {
  const auto ds = tiny_ds();
  ModelConfig cfg = student_cfg(ds);
  cfg.attention = AttentionKind::kVanilla;
  cfg.time_encoder = TimeEncoderKind::kCos;
  TgnModel a(cfg, 1), b(cfg, 2);
  TempFile ckpt("tgnn_ckpt_vanilla.bin");
  ASSERT_TRUE(save_checkpoint(ckpt.path(), a));
  ASSERT_TRUE(load_checkpoint(ckpt.path(), b));
  EXPECT_EQ(ops::max_abs_diff(a.updater().gru.w_ir.value,
                              b.updater().gru.w_ir.value),
            0.0f);
}

TEST(Serialize, FailedSaveKeepsThePreviousCheckpoint) {
  // Saves go through "<path>.tmp" and a rename; a directory squatting on
  // the temp name fails the write before the target is touched.
  const auto ds = tiny_ds();
  ModelConfig cfg = student_cfg(ds);
  cfg.attention = AttentionKind::kVanilla;
  cfg.time_encoder = TimeEncoderKind::kCos;
  TgnModel a(cfg, 1), b(cfg, 2), c(cfg, 3);
  TempFile ckpt("tgnn_ckpt_atomic.bin");
  const std::string tmp = ckpt.path() + ".tmp";
  std::filesystem::remove_all(tmp);
  ASSERT_TRUE(save_checkpoint(ckpt.path(), a));
  EXPECT_FALSE(std::filesystem::exists(tmp));
  std::filesystem::create_directory(tmp);
  EXPECT_FALSE(save_checkpoint(ckpt.path(), b));
  std::filesystem::remove(tmp);
  ASSERT_TRUE(load_checkpoint(ckpt.path(), c));
  EXPECT_EQ(ops::max_abs_diff(a.updater().gru.w_ir.value,
                              c.updater().gru.w_ir.value),
            0.0f);
}

/// Overwrite `n` bytes of `path` at `at` with `value`'s low bytes.
void patch_file(const std::string& path, std::size_t at, std::uint64_t value,
                std::size_t n) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(at));
  f.write(reinterpret_cast<const char*>(&value),
          static_cast<std::streamsize>(n));
}

TEST(Serialize, LengthFieldsBeyondTheFileAreRejectedBeforeAllocating) {
  // Every length is checked against the bytes left in the file before
  // anything is allocated for it: a corrupt length is a typed
  // std::runtime_error naming the field, never std::bad_alloc.
  const auto ds = tiny_ds();
  ModelConfig cfg = student_cfg(ds);
  cfg.attention = AttentionKind::kVanilla;
  cfg.time_encoder = TimeEncoderKind::kCos;  // no LUT: edge count is last
  TgnModel a(cfg, 1), b(cfg, 2);
  TempFile ckpt("tgnn_ckpt_lengths.bin");
  const auto expect_exceeds = [&](const char* what) {
    try {
      load_checkpoint(ckpt.path(), b);
      ADD_FAILURE() << what << ": expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos)
          << what << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": threw " << e.what();
    }
  };

  // The first parameter's u32 name length sits after magic, version and
  // the u64 parameter count.
  ASSERT_TRUE(save_checkpoint(ckpt.path(), a));
  patch_file(ckpt.path(), 16, 1u << 20, sizeof(std::uint32_t));
  expect_exceeds("parameter name length");

  ASSERT_TRUE(save_checkpoint(ckpt.path(), a));
  const auto size = std::filesystem::file_size(ckpt.path());
  patch_file(ckpt.path(), size - 8, std::uint64_t{1} << 40, 8);
  expect_exceeds("LUT edge count");

  // load_state's neighbor count, on the unbounded sampler (no FIFO
  // capacity to bound it): no memory or mailbox rows, so the first row's
  // count follows the 49-byte header, two zero row counts, the mail_valid
  // flags, the neighbor row count and the row's vertex.
  RuntimeState st(ds.graph.num_nodes(), cfg, /*use_fifo=*/false);
  for (const auto& e : ds.graph.edges({0, 50})) st.insert_edge(e);
  TempFile state_file("tgnn_state_lengths.tgns");
  ASSERT_TRUE(save_state(state_file.path(), st, 0));
  patch_file(state_file.path(), 49 + 16 + ds.graph.num_nodes() + 16,
             std::uint64_t{1} << 40, 8);
  RuntimeState restored(ds.graph.num_nodes(), cfg, /*use_fifo=*/false);
  std::uint64_t cursor = 0;
  try {
    load_state(state_file.path(), restored, cursor, ds.num_edges());
    ADD_FAILURE() << "neighbor count: expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos)
        << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "neighbor count: threw " << e.what();
  }
}

}  // namespace
}  // namespace tgnn::core
