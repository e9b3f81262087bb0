// Checkpoint/restore of a serving engine (ISSUE 9 tentpole b): snapshot
// the backend's runtime state plus the stream cursor, kill the engine,
// restore into a fresh backend, and continue — the survivor must be
// bit-identical to an engine that never died, on every engine-backed
// platform and with the vertex state spilled out-of-core.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "data/synthetic.hpp"
#include "runtime/serving.hpp"
#include "tensor/ops.hpp"
#include "tgnn/serialize.hpp"

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

core::TgnModel tiny_model(const data::Dataset& ds) {
  core::ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 6;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 5;
  return core::TgnModel(cfg, 1);
}

ServingOptions deterministic_opts() {
  ServingOptions opts;
  opts.max_batch = 50;
  opts.max_wait_s = 10.0;  // batches split deterministically at the cap
  return opts;
}

std::string ckpt_path(const std::string& tag) {
  return ::testing::TempDir() + "tgnn_ckpt_" + tag + ".tgns";
}

/// Serve 150 requests, checkpoint, keep serving to 200 on the live
/// backend; restore the checkpoint into a fresh backend and serve the
/// same tail there. A held-out probe batch must then produce
/// bit-identical embeddings on both — state AND cursor round-tripped.
void expect_kill_and_restore_bit_identical(const std::string& key,
                                           const std::string& tag,
                                           BackendOptions bopts = {}) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  const std::string path = ckpt_path(tag);

  auto live = make_backend(key, model, ds, bopts);
  std::uint64_t cursor = 0;
  {
    ServingEngine server(*live, deterministic_opts());
    for (std::size_t i = 0; i < 150; ++i) server.submit(i);
    cursor = server.checkpoint(path);
    EXPECT_EQ(cursor, 150u) << key;
    // The engine that never died serves the tail...
    for (std::size_t i = cursor; i < 200; ++i) server.submit(i);
    server.drain();
  }

  // ...and the "killed" deployment comes back on a FRESH backend: restore
  // the snapshot, then resume submitting exactly at the returned cursor.
  auto revived = make_backend(key, model, ds, bopts);
  const std::uint64_t resumed = restore_backend(*revived, path);
  EXPECT_EQ(resumed, cursor) << key;
  {
    ServingEngine server(*revived, deterministic_opts());
    for (std::size_t i = resumed; i < 200; ++i) server.submit(i);
    server.drain();
  }

  const graph::BatchRange probe{200, 260};
  const auto a = live->process_batch(probe);
  const auto b = revived->process_batch(probe);
  ASSERT_EQ(a.functional.nodes, b.functional.nodes) << key;
  EXPECT_EQ(ops::max_abs_diff(a.functional.embeddings,
                              b.functional.embeddings),
            0.0f)
      << key;
}

TEST(Checkpoint, KillAndRestoreBitIdenticalCpu) {
  expect_kill_and_restore_bit_identical("cpu", "cpu");
}

TEST(Checkpoint, KillAndRestoreBitIdenticalCpuMt) {
  BackendOptions bopts;
  bopts.threads = 2;
  expect_kill_and_restore_bit_identical("cpu-mt", "cpu_mt", bopts);
}

TEST(Checkpoint, KillAndRestoreBitIdenticalShardedCpu) {
  BackendOptions bopts;
  bopts.threads = 2;
  expect_kill_and_restore_bit_identical("sharded-cpu", "sharded", bopts);
}

TEST(Checkpoint, KillAndRestoreBitIdenticalOutOfCore) {
  // A ~10% resident budget forces most vertex rows through the spill
  // file; the snapshot must capture spilled pages too, not just what
  // happens to be in DRAM.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  BackendOptions bopts;
  bopts.memory_budget =
      core::RuntimeState::state_bytes(ds.graph.num_nodes(), model.config()) /
      10;
  expect_kill_and_restore_bit_identical("cpu", "oocore", bopts);
}

TEST(Checkpoint, FreshEngineCheckpointsCursorZero) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  const std::string path = ckpt_path("fresh");
  ServingEngine server(*backend);
  EXPECT_EQ(server.checkpoint(path), 0u);

  auto revived = make_backend("cpu", model, ds);
  EXPECT_EQ(restore_backend(*revived, path), 0u);
}

TEST(Checkpoint, RestoreRejectsMismatchedState) {
  // A checkpoint from one model shape must not load into another — a
  // silent shape mismatch would corrupt every row it touches.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  const std::string path = ckpt_path("mismatch");
  {
    ServingEngine server(*backend, deterministic_opts());
    for (std::size_t i = 0; i < 100; ++i) server.submit(i);
    server.checkpoint(path);
  }

  core::ModelConfig cfg = model.config();
  cfg.mem_dim = 16;  // different memory width
  const core::TgnModel other(cfg, 1);
  auto victim = make_backend("cpu", other, ds);
  EXPECT_THROW(restore_backend(*victim, path), std::runtime_error);
}

TEST(Checkpoint, FailedSaveKeepsThePreviousCheckpoint) {
  // A save writes "<path>.tmp" and renames it over the target. A directory
  // squatting on the temp name fails the write: the save reports it, and
  // the last good checkpoint still loads with its cursor.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  const std::string path = ckpt_path("atomic");
  const std::string tmp = path + ".tmp";
  std::filesystem::remove_all(tmp);
  ServingEngine server(*backend, deterministic_opts());
  for (std::size_t i = 0; i < 100; ++i) server.submit(i);
  ASSERT_EQ(server.checkpoint(path), 100u);
  EXPECT_FALSE(std::filesystem::exists(tmp));

  for (std::size_t i = 100; i < 150; ++i) server.submit(i);
  server.drain();
  std::filesystem::create_directory(tmp);
  EXPECT_FALSE(core::save_state(path, *backend->runtime_state(), 150));
  std::filesystem::remove(tmp);
  auto revived = make_backend("cpu", model, ds);
  EXPECT_EQ(restore_backend(*revived, path), 100u);

  // With the temp name free again the next save replaces the file.
  ASSERT_EQ(server.checkpoint(path), 150u);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_EQ(restore_backend(*revived, path), 150u);
}

TEST(Checkpoint, RestoreRejectsMissingFile) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  EXPECT_THROW(restore_backend(*backend, ckpt_path("never_written_xyz")),
               std::runtime_error);
}

}  // namespace
}  // namespace tgnn::runtime
