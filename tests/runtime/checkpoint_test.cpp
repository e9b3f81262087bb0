// Checkpoint/restore of a serving engine (ISSUE 9 tentpole b): snapshot
// the backend's runtime state plus the stream cursor, kill the engine,
// restore into a fresh backend, and continue — the survivor must be
// bit-identical to an engine that never died, on every engine-backed
// platform and with the vertex state spilled out-of-core.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "runtime/driver.hpp"
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

std::uint64_t u64_at(const std::vector<char>& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}

/// Offset of the first neighbor row's count field in a TGNS file saved
/// from `state`: the header, the memory and mailbox rows and the
/// mail_valid flags come first (layout in tgnn/serialize.hpp). The row's
/// first entry follows the count: node at +8, eid at +16.
std::size_t first_neighbor_count_at(const std::vector<char>& bytes,
                                    const core::RuntimeState& state) {
  std::size_t at = 4 + 4 + 3 * 8 + 1 + 8 + 8;  // through the cursor
  at += 8 + u64_at(bytes, at) * (16 + state.memory.dim() * sizeof(float));
  at += 8 + u64_at(bytes, at) * (16 + state.mailbox.raw_dim() * sizeof(float));
  at += state.memory.num_nodes();  // mail_valid
  EXPECT_GT(u64_at(bytes, at), 0u) << "no neighbor row to corrupt";
  return at + 16;  // past the row count and the row's vertex
}

/// Fast-forward a "cpu" backend over 300 edges and save its state, write
/// `value` over the u64 `field` bytes past the first neighbor row's count,
/// and expect restoring the file into a fresh backend to throw — at
/// restore time, not at the first served batch.
void expect_corrupt_neighbor_field_rejected(const std::string& tag,
                                            std::size_t field,
                                            std::uint64_t value) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  const std::string path = ckpt_path(tag);
  auto backend = make_backend("cpu", model, ds);
  fast_forward(*backend, 300);
  const core::RuntimeState& state = *backend->runtime_state();
  ASSERT_TRUE(core::save_state(path, state, 300));

  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::size_t at = first_neighbor_count_at(bytes, state) + field;
  ASSERT_LE(at + sizeof value, bytes.size());
  std::memcpy(bytes.data() + at, &value, sizeof value);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto revived = make_backend("cpu", model, ds);
  EXPECT_THROW(restore_backend(*revived, path), std::runtime_error) << tag;
}

TEST(Checkpoint, RestoreRejectsNeighborNodeOutOfRange) {
  // Serving would read the vertex state of that node: out_of_range inside
  // an OpenMP region, which terminates the process.
  expect_corrupt_neighbor_field_rejected("bad_node", 8,
                                         tiny_ds().graph.num_nodes() + 7);
}

TEST(Checkpoint, RestoreRejectsNeighborEdgeIdOutOfRange) {
  // Serving would read that edge's feature row past the end of the matrix.
  expect_corrupt_neighbor_field_rejected("bad_eid", 16, 0xFFFFFFF0u);
}

TEST(Checkpoint, RestoreRejectsNeighborCountBeforeAllocating) {
  // A count no FIFO row can hold, and no file could: a typed error, not
  // std::bad_alloc.
  expect_corrupt_neighbor_field_rejected("bad_count", 0,
                                         std::uint64_t{1} << 40);
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

TEST(Checkpoint, RejectedRestoreLeavesTheTargetUntouched) {
  // A state file whose LAST neighbor entry is bad: every row before it
  // parses, so a loader that applied rows as it read them would leave the
  // target half-restored. The target's state must be byte-for-byte what
  // it was before the call.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  const std::string path = ckpt_path("bad_last_eid");
  auto source = make_backend("cpu", model, ds);
  fast_forward(*source, 300);
  ASSERT_TRUE(core::save_state(path, *source->runtime_state(), 300));
  std::vector<char> bytes = read_bytes(path);
  // The file ends with the last entry's (node, eid, ts): eid sits 16 bytes
  // before the end.
  const std::uint64_t bad_eid = 0xFFFFFFF0u;
  ASSERT_GE(bytes.size(), 16u);
  std::memcpy(bytes.data() + bytes.size() - 16, &bad_eid, sizeof bad_eid);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto target = make_backend("cpu", model, ds);
  fast_forward(*target, 120);
  const std::string before = ckpt_path("untouched_before");
  const std::string after = ckpt_path("untouched_after");
  ASSERT_TRUE(core::save_state(before, *target->runtime_state(), 120));
  EXPECT_THROW(restore_backend(*target, path), std::runtime_error);
  ASSERT_TRUE(core::save_state(after, *target->runtime_state(), 120));
  EXPECT_EQ(read_bytes(before), read_bytes(after));
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
