#include "tgnn/serialize.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace tgnn::core {

namespace {

constexpr char kMagic[4] = {'T', 'G', 'N', 'N'};
constexpr std::uint32_t kVersion = 1;

constexpr char kStateMagic[4] = {'T', 'G', 'N', 'S'};
constexpr std::uint32_t kStateVersion = 1;

std::vector<nn::Parameter*> all_params(TgnModel& model, Decoder* decoder) {
  std::vector<nn::Parameter*> out = model.params().params();
  if (decoder)
    for (auto* p : decoder->parameters()) out.push_back(p);
  return out;
}

template <typename T>
void write_pod(std::ofstream& f, const T& v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool read_pod(std::ifstream& f, T& v) {
  f.read(reinterpret_cast<char*>(&v), sizeof(T));
  return static_cast<bool>(f);
}

/// Length of the file behind a freshly opened `f` (read position left at
/// the start).
std::uint64_t file_size(std::ifstream& f) {
  f.seekg(0, std::ios::end);
  const std::streamoff end = f.tellg();
  f.seekg(0);
  return end < 0 ? 0 : static_cast<std::uint64_t>(end);
}

/// Bytes between `f`'s read position and the end of a `size`-byte file:
/// the bound every length field is checked against before anything is
/// allocated for it, so a corrupt length is a typed error, not bad_alloc.
std::uint64_t bytes_left(std::ifstream& f, std::uint64_t size) {
  const std::streamoff pos = f.tellg();
  if (pos < 0) return 0;
  return size - std::min(size, static_cast<std::uint64_t>(pos));
}

/// Crash-safe save: `write` streams the file into "<path>.tmp", which is
/// flushed, fsynced and only then renamed over `path`. A crash or a failed
/// write at any point leaves the previous file at `path` intact; on failure
/// the temp file is removed and the result is false (an exception from
/// `write` propagates after the same cleanup).
template <typename Write>
bool write_file_atomically(const std::string& path, const Write& write) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;  // nothing was created
    try {
      write(f);
    } catch (...) {  // e.g. a spill read failing mid-snapshot
      ::unlink(tmp.c_str());
      throw;
    }
    f.close();
    if (!f) {
      ::unlink(tmp.c_str());
      return false;
    }
  }
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CLOEXEC);
  const bool synced = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  if (!synced || std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

void write_checkpoint(std::ofstream& f, TgnModel& model, Decoder* decoder) {
  f.write(kMagic, 4);
  write_pod(f, kVersion);

  const auto params = all_params(model, decoder);
  write_pod(f, static_cast<std::uint64_t>(params.size()));
  for (const auto* p : params) {
    write_pod(f, static_cast<std::uint32_t>(p->name.size()));
    f.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    write_pod(f, static_cast<std::uint64_t>(p->value.rows()));
    write_pod(f, static_cast<std::uint64_t>(p->value.cols()));
    f.write(reinterpret_cast<const char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }

  // LUT bin edges (needed to reproduce bin_of at deployment).
  const auto* lut = model.lut_encoder();
  const auto& edges =
      lut && lut->fitted() ? lut->edges() : std::vector<double>{};
  write_pod(f, static_cast<std::uint64_t>(edges.size()));
  for (double e : edges) write_pod(f, e);
}

}  // namespace

bool save_checkpoint(const std::string& path, TgnModel& model,
                     Decoder* decoder) {
  return write_file_atomically(
      path, [&](std::ofstream& f) { write_checkpoint(f, model, decoder); });
}

bool load_checkpoint(const std::string& path, TgnModel& model,
                     Decoder* decoder) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  const std::uint64_t size = file_size(f);
  char magic[4];
  f.read(magic, 4);
  std::uint32_t version = 0;
  if (!f || std::memcmp(magic, kMagic, 4) != 0 || !read_pod(f, version) ||
      version != kVersion)
    throw std::runtime_error("load_checkpoint: bad magic/version");

  const auto params = all_params(model, decoder);
  std::uint64_t count = 0;
  if (!read_pod(f, count) || count != params.size())
    throw std::runtime_error("load_checkpoint: parameter count mismatch");

  // Read and check the whole file before the first write: a rejected file
  // leaves the model exactly as it was.
  std::vector<std::vector<float>> staged(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const nn::Parameter* p = params[i];
    std::uint32_t name_len = 0;
    if (!read_pod(f, name_len))
      throw std::runtime_error("load_checkpoint: truncated file");
    if (name_len > bytes_left(f, size))
      throw std::runtime_error(
          "load_checkpoint: parameter name length " +
          std::to_string(name_len) + " exceeds the bytes left in the file");
    std::string name(name_len, '\0');
    f.read(name.data(), name_len);
    std::uint64_t rows = 0, cols = 0;
    if (!f || !read_pod(f, rows) || !read_pod(f, cols))
      throw std::runtime_error("load_checkpoint: truncated file");
    if (name != p->name || rows != p->value.rows() || cols != p->value.cols())
      throw std::runtime_error("load_checkpoint: parameter mismatch at '" +
                               p->name + "' (file has '" + name + "' " +
                               std::to_string(rows) + "x" +
                               std::to_string(cols) + ")");
    staged[i].resize(p->value.size());
    f.read(reinterpret_cast<char*>(staged[i].data()),
           static_cast<std::streamsize>(staged[i].size() * sizeof(float)));
    if (!f) throw std::runtime_error("load_checkpoint: truncated data");
  }

  std::uint64_t n_edges = 0;
  if (!read_pod(f, n_edges))
    throw std::runtime_error("load_checkpoint: missing LUT section");
  if (n_edges > bytes_left(f, size) / sizeof(double))
    throw std::runtime_error("load_checkpoint: LUT edge count " +
                             std::to_string(n_edges) +
                             " exceeds the bytes left in the file");
  std::vector<double> edges(n_edges);
  for (auto& e : edges)
    if (!read_pod(f, e))
      throw std::runtime_error("load_checkpoint: truncated LUT edges");
  auto* lut = model.lut_encoder();
  if (lut && edges.empty())
    throw std::runtime_error(
        "load_checkpoint: model expects LUT edges but file has none");

  for (std::size_t i = 0; i < params.size(); ++i)
    std::copy(staged[i].begin(), staged[i].end(), params[i]->value.data());
  if (lut) lut->restore_edges(edges);
  // Engines built before the load read the prepared weight snapshots;
  // rebuild the ones that exist so they serve the loaded weights.
  model.refresh_prepared();
  if (decoder) decoder->refresh_prepared();
  return true;
}

namespace {

/// True if any lane of the span is nonzero — the "row was ever written"
/// test that keeps the state checkpoint sparse.
bool any_nonzero(std::span<const float> v) {
  for (float x : v)
    if (x != 0.0f) return true;
  return false;
}

[[noreturn]] void state_fail(const std::string& what) {
  throw std::runtime_error("load_state: " + what);
}

void write_state(std::ofstream& f, const RuntimeState& state,
                 std::uint64_t stream_cursor) {
  f.write(kStateMagic, 4);
  write_pod(f, kStateVersion);

  const auto num_nodes = static_cast<std::uint64_t>(state.memory.num_nodes());
  write_pod(f, num_nodes);
  write_pod(f, static_cast<std::uint64_t>(state.memory.dim()));
  write_pod(f, static_cast<std::uint64_t>(state.mailbox.raw_dim()));
  write_pod(f, static_cast<std::uint8_t>(state.table != nullptr ? 1 : 0));
  write_pod(f, static_cast<std::uint64_t>(
                   state.table != nullptr ? state.table->capacity() : 0));
  write_pod(f, stream_cursor);

  // Memory rows: only vertices ever updated. Reading through get() faults
  // spilled pages in, so an out-of-core state serializes bit-exactly.
  std::vector<graph::NodeId> touched;
  for (graph::NodeId v = 0; v < num_nodes; ++v)
    if (state.memory.last_update(v) != 0.0 || any_nonzero(state.memory.get(v)))
      touched.push_back(v);
  write_pod(f, static_cast<std::uint64_t>(touched.size()));
  for (const graph::NodeId v : touched) {
    write_pod(f, static_cast<std::uint64_t>(v));
    write_pod(f, state.memory.last_update(v));
    const auto row = state.memory.get(v);
    f.write(reinterpret_cast<const char*>(row.data()),
            static_cast<std::streamsize>(row.size() * sizeof(float)));
  }

  // Mailbox rows: only vertices holding a message (has_mail covers the
  // valid byte; the separate consume-once flags follow as a flat vector).
  touched.clear();
  for (graph::NodeId v = 0; v < num_nodes; ++v)
    if (state.mailbox.has_mail(v)) touched.push_back(v);
  write_pod(f, static_cast<std::uint64_t>(touched.size()));
  for (const graph::NodeId v : touched) {
    write_pod(f, static_cast<std::uint64_t>(v));
    write_pod(f, state.mailbox.mail_ts(v));
    const auto row = state.mailbox.mail(v);
    f.write(reinterpret_cast<const char*>(row.data()),
            static_cast<std::streamsize>(row.size() * sizeof(float)));
  }

  f.write(reinterpret_cast<const char*>(state.mail_valid.data()),
          static_cast<std::streamsize>(state.mail_valid.size()));

  // Neighbor state, oldest -> newest per vertex — the order insert() (or
  // restore_history) reproduces exactly.
  touched.clear();
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    const std::size_t n = state.table != nullptr ? state.table->fill(v)
                                                 : state.finder->degree(v);
    if (n != 0) touched.push_back(v);
  }
  write_pod(f, static_cast<std::uint64_t>(touched.size()));
  for (const graph::NodeId v : touched) {
    const std::vector<graph::NeighborHit> hits =
        state.table != nullptr ? state.table->row(v) : state.finder->history(v);
    write_pod(f, static_cast<std::uint64_t>(v));
    write_pod(f, static_cast<std::uint64_t>(hits.size()));
    for (const auto& h : hits) {
      write_pod(f, static_cast<std::uint64_t>(h.node));
      write_pod(f, static_cast<std::uint64_t>(h.eid));
      write_pod(f, h.ts);
    }
  }
}

/// The state file after its header: memory rows, mailbox rows, the
/// consume-once flags, neighbor rows. Every entry is checked; with `apply`
/// false nothing is written, so a first pass proves the whole file good.
void read_state_body(std::ifstream& f, std::uint64_t size,
                     RuntimeState& state, std::uint64_t num_edges,
                     bool apply) {
  const std::uint64_t num_nodes = state.memory.num_nodes();
  const std::uint64_t mem_dim = state.memory.dim();
  const std::uint64_t raw_dim = state.mailbox.raw_dim();
  std::uint64_t rows = 0;
  if (!read_pod(f, rows)) state_fail("truncated memory section");
  std::vector<float> buf(mem_dim);
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::uint64_t v = 0;
    double ts = 0.0;
    if (!read_pod(f, v) || !read_pod(f, ts) || v >= num_nodes)
      state_fail("bad memory row");
    f.read(reinterpret_cast<char*>(buf.data()),
           static_cast<std::streamsize>(mem_dim * sizeof(float)));
    if (!f) state_fail("truncated memory row");
    if (apply) state.memory.set(static_cast<graph::NodeId>(v), buf, ts);
  }

  if (!read_pod(f, rows)) state_fail("truncated mailbox section");
  buf.assign(raw_dim, 0.0f);
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::uint64_t v = 0;
    double ts = 0.0;
    if (!read_pod(f, v) || !read_pod(f, ts) || v >= num_nodes)
      state_fail("bad mailbox row");
    f.read(reinterpret_cast<char*>(buf.data()),
           static_cast<std::streamsize>(raw_dim * sizeof(float)));
    if (!f) state_fail("truncated mailbox row");
    if (apply) state.mailbox.put(static_cast<graph::NodeId>(v), buf, ts);
  }

  std::vector<std::uint8_t> valid(state.mail_valid.size());
  f.read(reinterpret_cast<char*>(valid.data()),
         static_cast<std::streamsize>(valid.size()));
  if (!f) state_fail("truncated mail_valid section");
  if (apply) std::copy(valid.begin(), valid.end(), state.mail_valid.begin());

  if (!read_pod(f, rows)) state_fail("truncated neighbor section");
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::uint64_t v = 0, count = 0;
    if (!read_pod(f, v) || !read_pod(f, count) || v >= num_nodes)
      state_fail("bad neighbor row");
    // Bound the count before allocating: a FIFO row never holds more than
    // its capacity, and each entry is three u64-sized fields.
    if (state.table != nullptr && count > state.table->capacity())
      state_fail("neighbor count " + std::to_string(count) +
                 " exceeds the FIFO capacity");
    if (count > bytes_left(f, size) / (3 * sizeof(std::uint64_t)))
      state_fail("neighbor count " + std::to_string(count) +
                 " exceeds the bytes left in the file");
    std::vector<graph::NeighborHit> hits(count);
    for (auto& h : hits) {
      std::uint64_t node = 0, eid = 0;
      if (!read_pod(f, node) || !read_pod(f, eid) || !read_pod(f, h.ts))
        state_fail("truncated neighbor entries");
      // Serving indexes vertex state by node and edge features by eid;
      // either out of range would fault only at the first served batch.
      if (node >= num_nodes)
        state_fail("neighbor node " + std::to_string(node) + " out of range");
      if (eid >= num_edges)
        state_fail("neighbor edge id " + std::to_string(eid) +
                   " out of range");
      h.node = static_cast<graph::NodeId>(node);
      h.eid = static_cast<graph::EdgeId>(eid);
    }
    if (!apply) continue;
    if (state.table != nullptr) {
      for (const auto& h : hits)
        state.table->insert(static_cast<graph::NodeId>(v), h.node, h.eid,
                            h.ts);
    } else {
      state.finder->restore_history(static_cast<graph::NodeId>(v),
                                    std::move(hits));
    }
  }
}

}  // namespace

bool save_state(const std::string& path, const RuntimeState& state,
                std::uint64_t stream_cursor) {
  return write_file_atomically(path, [&](std::ofstream& f) {
    write_state(f, state, stream_cursor);
  });
}

bool load_state(const std::string& path, RuntimeState& state,
                std::uint64_t& stream_cursor, std::uint64_t num_edges) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  const std::uint64_t size = file_size(f);
  char magic[4];
  f.read(magic, 4);
  std::uint32_t version = 0;
  if (!f || std::memcmp(magic, kStateMagic, 4) != 0 ||
      !read_pod(f, version) || version != kStateVersion)
    state_fail("bad magic/version");

  std::uint64_t num_nodes = 0, mem_dim = 0, raw_dim = 0, fifo_cap = 0;
  std::uint64_t cursor = 0;
  std::uint8_t use_fifo = 0;
  if (!read_pod(f, num_nodes) || !read_pod(f, mem_dim) ||
      !read_pod(f, raw_dim) || !read_pod(f, use_fifo) ||
      !read_pod(f, fifo_cap) || !read_pod(f, cursor))
    state_fail("truncated header");
  if (num_nodes != state.memory.num_nodes() || mem_dim != state.memory.dim() ||
      raw_dim != state.mailbox.raw_dim())
    state_fail("state shape mismatch (nodes/dims differ from checkpoint)");
  if ((use_fifo != 0) != (state.table != nullptr))
    state_fail("sampler kind mismatch (FIFO table vs unbounded finder)");
  if (state.table != nullptr && fifo_cap != state.table->capacity())
    state_fail("FIFO capacity mismatch");

  // Two passes over the body: the first only checks every entry, so a
  // rejected file leaves `state` as it was; the second applies.
  const std::streampos body = f.tellg();
  read_state_body(f, size, state, num_edges, /*apply=*/false);
  state.reset();
  f.clear();
  f.seekg(body);
  read_state_body(f, size, state, num_edges, /*apply=*/true);
  stream_cursor = cursor;
  return true;
}

}  // namespace tgnn::core
