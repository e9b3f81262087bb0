#include "tgnn/inference.hpp"

#include <algorithm>
#include <mutex>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include <omp.h>

#include "graph/shard_map.hpp"
#include "tgnn/message.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace tgnn::core {

namespace {

// Split a byte budget between the memory and mailbox stores proportionally
// to their flat footprints, so both tables keep the same resident fraction.
graph::VertexStoreOptions split_budget(std::size_t budget,
                                       std::size_t own_bytes,
                                       std::size_t total_bytes) {
  graph::VertexStoreOptions o;
  if (budget != 0 && total_bytes != 0)
    o.budget_bytes = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(budget) * static_cast<double>(own_bytes) /
               static_cast<double>(total_bytes)));
  return o;
}

std::size_t memory_table_bytes(graph::NodeId n, const ModelConfig& cfg) {
  return std::size_t{n} * graph::VertexMemory::store_row_bytes(cfg.mem_dim);
}

std::size_t mailbox_table_bytes(graph::NodeId n, const ModelConfig& cfg) {
  return std::size_t{n} *
         graph::VertexMailbox::store_row_bytes(cfg.raw_mail_dim());
}

}  // namespace

RuntimeState::RuntimeState(graph::NodeId num_nodes, const ModelConfig& cfg,
                           bool use_fifo, std::size_t memory_budget_bytes)
    : memory(num_nodes, cfg.mem_dim,
             split_budget(memory_budget_bytes,
                          memory_table_bytes(num_nodes, cfg),
                          state_bytes(num_nodes, cfg))),
      mailbox(num_nodes, cfg.raw_mail_dim(),
              split_budget(memory_budget_bytes,
                           mailbox_table_bytes(num_nodes, cfg),
                           state_bytes(num_nodes, cfg))),
      mail_valid(num_nodes, 0) {
  if (use_fifo)
    table = std::make_unique<graph::NeighborTable>(num_nodes,
                                                   cfg.num_neighbors);
  else
    finder = std::make_unique<graph::NeighborFinder>(num_nodes);
}

std::size_t RuntimeState::state_bytes(graph::NodeId num_nodes,
                                      const ModelConfig& cfg) {
  return memory_table_bytes(num_nodes, cfg) +
         mailbox_table_bytes(num_nodes, cfg);
}

void RuntimeState::pin_rows(std::span<const graph::NodeId> nodes,
                            bool with_mail) {
  memory.pin_rows(nodes);
  if (with_mail) {
    try {
      mailbox.pin_rows(nodes);
    } catch (...) {
      // Keep the all-or-nothing pin contract across both stores: a spill
      // fault in the mailbox pin releases the memory pins before it
      // surfaces, so the batch abort path has nothing to clean up here.
      memory.unpin_rows(nodes);
      throw;
    }
  }
}

void RuntimeState::unpin_rows(std::span<const graph::NodeId> nodes,
                              bool with_mail) {
  memory.unpin_rows(nodes);
  if (with_mail) mailbox.unpin_rows(nodes);
}

void RuntimeState::prefetch_rows(std::span<const graph::NodeId> nodes) {
  memory.prefetch_rows(nodes);
  mailbox.prefetch_rows(nodes);
}

graph::VertexStoreStats RuntimeState::store_stats() const {
  graph::VertexStoreStats s = memory.store_stats();
  s += mailbox.store_stats();
  return s;
}

void RuntimeState::neighbors_into(graph::NodeId v, double t, std::size_t k,
                                  std::vector<graph::NeighborHit>& out) const {
  if (finder) {
    finder->most_recent_into(v, t, k, out);
    return;
  }
  // FIFO table: all stored entries are strictly in the past (batch edges are
  // inserted after embedding computation), so the row is directly usable.
  table->row_into(v, out);
  if (out.size() > k) out.erase(out.begin(), out.end() - static_cast<long>(k));
}

void BatchWorkspace::reserve(std::size_t max_nodes, const ModelConfig& cfg) {
  t_event.reserve(max_nodes);
  grow_to(nbrs, max_nodes);
  for (auto& n : nbrs) n.reserve(cfg.num_neighbors);
  mail_rows.reserve(max_nodes);
  mem_ptr.reserve(max_nodes);
  x.reserve(max_nodes, cfg.gru_in_dim());
  h.reserve(max_nodes, cfg.mem_dim);
  s_new.reserve(max_nodes, cfg.mem_dim);
  gru.reserve(max_nodes, cfg.mem_dim);
  raw.reserve(cfg.raw_mail_dim());

  // Batched-GNN staging: the packed neighbor matrices are bounded by
  // max_nodes * num_neighbors rows (the FIFO table width caps per-vertex
  // degree); pruning only shrinks the simplified path below that.
  const std::size_t max_rows = max_nodes * cfg.num_neighbors;
  gb.seg.reserve(max_nodes + 1);
  gb.fp.reserve(max_nodes, cfg.mem_dim);
  gb.q_in.reserve(max_nodes, cfg.q_in_dim());
  gb.kv_in.reserve(max_rows, cfg.kv_in_dim());
  gb.logits.reserve(max_rows);
  grow_to(gb.scores, max_nodes);
  gb.attn.q.reserve(max_nodes, cfg.emb_dim);
  gb.attn.k.reserve(max_rows, cfg.emb_dim);
  gb.attn.v.reserve(max_rows, cfg.emb_dim);
  gb.attn.fo_in.reserve(max_nodes, cfg.emb_dim + cfg.mem_dim);
  gb.attn.alpha.reserve(max_rows);
  gb.sat.v.reserve(max_rows, cfg.emb_dim);
  gb.sat.fo_in.reserve(max_nodes, cfg.emb_dim + cfg.mem_dim);
}

void RuntimeState::insert_edge(const graph::TemporalEdge& e) {
  if (finder)
    finder->insert(e);
  else
    table->insert_edge(e);
}

void RuntimeState::reset() {
  memory.reset();
  mailbox.reset();
  std::fill(mail_valid.begin(), mail_valid.end(), 0);
  if (finder) finder->clear();
  if (table)
    table = std::make_unique<graph::NeighborTable>(memory.num_nodes(),
                                                   table->capacity());
}

InferenceEngine::InferenceEngine(const TgnModel& model, const data::Dataset& ds,
                                 bool use_fifo_sampler)
    : model_(model), ds_(ds),
      owned_state_(std::make_unique<RuntimeState>(
          ds.graph.num_nodes(), model.config(), use_fifo_sampler)),
      state_(owned_state_.get()), dst_pool_(data::destination_pool(ds)) {
  set_precision(model.config().inference_precision);
}

InferenceEngine::InferenceEngine(const TgnModel& model, const data::Dataset& ds,
                                 RuntimeState& state)
    : model_(model), ds_(ds), state_(&state),
      dst_pool_(data::destination_pool(ds)) {
  set_precision(model.config().inference_precision);
}

void InferenceEngine::set_precision(kernels::Precision p) {
  // Snapshot before flipping the member: if quantization throws, the
  // engine stays in its previous, consistent mode.
  model_.prepare_precision(p);
  precision_ = p;
}

InferenceEngine::BatchResult InferenceEngine::process_batch(
    const graph::BatchRange& r, std::span<const graph::NodeId> extra_nodes,
    PartTimes* times) {
  // The serial driver: the four stages back to back on the engine's own
  // context — bit-identical to the pre-staged monolithic loop (the stages
  // are the same statements; only MemoryUpdate and the neighbor sampling
  // swapped places, and neither reads what the other writes).
  stage_begin(ctx_, r, extra_nodes);
  stage_run(Stage::kMemoryUpdate, ctx_);
  stage_run(Stage::kNeighborGather, ctx_);
  stage_run(Stage::kGnnCompute, ctx_);
  stage_run(Stage::kDecode, ctx_);
  if (times) *times += ctx_.parts;
  return stage_finish(ctx_);
}

void InferenceEngine::stage_begin(StageContext& ctx, const graph::BatchRange& r,
                                  std::span<const graph::NodeId> extra_nodes) {
  Stopwatch sw;
  ctx.range = r;
  ctx.extras.assign(extra_nodes.begin(), extra_nodes.end());
  ctx.parts = PartTimes{};
  ctx.res = BatchResult{};

  // Collect unique involved vertices; per-vertex event time = its most
  // recent timestamp within the batch (in-batch dependencies are ignored).
  // Reads only the immutable edge stream, so a pipelined scheduler may run
  // this before the batch is admitted past the hazard check.
  const auto edges = ds_.graph.edges(r);
  std::vector<double>& t_event = ctx.ws.t_event;
  t_event.clear();
  auto touch = [&](graph::NodeId v, double ts) {
    auto [it, inserted] = ctx.res.index.try_emplace(v, ctx.res.nodes.size());
    if (inserted) {
      ctx.res.nodes.push_back(v);
      t_event.push_back(ts);
    } else {
      t_event[it->second] = std::max(t_event[it->second], ts);
    }
  };
  ctx.t_batch_end = edges.empty() ? 0.0 : edges.back().ts;
  for (const auto& e : edges) {
    touch(e.src, e.ts);
    touch(e.dst, e.ts);
  }
  ctx.num_real = ctx.res.nodes.size();
  for (graph::NodeId v : ctx.extras) touch(v, ctx.t_batch_end);

  // Out-of-core: open the batch's pin window. Every stage from here to the
  // end of Decode holds raw pointers into the endpoint rows (mem_ptr, the
  // build_raw_mail spans), so their pages must not move until then.
  // Defensive: release leftovers first if a previous batch on this context
  // was abandoned mid-flight.
  if (!ctx.pinned_nbrs.empty()) {
    state_->unpin_rows(ctx.pinned_nbrs, /*with_mail=*/false);
    ctx.pinned_nbrs.clear();
  }
  if (!ctx.pinned_nodes.empty()) {
    state_->unpin_rows(ctx.pinned_nodes, /*with_mail=*/true);
    ctx.pinned_nodes.clear();
  }
  if (state_->out_of_core()) {
    // Pin BEFORE recording the pin set: if the pin faults (it rolls its
    // own work back), the context must not claim pins it never got.
    state_->pin_rows(ctx.res.nodes, /*with_mail=*/true);
    ctx.pinned_nodes = ctx.res.nodes;
  }
  ctx.parts.sample += sw.seconds();
}

void InferenceEngine::stage_abort(StageContext& ctx) {
  if (!ctx.pinned_nbrs.empty()) {
    state_->unpin_rows(ctx.pinned_nbrs, /*with_mail=*/false);
    ctx.pinned_nbrs.clear();
  }
  if (!ctx.pinned_nodes.empty()) {
    state_->unpin_rows(ctx.pinned_nodes, /*with_mail=*/true);
    ctx.pinned_nodes.clear();
  }
  ctx.res = BatchResult{};
}

void InferenceEngine::stage_run(Stage s, StageContext& ctx) {
  switch (s) {
    case Stage::kMemoryUpdate:
      stage_memory_update(ctx);
      return;
    case Stage::kNeighborGather:
      stage_neighbor_gather(ctx);
      return;
    case Stage::kGnnCompute:
      stage_gnn_compute(ctx);
      return;
    case Stage::kDecode:
      stage_decode(ctx);
      return;
  }
  throw std::invalid_argument("InferenceEngine::stage_run: unknown stage");
}

void InferenceEngine::stage_memory_update(StageContext& ctx) {
  // Consume cached mail through the GRU (Eq. 1). Touches only the batch's
  // own vertices' mailbox/memory/mail_valid rows.
  Stopwatch sw;
  const ModelConfig& cfg = model_.config();
  BatchWorkspace& ws = ctx.ws;
  const std::size_t n_nodes = ctx.res.nodes.size();
  std::vector<std::size_t>& mail_rows = ws.mail_rows;  // indices into nodes
  mail_rows.clear();
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const graph::NodeId v = ctx.res.nodes[i];
    if (state_->mailbox.has_mail(v) && state_->mail_valid[v])
      mail_rows.push_back(i);
  }
  Tensor& s_new = ws.s_new;  // [mail_rows, mem]
  if (!mail_rows.empty()) {
    ws.x.resize(mail_rows.size(), cfg.gru_in_dim());
    ws.h.resize(mail_rows.size(), cfg.mem_dim);
    // Gather [raw_mail || Phi(dt)] and the current memory rows into the
    // contiguous GRU operands; all reads are of the batch's own vertices,
    // so rows are independent and the gather parallelizes freely.
#pragma omp parallel for schedule(static) if (parallel_gnn_)
    for (std::size_t k = 0; k < mail_rows.size(); ++k) {
      const std::size_t i = mail_rows[k];
      const graph::NodeId v = ctx.res.nodes[i];
      const auto mail = state_->mailbox.mail(v);
      const double dt =
          std::max(0.0, ws.t_event[i] - state_->mailbox.mail_ts(v));
      auto row = ws.x.row(k);
      std::copy(mail.begin(), mail.end(), row.begin());
      model_.time_encoder().encode_scalar(
          dt, row.subspan(mail.size(), cfg.time_dim));
      const auto mem = state_->memory.get(v);
      std::copy(mem.begin(), mem.end(), ws.h.row(k).begin());
    }
    model_.updater().forward_into(ws.x, ws.h, ws.gru, s_new, precision_);
  }
  // Row lookup: updated memory if in this batch's mail set, else the table.
  std::vector<const float*>& mem_ptr = ws.mem_ptr;
  mem_ptr.assign(n_nodes, nullptr);
  for (std::size_t i = 0; i < n_nodes; ++i)
    mem_ptr[i] = state_->memory.get(ctx.res.nodes[i]).data();
  for (std::size_t k = 0; k < mail_rows.size(); ++k)
    mem_ptr[mail_rows[k]] = s_new.row(k).data();
  ctx.parts.memory += sw.seconds();
}

void InferenceEngine::stage_neighbor_gather(StageContext& ctx) {
  // Sample: neighbor lists BEFORE this batch's edges are inserted (Decode
  // inserts them; the hazard check keeps concurrent batches' endpoint rows
  // disjoint, so the rows read here are quiescent).
  Stopwatch sw;
  const ModelConfig& cfg = model_.config();
  BatchWorkspace& ws = ctx.ws;
  const std::size_t n_nodes = ctx.res.nodes.size();
  BatchWorkspace::grow_to(ws.nbrs, n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i)
    state_->neighbors_into(ctx.res.nodes[i], ws.t_event[i], cfg.num_neighbors,
                           ws.nbrs[i]);
  // Out-of-core: pin the sampled neighbors' memory rows now that they are
  // known — this both protects the (possibly parallel) kv gathers below
  // and IS the synchronous fault-in, one stage before GnnCompute reads
  // the rows. Unique ids so the pin count stays bounded by the footprint.
  if (state_->out_of_core()) {
    auto& pn = ctx.pinned_nbrs;
    pn.clear();
    for (std::size_t i = 0; i < n_nodes; ++i)
      for (const auto& hit : ws.nbrs[i]) pn.push_back(hit.node);
    std::sort(pn.begin(), pn.end());
    pn.erase(std::unique(pn.begin(), pn.end()), pn.end());
    try {
      state_->pin_rows(pn, /*with_mail=*/false);
    } catch (...) {
      pn.clear();  // pin rolled itself back; don't claim what we don't hold
      throw;
    }
  }
  ctx.parts.sample += sw.seconds();

  // CSR pack + kv-row staging (batched pipeline only; the per-row path
  // gathers inside GnnCompute). Counted as GNN time, as the gather was
  // when it lived inside the monolithic GNN stage.
  if (use_batched_gnn()) {
    sw.reset();
    gnn_gather_batched(ctx);
    ctx.parts.gnn += sw.seconds();
  }
}

void InferenceEngine::stage_gnn_compute(StageContext& ctx) {
  // Dynamic embeddings via attention over sampled neighbors (Eq. 2): the
  // batched GEMMs over the staged operands (default) or the legacy per-row
  // path — bit-identical by construction.
  Stopwatch sw;
  const ModelConfig& cfg = model_.config();
  ctx.res.embeddings = Tensor(ctx.res.nodes.size(), cfg.emb_dim);
  if (use_batched_gnn())
    gnn_compute_batched(ctx);
  else
    gnn_stage_per_row(ctx);
  ctx.parts.gnn += sw.seconds();
}

void InferenceEngine::stage_decode(StageContext& ctx) {
  // Chronological write-back (Alg. 1 lines 4-8, 12-14). Extra
  // (negative-sample) vertices were embedded with their *transiently*
  // updated memory, but only vertices with real events commit state — the
  // TGN convention for evaluation negatives. Pair scoring consumes
  // ctx.res.embeddings (evaluate_ap / the serving decoder) and rides on
  // this stage's slot in the pipeline.
  Stopwatch sw;
  const ModelConfig& cfg = model_.config();
  BatchWorkspace& ws = ctx.ws;
  for (std::size_t k = 0; k < ws.mail_rows.size(); ++k) {
    const std::size_t i = ws.mail_rows[k];
    if (i >= ctx.num_real) continue;
    const graph::NodeId v = ctx.res.nodes[i];
    if (shard_locks_ != nullptr) {
      util::ExclusiveLock lock(shard_locks_->mutex_of(v));
      state_->memory.set(v, ws.s_new.row(k), ws.t_event[i]);
    } else {
      state_->memory.set(v, ws.s_new.row(k), ws.t_event[i]);
    }
    state_->mail_valid[v] = 0;  // consume-once
  }
  // Cache fresh messages from updated memory; last write per vertex wins
  // ("most recent" aggregator).
  const auto edges = ds_.graph.edges(ctx.range);
  std::vector<float>& raw = ws.raw;
  raw.resize(cfg.raw_mail_dim());
  for (const auto& e : edges) {
    const auto fe = cfg.edge_dim > 0
                        ? std::span<const float>(ds_.edge_features.row(e.eid))
                        : std::span<const float>{};
    build_raw_mail(state_->memory.get(e.src), state_->memory.get(e.dst), fe,
                   raw);
    state_->mailbox.put(e.src, raw, e.ts);
    state_->mail_valid[e.src] = 1;
    build_raw_mail(state_->memory.get(e.dst), state_->memory.get(e.src), fe,
                   raw);
    state_->mailbox.put(e.dst, raw, e.ts);
    state_->mail_valid[e.dst] = 1;
  }
  for (const auto& e : edges) state_->insert_edge(e);
  // Close the batch's pin window: state is committed, no raw row pointer
  // outlives this stage. Unpinning the dirtied endpoint pages is what
  // queues their chronological write-back.
  if (!ctx.pinned_nbrs.empty()) {
    state_->unpin_rows(ctx.pinned_nbrs, /*with_mail=*/false);
    ctx.pinned_nbrs.clear();
  }
  if (!ctx.pinned_nodes.empty()) {
    state_->unpin_rows(ctx.pinned_nodes, /*with_mail=*/true);
    ctx.pinned_nodes.clear();
  }
  ctx.parts.update += sw.seconds();
}

std::span<const float> InferenceEngine::memory_of(
    graph::NodeId v, const StageContext& ctx,
    std::vector<float>& scratch) const {
  // Memory of a batch vertex comes from the (possibly GRU-updated) local
  // row; memory of anyone else comes from the shared table. In concurrent-
  // lane mode the latter is the one read that can race with another lane's
  // write-back, so it goes through the vertex's shard lock into `scratch`.
  const ModelConfig& cfg = model_.config();
  auto it = ctx.res.index.find(v);
  if (it != ctx.res.index.end())
    return {ctx.ws.mem_ptr[it->second], cfg.mem_dim};
  if (shard_locks_ != nullptr) {
    scratch.resize(cfg.mem_dim);
    util::SharedLock lock(shard_locks_->mutex_of(v));
    const auto mem = state_->memory.get(v);
    std::copy(mem.begin(), mem.end(), scratch.begin());
    return {scratch.data(), scratch.size()};
  }
  return state_->memory.get(v);
}

void InferenceEngine::f_prime_of(graph::NodeId v, const StageContext& ctx,
                                 std::vector<float>& scratch,
                                 std::span<float> out) const {
  const ModelConfig& cfg = model_.config();
  const auto feat = cfg.node_dim > 0
                        ? std::span<const float>(ds_.node_features.row(v))
                        : std::span<const float>{};
  model_.f_prime(memory_of(v, ctx, scratch), feat, out);
}

void InferenceEngine::gather_kv_row(const graph::NeighborHit& hit, double dt,
                                    const StageContext& ctx,
                                    std::vector<float>& scratch,
                                    std::span<float> row) const {
  const ModelConfig& cfg = model_.config();
  f_prime_of(hit.node, ctx, scratch, row.first(cfg.mem_dim));
  if (cfg.edge_dim > 0) {
    const auto ef = ds_.edge_features.row(hit.eid);
    std::copy(ef.begin(), ef.end(), row.begin() + cfg.mem_dim);
  }
  model_.time_encoder().encode_scalar(
      dt, row.subspan(cfg.mem_dim + cfg.edge_dim, cfg.time_dim));
}

void InferenceEngine::gnn_gather_batched(StageContext& ctx) {
  const ModelConfig& cfg = model_.config();
  BatchWorkspace& ws = ctx.ws;
  const auto& nbrs = ws.nbrs;
  const auto& t_event = ws.t_event;
  BatchWorkspace::GnnBatch& gb = ws.gb;
  const std::size_t n_nodes = ctx.res.nodes.size();
  const std::size_t n_threads =
      parallel_gnn_
          ? static_cast<std::size_t>(std::max(1, omp_get_max_threads()))
          : 1;
  BatchWorkspace::grow_to(ws.gnn, n_threads);

  // ---- gather f'_i of every center vertex into one contiguous matrix
  // (shared by both attention variants).
  gb.fp.resize(n_nodes, cfg.mem_dim);
#pragma omp parallel for schedule(static) if (parallel_gnn_)
  for (std::size_t i = 0; i < n_nodes; ++i) {
    auto& sc = ws.gnn[static_cast<std::size_t>(omp_get_thread_num())];
    f_prime_of(ctx.res.nodes[i], ctx, sc.mem_row, gb.fp.row(i));
  }

  gb.seg.resize(n_nodes + 1);
  gb.seg[0] = 0;
  if (model_.vanilla() != nullptr) {
    // ---- gather: q rows + packed [f'_j || e_ij || Phi(dt)] neighbor rows.
    for (std::size_t i = 0; i < n_nodes; ++i)
      gb.seg[i + 1] = gb.seg[i] + nbrs[i].size();
    gb.q_in.resize(n_nodes, cfg.q_in_dim());
    gb.kv_in.resize(gb.seg[n_nodes], cfg.kv_in_dim());
#pragma omp parallel for schedule(dynamic, 8) if (parallel_gnn_)
    for (std::size_t i = 0; i < n_nodes; ++i) {
      auto& sc = ws.gnn[static_cast<std::size_t>(omp_get_thread_num())];
      auto q = gb.q_in.row(i);
      const auto fp = gb.fp.row(i);
      std::copy(fp.begin(), fp.end(), q.begin());
      model_.time_encoder().encode_scalar(
          0.0, q.subspan(cfg.mem_dim, cfg.time_dim));
      const auto& nb = nbrs[i];
      for (std::size_t j = 0; j < nb.size(); ++j)
        gather_kv_row(nb[j], std::max(0.0, t_event[i] - nb[j].ts), ctx,
                      sc.mem_row, gb.kv_in.row(gb.seg[i] + j));
    }
  } else {
    const auto* sat = model_.simplified();
    BatchWorkspace::grow_to(gb.scores, n_nodes);
    // ---- phase 1: dt-only logits + pruning per node (tiny mr x mr work;
    // what makes the kept-slot gather below possible before any V fetch).
#pragma omp parallel for schedule(dynamic, 8) if (parallel_gnn_)
    for (std::size_t i = 0; i < n_nodes; ++i) {
      auto& sc = ws.gnn[static_cast<std::size_t>(omp_get_thread_num())];
      const auto& nb = nbrs[i];
      sc.dts.resize(nb.size());
      for (std::size_t j = 0; j < nb.size(); ++j)
        sc.dts[j] = std::max(0.0, t_event[i] - nb[j].ts);
      sat->score_into(sc.dts, cfg.prune_budget, sc.score, gb.scores[i]);
    }
    // ---- gather: packed kept-slot V rows + their logits.
    for (std::size_t i = 0; i < n_nodes; ++i)
      gb.seg[i + 1] = gb.seg[i] + gb.scores[i].keep.size();
    gb.kv_in.resize(gb.seg[n_nodes], cfg.kv_in_dim());
    gb.logits.resize(gb.seg[n_nodes]);
#pragma omp parallel for schedule(dynamic, 8) if (parallel_gnn_)
    for (std::size_t i = 0; i < n_nodes; ++i) {
      auto& sc = ws.gnn[static_cast<std::size_t>(omp_get_thread_num())];
      const SimplifiedAttention::Scores& s = gb.scores[i];
      for (std::size_t idx = 0; idx < s.keep.size(); ++idx) {
        const std::size_t slot = s.keep[idx];
        gather_kv_row(nbrs[i][slot], s.dts[slot], ctx, sc.mem_row,
                      gb.kv_in.row(gb.seg[i] + idx));
        gb.logits[gb.seg[i] + idx] = s.logits[slot];
      }
    }
  }
}

void InferenceEngine::gnn_compute_batched(StageContext& ctx) {
  // ---- batched compute + scatter into the embeddings matrix: each model
  // stage is ONE kernel call over the operands NeighborGather staged.
  BatchWorkspace::GnnBatch& gb = ctx.ws.gb;
  if (const auto* att = model_.vanilla()) {
    att->forward_batch_into(gb.fp, gb.q_in, gb.kv_in, gb.seg, gb.attn,
                            ctx.res.embeddings, precision_);
  } else {
    model_.simplified()->aggregate_batch_into(gb.fp, gb.logits, gb.kv_in,
                                              gb.seg, gb.sat,
                                              ctx.res.embeddings, precision_);
  }
}

void InferenceEngine::gnn_stage_per_row(StageContext& ctx) {
  const ModelConfig& cfg = model_.config();
  BatchWorkspace& ws = ctx.ws;
  const auto& nbrs = ws.nbrs;
  const auto& t_event = ws.t_event;
  Tensor& embeddings = ctx.res.embeddings;
  const std::size_t n_nodes = ctx.res.nodes.size();
  const std::size_t n_threads =
      parallel_gnn_
          ? static_cast<std::size_t>(std::max(1, omp_get_max_threads()))
          : 1;
  BatchWorkspace::grow_to(ws.gnn, n_threads);
#pragma omp parallel for schedule(dynamic, 8) if (parallel_gnn_)
  for (std::size_t i = 0; i < n_nodes; ++i) {
    auto& sc = ws.gnn[static_cast<std::size_t>(omp_get_thread_num())];
    sc.fp.resize(1, cfg.mem_dim);
    const graph::NodeId u = ctx.res.nodes[i];
    const auto& nb = nbrs[i];
    f_prime_of(u, ctx, sc.mem_row, sc.fp.row(0));

    // Both attention variants run their fused inference path, writing the
    // embedding straight into the batch result's row.
    if (const auto* att = model_.vanilla()) {
      AttnNodeInput& in = sc.attn_in;
      in.q_in.resize(1, cfg.q_in_dim());
      {
        auto q = in.q_in.row(0);
        std::copy(sc.fp.row(0).begin(), sc.fp.row(0).end(), q.begin());
        model_.time_encoder().encode_scalar(
            0.0, q.subspan(cfg.mem_dim, cfg.time_dim));
      }
      in.kv_in.resize(nb.size(), cfg.kv_in_dim());
      for (std::size_t j = 0; j < nb.size(); ++j)
        gather_kv_row(nb[j], std::max(0.0, t_event[i] - nb[j].ts), ctx,
                      sc.mem_row, in.kv_in.row(j));
      att->forward_into(sc.fp.row(0), in, sc.attn, embeddings.row(i));
    } else {
      const auto* sat = model_.simplified();
      sc.dts.resize(nb.size());
      for (std::size_t j = 0; j < nb.size(); ++j)
        sc.dts[j] = std::max(0.0, t_event[i] - nb[j].ts);
      sat->score_into(sc.dts, cfg.prune_budget, sc.score, sc.scores);
      const auto& scores = sc.scores;
      sc.v_in.resize(scores.keep.size(), cfg.kv_in_dim());
      for (std::size_t k = 0; k < scores.keep.size(); ++k)
        gather_kv_row(nb[scores.keep[k]], sc.dts[scores.keep[k]], ctx,
                      sc.mem_row, sc.v_in.row(k));
      sat->aggregate_into(sc.fp.row(0), scores, sc.v_in, sc.sat,
                          embeddings.row(i));
    }
  }
}

void InferenceEngine::read_footprint(const graph::BatchRange& r,
                                     std::vector<graph::NodeId>& out) const {
  out.clear();
  const auto edges = ds_.graph.edges(r);
  // Per unique endpoint, the stages sample neighbors at the vertex's most
  // recent in-batch event time — mirror that exactly so the footprint is a
  // superset of the gather/compute stages' reads.
  std::unordered_map<graph::NodeId, double> t_event;
  for (const auto& e : edges) {
    for (graph::NodeId v : {e.src, e.dst}) {
      auto [it, inserted] = t_event.try_emplace(v, e.ts);
      if (!inserted) it->second = std::max(it->second, e.ts);
    }
  }
  const std::size_t k = model_.config().num_neighbors;
  std::vector<graph::NeighborHit> hits;
  for (const auto& [v, t] : t_event) {
    state_->neighbors_into(v, t, k, hits);
    for (const auto& h : hits) out.push_back(h.node);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void InferenceEngine::reserve_workspace(std::size_t max_batch_edges) {
  reserve_context(ctx_, max_batch_edges);
}

void InferenceEngine::reserve_context(StageContext& ctx,
                                      std::size_t max_batch_edges) const {
  // Each edge touches at most two unique vertices.
  ctx.ws.reserve(2 * max_batch_edges, model_.config());
}

void InferenceEngine::warmup(const graph::BatchRange& range,
                             std::size_t batch_size) {
  const ModelConfig& cfg = model_.config();
  BatchWorkspace& ws = ctx_.ws;
  for (const auto& b : ds_.graph.fixed_size_batches(range.begin, range.end,
                                                    batch_size)) {
    const auto edges = ds_.graph.edges(b);
    // Memory + mailbox + neighbor updates only (skip the GNN stage).
    std::unordered_map<graph::NodeId, double> tev;
    for (const auto& e : edges) {
      tev[e.src] = std::max(tev.count(e.src) ? tev[e.src] : e.ts, e.ts);
      tev[e.dst] = std::max(tev.count(e.dst) ? tev[e.dst] : e.ts, e.ts);
    }
    // Out-of-core: warmup touches only this mini-batch's endpoints — pin
    // them for the duration of the mini-batch (the build_raw_mail calls
    // below hold two row spans at once).
    std::vector<graph::NodeId> pinned;
    if (state_->out_of_core()) {
      pinned.reserve(tev.size());
      for (const auto& [v, t] : tev) pinned.push_back(v);
      state_->pin_rows(pinned, /*with_mail=*/true);
    }
    std::vector<graph::NodeId> mail_nodes;
    for (const auto& [v, t] : tev)
      if (state_->mailbox.has_mail(v) && state_->mail_valid[v])
        mail_nodes.push_back(v);
    if (!mail_nodes.empty()) {
      // Same fused GRU path as process_batch, reusing the engine workspace,
      // so a warmed-up state is bit-identical to a streamed one.
      ws.x.resize(mail_nodes.size(), cfg.gru_in_dim());
      ws.h.resize(mail_nodes.size(), cfg.mem_dim);
      for (std::size_t k = 0; k < mail_nodes.size(); ++k) {
        const graph::NodeId v = mail_nodes[k];
        const auto mail = state_->mailbox.mail(v);
        auto row = ws.x.row(k);
        std::copy(mail.begin(), mail.end(), row.begin());
        model_.time_encoder().encode_scalar(
            std::max(0.0, tev[v] - state_->mailbox.mail_ts(v)),
            row.subspan(mail.size(), cfg.time_dim));
        const auto mem = state_->memory.get(v);
        std::copy(mem.begin(), mem.end(), ws.h.row(k).begin());
      }
      model_.updater().forward_into(ws.x, ws.h, ws.gru, ws.s_new,
                                    precision_);
      for (std::size_t k = 0; k < mail_nodes.size(); ++k) {
        state_->memory.set(mail_nodes[k], ws.s_new.row(k), tev[mail_nodes[k]]);
        state_->mail_valid[mail_nodes[k]] = 0;
      }
    }
    std::vector<float> raw(cfg.raw_mail_dim());
    for (const auto& e : edges) {
      const auto fe = cfg.edge_dim > 0
                          ? std::span<const float>(ds_.edge_features.row(e.eid))
                          : std::span<const float>{};
      build_raw_mail(state_->memory.get(e.src), state_->memory.get(e.dst), fe,
                     raw);
      state_->mailbox.put(e.src, raw, e.ts);
      state_->mail_valid[e.src] = 1;
      build_raw_mail(state_->memory.get(e.dst), state_->memory.get(e.src), fe,
                     raw);
      state_->mailbox.put(e.dst, raw, e.ts);
      state_->mail_valid[e.dst] = 1;
    }
    for (const auto& e : edges) state_->insert_edge(e);
    if (!pinned.empty()) state_->unpin_rows(pinned, /*with_mail=*/true);
  }
}

double InferenceEngine::evaluate_ap(const graph::BatchRange& range,
                                    const Decoder& dec, std::size_t batch_size,
                                    tgnn::Rng& rng) {
  if (dst_pool_.empty())
    throw std::logic_error("evaluate_ap: empty negative pool");
  std::vector<ScoredSample> samples;
  if (range.end > range.begin)
    samples.reserve(2 * (range.end - range.begin));  // one pos + one neg per edge
  Decoder::InferScratch dec_ws;
  // Score at the engine's precision: the decoder consumes this engine's
  // embeddings, so AP deltas measure the whole quantized path end to end.
  dec.prepare(precision_);
  std::vector<graph::NodeId> negs;
  for (const auto& b : ds_.graph.fixed_size_batches(range.begin, range.end,
                                                    batch_size)) {
    const auto edges = ds_.graph.edges(b);
    negs.resize(edges.size());
    for (auto& v : negs) v = dst_pool_[rng.uniform_int(dst_pool_.size())];
    const auto res = process_batch(b, negs);
    // Batched decoder: all 2E pair rows of the micro-batch through one
    // fused forward instead of 2E single-row calls.
    const std::size_t emb = res.embeddings.cols();
    dec_ws.x.resize(2 * edges.size(), 3 * emb);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      Decoder::build_pair(res.embedding_of(edges[k].src),
                          res.embedding_of(edges[k].dst),
                          dec_ws.x.row(2 * k));
      Decoder::build_pair(res.embedding_of(edges[k].src),
                          res.embedding_of(negs[k]), dec_ws.x.row(2 * k + 1));
    }
    const Tensor& logits = dec.forward_into(dec_ws.x, dec_ws, precision_);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      samples.push_back({logits(2 * k, 0), true});
      samples.push_back({logits(2 * k + 1, 0), false});
    }
  }
  return average_precision(std::move(samples));
}

std::vector<double> collect_dt_samples(const data::Dataset& ds,
                                       const graph::BatchRange& range) {
  std::vector<double> out;
  std::unordered_map<graph::NodeId, double> last;
  for (std::size_t i = range.begin; i < range.end; ++i) {
    const auto& e = ds.graph.edge(i);
    for (graph::NodeId v : {e.src, e.dst}) {
      auto it = last.find(v);
      if (it != last.end()) out.push_back(std::max(0.0, e.ts - it->second));
      last[v] = e.ts;
    }
  }
  if (out.empty()) out.push_back(1.0);
  return out;
}

}  // namespace tgnn::core
