// Staged TGNN inference per Algorithm 1.
//
// RuntimeState bundles the persistent vertex tables (memory, mailbox,
// neighbor structure); InferenceEngine streams edge batches through the
// model as an explicit four-stage pipeline — the software port of the
// paper's hardware dataflow (memory-update unit -> embedding unit ->
// decoder, wired by bounded FIFOs):
//
//   MemoryUpdate   : mailbox drain -> GRU -> updated node memory (Eq. 1)
//   NeighborGather : temporal neighbor sampling + CSR pack / kv-row staging
//   GnnCompute     : batched attention GEMMs -> dynamic embeddings (Eq. 2)
//   Decode         : state write-back (memory commit, fresh mail, neighbor
//                    table extension); pair scoring rides on the produced
//                    embeddings (evaluate_ap / the serving decoder)
//
// Each stage operates on a per-batch StageContext, so a caller holding two
// contexts can run stage k of batch i concurrently with stage k-1 of batch
// i+1 — the cross-batch overlap the runtime's pipelined ServingEngine
// schedules (with a vertex-footprint hazard check; see DESIGN.md "The
// staged serving pipeline"). process_batch is the serial driver: the four
// stages back to back on the engine's own context, bit-identical to the
// pre-staged monolithic loop.
//
// The stages are individually timed (PartTimes) to reproduce the Table I
// breakdown. Negative-sample vertices can be embedded alongside a batch
// (for AP evaluation) without mutating their state.
//
// Within a batch, temporal dependencies between its edges are ignored while
// state writes stay chronological — the standard TGN setup the paper adopts
// (§II-A) and the property the hardware Updater enforces on the FPGA side.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "data/dataset.hpp"
#include "graph/neighbor_table.hpp"
#include "graph/vertex_state.hpp"
#include "kernels/fused.hpp"
#include "tgnn/decoder.hpp"
#include "tgnn/metrics.hpp"
#include "tgnn/model.hpp"

namespace tgnn {
class Rng;
}

namespace tgnn::graph {
class ShardLockTable;
}

namespace tgnn::core {

/// Persistent per-vertex state. `use_fifo` selects the hardware-style
/// bounded FIFO neighbor table (§IV-A) over the unbounded software sampler.
///
/// `memory_budget_bytes` caps the RESIDENT size of the two big tables
/// (memory + mailbox): 0 (the default) keeps everything in flat RAM
/// exactly as before; a nonzero budget is split between the tables
/// proportionally to their total row footprint and each then spills its
/// cold pages through a graph::VertexStore. The neighbor table and the
/// mail_valid flags stay resident — they are an order of magnitude
/// smaller and are touched by footprint/admission logic outside the pin
/// windows.
struct RuntimeState {
  RuntimeState(graph::NodeId num_nodes, const ModelConfig& cfg, bool use_fifo,
               std::size_t memory_budget_bytes = 0);

  graph::VertexMemory memory;
  graph::VertexMailbox mailbox;
  std::unique_ptr<graph::NeighborFinder> finder;  ///< null if use_fifo
  std::unique_ptr<graph::NeighborTable> table;    ///< null if !use_fifo
  std::vector<std::uint8_t> mail_valid;  ///< consume-once flag per vertex

  /// Temporal neighbors of v strictly before t, at most k, oldest -> newest,
  /// filled into `out` (reusing its capacity — the hot path never
  /// allocates in steady state; there is deliberately no allocating
  /// overload).
  void neighbors_into(graph::NodeId v, double t, std::size_t k,
                      std::vector<graph::NeighborHit>& out) const;
  void insert_edge(const graph::TemporalEdge& e);
  void reset();

  // ---- out-of-core seam (every call a no-op when all-resident) ---------
  /// True iff either table runs with a budget (spill-backed).
  [[nodiscard]] bool out_of_core() const {
    return memory.out_of_core() || mailbox.out_of_core();
  }
  /// Pin `nodes`' memory rows (and mailbox rows too when `with_mail`)
  /// resident; the matching unpin releases them. Pin windows are what
  /// keep the engine's raw row pointers valid across stages.
  void pin_rows(std::span<const graph::NodeId> nodes, bool with_mail);
  void unpin_rows(std::span<const graph::NodeId> nodes, bool with_mail);
  /// Fault `nodes`' memory pages in without pinning (the pipelined
  /// scheduler's one-stage-early prefetch hook).
  void prefetch_rows(std::span<const graph::NodeId> nodes);
  /// Combined memory + mailbox store counters.
  [[nodiscard]] graph::VertexStoreStats store_stats() const;
  /// Flat-RAM footprint of the two tables at these dims — what a byte
  /// budget (or a "mem=50%" factory suffix) is measured against.
  [[nodiscard]] static std::size_t state_bytes(graph::NodeId num_nodes,
                                               const ModelConfig& cfg);
};

/// Per-batch functional output: the unique involved vertices and their
/// dynamic embeddings. (Hoisted to namespace scope so StageContext can hold
/// one; InferenceEngine::BatchResult remains an alias.)
struct BatchResult {
  std::vector<graph::NodeId> nodes;  ///< unique involved vertices
  Tensor embeddings;                 ///< [nodes.size(), emb_dim]
  std::unordered_map<graph::NodeId, std::size_t> index;
  [[nodiscard]] std::span<const float> embedding_of(graph::NodeId v) const {
    return embeddings.row(index.at(v));
  }
};

/// The explicit pipeline stages of one batch, in dataflow order. Values are
/// contiguous from 0 so schedulers can index FIFOs / workers by stage.
enum class Stage : std::size_t {
  kMemoryUpdate = 0,    ///< mailbox drain + GRU (Eq. 1)
  kNeighborGather = 1,  ///< neighbor sampling + CSR pack + kv-row staging
  kGnnCompute = 2,      ///< batched attention GEMMs (Eq. 2)
  kDecode = 3,          ///< pair scoring + chronological state write-back
};
inline constexpr std::size_t kNumStages = 4;

struct PartTimes {
  double sample = 0.0, memory = 0.0, gnn = 0.0, update = 0.0;  // seconds
  [[nodiscard]] double total() const { return sample + memory + gnn + update; }
  PartTimes& operator+=(const PartTimes& o) {
    sample += o.sample;
    memory += o.memory;
    gnn += o.gnn;
    update += o.update;
    return *this;
  }
};

/// Reusable scratch for one batch's trip through the stages. All per-batch
/// intermediates live here, sized on first use (or up-front via reserve())
/// and recycled, so steady-state batches do no heap allocation beyond the
/// returned BatchResult itself. One workspace per in-flight batch — the
/// serial engine owns one; the pipelined serving path owns one per
/// StageContext slot, which is what makes cross-batch stage overlap safe.
struct BatchWorkspace {
  /// Grow-don't-shrink sizing shared by every per-element buffer here: the
  /// one high-water-mark growth rule (geometric growth via std::vector,
  /// capacity kept until destruction) that reserve() and the ragged-batch
  /// overflow paths both use.
  template <typename T>
  static void grow_to(std::vector<T>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
  }

  std::vector<double> t_event;                        ///< per unique vertex
  std::vector<std::vector<graph::NeighborHit>> nbrs;  ///< per unique vertex
  std::vector<std::size_t> mail_rows;
  std::vector<const float*> mem_ptr;
  Tensor x;               ///< GRU gather [mail_rows, gru_in_dim]
  Tensor h;               ///< GRU state gather [mail_rows, mem_dim]
  Tensor s_new;           ///< fused-GRU output [mail_rows, mem_dim]
  kernels::GruScratch gru;  ///< fused-GRU gate buffers
  std::vector<float> raw;  ///< one raw-mail scratch row

  /// Per-thread GNN-stage scratch (index = OpenMP thread id). The batched
  /// pipeline uses it only for the gather loops (mem_row locked reads,
  /// per-node score scratch); the per-row pipeline for everything.
  struct GnnScratch {
    Tensor fp;             ///< [1, mem_dim] f'_i of the center vertex
    AttnNodeInput attn_in; ///< vanilla path: q/kv gather, resized in place
    Tensor v_in;           ///< simplified path: V gather for kept slots
    std::vector<double> dts;
    std::vector<float> mem_row;  ///< locked-read copy of a neighbor's memory
    // Fused-kernel scratch: projections, logits, and FTM input of the
    // attention variants (tgnn layer writes embeddings straight into the
    // batch result through these).
    VanillaAttention::InferScratch attn;
    SimplifiedAttention::InferScratch sat;
    SimplifiedAttention::ScoreScratch score;
    SimplifiedAttention::Scores scores;
  };
  std::vector<GnnScratch> gnn;

  /// Batch-level staging for the batched GNN stage: every per-event input
  /// is gathered once into these contiguous row-major matrices (neighbor
  /// rows packed CSR-style behind `seg`) by NeighborGather, each model
  /// stage then runs as a single batched GEMM in GnnCompute, and the final
  /// FTM GEMM scatters embeddings straight into the batch result.
  struct GnnBatch {
    std::vector<std::size_t> seg;  ///< [n_nodes + 1] CSR offsets into kv_in
    Tensor fp;                     ///< [n_nodes, mem_dim] f'_i rows
    Tensor q_in;                   ///< vanilla: [n_nodes, q_in_dim]
    Tensor kv_in;                  ///< [total, kv_in_dim] packed neighbor rows
    std::vector<float> logits;     ///< simplified: packed kept-slot logits
    std::vector<SimplifiedAttention::Scores> scores;  ///< per node
    VanillaAttention::BatchScratch attn;
    SimplifiedAttention::BatchScratch sat;
  };
  GnnBatch gb;

  /// Pre-size every buffer for batches of up to `max_nodes` unique vertices
  /// so the first measured batch already runs allocation-free. Growth
  /// policy: buffers sized here are high-water marks — a ragged batch that
  /// overflows them grows the underlying vector through grow_to() /
  /// Tensor::resize and the capacity is kept for every later batch; nothing
  /// ever shrinks until the workspace is destroyed.
  void reserve(std::size_t max_nodes, const ModelConfig& cfg);
};

/// Everything one batch carries between pipeline stages: its identity in
/// the stream, the per-batch workspace, the accumulated functional result,
/// and the per-stage timing. Carved out of the engine so several batches
/// can be in flight at once — the engine itself holds no per-batch state
/// during stage_run, only the shared RuntimeState (whose cross-batch
/// access the caller keeps hazard-free; see runtime/serving.hpp).
struct StageContext {
  graph::BatchRange range{0, 0};
  std::vector<graph::NodeId> extras;  ///< embedded without mutating state
  std::size_t num_real = 0;   ///< nodes with real events (commit state)
  double t_batch_end = 0.0;   ///< extras are embedded at this timestamp
  BatchResult res;            ///< filled across the stages
  PartTimes parts;            ///< per-stage timing (Table I breakdown)
  BatchWorkspace ws;          ///< all per-batch intermediates
  /// Out-of-core pin windows (empty on all-resident state): the batch's
  /// endpoint rows (memory + mailbox, pinned by stage_begin) and its
  /// sampled neighbors (memory only, pinned by NeighborGather). Both are
  /// released at the end of Decode — the raw row pointers the stages
  /// carry (mem_ptr, build_raw_mail spans) stay valid exactly that long.
  std::vector<graph::NodeId> pinned_nodes;
  std::vector<graph::NodeId> pinned_nbrs;
};

class InferenceEngine {
 public:
  using BatchResult = tgnn::core::BatchResult;

  /// Over a private, all-resident RuntimeState (a budgeted state is built
  /// by the caller and passed to the shared-state constructor below).
  InferenceEngine(const TgnModel& model, const data::Dataset& ds,
                  bool use_fifo_sampler = true);

  /// Operate over an externally owned RuntimeState instead of a private
  /// one. Several engines may share `state` — each keeps its own
  /// StageContext workspace, so N engines over one state are N execution
  /// lanes over one logical vertex store (the sharded runtime backend). The
  /// caller is responsible for never running two lanes on conflicting
  /// vertex sets; see set_shard_locks() for the one guarded exception.
  InferenceEngine(const TgnModel& model, const data::Dataset& ds,
                  RuntimeState& state);

  /// Process one batch of the edge stream (Alg. 1 loop body): stage_begin +
  /// the four stages in order on the engine's own context. extra_nodes are
  /// embedded too (using, but not mutating, their state).
  BatchResult process_batch(const graph::BatchRange& r,
                            std::span<const graph::NodeId> extra_nodes = {},
                            PartTimes* times = nullptr);

  // ---- staged execution -----------------------------------------------
  // The same batch loop, exposed stage by stage over caller-owned contexts
  // so a scheduler can overlap stages of adjacent batches. Contract:
  //   * stage_begin binds a batch to a context; stage_run must then be
  //     called once per Stage in enum order; stage_finish releases the
  //     result and the context may be reused.
  //   * stage_run calls on DISTINCT contexts are safe from different
  //     threads provided the in-flight batches' vertex footprints are
  //     disjoint (writes always; reads too unless shard locks are armed) —
  //     the engine touches no per-batch state outside the context.
  //   * interleaving with process_batch on the same engine is allowed
  //     between batches, not within one.

  /// Bind [r, extras] to `ctx`: collect the unique involved vertices and
  /// per-vertex event times. Reads only the immutable edge stream.
  void stage_begin(StageContext& ctx, const graph::BatchRange& r,
                   std::span<const graph::NodeId> extra_nodes = {});
  /// Execute one pipeline stage of the batch bound to `ctx`.
  void stage_run(Stage s, StageContext& ctx);
  /// Release the batch's functional result; `ctx` is reusable afterwards.
  BatchResult stage_finish(StageContext& ctx) { return std::move(ctx.res); }
  /// Abandon a batch mid-pipeline (a faulted stage): release its pin
  /// window and clear the context so it can be rebound. Safe before
  /// Decode has run — stages 0..2 write only the context, so an aborted
  /// batch leaves per-vertex state exactly as it was (no partial commit,
  /// no chronology break).
  void stage_abort(StageContext& ctx);

  /// Vertices a batch will READ beyond its own endpoints: the sampled
  /// temporal neighbors of every endpoint, from current state (sorted,
  /// deduplicated). Only meaningful while no concurrent batch writes r's
  /// endpoints (their neighbor rows are then quiescent) — the deterministic
  /// serving modes' exact-footprint query.
  void read_footprint(const graph::BatchRange& r,
                      std::vector<graph::NodeId>& out) const;

  /// Stream a range through memory/mailbox/neighbor updates WITHOUT
  /// computing embeddings — fast-forwards the state (used to warm up to the
  /// test split before evaluation).
  void warmup(const graph::BatchRange& range, std::size_t batch_size = 500);

  /// Temporal link-prediction AP over a range: for each edge, score the
  /// observed pair and one random negative destination.
  double evaluate_ap(const graph::BatchRange& range, const Decoder& dec,
                     std::size_t batch_size, tgnn::Rng& rng);

  void reset() { state_->reset(); }

  /// Parallelize the GNN stage across OpenMP threads (the multi-threaded
  /// CPU baseline of Table I; the thread count is whatever
  /// omp_set_num_threads was given). In batched mode this parallelizes the
  /// gather loops over vertices AND lets the batched GEMMs split their row
  /// panels across the team — threading over the batch matrix, not over
  /// events, so per-element accumulation order (and hence every bit of the
  /// output) is thread-count invariant.
  void set_parallel_gnn(bool on) { parallel_gnn_ = on; }

  /// Select the GNN-stage execution pipeline. Batched (default) gathers
  /// the whole micro-batch into contiguous matrices and runs each model
  /// stage as one batched kernel call; per-row is the legacy
  /// node-at-a-time path (its gather+compute both run inside GnnCompute).
  /// Both produce bit-identical embeddings (pinned by
  /// tests/tgnn/batched_inference_test.cpp) — the switch exists for those
  /// equivalence tests and for A/B latency measurements.
  void set_batched_gnn(bool on) { batched_gnn_ = on; }
  [[nodiscard]] bool batched_gnn() const { return batched_gnn_; }

  /// Numeric mode of the hot path (GRU, attention projections, decoder
  /// scoring). Switching away from fp32 snapshots the model's weights at
  /// reduced precision (TgnModel::prepare_precision) and forces the batched
  /// GNN pipeline — dynamic activation quantization amortizes only over
  /// batched GEMM panels, so the per-row path stays fp32-only. Persistent
  /// vertex state and every stage boundary remain fp32 regardless; see
  /// DESIGN.md "The quantized inference path". Engines pick up
  /// ModelConfig::inference_precision at construction; this overrides it.
  void set_precision(kernels::Precision p);
  [[nodiscard]] kernels::Precision precision() const { return precision_; }

  /// Arm concurrent-lane mode: while set, reads of vertex memory OUTSIDE
  /// the current batch take the vertex's shard lock (shared) and copy the
  /// row, and memory write-backs take it exclusively. This is the only
  /// vertex state two lanes processing write-disjoint batches can touch
  /// concurrently — everything else (mailbox, neighbor rows, memory of the
  /// batch's own vertices) is accessed only for the batch's endpoints,
  /// which the conflict-aware scheduler keeps disjoint across lanes.
  /// Pass nullptr to disarm (the serial default; zero overhead).
  void set_shard_locks(const graph::ShardLockTable* locks) {
    shard_locks_ = locks;
  }

  [[nodiscard]] RuntimeState& state() { return *state_; }
  [[nodiscard]] const RuntimeState& state() const { return *state_; }
  [[nodiscard]] const TgnModel& model() const { return model_; }
  [[nodiscard]] const data::Dataset& dataset() const { return ds_; }

  /// All destination node ids appearing in the dataset (negative pool).
  [[nodiscard]] const std::vector<graph::NodeId>& dst_pool() const {
    return dst_pool_;
  }

  /// Pre-size the serial context's workspace for batches of up to
  /// `max_batch_edges` edges (runtime backends call this once at warmup).
  void reserve_workspace(std::size_t max_batch_edges);
  /// Same sizing rule, applied to a caller-owned pipeline context.
  void reserve_context(StageContext& ctx, std::size_t max_batch_edges) const;

 private:
  void stage_memory_update(StageContext& ctx);
  void stage_neighbor_gather(StageContext& ctx);
  void stage_gnn_compute(StageContext& ctx);
  void stage_decode(StageContext& ctx);

  /// Memory row of v as this batch sees it: the (possibly GRU-updated)
  /// local row when v is in the batch, else the shared table — through v's
  /// shard lock into `scratch` in concurrent-lane mode.
  std::span<const float> memory_of(graph::NodeId v, const StageContext& ctx,
                                   std::vector<float>& scratch) const;
  /// f'_v written into `out` (memory_of + optional node-feature projection).
  void f_prime_of(graph::NodeId v, const StageContext& ctx,
                  std::vector<float>& scratch, std::span<float> out) const;
  /// One attention K/V input row [f'_j || e_ij || Phi(dt)] for neighbor
  /// `hit`, written into `row` (kv_in_dim wide). The ONE definition of the
  /// kv row layout — both GNN pipelines build every row through it, which
  /// is what keeps their gathers byte-identical.
  void gather_kv_row(const graph::NeighborHit& hit, double dt,
                     const StageContext& ctx, std::vector<float>& scratch,
                     std::span<float> row) const;

  /// The batched GNN pipeline, split at the stage boundary: gather stages
  /// every per-event input into GnnBatch (NeighborGather), compute runs
  /// the batched kernels and scatters embeddings (GnnCompute).
  void gnn_gather_batched(StageContext& ctx);
  void gnn_compute_batched(StageContext& ctx);
  /// The legacy per-row GNN path (gather + compute fused, inside
  /// GnnCompute); bit-identical to the batched path — see DESIGN.md.
  void gnn_stage_per_row(StageContext& ctx);

  /// Batched pipeline selection as actually executed: a reduced-precision
  /// engine always runs batched (quantization has nothing to amortize
  /// against on the per-row path).
  [[nodiscard]] bool use_batched_gnn() const {
    return batched_gnn_ || precision_ != kernels::Precision::kFp32;
  }

  const TgnModel& model_;
  const data::Dataset& ds_;
  std::unique_ptr<RuntimeState> owned_state_;  ///< null when state is shared
  RuntimeState* state_;
  std::vector<graph::NodeId> dst_pool_;
  bool parallel_gnn_ = false;
  bool batched_gnn_ = true;
  kernels::Precision precision_ = kernels::Precision::kFp32;
  const graph::ShardLockTable* shard_locks_ = nullptr;
  StageContext ctx_;  ///< the serial path's own context (process_batch)
};

/// Inter-event time gaps observed while streaming `range` — the dt samples
/// the LUT time encoder is fitted on (both mail ages and neighbor ages are
/// gaps of this same process).
std::vector<double> collect_dt_samples(const data::Dataset& ds,
                                       const graph::BatchRange& range);

}  // namespace tgnn::core
