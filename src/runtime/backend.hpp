// The unified runtime seam: one Backend interface in front of every
// execution path the paper compares — the reference CPU engine, the OpenMP
// multi-threaded CPU baseline, the analytic GPU model, APAN, and the
// cycle-simulated FPGA accelerator.
//
// A Backend owns its persistent vertex state (memory / mailbox / neighbor
// table) and its reusable batch workspace; backends built over the same
// model+dataset are fully independent streams. All of them speak the same
// contract:
//
//   process_batch(range, extras) -> BatchOutput{functional, latency, parts}
//
// where `functional` is always the real numerics (for modelled platforms the
// timing is a model but the embeddings are exact — the same split the
// paper's FPGA simulator makes), and `latency_s` is measured wall time or
// the platform model's estimate, flagged by `modelled_timing`.
//
// Backends are constructed through the string-keyed factory `make_backend`
// ("cpu" | "cpu-mt" | "sharded-cpu" | "gpu-sim" | "apan" | "fpga"); the
// engine-backed CPU keys additionally take a precision suffix
// ("cpu:int8" | "cpu-mt:bf16" | "sharded-cpu:int8" | ...":fp32") selecting
// the quantized inference path. See DESIGN.md for the registry and for how
// to add a new backend.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/gpu_sim.hpp"
#include "data/dataset.hpp"
#include "tgnn/inference.hpp"

namespace tgnn::baselines {
class Apan;
}

namespace tgnn::runtime {

/// Functional result shared by every backend (APAN converts its own).
using Functional = core::InferenceEngine::BatchResult;

struct BatchOutput {
  Functional functional;
  double latency_s = 0.0;  ///< measured wall time or platform-model estimate
  core::PartTimes parts;   ///< sample/memory/GNN/update split where reported
  bool modelled_timing = false;  ///< true when latency_s comes from a model
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Process one chronological batch of the edge stream; `extra_nodes` are
  /// embedded alongside it without mutating their state.
  virtual BatchOutput process_batch(
      const graph::BatchRange& r,
      std::span<const graph::NodeId> extra_nodes = {}) = 0;

  /// Fast-forward persistent state through [range] without producing
  /// embeddings, and size the batch workspace for steady-state serving.
  virtual void warmup(const graph::BatchRange& range) = 0;

  /// Drop all persistent state (memory, mailboxes, neighbor tables).
  virtual void reset() = 0;

  /// Registry key this backend was built under ("cpu", "fpga", ...).
  [[nodiscard]] virtual std::string name() const = 0;
  /// Human-readable platform description for bench banners and tables.
  [[nodiscard]] virtual std::string describe() const = 0;
  [[nodiscard]] virtual const data::Dataset& dataset() const = 0;

  /// Out-of-core vertex-store counters (hits/misses/evictions/spill
  /// traffic). All-zero on a backend running all-resident — the default
  /// implementation, overridden by the engine-backed CPU keys.
  [[nodiscard]] virtual graph::VertexStoreStats store_stats() const {
    return {};
  }

  /// Switch the numeric mode of the hot path at runtime — the serving
  /// engine's graceful-degradation seam (fp32 -> bf16 -> int8 under
  /// sustained overload, and back up when pressure clears). Must only be
  /// called with no batch in flight. Returns false when the backend has no
  /// runtime-switchable precision (the modelled platforms) — the engine
  /// then disables degradation rather than erroring.
  virtual bool set_precision(kernels::Precision p) {
    (void)p;
    return false;
  }
  /// Numeric mode the hot path currently runs in (kFp32 for backends
  /// without a switchable precision).
  [[nodiscard]] virtual kernels::Precision precision() const {
    return kernels::Precision::kFp32;
  }

  /// The engine's mutable per-vertex state, for checkpoint/restore through
  /// core::save_state / load_state. Null on modelled platforms that keep
  /// no restorable state of their own (apan); the engine-backed keys and
  /// simulators expose theirs.
  [[nodiscard]] virtual core::RuntimeState* runtime_state() { return nullptr; }
};

/// A backend whose engine exposes the staged pipeline (core::Stage): the
/// serving layer can run stage k of batch i concurrently with stage k-1 of
/// batch i+1 — the software port of the paper's hardware dataflow, where
/// the memory-update unit, embedding unit, and decoder overlap consecutive
/// event batches across bounded FIFOs.
///
/// A slot is one in-flight batch's StageContext. The caller (one
/// ServingEngine) drives each slot through begin_batch -> run_stage(each
/// Stage, in order) -> finish_batch, and guarantees:
///   * a slot is driven by one thread at a time (handoffs between
///     workers are synchronized),
///   * in-flight batches' WRITE footprints (edge endpoints) are pairwise
///     disjoint, and — unless race_free_reads() — their READ footprints
///     (read_footprint()) never overlap an in-flight batch's writes.
/// Under that contract, concurrent run_stage calls on distinct slots are
/// data-race-free and per-vertex state writes stay chronological.
///
/// Every ServingEngine mode drives these calls: a slot is served by one
/// worker per visit, whatever stage range the visit runs. Implemented by
/// "cpu", "cpu-mt" (read-tracked admission), and "sharded-cpu" (whose shard
/// locks make relaxed reads race-free; slot i runs on lane i % lanes()).
class StagedBackend {
 public:
  virtual ~StagedBackend() = default;

  /// (Re)create `slots` pipeline contexts, each workspace-reserved for
  /// batches of up to `max_batch_edges` edges. Called once before any
  /// staged execution; discards previous contexts.
  virtual void prepare_pipeline(std::size_t slots,
                                std::size_t max_batch_edges) = 0;
  [[nodiscard]] virtual std::size_t pipeline_slots() const = 0;

  /// Bind batch `r` to `slot` (vertex collection; reads only the immutable
  /// edge stream, so this may run before hazard admission).
  virtual void begin_batch(std::size_t slot, const graph::BatchRange& r) = 0;
  /// Execute one pipeline stage of the batch bound to `slot`.
  virtual void run_stage(core::Stage s, std::size_t slot) = 0;
  /// Release the slot's per-batch result and return its unique-vertex
  /// count (the profiler's fan-out signal); the slot is then reusable.
  virtual std::size_t finish_batch(std::size_t slot) = 0;
  /// Abandon the slot's batch after a faulted stage: release its pin
  /// window and clear the context. Legal at any point before kDecode has
  /// run — stages 0..2 write only the slot's context, so an aborted batch
  /// leaves per-vertex state untouched (no partial commit, chronology
  /// preserved). The slot is then reusable.
  virtual void abort_batch(std::size_t slot) = 0;

  /// Vertices the batch will READ beyond its own endpoints (the sampled
  /// temporal neighbors of every endpoint, from current state). Only safe
  /// to call while no in-flight batch writes r's endpoints.
  virtual void read_footprint(const graph::BatchRange& r,
                              std::vector<graph::NodeId>& out) const = 0;

  /// True when cross-batch neighbor-memory reads are internally
  /// synchronized (shard locks): the scheduler may then overlap a batch
  /// with writers of rows it merely reads (relaxed admission). When false,
  /// the scheduler must track read footprints regardless of the requested
  /// conflict policy — which incidentally makes execution deterministic.
  [[nodiscard]] virtual bool race_free_reads() const { return false; }

  /// Hint that `nodes`' vertex-state pages will be touched by a batch that
  /// just passed admission: an out-of-core store faults them in ahead of
  /// the stage that reads them (a multi-slot engine calls this with the
  /// write + read footprints it already computed). Purely advisory —
  /// default no-op, and a no-op on all-resident state.
  virtual void prefetch_rows(std::span<const graph::NodeId> nodes) {
    (void)nodes;
  }
};

/// A StagedBackend whose slots may run whole batches concurrently: up to
/// lanes() slots, each on its own execution lane (own workspace), over one
/// shared vertex state — the contract a multi-worker ServingEngine
/// schedules against ("sharded-cpu"; see DESIGN.md "The shard layer"). On
/// top of the StagedBackend contract the backend guarantees that reading a
/// sampled neighbor's memory row another lane writes is race-free (shard
/// locks).
class ConcurrentBackend : public Backend, public StagedBackend {
 public:
  /// Number of independent execution lanes (each with its own workspace).
  [[nodiscard]] virtual std::size_t lanes() const = 0;
};

/// Per-key construction knobs. `model` and `ds` passed to make_backend must
/// outlive the backend; so must `apan` when set.
struct BackendOptions {
  int threads = 0;  ///< "cpu-mt" worker count / "sharded-cpu" lane count;
                    ///< 0 = hardware concurrency
  std::size_t shards = 16;  ///< "sharded-cpu": vertex-state shard count
  std::string fpga_device = "u200";       ///< "fpga": "u200" | "zcu104"
  baselines::GpuSpec gpu;                 ///< "gpu-sim" platform (default Titan Xp)
  baselines::Apan* apan = nullptr;        ///< "apan": wrap this trained model
  std::uint64_t seed = 5;                 ///< "apan": seed when self-built
  std::size_t warmup_batch = 500;         ///< fast-forward batch size
  std::size_t max_batch_hint = 1024;      ///< workspace pre-sizing at warmup

  /// Numeric mode of the CPU execution backends' hot path. kFp32 defers to
  /// ModelConfig::inference_precision; a ":int8" / ":bf16" / ":fp32" key
  /// suffix ("cpu:int8") overrides both. Only the engine-backed keys
  /// (cpu | cpu-mt | sharded-cpu) accept a non-fp32 mode — the modelled
  /// platforms (gpu-sim, fpga, apan) reject the suffix.
  kernels::Precision precision = kernels::Precision::kFp32;

  /// Resident vertex-state budget in bytes for the engine-backed CPU keys
  /// (cpu | cpu-mt | sharded-cpu): 0 = all-resident (the default, exactly
  /// the pre-out-of-core behavior); nonzero spills cold memory/mailbox
  /// pages through graph::VertexStore. Also settable per key via a
  /// ":mem=<size>" suffix — "cpu:mem=64m", "sharded-cpu:int8:mem=10%"
  /// (bytes with optional k/m/g binary multiplier, or a percentage of
  /// RuntimeState::state_bytes). The modelled platforms reject an
  /// explicitly requested budget just like a precision suffix.
  std::size_t memory_budget = 0;

  BackendOptions();
};

/// Parse a "--memory_budget" / ":mem=" value: "0" = all-resident, plain
/// bytes, "64k" / "512m" / "2g" binary multiples, or "50%" of
/// `total_state_bytes`. Throws std::invalid_argument on malformed input
/// (including non-finite or size_t-overflowing values — "1e300g" and "nan"
/// are rejected, never silently truncated).
std::size_t parse_memory_budget(const std::string& spec,
                                std::size_t total_state_bytes);

/// A registry key split into its parts: "sharded-cpu:int8:mem=10%" ->
/// base "sharded-cpu", precision int8 (requested), memory budget resolved
/// against `total_state_bytes`, and the normalized display name ("cpu:fp32"
/// -> "cpu"). Pure string/number work — no model or dataset involved —
/// which is what makes it independently testable (and fuzzable).
struct ResolvedBackendKey {
  std::string base;
  std::string display;
  kernels::Precision precision = kernels::Precision::kFp32;
  bool precision_requested = false;  ///< suffix or options asked for it
  std::size_t memory_budget = 0;
  bool mem_requested = false;  ///< a mem= suffix was present
};

/// Split the ":"-suffixed registry key. `default_precision` is the
/// starting point (BackendOptions::precision, itself possibly overridden
/// by ModelConfig downstream); `total_state_bytes` anchors percentage
/// budgets. Throws std::invalid_argument on unknown suffixes or malformed
/// budgets. Does NOT validate the base against the registry — make_backend
/// does that with the full registry list in the message.
ResolvedBackendKey resolve_backend_key(const std::string& key,
                                       kernels::Precision default_precision,
                                       std::size_t total_state_bytes);

/// Build a backend by registry key. Throws std::invalid_argument for an
/// unknown key (the message lists the registry).
std::unique_ptr<Backend> make_backend(const std::string& key,
                                      const core::TgnModel& model,
                                      const data::Dataset& ds,
                                      const BackendOptions& opts = {});

/// Every key make_backend accepts, in registration order.
const std::vector<std::string>& backend_keys();

}  // namespace tgnn::runtime
