#include "runtime/backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "baselines/apan.hpp"
#include "fpga/accelerator.hpp"
#include "runtime/cpu_backend.hpp"

namespace tgnn::runtime {

BackendOptions::BackendOptions() : gpu(baselines::titan_xp()) {}

namespace {

/// "gpu-sim": exact functional numerics from the reference engine, batch
/// latency from the analytic roofline + kernel-launch GPU model — the same
/// functional/timing split the FPGA simulator makes.
class GpuSimBackend final : public Backend {
 public:
  GpuSimBackend(const core::TgnModel& model, const data::Dataset& ds,
                const BackendOptions& opts)
      : engine_(model, ds, /*use_fifo=*/true),
        sim_(opts.gpu, model.config()),
        opts_(opts) {}

  BatchOutput process_batch(const graph::BatchRange& r,
                            std::span<const graph::NodeId> extras) override {
    BatchOutput out;
    out.functional = engine_.process_batch(r, extras);
    const std::size_t n_emb = out.functional.nodes.size();
    out.latency_s = sim_.batch_seconds(r.size(), n_emb);
    out.parts = sim_.batch_parts(r.size(), n_emb);
    out.modelled_timing = true;
    return out;
  }

  void warmup(const graph::BatchRange& range) override {
    engine_.reserve_workspace(opts_.max_batch_hint);
    engine_.warmup(range, opts_.warmup_batch);
  }

  void reset() override { engine_.reset(); }

  [[nodiscard]] std::string name() const override { return "gpu-sim"; }
  [[nodiscard]] std::string describe() const override {
    return sim_.spec().name + " (modelled roofline + launch overhead)";
  }
  [[nodiscard]] const data::Dataset& dataset() const override {
    return engine_.dataset();
  }

  [[nodiscard]] core::RuntimeState* runtime_state() override {
    return &engine_.state();
  }

 private:
  core::InferenceEngine engine_;
  baselines::GpuSim sim_;
  BackendOptions opts_;
};

/// "apan": the asynchronous-propagation comparator. Functional output is
/// APAN's own mailbox-attention embedding; latency is the measured
/// synchronous path (mail delivery is asynchronous and excluded).
class ApanBackend final : public Backend {
 public:
  ApanBackend(const core::TgnModel& model, const data::Dataset& ds,
              const BackendOptions& opts)
      : ds_(ds) {
    if (opts.apan != nullptr) {
      apan_ = opts.apan;
    } else {
      baselines::ApanConfig cfg;
      cfg.edge_dim = ds.edge_dim();
      cfg.node_dim = ds.node_dim();
      cfg.emb_dim = model.config().emb_dim;
      owned_ = std::make_unique<baselines::Apan>(cfg, ds, opts.seed);
      apan_ = owned_.get();
    }
  }

  BatchOutput process_batch(const graph::BatchRange& r,
                            std::span<const graph::NodeId> extras) override {
    auto res = apan_->process_batch(r, extras);
    BatchOutput out;
    out.functional.nodes = std::move(res.nodes);
    out.functional.embeddings = std::move(res.embeddings);
    out.functional.index = std::move(res.index);
    out.latency_s = res.latency_s;
    return out;
  }

  void warmup(const graph::BatchRange& range) override {
    apan_->fast_forward(range);
  }

  void reset() override { apan_->reset_state(); }

  [[nodiscard]] std::string name() const override { return "apan"; }
  [[nodiscard]] std::string describe() const override {
    return "APAN mailbox attention, K=" +
           std::to_string(apan_->config().mailbox_size) + " (measured)";
  }
  [[nodiscard]] const data::Dataset& dataset() const override { return ds_; }

 private:
  const data::Dataset& ds_;
  baselines::Apan* apan_ = nullptr;
  std::unique_ptr<baselines::Apan> owned_;
};

/// "fpga": the co-designed accelerator — exact functional numerics, latency
/// from the cycle-level reservation-table simulation.
class FpgaBackend final : public Backend {
 public:
  FpgaBackend(const core::TgnModel& model, const data::Dataset& ds,
              const BackendOptions& opts)
      : device_key_(opts.fpga_device), ds_(ds),
        acc_(model, ds, design_for(opts.fpga_device),
             device_for(opts.fpga_device)),
        opts_(opts) {}

  static fpga::DesignConfig design_for(const std::string& dev) {
    if (dev == "u200") return fpga::u200_design();
    if (dev == "zcu104") return fpga::zcu104_design();
    throw std::invalid_argument("fpga backend: unknown device '" + dev +
                                "' (u200 | zcu104)");
  }
  static fpga::FpgaDevice device_for(const std::string& dev) {
    return dev == "u200" ? fpga::alveo_u200() : fpga::zcu104();
  }

  BatchOutput process_batch(const graph::BatchRange& r,
                            std::span<const graph::NodeId> extras) override {
    auto res = acc_.process_batch(r, extras);
    BatchOutput out;
    out.functional = std::move(res.functional);
    out.latency_s = res.latency_s;
    out.modelled_timing = true;
    return out;
  }

  void warmup(const graph::BatchRange& range) override {
    acc_.engine().reserve_workspace(opts_.max_batch_hint);
    acc_.warmup(range);
  }

  void reset() override { acc_.reset(); }

  [[nodiscard]] std::string name() const override { return "fpga"; }
  [[nodiscard]] std::string describe() const override {
    return acc_.device().name + ", " + std::to_string(acc_.design().ncu) +
           " CU @ " + std::to_string(static_cast<int>(acc_.design().freq_mhz)) +
           " MHz (cycle-simulated)";
  }
  [[nodiscard]] const data::Dataset& dataset() const override { return ds_; }

  [[nodiscard]] fpga::Accelerator& accelerator() { return acc_; }

  [[nodiscard]] core::RuntimeState* runtime_state() override {
    return &acc_.engine().state();
  }

 private:
  std::string device_key_;
  const data::Dataset& ds_;
  fpga::Accelerator acc_;
  BackendOptions opts_;
};

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

}  // namespace

StagedBackend& staged_backend(Backend& b, const std::string& who) {
  auto* staged = dynamic_cast<StagedBackend*>(&b);
  if (staged == nullptr)
    throw std::invalid_argument(
        who + ": backend '" + b.name() +
        "' is not staged (cpu | cpu-mt | sharded-cpu); the modelled "
        "platforms run offline through drive_batches");
  return *staged;
}

std::size_t parse_memory_budget(const std::string& spec,
                                std::size_t total_state_bytes) {
  if (spec.empty())
    throw std::invalid_argument("parse_memory_budget: empty spec");
  std::size_t idx = 0;
  double value = 0.0;
  try {
    value = std::stod(spec, &idx);
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_memory_budget: malformed '" + spec +
                                "'");
  }
  if (value < 0.0)
    throw std::invalid_argument("parse_memory_budget: negative '" + spec +
                                "'");
  const std::string unit = spec.substr(idx);
  double scale = 1.0;
  if (unit == "%")
    scale = static_cast<double>(total_state_bytes) / 100.0;
  else if (unit == "k" || unit == "K")
    scale = 1024.0;
  else if (unit == "m" || unit == "M")
    scale = 1024.0 * 1024.0;
  else if (unit == "g" || unit == "G")
    scale = 1024.0 * 1024.0 * 1024.0;
  else if (!unit.empty())
    throw std::invalid_argument("parse_memory_budget: unknown unit '" + unit +
                                "' in '" + spec + "' (k | m | g | %)");
  // Guard the float->size_t cast: stod accepts "nan" (which sails past the
  // negative check) and values like "1e300" that a multiplier pushes to
  // infinity — both are UB to cast. Compare against 2^64 exactly (max
  // size_t rounds UP to it as a double, so >= is the correct exclusion).
  const double bytes = value * scale;
  constexpr double kSizeLimit = 18446744073709551616.0;  // 2^64
  if (!std::isfinite(bytes) || bytes >= kSizeLimit)
    throw std::invalid_argument("parse_memory_budget: '" + spec +
                                "' is not a representable byte count");
  return static_cast<std::size_t>(bytes);
}

ResolvedBackendKey resolve_backend_key(const std::string& key,
                                       kernels::Precision default_precision,
                                       std::size_t total_state_bytes) {
  // Split optional ":"-separated suffixes off the registry key: a numeric
  // mode ("fp32" | "int8") and/or a resident-state budget ("mem=<size>"),
  // e.g. "sharded-cpu:int8:mem=10%".
  ResolvedBackendKey r;
  r.precision = default_precision;
  r.precision_requested = default_precision != kernels::Precision::kFp32;
  auto pos = key.find(':');
  r.base = key.substr(0, pos);
  while (pos != std::string::npos) {
    const auto next = key.find(':', pos + 1);
    const std::string part = key.substr(
        pos + 1, (next == std::string::npos ? key.size() : next) - pos - 1);
    if (part.rfind("mem=", 0) == 0) {
      r.memory_budget = parse_memory_budget(part.substr(4), total_state_bytes);
      r.mem_requested = true;
    } else if (kernels::parse_precision(part, r.precision)) {
      r.precision_requested = true;
    } else {
      throw std::invalid_argument(
          "make_backend: unknown suffix '" + part + "' in key '" + key +
          "' (fp32 | int8 | mem=<size>)");
    }
    pos = next;
  }
  // display reflects the EFFECTIVE mode, normalized: "cpu:fp32" -> "cpu",
  // and a default-driven int8 shows up as "cpu:int8" too.
  r.display = r.precision == kernels::Precision::kFp32
                  ? r.base
                  : r.base + ":" + kernels::precision_name(r.precision);
  return r;
}

std::unique_ptr<Backend> make_backend(const std::string& key,
                                      const core::TgnModel& model,
                                      const data::Dataset& ds,
                                      const BackendOptions& opts) {
  // Resolution order for each suffix: key suffix > BackendOptions >
  // ModelConfig (precision only).
  ResolvedBackendKey r = resolve_backend_key(
      key, opts.precision,
      core::RuntimeState::state_bytes(ds.graph.num_nodes(), model.config()));
  BackendOptions eff = opts;
  if (r.mem_requested) eff.memory_budget = r.memory_budget;
  eff.precision = r.precision_requested ? r.precision
                                        : model.config().inference_precision;
  const std::string& base = r.base;
  const bool requested = r.precision_requested;
  const bool mem_requested = r.mem_requested;

  // The display name must track the EFFECTIVE precision, which may have
  // just come from ModelConfig rather than the key.
  const std::string display =
      eff.precision == kernels::Precision::kFp32
          ? base
          : base + ":" + kernels::precision_name(eff.precision);
  // The three CPU keys are points of one {threads, lanes, shards} space.
  if (base == "cpu")
    return std::make_unique<CpuBackend>(display, model, ds, /*threads=*/1,
                                        /*lanes=*/1, /*shards=*/0, eff);
  if (base == "cpu-mt")
    return std::make_unique<CpuBackend>(display, model, ds,
                                        resolve_threads(eff.threads),
                                        /*lanes=*/1, /*shards=*/0, eff);
  if (base == "sharded-cpu") {
    // Locks stay armed even at one lane: the key promises race-free reads.
    if (eff.shards == 0)
      throw std::invalid_argument(
          "make_backend: sharded-cpu needs shards >= 1");
    return std::make_unique<CpuBackend>(
        display, model, ds, /*threads=*/1,
        static_cast<std::size_t>(resolve_threads(eff.threads)), eff.shards,
        eff);
  }

  // The modelled / comparator platforms have no reduced-precision datapath;
  // an explicitly requested mode there would silently measure the wrong
  // thing. (ModelConfig::inference_precision is not a request — the
  // modelled platforms' reference engines pick it up on their own.) The
  // same goes for a key-requested memory budget: their timing models know
  // nothing about spill latency. An options-level budget is merely ignored
  // — benches set one BackendOptions for mixed platform rows.
  if (requested && eff.precision != kernels::Precision::kFp32)
    throw std::invalid_argument(
        "make_backend: backend '" + base + "' does not support precision '" +
        kernels::precision_name(eff.precision) +
        "' (only cpu | cpu-mt | sharded-cpu run the quantized path)");
  if (mem_requested)
    throw std::invalid_argument(
        "make_backend: backend '" + base +
        "' does not support a memory budget (only cpu | cpu-mt | sharded-cpu "
        "run the out-of-core vertex store)");

  if (base == "gpu-sim") return std::make_unique<GpuSimBackend>(model, ds, eff);
  if (base == "apan") return std::make_unique<ApanBackend>(model, ds, eff);
  if (base == "fpga") return std::make_unique<FpgaBackend>(model, ds, eff);

  std::string registry;
  for (const auto& k : backend_keys())
    registry += (registry.empty() ? "" : " | ") + k;
  throw std::invalid_argument("make_backend: unknown key '" + key +
                              "' (registry: " + registry + ")");
}

const std::vector<std::string>& backend_keys() {
  static const std::vector<std::string> keys = {
      "cpu", "cpu-mt", "sharded-cpu", "gpu-sim", "apan", "fpga"};
  return keys;
}

}  // namespace tgnn::runtime
