// TGN-attn model assembly: time encoder + GRU memory updater + one of the
// two attention aggregators + (optional) node-feature projection W_s of
// Eq. 11. Owns the parameter registry handed to the optimizer.
//
// The model is *stateless* with respect to the graph: persistent vertex
// state (memory / mailbox / neighbor table) lives in RuntimeState
// (inference.hpp) so that several engines (CPU baseline, FPGA functional
// sim, teacher vs student during distillation) can run the same weights
// over independent streams.
#pragma once

#include <memory>

#include "nn/linear.hpp"
#include "tgnn/attention.hpp"
#include "tgnn/config.hpp"
#include "tgnn/lut_time_encoder.hpp"
#include "tgnn/memory_updater.hpp"
#include "tgnn/simplified_attention.hpp"
#include "tgnn/time_encoder.hpp"

namespace tgnn::core {

class TgnModel {
 public:
  TgnModel(const ModelConfig& cfg, std::uint64_t seed);

  [[nodiscard]] const ModelConfig& config() const { return cfg_; }

  /// Fit the LUT time encoder's bin boundaries (no-op for the cos encoder).
  /// `dt_samples` should be representative time gaps from the training
  /// stream; entries are initialized from a cos encoder evaluated at bin
  /// medians (§III-C: "learned in the training process" — this is the init).
  void fit_lut(const std::vector<double>& dt_samples);

  [[nodiscard]] TimeEncoderBase& time_encoder() { return *time_enc_; }
  [[nodiscard]] const TimeEncoderBase& time_encoder() const {
    return *time_enc_;
  }
  /// Non-null iff config().time_encoder == kLut.
  [[nodiscard]] LutTimeEncoder* lut_encoder() { return lut_; }
  [[nodiscard]] const LutTimeEncoder* lut_encoder() const { return lut_; }

  [[nodiscard]] MemoryUpdater& updater() { return updater_; }
  [[nodiscard]] const MemoryUpdater& updater() const { return updater_; }

  /// Exactly one of these is non-null, per config().attention.
  [[nodiscard]] VanillaAttention* vanilla() { return vanilla_.get(); }
  [[nodiscard]] const VanillaAttention* vanilla() const { return vanilla_.get(); }
  [[nodiscard]] SimplifiedAttention* simplified() { return sat_.get(); }
  [[nodiscard]] const SimplifiedAttention* simplified() const {
    return sat_.get();
  }

  /// Node-feature projection W_s f_i + b_s (Eq. 11); null if node_dim == 0.
  [[nodiscard]] nn::Linear* node_proj() { return ws_.get(); }
  [[nodiscard]] const nn::Linear* node_proj() const { return ws_.get(); }

  /// f'_i = s_i (+ W_s f_i + b_s if node features exist). Writes into `out`.
  void f_prime(std::span<const float> s, std::span<const float> f_node,
               std::span<float> out) const;

  /// One-time snapshot of the inference hot path's weights (GRU +
  /// attention projections) at precision p: packed fp32 panels or int8.
  /// node_proj / f_prime stay unpacked fp32: they run per row in the
  /// gather stage. Derived-cache mutation only, so const — callable on
  /// shared model references; rewrites a snapshot only when its bytes
  /// change.
  void prepare_precision(kernels::Precision p) const;
  /// Re-prepares every precision already prepared — call after the
  /// weights change under live engines (load_checkpoint does).
  void refresh_prepared() const;

  [[nodiscard]] nn::ParamStore& params() { return params_; }

 private:
  ModelConfig cfg_;
  std::unique_ptr<TimeEncoderBase> time_enc_;
  LutTimeEncoder* lut_ = nullptr;  ///< alias into time_enc_ when LUT
  MemoryUpdater updater_;
  std::unique_ptr<VanillaAttention> vanilla_;
  std::unique_ptr<SimplifiedAttention> sat_;
  std::unique_ptr<nn::Linear> ws_;
  nn::ParamStore params_;
};

}  // namespace tgnn::core
