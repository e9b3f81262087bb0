#include "tgnn/model.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace tgnn::core {

TgnModel::TgnModel(const ModelConfig& cfg, std::uint64_t seed) : cfg_(cfg) {
  tgnn::Rng rng(seed);

  if (cfg.time_encoder == TimeEncoderKind::kCos) {
    time_enc_ = std::make_unique<CosTimeEncoder>(cfg.time_dim, rng);
  } else {
    auto lut = std::make_unique<LutTimeEncoder>(cfg.lut_bins, cfg.time_dim);
    lut_ = lut.get();
    time_enc_ = std::move(lut);
  }

  updater_ = MemoryUpdater(cfg, rng);

  if (cfg.attention == AttentionKind::kVanilla)
    vanilla_ = std::make_unique<VanillaAttention>(cfg, rng);
  else
    sat_ = std::make_unique<SimplifiedAttention>(cfg, rng);

  if (cfg.node_dim > 0)
    ws_ = std::make_unique<nn::Linear>("node_proj", cfg.node_dim, cfg.mem_dim,
                                       rng);

  for (auto* p : time_enc_->parameters()) params_.add(p);
  params_.add_all(updater_.parameters());
  if (vanilla_) params_.add_all(vanilla_->parameters());
  if (sat_) params_.add_all(sat_->parameters());
  if (ws_) params_.add_all(ws_->parameters());
}

void TgnModel::fit_lut(const std::vector<double>& dt_samples) {
  if (!lut_) return;
  tgnn::Rng rng(0xF17);
  CosTimeEncoder init(cfg_.time_dim, rng);
  lut_->fit(dt_samples, &init);
}

void TgnModel::f_prime(std::span<const float> s, std::span<const float> f_node,
                       std::span<float> out) const {
  if (out.size() != cfg_.mem_dim)
    throw std::invalid_argument("f_prime: bad output size");
  std::copy(s.begin(), s.end(), out.begin());
  if (ws_) {
    if (f_node.size() != cfg_.node_dim)
      throw std::invalid_argument("f_prime: bad node-feature size");
    // out += W_s f + b_s (row-vector affine, done scalar: node projection is
    // once per involved vertex, not hot).
    for (std::size_t o = 0; o < cfg_.mem_dim; ++o) {
      float acc = ws_->b.value[o];
      for (std::size_t i = 0; i < cfg_.node_dim; ++i)
        acc += ws_->w.value(o, i) * f_node[i];
      out[o] += acc;
    }
  }
}

void TgnModel::prepare_precision(kernels::Precision p) const {
  updater_.prepare(p);
  if (vanilla_) vanilla_->prepare(p);
  if (sat_) sat_->prepare(p);
}

void TgnModel::refresh_prepared() const {
  // prepare_precision snapshots every layer together, so the GRU's
  // snapshots say which precisions are live.
  if (updater_.gru.pw.ready()) prepare_precision(kernels::Precision::kFp32);
  if (updater_.gru.qw.ready()) prepare_precision(kernels::Precision::kInt8);
}

}  // namespace tgnn::core
