#include "kernels/segment.hpp"

#include <cmath>

#include "kernels/gemm.hpp"
#include "tensor/ops.hpp"

namespace tgnn::kernels {

void segment_attention_logits(const float* q, const float* k_rows,
                              std::span<const std::size_t> seg,
                              std::size_t emb, float* out) {
  const std::size_t n_segs = seg.size() - 1;
  for (std::size_t s = 0; s < n_segs; ++s) {
    const std::size_t lo = seg[s], hi = seg[s + 1];
    if (hi == lo) continue;
    const std::size_t len = hi - lo;
    // Same m=1 gemm + scale pass the per-row path runs per node.
    gemm_nt(q + s * emb, k_rows + lo * emb, out + lo, 1, emb, len);
    const float scale = 1.0f / std::sqrt(static_cast<float>(len));
    for (std::size_t r = lo; r < hi; ++r) out[r] *= scale;
  }
}

void segment_softmax(float* v, std::span<const std::size_t> seg) {
  const std::size_t n_segs = seg.size() - 1;
  for (std::size_t s = 0; s < n_segs; ++s) {
    const std::size_t lo = seg[s], hi = seg[s + 1];
    if (hi > lo) ops::softmax_span({v + lo, hi - lo});
  }
}

void segment_weighted_rowsum(const float* w, const float* rows,
                             std::span<const std::size_t> seg, std::size_t n,
                             float* out, std::size_t out_stride) {
  const std::size_t n_segs = seg.size() - 1;
  for (std::size_t s = 0; s < n_segs; ++s) {
    const std::size_t lo = seg[s], hi = seg[s + 1];
    weighted_rowsum(w + lo, rows + lo * n, out + s * out_stride, hi - lo, n);
  }
}

}  // namespace tgnn::kernels
