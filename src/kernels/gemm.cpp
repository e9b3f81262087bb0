#include "kernels/gemm.hpp"

#include <cstring>

#include "kernels/gemm_dispatch.hpp"

namespace tgnn::kernels {

namespace {

/// The packed element for panel column c of row kk of panel p: w's column
/// (p·kPanel + c), or 0 past the last column.
template <class F>
void for_each_packed(const float* w, std::size_t rows, std::size_t cols,
                     F&& f) {
  using detail::kPanel;
  const std::size_t np = detail::panel_count(rows);
  std::size_t idx = 0;
  for (std::size_t p = 0; p < np; ++p)
    for (std::size_t kk = 0; kk < cols; ++kk)
      for (std::size_t c = 0; c < kPanel; ++c, ++idx) {
        const std::size_t r = p * kPanel + c;
        f(idx, r < rows ? w[r * cols + kk] : 0.0f);
      }
}

void pack_into(const float* w, std::size_t rows, std::size_t cols,
               float* out) {
  for_each_packed(w, rows, cols,
                  [out](std::size_t i, float v) { out[i] = v; });
}

}  // namespace

void pack_weight(const float* w, std::size_t rows, std::size_t cols,
                 PackedWeight& out) {
  const std::size_t size = detail::panel_count(rows) * cols * detail::kPanel;
  if (out.rows == rows && out.cols == cols && out.data.size() == size) {
    bool same = true;
    for_each_packed(w, rows, cols, [&](std::size_t i, float v) {
      same = same && std::memcmp(&out.data[i], &v, sizeof v) == 0;
    });
    if (same) return;
  }
  out.data.resize(size);
  out.rows = rows;
  out.cols = cols;
  pack_into(w, rows, cols, out.data.data());
}

namespace detail {

const float* scratch_panels(const float* w, std::size_t n, std::size_t k) {
  thread_local AlignedVector<float> buf;
  buf.resize(panel_count(n) * k * kPanel);
  pack_into(w, n, k, buf.data());
  return buf.data();
}

}  // namespace detail

void gemm_nt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate) {
  detail::active_kernels().gemm(detail::Act::kNone, accumulate, a,
                                detail::scratch_panels(b, n, k), nullptr, c,
                                m, k, n);
}

void weighted_rowsum(const float* w, const float* rows, float* out,
                     std::size_t r, std::size_t n, bool accumulate) {
  if (!accumulate)
    for (std::size_t d = 0; d < n; ++d) out[d] = 0.0f;
  for (std::size_t j = 0; j < r; ++j) {
    const float wj = w[j];
    const float* row = rows + j * n;
#pragma omp simd
    for (std::size_t d = 0; d < n; ++d) out[d] += wj * row[d];
  }
}

}  // namespace tgnn::kernels
