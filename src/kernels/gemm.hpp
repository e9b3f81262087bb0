// Raw-pointer GEMM kernels for the inference hot path.
//
// The GEMM is an outer-product micro-kernel over a weight packed once into
// k-major panels of 16 output columns (PackedWeight): each step over the
// inner dimension broadcasts one input element per tile row and fuses it
// into 16-wide accumulators, so no output element ever needs a horizontal
// reduction. The kernels write into caller-owned buffers and never
// allocate in steady state — the fused layer (fused.hpp) builds every
// model kernel (GRU gates, attention projections, decoder) on top of them.
//
// Determinism: each output element is one sequential multiply-add chain
// over k, whatever the row count, tile shape or OpenMP thread count, so
// results are bit-identical across "cpu", "cpu-mt" and "sharded-cpu", and
// one m-row call equals m one-row calls. They differ from the scalar
// reference ops only by FMA rounding (~1e-7 relative), which is why the
// training/gradcheck path keeps the reference ops and tests pin
// fused-vs-reference parity to 1e-6.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace tgnn::kernels {

/// 64-byte-aligned storage: one packed panel row is one cache line.
template <class T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};
  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>& /*other*/) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept {
    ::operator delete(p, kAlign);
  }
  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// A weight W [rows, cols] (the nn::Linear layout, y = x·Wᵀ) repacked for
/// the micro-kernel: ceil(rows/16) panels of cols × 16 floats, k-major,
/// with the columns past `rows` zero. Built once per model at prepare time
/// (nn::Linear::prepare, nn::GruCell::prepare).
struct PackedWeight {
  AlignedVector<float> data;
  std::size_t rows = 0, cols = 0;
  [[nodiscard]] bool ready() const { return !data.empty(); }
};

/// Packs w [rows, cols] into `out`, writing nothing when `out` already
/// holds exactly this packing — so re-preparing an unchanged model is
/// read-only, even while another engine serves from it.
void pack_weight(const float* w, std::size_t rows, std::size_t cols,
                 PackedWeight& out);

/// c[m,n] = a[m,k] · b[n,k]ᵀ (b row-major as [n,k] — the weight-matrix
/// layout of nn::Linear). Adds into c when `accumulate`. b is packed into
/// per-thread scratch on every call; prepared weights go through fused.hpp.
void gemm_nt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate = false);

/// out[n] (+)= Σ_j w[j] · rows[j,n] — the attention read-out
/// (alpha-weighted sum of V rows). Adds into out when `accumulate`.
void weighted_rowsum(const float* w, const float* rows, float* out,
                     std::size_t r, std::size_t n, bool accumulate = false);

}  // namespace tgnn::kernels
