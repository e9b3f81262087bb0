// INTERNAL: the vocabulary shared by every ISA build of the GEMM kernels —
// the packed-panel geometry, the activation set and its one vectorized
// definition, and the threading threshold. Not part of the kernels/ public
// API — include gemm.hpp or fused.hpp instead.
//
// Numerics are written op by op. The library is compiled with
// -ffp-contract=off, so no a*b+c here is ever fused behind the source's
// back: the GEMM micro-kernel (gemm_panel.inc) fuses explicitly, and the
// activations below use only IEEE-exact operations (+ - * /, compares,
// selects, integer bit tricks). Their bits therefore do not depend on the
// ISA a TU is compiled for, nor on the vector width they run at.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tgnn::kernels::detail {

// Parallelize when the fork/join is amortized: either the output is large
// (the original reference-ops policy) or the call carries enough MACs —
// the batched-inference shapes, where splitting the row tiles across the
// OpenMP team is the "cpu-mt" scaling mechanism. Per-node attention shapes
// (m ~ 10 neighbors) stay under both bounds and run serial.
constexpr std::size_t kParallelThreshold = 64 * 64;   // m * n
constexpr std::size_t kParallelMacs = 1u << 17;       // m * k * n

inline bool parallel_worthwhile(std::size_t m, std::size_t k, std::size_t n) {
  return m * n >= kParallelThreshold || m * k * n >= kParallelMacs;
}

/// Output columns per packed weight panel: a weight [n, k] is stored as
/// ceil(n / kPanel) panels of k rows × kPanel columns, k-major, with the
/// columns past n zero (see pack_weight in gemm.hpp).
constexpr std::size_t kPanel = 16;

constexpr std::size_t panel_count(std::size_t n) {
  return (n + kPanel - 1) / kPanel;
}

enum class Act { kNone, kSigmoid, kTanh, kRelu };

// ---- vectorized activations -------------------------------------------------
// V is a GCC vector of floats; `x < y` on it yields the matching signed
// int32 vector, which is what the bit tricks below operate on.
//
// Internal linkage: TUs built for different ISAs instantiate these for the
// same vector types, and a shared (weak) symbol would let the linker run
// one TU's AVX-512 code from another's baseline caller.
namespace {

/// Reinterpret the bits of one same-sized value as another type.
template <class To, class From>
inline To bits_as(From v) {
  static_assert(sizeof(To) == sizeof(From));
  To t;
  __builtin_memcpy(&t, &v, sizeof t);
  return t;
}

/// Broadcast one float to every lane. s − (+0) is s exactly (−0 and NaN
/// included), and the compiler folds it to a single broadcast.
template <class V>
inline V splat(float s) {
  return s - V{};
}

/// e^x for x in [-87, 88] (clamped there; NaN passes through): Cephes
/// expf's range reduction and polynomial, x = n·ln2 + r with n rounded to
/// nearest and |r| <= ln2/2, scaled by 2^n built in the exponent bits.
template <class V>
inline V exp_v(V x) {
  using VI = decltype(x < x);
  x = x < -87.0f ? splat<V>(-87.0f) : x;
  x = x > 88.0f ? splat<V>(88.0f) : x;
  // Round x·log2(e) to nearest through the 1.5·2^23 magic constant: the
  // sum's low mantissa bits are then n in two's complement.
  const V magic = splat<V>(12582912.0f);
  const V t = x * 1.44269504088896341f + magic;
  const V n = t - magic;
  V r = x - n * 0.693359375f;
  r = r - n * -2.12194440e-4f;
  const V z = r * r;
  V p = r * 1.9875691500e-4f + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * z + r + 1.0f;
  const VI e = (bits_as<VI>(t) - bits_as<VI>(magic) + 127) << 23;
  return p * bits_as<V>(e);
}

/// 1 / (1 + e^-x).
template <class V>
inline V sigmoid_v(V x) {
  return 1.0f / (exp_v(-x) + 1.0f);
}

/// tanh(x), odd by construction: Cephes tanhf's polynomial below |x| =
/// 0.625, 1 − 2/(e^{2|x|} + 1) above it, and the sign bit of x put back
/// last (so tanh(−0) = −0 and NaN stays NaN).
template <class V>
inline V tanh_v(V x) {
  using VI = decltype(x < x);
  const VI bits = bits_as<VI>(x);
  const V ax = bits_as<V>(bits & 0x7fffffff);
  const V z = ax * ax;
  V p = z * -5.70498872745e-3f + 2.06390887954e-2f;
  p = p * z - 5.37397155531e-2f;
  p = p * z + 1.33314422036e-1f;
  p = p * z - 3.33332819422e-1f;
  const V small = p * z * ax + ax;
  const V large = 1.0f - 2.0f / (exp_v(ax + ax) + 1.0f);
  const V t = ax < 0.625f ? small : large;
  return bits_as<V>(bits_as<VI>(t) | (bits & INT32_MIN));
}

template <Act A, class V>
inline V activate_v(V v) {
  if constexpr (A == Act::kSigmoid) return sigmoid_v(v);
  if constexpr (A == Act::kTanh) return tanh_v(v);
  if constexpr (A == Act::kRelu) return v > 0.0f ? v : V{};
  return v;
}

/// One lane of the vector definition — the scalar form every scalar
/// caller uses, so a scalar and a vector epilogue give the same bits.
template <Act A>
inline float activate(float v) {
  typedef float v4 __attribute__((vector_size(4 * sizeof(float))));
  return activate_v<A>(splat<v4>(v))[0];
}

}  // namespace

}  // namespace tgnn::kernels::detail
