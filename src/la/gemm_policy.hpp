// Runtime policy for the dense matrix-multiply engine (a common/policy.hpp
// policy): the process picks one of two kernel implementations for every
// gemm()/hemm() call,
//
//   CHASE_GEMM_KERNEL = naive | micro   (default: micro)
//
//   naive — unblocked triple loop; the reference oracle every other kernel
//           is validated against (tests/la) and the Gflop/s floor the bench
//           trajectory measures speedups from.
//   micro — five-loop BLIS-style engine: cache blocking with packed panels
//           laid out as mr x kc / kc x nr micro-panels consumed by a
//           register-tiled mr x nr micro-kernel (src/la/gemm_micro.hpp). It
//           also engages the Hermitian-aware hemm() engine.
//
// Per call: override > the per-(scalar type, shape class) winner of a loaded
// machine profile > micro (DESIGN.md §15).
#pragma once

#include <optional>
#include <string_view>

#include "common/policy.hpp"
#include "common/scalar.hpp"
#include "la/matrix.hpp"
#include "perf/tuned.hpp"

namespace chase::la {

enum class GemmKernel : int { kNaive = 0, kMicro };

inline constinit policy::Policy<GemmKernel, 2> gemm_policy{
    "CHASE_GEMM_KERNEL", {"naive", "micro"}, GemmKernel::kMicro};
using ScopedGemmKernel = policy::Pin<gemm_policy>;

inline std::string_view gemm_kernel_name(GemmKernel k) {
  return gemm_policy.name(k);
}
inline std::optional<GemmKernel> parse_gemm_kernel(std::string_view name) {
  return gemm_policy.parse(name);
}

/// Per-call Tracker counter name for a kernel ("la.kernel.<name>.calls").
inline std::string_view gemm_kernel_counter(GemmKernel k) {
  return k == GemmKernel::kNaive ? "la.kernel.naive.calls"
                                 : "la.kernel.micro.calls";
}

/// perf::ScalarTag of a kernel instantiation (the tuned-table row key).
template <typename T>
constexpr perf::ScalarTag scalar_tag() {
  if constexpr (kIsComplex<T>) {
    return sizeof(RealType<T>) == 4 ? perf::ScalarTag::kC32
                                    : perf::ScalarTag::kC64;
  } else {
    return sizeof(T) == 4 ? perf::ScalarTag::kF32 : perf::ScalarTag::kF64;
  }
}

/// Shape-oblivious effective policy: the override, else the default.
inline GemmKernel gemm_kernel() { return gemm_policy.resolve(); }

/// Kernel for one m x n x k product of scalar class `tag`.
GemmKernel gemm_kernel_for(perf::ScalarTag tag, Index m, Index n, Index k);

}  // namespace chase::la
