// Runtime policy for the blocked factorization engine (src/la/factor/), a
// common/policy.hpp policy: the process picks one of two kernel
// implementations for every TRSM/TRMM/POTRF/HERK/HETRD and compact-WY
// (larft/larfb) call,
//
//   CHASE_FACTOR_KERNEL = naive | blocked   (default: blocked)
//
//   naive   — the seed scalar kernels: per-column axpy substitution,
//             left-looking scalar POTRF, dotc Gram loops, per-reflector
//             rank-2 HETRD updates. Kept verbatim as the reference oracle
//             every blocked kernel is validated against (tests/la) and the
//             floor the bench trajectory measures speedups from.
//   blocked — LAPACK-shaped blocked algorithms: the triangle is split into
//             kFactorBlock-wide panels, the diagonal blocks run the naive
//             kernel, and all off-diagonal work is lowered onto la::gemm —
//             which the GEMM policy in turn routes to the register-tiled
//             micro engine. This converts the O(n^3) factorization paths of
//             CholeskyQR and the Rayleigh-Ritz HEEVD from cache-hostile
//             scalar loops into micro-kernel flops.
//
// Per call: override > the per-triangular-size-class winner of a loaded
// machine profile > blocked (DESIGN.md §15).
#pragma once

#include <optional>
#include <string_view>

#include "common/policy.hpp"
#include "la/matrix.hpp"
#include "perf/tuned.hpp"

namespace chase::la {

enum class FactorKernel : int { kNaive = 0, kBlocked };

inline constinit policy::Policy<FactorKernel, 2> factor_policy{
    "CHASE_FACTOR_KERNEL", {"naive", "blocked"}, FactorKernel::kBlocked};
using ScopedFactorKernel = policy::Pin<factor_policy>;

/// Panel width of every blocked factorization kernel. Blocked kernels fall
/// back to the naive path whenever the triangular dimension fits in one
/// panel, so small subspace factorizations (n_e <= 64) are bitwise identical
/// across policies and the blocked machinery only engages where the GEMM
/// lowering pays.
inline constexpr Index kFactorBlock = 64;

inline std::string_view factor_kernel_name(FactorKernel k) {
  return factor_policy.name(k);
}
inline std::optional<FactorKernel> parse_factor_kernel(std::string_view name) {
  return factor_policy.parse(name);
}

/// Per-call Tracker counter name for a kernel ("la.factor.<name>.calls").
inline std::string_view factor_kernel_counter(FactorKernel k) {
  return k == FactorKernel::kNaive ? "la.factor.naive.calls"
                                   : "la.factor.blocked.calls";
}

/// Shape-oblivious effective policy: the override, else the default.
inline FactorKernel factor_kernel() { return factor_policy.resolve(); }

/// Kernel for one factorization over an n x n triangle.
FactorKernel factor_kernel_for(Index n);

}  // namespace chase::la
