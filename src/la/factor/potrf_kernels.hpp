// Cholesky factorization kernels.
//
//   unblocked_potrf_upper — the seed left-looking scalar kernel, with the
//       pivot floor passed in so the blocked algorithm can reuse it on
//       diagonal blocks without re-deriving the tolerance from a partially
//       factored diagonal.
//   blocked_potrf_upper   — LAPACK right-looking shape: factor a
//       kFactorBlock diagonal block, triangular-solve the block row
//       (R_jj^H R_jk = A_jk), then fold the block row into the trailing
//       matrix with an upper-triangle HERK. All but O(n^2 nb) of the n^3/3
//       work is the HERK/GEMM lowering.
//
// Both kernels preserve the seed contract: on success the strict lower
// triangle is exactly zero; on breakdown the LAPACK info index (j+1, global)
// of the first non-positive-definite pivot is returned, with the relative
// floor computed from the *original* diagonal in both shapes so structured
// breakdowns report the same index in either shape.
#pragma once

#include <cmath>

#include "la/factor/herk_kernels.hpp"
#include "la/factor/trsm_kernels.hpp"
#include "la/matrix.hpp"

namespace chase::la::factor {

/// Seed left-looking kernel on one (diagonal) block; `pivot_floor` is the
/// absolute breakdown threshold. Returns the local LAPACK info.
template <typename T>
int unblocked_potrf_upper(MatrixView<T> a, RealType<T> pivot_floor) {
  using R = RealType<T>;
  const Index n = a.rows();
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < j; ++i) {
      T acc = a(i, j);
      for (Index k = 0; k < i; ++k) acc -= conjugate(a(k, i)) * a(k, j);
      a(i, j) = acc / a(i, i);
    }
    R diag = real_part(a(j, j));
    for (Index k = 0; k < j; ++k) {
      diag -= real_part(conjugate(a(k, j)) * a(k, j));
    }
    if (!(diag > pivot_floor) || !(diag > R(0)) || !std::isfinite(diag)) {
      return int(j) + 1;
    }
    a(j, j) = T(std::sqrt(diag));
    for (Index i = j + 1; i < n; ++i) a(i, j) = T(0);
  }
  return 0;
}

/// The relative pivot floor of the seed kernel: rel_pivot_tol times the
/// largest original diagonal entry.
template <typename T>
RealType<T> potrf_pivot_floor(ConstMatrixView<T> a,
                              RealType<T> rel_pivot_tol) {
  using R = RealType<T>;
  R max_diag(0);
  for (Index j = 0; j < a.rows(); ++j) {
    max_diag = std::max(max_diag, real_part(a(j, j)));
  }
  return rel_pivot_tol * max_diag;
}

template <typename T>
int naive_potrf_upper(MatrixView<T> a, RealType<T> rel_pivot_tol) {
  return unblocked_potrf_upper(a, potrf_pivot_floor(a.as_const(),
                                                    rel_pivot_tol));
}

template <typename T>
int blocked_potrf_upper(MatrixView<T> a, RealType<T> rel_pivot_tol) {
  const Index n = a.rows();
  const RealType<T> floor_val =
      potrf_pivot_floor(a.as_const(), rel_pivot_tol);
  if (n <= kFactorBlock) {
    return unblocked_potrf_upper(a, floor_val);
  }
  for (Index j0 = 0; j0 < n; j0 += kFactorBlock) {
    const Index jb = std::min(kFactorBlock, n - j0);
    const int info =
        unblocked_potrf_upper(a.block(j0, j0, jb, jb), floor_val);
    if (info != 0) return info + int(j0);
    const Index j1 = j0 + jb;
    if (j1 < n) {
      // Block-row solve R_jj^H R_jk = A_jk; the panel is only jb rows tall,
      // so the scalar substitution is O(nb^2) per column of the GEMM-rich
      // remainder.
      auto panel = a.block(j0, j1, jb, n - j1);
      naive_trsm_left_upper_conj(a.block(j0, j0, jb, jb).as_const(), panel);
      // Trailing update A_kk -= R_jk^H R_jk, upper triangle only: the
      // factorization never reads below the diagonal.
      blocked_herk_upper(T(-1), panel.as_const(), T(1),
                         a.block(j1, j1, n - j1, n - j1));
    }
  }
  // The unblocked kernel zeroes within diagonal blocks; clear the rest of
  // the strict lower triangle so the seed contract (exact zeros) holds.
  for (Index j = 0; j < n; ++j) {
    for (Index i = j + 1; i < n; ++i) a(i, j) = T(0);
  }
  return 0;
}

}  // namespace chase::la::factor
