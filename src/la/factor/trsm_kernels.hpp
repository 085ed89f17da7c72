// Triangular solve / multiply kernels of the factorization engine.
//
// Each operation comes in two shapes:
//
//   naive_*   — the seed scalar kernels, kept verbatim as the oracles
//               tests/la and the benches compare against;
//   blocked_* — the triangle split into kFactorBlock-wide panels: the
//               diagonal blocks run the naive kernel and every off-diagonal
//               block is one GEMM, so all but O(n m nb) of the O(n^2 m) work
//               rides the register-tiled micro engine.
//
// The public entry points in la/trsm.hpp run the blocked shape; these
// kernels are also called directly by the blocked POTRF (panel solves) and
// the compact-WY larfb.
#pragma once

#include "la/blas1.hpp"
#include "la/gemm.hpp"
#include "la/matrix.hpp"

namespace chase::la {

/// Panel width of every blocked factorization kernel. Blocked kernels run
/// the naive kernel whenever the triangular dimension fits in one panel, so
/// small subspace factorizations (n_e <= 64) take the seed scalar path and
/// the GEMM lowering only engages where it pays.
inline constexpr Index kFactorBlock = 64;

}  // namespace chase::la

namespace chase::la::factor {

/// Rows per parallel unit of the right-side solve: a multiple of every
/// type's register-tile height, and small enough that one unit's slab of a
/// subspace-wide X (m x ne, ne <= 64) stays L2-resident.
inline constexpr Index kTrsmRowUnit = 128;

/// X <- X * R^{-1}, R upper triangular (seed kernel: per-column axpy). Each
/// row of X solves independently, so the rows run as parallel units of
/// kTrsmRowUnit rows (la/parallel.hpp); every element sees the seed's
/// operation sequence.
template <typename T>
void naive_trsm_right_upper(ConstMatrixView<T> r, MatrixView<T> x) {
  const Index n = r.rows();
  const Index m = x.rows();
  const Index units = (m + kTrsmRowUnit - 1) / kTrsmRowUnit;
  la::detail::parallel_units(units, [&](Index u) {
    const Index i0 = u * kTrsmRowUnit;
    const Index rows = std::min(kTrsmRowUnit, m - i0);
    for (Index j = 0; j < n; ++j) {
      T* xj = x.col(j) + i0;
      for (Index l = 0; l < j; ++l) {
        axpy(rows, -r(l, j), x.col(l) + i0, xj);
      }
      const T inv = T(1) / r(j, j);
      scal(rows, inv, xj);
    }
  });
}

/// X <- X * R^{-1}, column panels: X_j already-solved columns enter through
/// one GEMM, then the diagonal block back-substitutes. Both steps are
/// row-parallel (the GEMM's row chunks, the naive solve's row blocks).
template <typename T>
void blocked_trsm_right_upper(ConstMatrixView<T> r, MatrixView<T> x) {
  const Index n = r.rows();
  if (n <= kFactorBlock) {
    naive_trsm_right_upper(r, x);
    return;
  }
  for (Index j0 = 0; j0 < n; j0 += kFactorBlock) {
    const Index jb = std::min(kFactorBlock, n - j0);
    auto xj = x.cols_range(j0, jb);
    if (j0 > 0) {
      gemm(T(-1), Op::kNoTrans, x.cols_range(0, j0).as_const(), Op::kNoTrans,
           r.block(0, j0, j0, jb), T(1), xj);
    }
    naive_trsm_right_upper(r.block(j0, j0, jb, jb), xj);
  }
}

/// X <- L^{-1} X, L lower triangular (seed kernel: forward substitution).
template <typename T>
void naive_trsm_left_lower(ConstMatrixView<T> l, MatrixView<T> x) {
  const Index n = l.rows();
  for (Index j = 0; j < x.cols(); ++j) {
    T* xj = x.col(j);
    for (Index i = 0; i < n; ++i) {
      T acc = xj[i];
      for (Index k = 0; k < i; ++k) acc -= l(i, k) * xj[k];
      xj[i] = acc / l(i, i);
    }
  }
}

/// X <- L^{-1} X, row panels: the contribution of already-solved row blocks
/// is one GEMM, then the diagonal block forward-substitutes.
template <typename T>
void blocked_trsm_left_lower(ConstMatrixView<T> l, MatrixView<T> x) {
  const Index n = l.rows();
  if (n <= kFactorBlock) {
    naive_trsm_left_lower(l, x);
    return;
  }
  const Index ncols = x.cols();
  for (Index i0 = 0; i0 < n; i0 += kFactorBlock) {
    const Index ib = std::min(kFactorBlock, n - i0);
    auto xi = x.block(i0, 0, ib, ncols);
    if (i0 > 0) {
      gemm(T(-1), Op::kNoTrans, l.block(i0, 0, ib, i0), Op::kNoTrans,
           x.block(0, 0, i0, ncols).as_const(), T(1), xi);
    }
    naive_trsm_left_lower(l.block(i0, i0, ib, ib), xi);
  }
}

/// X <- R^{-H} X, R upper triangular (seed kernel: forward substitution on
/// the implicitly-conjugated lower factor R^H).
template <typename T>
void naive_trsm_left_upper_conj(ConstMatrixView<T> r, MatrixView<T> x) {
  const Index n = r.rows();
  for (Index j = 0; j < x.cols(); ++j) {
    T* xj = x.col(j);
    for (Index i = 0; i < n; ++i) {
      T acc = xj[i];
      for (Index k = 0; k < i; ++k) acc -= conjugate(r(k, i)) * xj[k];
      xj[i] = acc / conjugate(r(i, i));
    }
  }
}

/// X <- R^{-H} X, row panels: solved row blocks fold in through one
/// conjugate-transposed GEMM against the upper rectangle of R.
template <typename T>
void blocked_trsm_left_upper_conj(ConstMatrixView<T> r, MatrixView<T> x) {
  const Index n = r.rows();
  if (n <= kFactorBlock) {
    naive_trsm_left_upper_conj(r, x);
    return;
  }
  const Index ncols = x.cols();
  for (Index i0 = 0; i0 < n; i0 += kFactorBlock) {
    const Index ib = std::min(kFactorBlock, n - i0);
    auto xi = x.block(i0, 0, ib, ncols);
    if (i0 > 0) {
      // (R^H)(i0:, 0:i0) = conj(R(0:i0, i0:))^T.
      gemm(T(-1), Op::kConjTrans, r.block(0, i0, i0, ib), Op::kNoTrans,
           x.block(0, 0, i0, ncols).as_const(), T(1), xi);
    }
    naive_trsm_left_upper_conj(r.block(i0, i0, ib, ib), xi);
  }
}

/// X <- X * R, R upper triangular (seed kernel: backward per-column axpy).
template <typename T>
void naive_trmm_right_upper(ConstMatrixView<T> r, MatrixView<T> x) {
  const Index n = r.rows();
  const Index m = x.rows();
  for (Index j = n - 1; j >= 0; --j) {
    T* xj = x.col(j);
    scal(m, r(j, j), xj);
    for (Index l = 0; l < j; ++l) {
      axpy(m, r(l, j), x.col(l), xj);
    }
  }
}

/// X <- X * R, column panels right-to-left: the diagonal block multiplies in
/// place, then the not-yet-overwritten left columns enter through one GEMM.
template <typename T>
void blocked_trmm_right_upper(ConstMatrixView<T> r, MatrixView<T> x) {
  const Index n = r.rows();
  if (n <= kFactorBlock) {
    naive_trmm_right_upper(r, x);
    return;
  }
  const Index nblocks = (n + kFactorBlock - 1) / kFactorBlock;
  for (Index blk = nblocks - 1; blk >= 0; --blk) {
    const Index j0 = blk * kFactorBlock;
    const Index jb = std::min(kFactorBlock, n - j0);
    auto xj = x.cols_range(j0, jb);
    naive_trmm_right_upper(r.block(j0, j0, jb, jb), xj);
    if (j0 > 0) {
      gemm(T(1), Op::kNoTrans, x.cols_range(0, j0).as_const(), Op::kNoTrans,
           r.block(0, j0, j0, jb), T(1), xj);
    }
  }
}

/// W <- U W in place, U upper triangular (the T-factor multiply of the
/// compact-WY larfb). Ascending rows read only not-yet-overwritten entries,
/// so the result is bitwise what a separate-output multiply produces.
template <typename T>
void naive_trmm_left_upper(ConstMatrixView<T> u, MatrixView<T> w) {
  const Index k = u.rows();
  for (Index j = 0; j < w.cols(); ++j) {
    T* wj = w.col(j);
    for (Index i = 0; i < k; ++i) {
      T acc(0);
      for (Index r = i; r < k; ++r) acc += u(i, r) * wj[r];
      wj[i] = acc;
    }
  }
}

/// W <- U W in place, row panels top-down: the diagonal block multiplies in
/// place after one GEMM folds in the (still untouched) rows below.
template <typename T>
void blocked_trmm_left_upper(ConstMatrixView<T> u, MatrixView<T> w) {
  const Index k = u.rows();
  if (k <= kFactorBlock) {
    naive_trmm_left_upper(u, w);
    return;
  }
  const Index ncols = w.cols();
  for (Index i0 = 0; i0 < k; i0 += kFactorBlock) {
    const Index ib = std::min(kFactorBlock, k - i0);
    auto wi = w.block(i0, 0, ib, ncols);
    naive_trmm_left_upper(u.block(i0, i0, ib, ib), wi);
    if (i0 + ib < k) {
      gemm(T(1), Op::kNoTrans, u.block(i0, i0 + ib, ib, k - i0 - ib),
           Op::kNoTrans, w.block(i0 + ib, 0, k - i0 - ib, ncols).as_const(),
           T(1), wi);
    }
  }
}

/// W <- U^H W in place, U upper triangular (so U^H is lower). Descending rows
/// read only not-yet-overwritten entries.
template <typename T>
void naive_trmm_left_upper_conj(ConstMatrixView<T> u, MatrixView<T> w) {
  const Index k = u.rows();
  for (Index j = 0; j < w.cols(); ++j) {
    T* wj = w.col(j);
    for (Index i = k - 1; i >= 0; --i) {
      T acc(0);
      for (Index r = 0; r <= i; ++r) acc += conjugate(u(r, i)) * wj[r];
      wj[i] = acc;
    }
  }
}

/// W <- U^H W in place, row panels bottom-up with one GEMM per panel against
/// the rows above (still untouched in the descending sweep).
template <typename T>
void blocked_trmm_left_upper_conj(ConstMatrixView<T> u, MatrixView<T> w) {
  const Index k = u.rows();
  if (k <= kFactorBlock) {
    naive_trmm_left_upper_conj(u, w);
    return;
  }
  const Index ncols = w.cols();
  const Index nblocks = (k + kFactorBlock - 1) / kFactorBlock;
  for (Index blk = nblocks - 1; blk >= 0; --blk) {
    const Index i0 = blk * kFactorBlock;
    const Index ib = std::min(kFactorBlock, k - i0);
    auto wi = w.block(i0, 0, ib, ncols);
    naive_trmm_left_upper_conj(u.block(i0, i0, ib, ib), wi);
    if (i0 > 0) {
      gemm(T(1), Op::kConjTrans, u.block(0, i0, i0, ib), Op::kNoTrans,
           w.block(0, 0, i0, ncols).as_const(), T(1), wi);
    }
  }
}

}  // namespace chase::la::factor
