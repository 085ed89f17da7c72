// Cholesky factorization of a Hermitian positive-definite matrix.
//
// Runs the LAPACK right-looking panel + TRSM + HERK shape
// (la/factor/potrf_kernels.hpp); the seed left-looking scalar kernel
// factor::naive_potrf_upper stays as the oracle.
// Tracked calls record "la.potrf.flops" / "la.potrf.seconds" for the
// machine-model factorization-rate calibration.
#pragma once

#include "common/timer.hpp"
#include "la/factor/potrf_kernels.hpp"
#include "la/matrix.hpp"
#include "la/trsm.hpp"

namespace chase::la {

/// In-place upper Cholesky factorization A = R^H R.
///
/// On success returns 0 and the upper triangle of `a` holds R (the strict
/// lower triangle is zeroed). If the leading minor of order j+1 is not
/// positive definite, returns j+1 — the LAPACK `info` convention that
/// Algorithm 4 uses to trigger the Householder-QR fallback.
///
/// `rel_pivot_tol` > 0 additionally treats pivots below
/// rel_pivot_tol * max_diag as breakdowns: a Gram matrix of a numerically
/// rank-deficient block can round to barely-positive pivots that plain
/// LAPACK POTRF would accept while the resulting triangular solve is
/// useless. CholeskyQR passes n*u here so the fallback engages
/// deterministically. The blocked kernel and the oracle derive the floor
/// from the original diagonal, so structured breakdowns report the same
/// index.
template <typename T>
int potrf_upper(MatrixView<T> a, RealType<T> rel_pivot_tol = RealType<T>(0)) {
  const Index n = a.rows();
  CHASE_CHECK(a.cols() == n);
  const bool tracked = perf::thread_tracker() != nullptr;
  WallTimer timer;
  const int info = factor::blocked_potrf_upper(a, rel_pivot_tol);
  if (tracked) {
    const double z = kIsComplex<T> ? 4.0 : 1.0;
    detail::record_factor_call(
        "la.potrf.flops", "la.potrf.seconds",
        z * double(n) * double(n) * double(n) / 3.0, timer.seconds());
  }
  return info;
}

}  // namespace chase::la
