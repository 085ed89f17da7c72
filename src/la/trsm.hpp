// Triangular solves and multiplies needed by the CholeskyQR family, the
// compact-WY block reflectors and the direct solvers.
//
// Every entry point runs the blocked kernel, which lowers the off-diagonal
// work onto la::gemm (la/factor/trsm_kernels.hpp); the seed scalar kernels
// factor::naive_* stay as the oracles tests/la and the benches call
// directly. Tracked calls record cumulative flops and wall seconds
// ("la.trsm.flops" / "la.trsm.seconds", "la.trmm.*" for the multiplies) plus
// the "la.factor.blocked.calls" counter — the measured Gflop/s feed
// MachineModel::calibrate_factor.
#pragma once

#include "common/timer.hpp"
#include "la/factor/trsm_kernels.hpp"
#include "la/matrix.hpp"
#include "perf/tracker.hpp"

namespace chase::la {

namespace detail {

/// Flop count of one triangular solve/multiply touching the full triangle
/// against `m` right-hand-side rows/columns (n^2 m multiply-adds, x4 for the
/// complex multiply-add).
template <typename T>
inline double trsm_flop_count(Index n, Index m) {
  return (kIsComplex<T> ? 4.0 : 1.0) * double(n) * double(n) * double(m);
}

inline void record_factor_call(std::string_view flops_counter,
                               std::string_view seconds_counter,
                               double flops, double seconds) {
  if (auto* t = perf::thread_tracker()) {
    t->bump(flops_counter, flops);
    t->bump(seconds_counter, seconds);
    t->bump("la.factor.blocked.calls", 1.0);
  }
}

}  // namespace detail

/// X <- X * R^{-1} with R upper triangular (right-side solve).
///
/// This is the back-substitution step of CholeskyQR: Q = X R^{-1} where
/// R is the Cholesky factor of the Gram matrix (Algorithm 3, line 6).
template <typename T>
void trsm_right_upper(ConstMatrixView<T> r, MatrixView<T> x) {
  const Index n = r.rows();
  CHASE_CHECK(r.cols() == n && x.cols() == n);
  const bool tracked = perf::thread_tracker() != nullptr;
  WallTimer timer;
  factor::blocked_trsm_right_upper(r, x);
  if (tracked) {
    detail::record_factor_call("la.trsm.flops", "la.trsm.seconds",
                               detail::trsm_flop_count<T>(n, x.rows()),
                               timer.seconds());
  }
}

/// X <- L^{-1} * X with L lower triangular (left-side forward substitution).
template <typename T>
void trsm_left_lower(ConstMatrixView<T> l, MatrixView<T> x) {
  const Index n = l.rows();
  CHASE_CHECK(l.cols() == n && x.rows() == n);
  const bool tracked = perf::thread_tracker() != nullptr;
  WallTimer timer;
  factor::blocked_trsm_left_lower(l, x);
  if (tracked) {
    detail::record_factor_call("la.trsm.flops", "la.trsm.seconds",
                               detail::trsm_flop_count<T>(n, x.cols()),
                               timer.seconds());
  }
}

/// X <- R^{-H} * X with R upper triangular (left-side solve by the conjugate
/// transpose; R^H is lower triangular so this is forward substitution).
template <typename T>
void trsm_left_upper_conj(ConstMatrixView<T> r, MatrixView<T> x) {
  const Index n = r.rows();
  CHASE_CHECK(r.cols() == n && x.rows() == n);
  const bool tracked = perf::thread_tracker() != nullptr;
  WallTimer timer;
  factor::blocked_trsm_left_upper_conj(r, x);
  if (tracked) {
    detail::record_factor_call("la.trsm.flops", "la.trsm.seconds",
                               detail::trsm_flop_count<T>(n, x.cols()),
                               timer.seconds());
  }
}

/// X <- X * R with R upper triangular (right-side multiply, used to rebuild
/// composite R factors in CholeskyQR2: R = R2 * R1).
template <typename T>
void trmm_right_upper(ConstMatrixView<T> r, MatrixView<T> x) {
  const Index n = r.rows();
  CHASE_CHECK(r.cols() == n && x.cols() == n);
  const bool tracked = perf::thread_tracker() != nullptr;
  WallTimer timer;
  factor::blocked_trmm_right_upper(r, x);
  if (tracked) {
    detail::record_factor_call("la.trmm.flops", "la.trmm.seconds",
                               detail::trsm_flop_count<T>(n, x.rows()),
                               timer.seconds());
  }
}

/// W <- U * W in place with U upper triangular (the T-factor multiply of the
/// compact-WY larfb; replaces the scratch-matrix scalar multiply the seed
/// allocated per call).
template <typename T>
void trmm_left_upper(ConstMatrixView<T> u, MatrixView<T> w) {
  const Index k = u.rows();
  CHASE_CHECK(u.cols() == k && w.rows() == k);
  const bool tracked = perf::thread_tracker() != nullptr;
  WallTimer timer;
  factor::blocked_trmm_left_upper(u, w);
  if (tracked) {
    detail::record_factor_call("la.trmm.flops", "la.trmm.seconds",
                               detail::trsm_flop_count<T>(k, w.cols()),
                               timer.seconds());
  }
}

/// W <- U^H * W in place with U upper triangular.
template <typename T>
void trmm_left_upper_conj(ConstMatrixView<T> u, MatrixView<T> w) {
  const Index k = u.rows();
  CHASE_CHECK(u.cols() == k && w.rows() == k);
  const bool tracked = perf::thread_tracker() != nullptr;
  WallTimer timer;
  factor::blocked_trmm_left_upper_conj(u, w);
  if (tracked) {
    detail::record_factor_call("la.trmm.flops", "la.trmm.seconds",
                               detail::trsm_flop_count<T>(k, w.cols()),
                               timer.seconds());
  }
}

}  // namespace chase::la
