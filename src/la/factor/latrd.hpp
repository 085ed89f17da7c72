// Blocked Hermitian tridiagonalization (LAPACK latrd/hetrd shape, lower
// variant) and the matching Q back-accumulation.
//
//   naive_hetrd_reduce   — the seed kernel: one reflector per column, each
//                          followed by a full rank-2 (her2) update of the
//                          trailing matrix; O(n^3) BLAS-2 traffic.
//   blocked_hetrd_reduce — latrd panels: within a kFactorBlock panel each
//                          column is updated against the accumulated V/W
//                          panels (BLAS-1/2 on nb vectors), and the trailing
//                          matrix receives one rank-2k update
//                          A -= V W^H + W V^H as two GEMMs per panel — the
//                          HER2K lowering that moves two thirds of the
//                          reduction onto the micro-kernel engine.
//
// Both kernels leave the identical storage contract the seed established:
// reflector tails in the strict lower triangle (a(k+2.., k)), scales in
// `taus`, diagonal/subdiagonal of T in d/e — so either Q formation below can
// consume either reduction's output.
//
//   naive_hetrd_form_q   — backward per-reflector larf application (seed);
//   blocked_hetrd_form_q — compact-WY: per panel build V, form the T factor
//                          (larft) and apply I - V T V^H with GEMMs (larfb),
//                          making the Rayleigh-Ritz back-transform GEMM-rich
//                          as well.
#pragma once

#include <vector>

#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/gemm.hpp"
#include "la/householder.hpp"
#include "la/matrix.hpp"
#include "la/qr_blocked.hpp"

namespace chase::la::factor {

/// Seed reduction: per-column reflector + full her2 trailing update. The
/// caller guarantees n >= 2 and pre-sized d/e/taus.
template <typename T>
void naive_hetrd_reduce(MatrixView<T> a, std::vector<RealType<T>>& d,
                        std::vector<RealType<T>>& e, std::vector<T>& taus) {
  const Index n = a.rows();
  std::vector<T> x(static_cast<std::size_t>(n));
  std::vector<T> v(static_cast<std::size_t>(n));

  for (Index k = 0; k < n - 1; ++k) {
    const Index nv = n - k - 1;  // reflector length (rows k+1 .. n-1)
    T alpha = a(k + 1, k);
    auto refl = larfg(alpha, nv - 1, a.col(k) + k + 2);
    e[std::size_t(k)] = refl.beta;
    const T tau = refl.tau;
    taus[std::size_t(k)] = tau;

    if (tau != T(0)) {
      // v = [1; stored tail]
      v[0] = T(1);
      for (Index i = 1; i < nv; ++i) v[std::size_t(i)] = a(k + 1 + i, k);
      auto a22 = a.block(k + 1, k + 1, nv, nv);
      // x = tau * A22 * v
      gemv(tau, a22.as_const(), v.data(), T(0), x.data());
      // w = x - (tau/2) (x^H v) v
      const T corr = -tau * dotc(nv, x.data(), v.data()) / RealType<T>(2);
      axpy(nv, corr, v.data(), x.data());
      // A22 -= v w^H + w v^H
      her2_minus(a22, v.data(), x.data());
    }
    d[std::size_t(k)] = real_part(a(k, k));
  }
  d[std::size_t(n - 1)] = real_part(a(n - 1, n - 1));
}

/// latrd panel reduction. Panel rows are indexed relative to the panel's
/// first reflector row (global row k0+1 <-> local row 0); column j of V/W
/// holds reflector k0+j with its unit head at local row j.
template <typename T>
void blocked_hetrd_reduce(MatrixView<T> a, std::vector<RealType<T>>& d,
                          std::vector<RealType<T>>& e, std::vector<T>& taus) {
  const Index n = a.rows();
  const Index nref = n - 1;
  Matrix<T> vp(nref, std::min(kFactorBlock, nref));
  Matrix<T> wp(nref, std::min(kFactorBlock, nref));

  for (Index k0 = 0; k0 < nref; k0 += kFactorBlock) {
    const Index kb = std::min(kFactorBlock, nref - k0);
    const Index pr = nref - k0;  // panel rows (global rows k0+1 .. n-1)
    for (Index j = 0; j < kb; ++j) {
      const Index k = k0 + j;      // global column / reflector index
      const Index nv = n - k - 1;  // reflector length
      if (j > 0) {
        // Fold the panel's previous reflectors into column k (rows k..n-1):
        // a(k.., k) -= V conj(W(k,:)) + W conj(V(k,:)). Global row k sits at
        // local row j-1.
        T* ak = a.col(k) + k;
        const Index off = j - 1;
        const Index len = n - k;
        for (Index p = 0; p < j; ++p) {
          const T wk = conjugate(wp(off, p));
          const T vk = conjugate(vp(off, p));
          const T* vcol = vp.col(p) + off;
          const T* wcol = wp.col(p) + off;
          for (Index rr = 0; rr < len; ++rr) {
            ak[rr] -= vcol[rr] * wk + wcol[rr] * vk;
          }
        }
      }
      T alpha = a(k + 1, k);
      auto refl = larfg(alpha, nv - 1, a.col(k) + k + 2);
      e[std::size_t(k)] = refl.beta;
      const T tau = refl.tau;
      taus[std::size_t(k)] = tau;

      T* vj = vp.col(j);
      for (Index i = 0; i < j; ++i) vj[i] = T(0);
      vj[j] = T(1);
      for (Index i = j + 1; i < pr; ++i) vj[i] = a(k0 + 1 + i, k);

      T* wj = wp.col(j);
      for (Index i = 0; i < j; ++i) wj[i] = T(0);
      if (tau != T(0)) {
        // w = tau (A0 v - V (W^H v) - W (V^H v)) - (tau/2)(w^H v) v, where
        // A0 is the stored trailing block: the panel's rank-2k update has
        // not been applied to it yet, the V/W terms supply exactly that
        // correction restricted to v's support.
        auto a22 = a.block(k + 1, k + 1, nv, nv);
        gemv(tau, a22.as_const(), vj + j, T(0), wj + j);
        for (Index p = 0; p < j; ++p) {
          const T wv = dotc(nv, wp.col(p) + j, vj + j);
          axpy(nv, -tau * wv, vp.col(p) + j, wj + j);
          const T vv = dotc(nv, vp.col(p) + j, vj + j);
          axpy(nv, -tau * vv, wp.col(p) + j, wj + j);
        }
        const T corr = -tau * dotc(nv, wj + j, vj + j) / RealType<T>(2);
        axpy(nv, corr, vj + j, wj + j);
      } else {
        for (Index i = j; i < pr; ++i) wj[i] = T(0);
      }
      d[std::size_t(k)] = real_part(a(k, k));
    }

    // Rank-2k trailing update A22 -= V W^H + W V^H (global rows/cols >= k1;
    // global row k1 sits at local row kb-1). Both triangles are written so
    // the next panel's gemv sees a consistent Hermitian block, exactly as
    // the seed's her2 updates maintained.
    const Index k1 = k0 + kb;
    if (k1 < n) {
      const Index nt = n - k1;
      const Index off = kb - 1;
      auto a22 = a.block(k1, k1, nt, nt);
      auto vt = vp.block(off, 0, nt, kb);
      auto wt = wp.block(off, 0, nt, kb);
      gemm(T(-1), Op::kNoTrans, vt.as_const(), Op::kConjTrans, wt.as_const(),
           T(1), a22);
      gemm(T(-1), Op::kNoTrans, wt.as_const(), Op::kConjTrans, vt.as_const(),
           T(1), a22);
    }
  }
  d[std::size_t(n - 1)] = real_part(a(n - 1, n - 1));
}

/// Seed Q formation: Q = H_0 H_1 ... H_{n-2} by backward accumulation of one
/// reflector at a time on the identity.
template <typename T>
void naive_hetrd_form_q(ConstMatrixView<T> a, const std::vector<T>& taus,
                        MatrixView<T> q) {
  const Index n = a.rows();
  set_identity(q);
  std::vector<T> v(static_cast<std::size_t>(n));
  std::vector<T> work(static_cast<std::size_t>(n));
  for (Index k = n - 2; k >= 0; --k) {
    const Index nv = n - k - 1;
    v[0] = T(1);
    for (Index i = 1; i < nv; ++i) v[std::size_t(i)] = a(k + 1 + i, k);
    auto qblk = q.block(k + 1, k + 1, nv, nv);
    larf_left(taus[std::size_t(k)], v.data() + 1, nv, qblk, work.data());
  }
}

/// Compact-WY Q formation: per descending panel materialize the unit-lower-
/// trapezoidal V from the stored tails, build the forward T factor and apply
/// the block reflector I - V T V^H to the trailing block of Q with GEMMs.
/// Columns <= k0 of Q are still identity columns with no overlap with V's
/// row support, so restricting the application to the trailing block matches
/// the per-reflector accumulation.
template <typename T>
void blocked_hetrd_form_q(ConstMatrixView<T> a, const std::vector<T>& taus,
                          MatrixView<T> q) {
  const Index n = a.rows();
  set_identity(q);
  const Index nref = n - 1;
  const Index nb = std::min(kFactorBlock, nref);
  Matrix<T> vwork(nref, nb), twork(nb, nb), bwork(nb, nref);
  const Index nblocks = (nref + nb - 1) / nb;
  for (Index blk = nblocks - 1; blk >= 0; --blk) {
    const Index k0 = blk * nb;
    const Index kb = std::min(nb, nref - k0);
    const Index nrows = nref - k0;  // global rows k0+1 .. n-1
    auto v = vwork.block(0, 0, nrows, kb);
    for (Index j = 0; j < kb; ++j) {
      const Index k = k0 + j;
      for (Index i = 0; i < nrows; ++i) {
        v(i, j) = i < j ? T(0) : (i == j ? T(1) : a(k0 + 1 + i, k));
      }
    }
    std::vector<T> blk_tau(taus.begin() + std::size_t(k0),
                           taus.begin() + std::size_t(k0 + kb));
    auto t_blk = twork.block(0, 0, kb, kb);
    la::detail::larft(v.as_const(), blk_tau, t_blk);
    auto target = q.block(k0 + 1, k0 + 1, nrows, nrows);
    auto w = bwork.block(0, 0, kb, nrows);
    larfb_left(v.as_const(), t_blk.as_const(), /*conj=*/false, target, w);
  }
}

}  // namespace chase::la::factor
