// Hermitian matrix-matrix multiply: C = alpha * A * B + beta * C with A
// Hermitian — the shape of the Chebyshev filter's hot loop (H times a block
// of vectors) and of every diagonal-rank panel in the distributed HEMM.
//
// Under the `micro` kernel policy this runs a symmetry-aware variant of the
// five-loop engine (gemm_micro.hpp): only the *upper* triangle of A's
// storage is read. The symmetric dimension is tiled into kc-deep k blocks;
// for k block q the stored upper blocks supply the direct products
// C_r += A_rq B_q (rows above the block) straight, the diagonal block
// densified, and the mirrored products C_r += A_qr^H B_q (rows below it)
// conjugate-transposed while packing. With more than one B column panel the
// complex engine packs A once and replays the packed panels for every later
// panel — gemm must re-pack op(A) per column panel, and that saved re-pack
// (plus needing only one triangle valid) is the Hermitian engine's
// advantage.
//
// The output rows are cut into kHemmUnit-row units that run in parallel
// (la/parallel.hpp): each unit sweeps every k block in ascending order
// against the B panel the caller packed once. Per output
// element the contributions therefore arrive in ascending k order through
// the same macro-kernel as gemm, with register tiles starting at multiples
// of MR from row 0, so results are bitwise independent of how many threads
// share the rows and of how B's columns are split — the property the
// dist-layer overlap pipeline relies on. (Equality with gemm() on an exactly
// Hermitian operand holds to rounding, not bitwise: the compiler may
// contract the complex multiply-accumulates differently in the two inlined
// instantiations.)
//
// Under the `naive` policy hemm() simply forwards to gemm() so the oracle
// stays byte-for-byte the seed behaviour.
#pragma once

#include <algorithm>

#include "la/gemm.hpp"

namespace chase::la {

namespace detail {

/// Symmetric-dimension block size: the engine's k-panel depth for the type,
/// so each output row sees exactly as many C-tile read-modify-write sweeps
/// as gemm() would use for the same k — any smaller block inflates C
/// traffic, any larger one pushes the packed A panel out of L2.
template <typename T>
inline constexpr Index kHemmBlock = MicroTile<T>::kc;

/// Rows per parallel unit: a quarter of the engine's mc chunk in whole
/// register tiles (48 rows for complex, 64 for real types). An n = 500..1000
/// call then splits into 8..21 units, which balances four cores to within
/// one small unit. Measured on a 4-core AVX-512 host: the one-core time does
/// not depend on the unit size beyond noise, while 2x coarser units ran
/// four-core calls at n = 500 up to 1.4x slower.
template <typename T>
inline constexpr Index kHemmUnit =
    round_up(MicroTile<T>::mc / 4, MicroTile<T>::mr);

/// Pack rows [p_lo, p_hi) (p_lo a multiple of MR) of the diagonal block
/// [d0, d0+nd)^2 of Hermitian A into mr micro-panels starting at `buf`,
/// reading only the upper triangle and mirroring conjugates below it.
template <typename T, Index MR>
inline void pack_a_herm_diag(ConstMatrixView<T> a, Index d0, Index nd,
                             Index p_lo, Index p_hi, T* buf) {
  for (Index p0 = p_lo; p0 < p_hi; p0 += MR) {
    const Index pr = std::min<Index>(MR, p_hi - p0);
    T* dst = buf + (p0 - p_lo) * nd;
    for (Index l = 0; l < nd; ++l) {
      // Rows on/above the diagonal stream from column l; rows below it walk
      // row l of the upper triangle (stride ld) and conjugate.
      const Index up = std::clamp<Index>(l - p0 + 1, 0, pr);
      const T* src = a.col(d0 + l) + d0 + p0;
      for (Index i = 0; i < up; ++i) packed_a_store<T, MR>(dst, l, i, src[i]);
      const T* mirror = &a(d0 + l, d0 + p0 + up);
      const Index ld = a.ld();
      for (Index i = up; i < pr; ++i) {
        packed_a_store<T, MR>(dst, l, i, conjugate(mirror[(i - up) * ld]));
      }
      for (Index i = pr; i < MR; ++i) packed_a_store<T, MR>(dst, l, i, T(0));
    }
  }
}

/// Pack the rows [u0, u0+nu) x k block [q0, q0+nq) of Hermitian A (full
/// storage, upper triangle read) into one mr-panel run: rows above the k
/// block come straight from the stored block A_rq, rows inside it from the
/// densified diagonal block, rows below it conjugate-transposed from the
/// stored block A_qr. u0 is a multiple of MR and q0 of kHemmBlock, so every
/// segment starts on a micro-panel boundary.
template <typename T, Index MR>
inline void pack_a_herm_rows(ConstMatrixView<T> a, Index u0, Index nu,
                             Index q0, Index nq, T* buf) {
  const Index u1 = u0 + nu;
  const Index direct_end = std::min(u1, q0);
  const Index diag_end = std::min(u1, q0 + nq);
  if (u0 < direct_end) {
    pack_a_micro<T, MR>(Op::kNoTrans, a, u0, q0, direct_end - u0, nq, buf);
  }
  const Index d_lo = std::max(u0, q0);
  if (d_lo < diag_end) {
    pack_a_herm_diag<T, MR>(a, q0, nq, d_lo - q0, diag_end - q0,
                            buf + (d_lo - u0) * nq);
  }
  const Index m_lo = std::max(u0, q0 + nq);
  if (m_lo < u1) {
    pack_a_micro<T, MR>(Op::kConjTrans, a, m_lo, q0, u1 - m_lo, nq,
                        buf + (m_lo - u0) * nq);
  }
}

/// Symmetry-aware engine. Each parallel unit owns kHemmUnit output rows and
/// sweeps the k blocks q in ascending order, one packed A panel and one
/// macro-kernel call per block: per row the contributions are the mirrored
/// products (q below the row's block), then the diagonal block, then the
/// direct products, and the q == 0 store folds in beta. Row tiles start at
/// multiples of MR from row 0 whatever the unit, so every element sees the
/// same micro-kernel sequence on any thread.
template <typename T>
void hemm_micro(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
                MatrixView<T> c) {
  using Tile = MicroTile<T>;
  constexpr Index MR = Tile::mr;
  constexpr Index NR = Tile::nr;
  constexpr Index NB = kHemmBlock<T>;
  constexpr Index UR = kHemmUnit<T>;
  static_assert(NB % MR == 0, "hemm block must hold whole register tiles");
  const Index n = a.rows();
  const Index ncols = c.cols();
  const Index nblocks = (n + NB - 1) / NB;
  const Index units = (n + UR - 1) / UR;

  // With more than one B column panel, A's packed panels are cached across
  // panels: the first jc panel packs every unit's rows x every k block once
  // (unit u's run at u0 * n, k block q at round_up(nu, MR) * q0 inside it)
  // and later panels replay them. gemm has to re-pack op(A) for every column
  // panel; skipping that re-pack is where the Hermitian engine's measured
  // advantage comes from (on top of needing only one triangle of A to be
  // valid). The replay only pays where the micro-kernel does enough
  // arithmetic per packed byte to hide the cold panel reads — complex types
  // run four times the flops of real types per packed element, so they
  // replay while real types re-pack through one small L2-hot buffer. A
  // single column panel never replays either.
  const bool cache_packs = kIsComplexScalar<T> && ncols > Tile::nc;
  T* pcache = cache_packs
                  ? pack_pool<T>().buf_a(std::size_t(round_up(n, MR)) * n)
                  : nullptr;

  for (Index jc = 0; jc < ncols; jc += Tile::nc) {
    const Index nc = std::min<Index>(Tile::nc, ncols - jc);
    const Index nc_pad = round_up(nc, NR);
    // Every k block of this B column panel, packed once by the caller and
    // read by every unit: block q at q0 * nc_pad.
    T* pb = pack_pool<T>().buf_b(std::size_t(n) * nc_pad);
    for (Index q = 0; q < nblocks; ++q) {
      const Index q0 = q * NB;
      const Index nq = std::min<Index>(NB, n - q0);
      pack_b_micro<T, NR>(Op::kNoTrans, b, q0, jc, nq, nc, alpha,
                          pb + q0 * nc_pad);
    }
    const bool pack_now = !cache_packs || jc == 0;
    parallel_units(units, [&](Index u) {
      const Index u0 = u * UR;
      const Index nu = std::min<Index>(UR, n - u0);
      T* run = cache_packs
                   ? pcache + u0 * n
                   : pack_pool<T>().buf_a(std::size_t(round_up(UR, MR)) * NB);
      for (Index q = 0; q < nblocks; ++q) {
        const Index q0 = q * NB;
        const Index nq = std::min<Index>(NB, n - q0);
        T* pa = cache_packs ? run + round_up(nu, MR) * q0 : run;
        if (pack_now) pack_a_herm_rows<T, MR>(a, u0, nu, q0, nq, pa);
        macro_kernel<T>(nu, nc, nq, pa, pb + q0 * nc_pad,
                        c.data() + u0 + jc * c.ld(), c.ld(), beta,
                        /*first_panel=*/q == 0);
      }
    });
  }
}

}  // namespace detail

/// C = alpha * A * B + beta * C with A Hermitian (full storage; under the
/// micro policy only the upper triangle is read — see the header comment).
template <typename T>
void hemm(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
          MatrixView<T> c) {
  const Index n = a.rows();
  CHASE_CHECK_MSG(a.cols() == n, "hemm: A must be square");
  CHASE_CHECK_MSG(b.rows() == n, "hemm: inner dimensions differ");
  CHASE_CHECK_MSG(c.rows() == n && c.cols() == b.cols(),
                  "hemm: output shape");
  if (n == 0 || c.cols() == 0) return;
  if (alpha == T(0)) {
    detail::scale_tile(beta, n, c.cols(), c.data(), c.ld());
    return;
  }
  if (gemm_kernel_for(scalar_tag<T>(), n, c.cols(), n) == GemmKernel::kNaive) {
    // The naive policy reads the full storage through the plain engine
    // (shape-aware, so a tuned profile routes small products the same way an
    // explicit override would).
    gemm(alpha, Op::kNoTrans, a, Op::kNoTrans, b, beta, c);
    return;
  }
  const bool tracked = perf::thread_tracker() != nullptr;
  WallTimer timer;
  detail::hemm_micro(alpha, a, b, beta, c);
  if (tracked) {
    detail::record_gemm_call("la.kernel.hemm.calls",
                             sizeof(RealType<T>) == 4,
                             detail::gemm_flop_count<T>(n, c.cols(), n),
                             timer.seconds());
  }
}

}  // namespace chase::la
