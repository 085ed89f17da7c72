// Hermitian matrix-matrix multiply: C = alpha * A * B + beta * C with A
// Hermitian — the shape of the Chebyshev filter's hot loop (H times a block
// of vectors) and of every diagonal-rank panel in the distributed HEMM.
//
// This runs a symmetry-aware variant of the five-loop engine
// (gemm_micro.hpp) over a PackedHermitian operand: A held only in the panel
// order the engine reads, built once from A's *upper* triangle. The symmetric dimension is tiled into kc-deep k blocks; for
// k block q the packed panels hold the direct products' rows A_rq (rows
// above the block) straight, the diagonal block densified, and the mirrored
// rows A_qr^H (rows below it) conjugate-transposed. A caller that applies
// the same A many times (dist::DistHermitianMatrix, the filter's operator)
// keeps the packed form as its only copy of A, so no call re-packs it; the
// plain-operand hemm() packs A into a per-thread scratch first and then runs
// the same loop.
//
// The output rows are cut into kHemmUnit-row units that run in parallel
// (la/parallel.hpp): each unit sweeps every k block in ascending order
// against the B panel the caller packed once. Per output
// element the contributions therefore arrive in ascending k order through
// the same macro-kernel as gemm, with register tiles starting at multiples
// of MR from row 0, so results are bitwise independent of how many threads
// share the rows and of how B's columns are split — the property the
// lockstep Lanczos runs rely on. (Equality with gemm() on an exactly
// Hermitian operand holds to rounding, not bitwise: the compiler may
// contract the complex multiply-accumulates differently in the two inlined
// instantiations.)
#pragma once

#include <algorithm>
#include <vector>

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

/// A Hermitian matrix stored only in hemm's packed panel order — no plain
/// n x n copy. Unit u (rows [u0, u0 + nu), u0 = u * kHemmUnit) owns the run
/// starting at u0 * n; inside it k block q (columns [q0, q0 + nq)) sits at
/// round_up(nu, MR) * q0 as MR-row micro-panels of nq columns, written by
/// packed_a_store. Every element (i, j) of the matrix appears exactly once:
/// A(i, j) for i <= j and conj(A(j, i)) below the diagonal, so the upper
/// triangle defines the matrix. Rows past n in the last micro-panel are zero.
/// Total size round_up(n, MR) * n scalars.
template <typename T>
class PackedHermitian {
 public:
  static constexpr Index MR = MicroTile<T>::mr;
  static constexpr Index NB = kHemmBlock<T>;
  static constexpr Index UR = kHemmUnit<T>;

  PackedHermitian() = default;

  Index rows() const { return n_; }
  const T* data() const { return buf_.data(); }
  /// Scalars held: round_up(n, MR) * n.
  std::size_t size() const { return std::size_t(round_up(n_, MR) * n_); }

  /// Build the n x n matrix from its upper triangle: upper(i, j) is called
  /// only with i <= j, and element (j, i) becomes conj(upper(i, j)). Writes
  /// every slot, padding included, so a refill leaves nothing of the
  /// previous matrix behind.
  template <typename F>
  void fill(Index n, F&& upper) {
    resize(n);
    for (Index u0 = 0; u0 < n; u0 += UR) {
      const Index nu = std::min<Index>(UR, n - u0);
      for (Index q0 = 0; q0 < n; q0 += NB) {
        const Index nq = std::min<Index>(NB, n - q0);
        T* blk = buf_.data() + block_offset(u0, q0);
        for (Index p0 = 0; p0 < nu; p0 += MR) {
          T* panel = blk + p0 * nq;
          const Index r0 = u0 + p0;
          const Index valid = std::min<Index>(MR, n - r0);
          for (Index l = 0; l < nq; ++l) {
            // Panel rows on/above the diagonal read column j, rows below it
            // mirror row j, rows past n are zero padding.
            const Index j = q0 + l;
            const Index up = std::clamp<Index>(j - r0 + 1, 0, valid);
            for (Index i = 0; i < up; ++i) {
              packed_a_store<T, MR>(panel, l, i, T(upper(r0 + i, j)));
            }
            for (Index i = up; i < valid; ++i) {
              packed_a_store<T, MR>(panel, l, i,
                                    conjugate(T(upper(j, r0 + i))));
            }
            for (Index i = valid; i < MR; ++i) {
              packed_a_store<T, MR>(panel, l, i, T(0));
            }
          }
        }
      }
    }
  }

  /// The micro-panels of unit rows starting at u0 (a multiple of kHemmUnit)
  /// x the k block starting at q0 (a multiple of kHemmBlock).
  const T* block(Index u0, Index q0) const {
    return buf_.data() + block_offset(u0, q0);
  }

  /// Element (i, j), 0 <= i, j < n.
  T at(Index i, Index j) const {
    return packed_a_load<T, MR>(buf_.data() + panel_offset(i, j), j % NB,
                                i % MR);
  }

  /// Overwrite the one stored slot of element (i, j); its mirror (j, i) is a
  /// separate slot, so off the diagonal the caller keeps the pair Hermitian.
  void set(Index i, Index j, T v) {
    packed_a_store<T, MR>(buf_.data() + panel_offset(i, j), j % NB, i % MR,
                          v);
  }

 private:
  Index block_offset(Index u0, Index q0) const {
    return u0 * n_ + round_up(std::min<Index>(UR, n_ - u0), MR) * q0;
  }

  /// Offset of the micro-panel holding element (i, j).
  Index panel_offset(Index i, Index j) const {
    const Index u0 = i - i % UR;
    const Index q0 = j - j % NB;
    const Index nq = std::min<Index>(NB, n_ - q0);
    return block_offset(u0, q0) + (i - u0 - i % MR) * nq;
  }

  void resize(Index n) {
    CHASE_CHECK_MSG(n >= 0, "PackedHermitian: negative order");
    n_ = n;
    const std::size_t need = size();
    if (buf_.size() < need) {
      buf_.resize(need);
      advise_huge_pages(buf_.data(), buf_.size() * sizeof(T));
    }
  }

  Index n_ = 0;
  std::vector<T> buf_;  // grown to the largest order held, never shrunk
};

/// Symmetry-aware engine over a packed operand. Each parallel unit owns
/// kHemmUnit output rows and sweeps the k blocks q in ascending order, one
/// packed A panel run and one macro-kernel call per block: per row the
/// contributions are the mirrored products (q below the row's block), then
/// the diagonal block, then the direct products, and the q == 0 store folds
/// in beta. Row tiles start at multiples of MR from row 0 whatever the unit,
/// so every element sees the same micro-kernel sequence on any thread.
template <typename T>
void hemm_micro(T alpha, const PackedHermitian<T>& a, ConstMatrixView<T> b,
                T beta, MatrixView<T> c) {
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
    parallel_units(units, [&](Index u) {
      const Index u0 = u * UR;
      const Index nu = std::min<Index>(UR, n - u0);
      for (Index q = 0; q < nblocks; ++q) {
        const Index q0 = q * NB;
        const Index nq = std::min<Index>(NB, n - q0);
        macro_kernel<T>(nu, nc, nq, a.block(u0, q0), pb + q0 * nc_pad,
                        c.data() + u0 + jc * c.ld(), c.ld(), beta,
                        /*first_panel=*/q == 0);
      }
    });
  }
}

/// Shape checks shared by both hemm() entry points, plus the calls that
/// never read A (empty output, alpha == 0). Returns true when the call is
/// complete.
template <typename T>
bool hemm_trivial(Index n, T alpha, ConstMatrixView<T> b, T beta,
                  MatrixView<T> c) {
  CHASE_CHECK_MSG(b.rows() == n, "hemm: inner dimensions differ");
  CHASE_CHECK_MSG(c.rows() == n && c.cols() == b.cols(),
                  "hemm: output shape");
  if (n == 0 || c.cols() == 0) return true;
  if (alpha == T(0)) {
    scale_tile(beta, n, c.cols(), c.data(), c.ld());
    return true;
  }
  return false;
}

}  // namespace detail

using detail::PackedHermitian;

/// C = alpha * A * B + beta * C with A Hermitian, held packed (see
/// PackedHermitian). No call re-packs A.
template <typename T>
void hemm(T alpha, const PackedHermitian<T>& a, ConstMatrixView<T> b, T beta,
          MatrixView<T> c) {
  const Index n = a.rows();
  if (detail::hemm_trivial(n, alpha, b, beta, c)) return;
  const bool tracked = perf::thread_tracker() != nullptr;
  WallTimer timer;
  detail::hemm_micro(alpha, a, b, beta, c);
  if (tracked) {
    detail::record_gemm_call("la.kernel.hemm.calls", sizeof(RealType<T>) == 4,
                             detail::gemm_flop_count<T>(n, c.cols(), n),
                             timer.seconds());
  }
}

/// C = alpha * A * B + beta * C with A Hermitian (full storage; only the
/// upper triangle is read). Packs A into a per-thread scratch — grown to the
/// largest A seen, never shrunk — on every call; a caller that applies one A
/// repeatedly should hold a PackedHermitian.
template <typename T>
void hemm(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
          MatrixView<T> c) {
  const Index n = a.rows();
  CHASE_CHECK_MSG(a.cols() == n, "hemm: A must be square");
  if (detail::hemm_trivial(n, alpha, b, beta, c)) return;
  thread_local PackedHermitian<T> packed;
  packed.fill(n, [&](Index i, Index j) { return a(i, j); });
  hemm(alpha, packed, b, beta, c);
}

}  // namespace chase::la
