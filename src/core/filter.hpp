// The Chebyshev polynomial filter (Algorithm 2 line 10), implemented with
// the alternating distributed HEMM of Section 3.1.
//
// The scaled three-term recurrence (as in the ChASE library)
//   V_1     = (sigma_1 / e) (H - c I) V_0
//   V_{i+1} = (2 sigma_{i+1} / e) (H - c I) V_i - sigma_i sigma_{i+1} V_{i-1}
// with sigma_1 = e / (mu_1 - c), sigma_{i+1} = 1 / (2/sigma_1 - sigma_i)
// damps the components inside [mu_ne, b_sup] (mapped to [-1, 1] by c and e)
// while keeping the amplification of the wanted end of the spectrum bounded
// (the scaling normalizes the polynomial at mu_1).
//
// Odd steps write the B layout, even steps write back to the C layout; since
// all degrees are even the filtered vectors always end in C, and H never
// needs re-distribution (Section 2.2). Per-vector degrees are supported by
// sorting the active columns by degree ascending and shrinking the processed
// column range as degrees complete.
//
// Every apply_c2b/apply_b2c below is one local multiply followed by one
// allreduce of the whole partial product (dist_matrix.hpp apply_impl).
//
// The local multiply inside every apply runs the micro-kernel engine
// (src/la/gemm.hpp): diagonal ranks of the grid hold their Hermitian
// block only in la::hemm's packed panel order, built once from the upper
// triangle when H is filled, so no apply re-packs H (the diagonal shift
// below rewrites the n packed diagonal entries); off-diagonal ranks run the
// register-tiled gemm, which packs their plain block per call. Both engines
// are column-split invariant, which is what keeps a lockstep Lanczos run
// (core/lanczos.hpp) bitwise equal alone and inside the block, and both
// split their output rows across the idle cores of the rank's core share
// (la/parallel.hpp: all cores for a 1x1 solve, cpus / nranks per rank of a
// Team) with bitwise-identical results for any number of threads.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/faultinject.hpp"
#include "dist/dist_matrix.hpp"
#include "perf/tracker.hpp"

namespace chase::core {

/// Filter the columns [0, nact) of the C-layout block `c` in place.
///
/// `degs` (size nact) must be even, ascending; `b` is the B-layout scratch
/// block with at least nact columns. Returns the number of MatVec operations
/// (column-vector multiplications by H) performed.
/// `HOp` is any Hamiltonian operator exposing the DistHermitianMatrix
/// interface (Scalar, grid/row_map/col_map/global_size, apply_c2b/apply_b2c,
/// shift_diagonal) — including matrix-free operators (core/operator.hpp).
template <typename HOp, typename T = typename HOp::Scalar>
long chebyshev_filter(HOp& h, la::MatrixView<T> c,
                      la::MatrixView<T> b, const std::vector<int>& degs,
                      RealType<T> center, RealType<T> half_width,
                      RealType<T> mu_1) {
  using R = RealType<T>;
  perf::RegionScope scope(perf::Region::kFilter);
  const la::Index nact = c.cols();
  CHASE_CHECK_MSG(la::Index(degs.size()) == nact, "filter: degree count");
  if (nact == 0) return 0;
  CHASE_CHECK_MSG(std::is_sorted(degs.begin(), degs.end()),
                  "filter: degrees must be sorted ascending");
  for (int d : degs) {
    CHASE_CHECK_MSG(d >= 2 && d % 2 == 0,
                    "filter: degrees must be even, >= 2");
  }
  const int max_deg = degs.back();
  const R e = half_width;
  CHASE_CHECK_MSG(e > R(0), "filter: empty damping interval");
  CHASE_CHECK_MSG(mu_1 < center, "filter: mu_1 must lie below the interval");

  // Shift the local diagonal once: every recurrence step applies (H - c I).
  h.shift_diagonal(-center);

  const R sigma_1 = e / (mu_1 - center);
  R sigma = sigma_1;
  long matvecs = 0;

  // Step 1: B = (sigma_1 / e) (H - cI) C over all active columns.
  h.apply_c2b(T(sigma_1 / e), c.as_const(), T(0), b);
  matvecs += nact;

  for (int step = 2; step <= max_deg; ++step) {
    // Columns whose degree is already satisfied drop out; degrees are even,
    // so completed columns were last written in the C layout.
    const auto first =
        std::lower_bound(degs.begin(), degs.end(), step) - degs.begin();
    const la::Index col0 = la::Index(first);
    const la::Index ncols = nact - col0;
    if (ncols == 0) break;

    const R sigma_new = R(1) / (R(2) / sigma_1 - sigma);
    const T alpha = T(R(2) * sigma_new / e);
    const T beta = T(-sigma * sigma_new);
    if (step % 2 == 0) {
      // C_act = alpha (H - cI) B_act + beta C_act.
      h.apply_b2c(alpha, b.block(0, col0, b.rows(), ncols).as_const(), beta,
                  c.block(0, col0, c.rows(), ncols));
    } else {
      h.apply_c2b(alpha, c.block(0, col0, c.rows(), ncols).as_const(), beta,
                  b.block(0, col0, b.rows(), ncols));
    }
    sigma = sigma_new;
    matvecs += ncols;
  }

  h.shift_diagonal(center);

  // filter.nan fault: corrupt one entry of the filtered output. Arm with
  // rank -1 so every replica of C is corrupted identically (C is replicated
  // across grid columns) and the solver's consensus guard sees one corrupt
  // column, not diverged replicas.
  if (c.rows() > 0 && fault::fired("filter.nan")) {
    c(0, 0) = T(std::numeric_limits<R>::quiet_NaN());
  }
  return matvecs;
}

}  // namespace chase::core
