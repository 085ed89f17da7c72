// Spectral-bound estimation by repeated Lanczos runs with a stochastic
// Density-of-States quantile (Algorithm 2, line 1).
//
// ChASE needs three scalars before filtering:
//   b_sup  — an upper bound on the whole spectrum (the filter diverges if an
//            eigenvalue exceeds it);
//   mu_1   — an estimate of the lowest eigenvalue (used to normalize the
//            filter so the wanted end of the spectrum stays O(1));
//   mu_ne  — an estimate of the (nev+nex)-th eigenvalue: the lower edge of
//            the damped interval [mu_ne, b_sup].
// Each Lanczos run yields Ritz values theta_k with Gaussian-quadrature
// weights |e_1^T y_k|^2; averaging the resulting spectral measures over a few
// random starting vectors gives the DoS estimate whose ne/N quantile is
// mu_ne. The runs advance together as the columns of one block, so each
// Lanczos step costs one multi-column H apply rather than one per run.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "comm/communicator.hpp"
#include "common/rng.hpp"
#include "core/types.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/multivector.hpp"
#include "la/blas1.hpp"
#include "la/heevd.hpp"
#include "perf/tracker.hpp"

namespace chase::core {

/// Deterministic Gaussian entry for global row g of Lanczos stream `stream`:
/// every rank generates identical global vectors regardless of the grid.
template <typename T>
T lanczos_entry(std::uint64_t seed, std::uint64_t stream, la::Index g) {
  Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (stream + 1)), std::uint64_t(g));
  return rng.gaussian<T>();
}

namespace detail {

/// One Lanczos run's tridiagonal: the diagonal alpha and the off-diagonal
/// beta, whose trailing entry is the residual norm of the last step.
template <typename R>
struct LanczosRun {
  std::vector<R> alpha;
  std::vector<R> beta;
};

/// Raw Lanczos quadrature data shared by the spectral-bound estimation and
/// the public DoS interface (core/dos.hpp).
template <typename R>
struct LanczosQuadrature {
  std::vector<std::pair<R, R>> dos;  // (ritz value, weight) per run
  R b_sup = -std::numeric_limits<R>::infinity();
  R mu_1 = std::numeric_limits<R>::infinity();
};

/// Lanczos runs first_run .. first_run + nruns - 1, advanced in lockstep as
/// the columns of one block: every step makes one nruns-column H apply, one
/// B -> C redistribution and one allreduce each for the nruns alphas and the
/// nruns betas. Each column keeps its own recurrence, stop and restart, so a
/// run's tridiagonal is bitwise the same whether it advances alone or in
/// the block (the HEMM/GEMM engines compute every output column with a
/// fixed k-loop order, and the allreduces combine element by element).
template <typename HOp, typename T = typename HOp::Scalar>
std::vector<LanczosRun<RealType<T>>> lanczos_runs(HOp& h, int steps,
                                                  int first_run, int nruns,
                                                  std::uint64_t seed) {
  using R = RealType<T>;
  const auto& grid = h.grid();
  const auto& rmap = h.row_map();
  const auto& cmap = h.col_map();
  const la::Index n = h.global_size();
  const la::Index mloc = rmap.local_size(grid.my_row());
  const la::Index nv = nruns;
  steps = int(std::min<la::Index>(steps, n));

  la::Matrix<T> v_prev(mloc, nv), v(mloc, nv), w(mloc, nv);
  la::Matrix<T> wb(cmap.local_size(grid.my_col()), nv);
  std::vector<T> dots(static_cast<std::size_t>(nv));

  // kStart: needs a (re-)randomized start vector; kActive: mid-recurrence
  // (its step count is the length of its beta list); kDone: finished or
  // stopped on an invariant subspace. Done columns are zeroed and ride
  // along in the block applies.
  enum class State { kStart, kActive, kDone };
  struct Column {
    State state = State::kStart;
    int attempt = 0;
  };
  std::vector<Column> cols(static_cast<std::size_t>(nv));
  std::vector<LanczosRun<R>> runs(static_cast<std::size_t>(nv));
  const auto in_state = [&](State st) {
    return std::any_of(cols.begin(), cols.end(),
                       [&](const Column& c) { return c.state == st; });
  };

  // Global inner products of matching columns over C-layout rows: local
  // dots + one allreduce over the column communicator (identical on all
  // grid columns by determinism). Columns outside `st` contribute zero.
  const auto global_dots = [&](const la::Matrix<T>& a, const la::Matrix<T>& b,
                               State st) {
    for (la::Index c = 0; c < nv; ++c) {
      dots[std::size_t(c)] = cols[std::size_t(c)].state == st
                                 ? la::dotc(mloc, a.col(c), b.col(c))
                                 : T(0);
    }
    grid.col_comm().all_reduce(dots.data(), nv);
  };

  // Non-finite recurrence coefficients (an Inf/NaN in H, or corruption in
  // transit) would silently poison the DoS estimate and hence every bound
  // derived from it. Since alpha/beta come out of allreduces they are
  // identical on all ranks, so every rank restarts the run with the same
  // salted random stream; persistent breakdown means H itself contains
  // non-finite entries and is reported as an error.
  const auto restart = [&](Column& col) {
    perf::bump_counter("lanczos.restart");
    CHASE_CHECK_MSG(++col.attempt < 3,
                    "lanczos: non-finite recurrence coefficients persist "
                    "after re-randomized restarts (does H contain Inf/NaN?)");
    col.state = State::kStart;
  };
  const auto stop = [&](Column& col, la::Index c) {
    col.state = State::kDone;
    std::fill(v.col(c), v.col(c) + mloc, T(0));
  };

  for (;;) {
    while (in_state(State::kStart)) {
      // Random normalized start vectors for every column that needs one.
      for (la::Index c = 0; c < nv; ++c) {
        const auto& col = cols[std::size_t(c)];
        if (col.state != State::kStart) continue;
        const auto stream = std::uint64_t(first_run + c) +
                            std::uint64_t(col.attempt) * 100003;
        for (const auto& r : rmap.runs(grid.my_row())) {
          for (la::Index k = 0; k < r.length; ++k) {
            v(r.local_begin + k, c) =
                lanczos_entry<T>(seed, stream, r.global_begin + k);
          }
        }
      }
      global_dots(v, v, State::kStart);
      for (la::Index c = 0; c < nv; ++c) {
        auto& col = cols[std::size_t(c)];
        if (col.state != State::kStart) continue;
        const R nrm = std::sqrt(real_part(dots[std::size_t(c)]));
        la::scal(mloc, T(R(1) / nrm), v.col(c));
        runs[std::size_t(c)] = {};
        if (!(std::isfinite(nrm) && nrm > R(0))) {
          restart(col);
        } else if (steps > 0) {
          col.state = State::kActive;
        } else {
          stop(col, c);
        }
      }
    }
    if (!in_state(State::kActive)) break;

    // w = H v (apply once: C -> B, then pure redistribution back to C).
    h.apply_c2b(T(1), v.cview(), T(0), wb.view());
    dist::redistribute_b2c<T>(grid, rmap, cmap, wb.cview(), w.view());
    for (la::Index c = 0; c < nv; ++c) {
      const auto& beta = runs[std::size_t(c)].beta;
      if (cols[std::size_t(c)].state == State::kActive && !beta.empty()) {
        la::axpy(mloc, T(-beta.back()), v_prev.col(c), w.col(c));
      }
    }
    global_dots(v, w, State::kActive);
    for (la::Index c = 0; c < nv; ++c) {
      auto& col = cols[std::size_t(c)];
      if (col.state != State::kActive) continue;
      const R a = real_part(dots[std::size_t(c)]);
      if (!std::isfinite(a)) {
        restart(col);
        continue;
      }
      runs[std::size_t(c)].alpha.push_back(a);
      la::axpy(mloc, T(-a), v.col(c), w.col(c));
    }
    global_dots(w, w, State::kActive);
    for (la::Index c = 0; c < nv; ++c) {
      auto& col = cols[std::size_t(c)];
      if (col.state != State::kActive) continue;
      const R b = std::sqrt(real_part(dots[std::size_t(c)]));
      if (!std::isfinite(b)) {
        restart(col);
        continue;
      }
      // The last step's beta is kept as the trailing residual; b == 0 means
      // an invariant subspace was found.
      auto& beta = runs[std::size_t(c)].beta;
      beta.push_back(b);
      if (int(beta.size()) == steps || b == R(0)) {
        stop(col, c);
        continue;
      }
      std::copy(v.col(c), v.col(c) + mloc, v_prev.col(c));
      std::copy(w.col(c), w.col(c) + mloc, v.col(c));
      la::scal(mloc, T(R(1) / b), v.col(c));
    }
  }
  return runs;
}

/// Ritz values/weights of one run's tridiagonal (tiny, solved redundantly)
/// appended to `q`, with b_sup and mu_1 updated from them.
template <typename R>
void add_ritz_pairs(const LanczosRun<R>& run, LanczosQuadrature<R>& q) {
  const int m = int(run.alpha.size());
  la::Matrix<R> t(m, m), z(m, m);
  for (int i = 0; i < m; ++i) {
    t(i, i) = run.alpha[std::size_t(i)];
    if (i + 1 < m) {
      t(i, i + 1) = run.beta[std::size_t(i)];
      t(i + 1, i) = run.beta[std::size_t(i)];
    }
  }
  std::vector<R> theta;
  la::heevd(t.view(), theta, z.view());
  const R beta_last = run.beta.empty() ? R(0) : std::abs(run.beta.back());
  for (int k = 0; k < m; ++k) {
    const R weight = real_part(conjugate(z(0, k)) * z(0, k));
    q.dos.emplace_back(theta[std::size_t(k)], weight);
    // Upper bound: top Ritz value plus its residual bound.
    q.b_sup = std::max(q.b_sup,
                       theta[std::size_t(k)] +
                           beta_last * std::abs(real_part(z(m - 1, k))));
    q.mu_1 = std::min(q.mu_1, theta[std::size_t(k)]);
  }
}

/// All nvec runs in one lockstep block; the DoS pairs, b_sup and mu_1 are
/// assembled per run in run order.
template <typename HOp, typename T = typename HOp::Scalar>
LanczosQuadrature<RealType<T>> lanczos_quadrature(
    HOp& h, int steps, int nvec, std::uint64_t seed) {
  perf::RegionScope scope(perf::Region::kLanczos);
  LanczosQuadrature<RealType<T>> q;
  for (const auto& run : lanczos_runs(h, steps, 0, nvec, seed)) {
    add_ritz_pairs(run, q);
  }
  return q;
}

/// b_sup, mu_1 and the DoS quantile mu_ne of `quad` (nvec runs on an n x n
/// matrix, ne wanted pairs).
template <typename R>
SpectralBounds<R> spectral_bounds(LanczosQuadrature<R> quad, la::Index ne,
                                  la::Index n, int nvec) {
  const R b_sup = quad.b_sup;
  const R mu_1 = quad.mu_1;

  // DoS quantile: smallest theta whose cumulative weight covers ne/N of the
  // spectral measure (each run contributes total weight 1, averaged).
  std::sort(quad.dos.begin(), quad.dos.end());
  const R target = R(ne) / R(n) * R(nvec);
  R cum = 0;
  R mu_ne = b_sup;
  for (const auto& [theta, wgt] : quad.dos) {
    cum += wgt;
    if (cum >= target) {
      mu_ne = theta;
      break;
    }
  }
  // Keep the damped interval non-degenerate.
  mu_ne = std::min(std::max(mu_ne, mu_1 + R(1e-8) * (b_sup - mu_1)),
                   b_sup - R(1e-8) * std::max(std::abs(b_sup), R(1)));
  return {b_sup, mu_1, mu_ne};
}

}  // namespace detail

template <typename HOp, typename T = typename HOp::Scalar>
SpectralBounds<RealType<T>> lanczos_bounds(HOp& h,
                                           la::Index ne, int steps, int nvec,
                                           std::uint64_t seed) {
  return detail::spectral_bounds(
      detail::lanczos_quadrature(h, steps, nvec, seed), ne, h.global_size(),
      nvec);
}

}  // namespace chase::core
