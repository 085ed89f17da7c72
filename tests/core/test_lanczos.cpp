// Properties of the Lanczos spectral-bound / DoS estimation (Algorithm 2
// line 1): the upper bound must actually bound the spectrum (the filter
// diverges otherwise), mu_1 must reach the lower edge, and the quantile
// estimate mu_ne must land inside the spectrum. The runs advance in lockstep
// as the columns of one block; each run must come out bitwise the same as
// when it advances alone, and the bounds must match the one-run-at-a-time
// loop the block replaced.
#include "core/lanczos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstring>
#include <stdexcept>

#include "core/dos.hpp"
#include "core/operator.hpp"
#include "gen/spectrum.hpp"
#include "tests/testing.hpp"

namespace chase::core {
namespace {

template <typename T>
SpectralBounds<double> bounds_of(const la::Matrix<T>& h, la::Index ne,
                                 int steps = 25, int nvec = 4) {
  comm::Communicator self;
  comm::Grid2d grid(self, 1, 1);
  const la::Index n = h.rows();
  dist::DistHermitianMatrix<T> hd(grid, dist::IndexMap::block(n, 1),
                                  dist::IndexMap::block(n, 1));
  hd.fill_from_global(h.cview());
  return lanczos_bounds(hd, ne, steps, nvec, 2023);
}

template <typename T>
class LanczosTyped : public ::testing::Test {};
TYPED_TEST_SUITE(LanczosTyped, chase::testing::DoubleScalarTypes);

TYPED_TEST(LanczosTyped, UpperBoundCoversSpectrum) {
  using T = TypeParam;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const la::Index n = 120;
    auto eigs = gen::uniform_spectrum<double>(n, -2.0, 5.0);
    auto h = gen::hermitian_with_spectrum<T>(eigs, seed);
    auto b = bounds_of(h, 12);
    EXPECT_GE(b.b_sup, eigs.back() - 1e-10) << "seed " << seed;
    // ...but not wildly above it (a loose bound wastes filter degrees).
    EXPECT_LE(b.b_sup, eigs.back() + 0.5 * (eigs.back() - eigs.front()));
  }
}

TYPED_TEST(LanczosTyped, LowerEstimateReachesTheEdge) {
  // Lanczos converges to extremal eigenvalues first: mu_1 should be within
  // a tight tolerance of lambda_min after ~25 steps.
  using T = TypeParam;
  const la::Index n = 150;
  auto eigs = gen::dft_like_spectrum<double>(n, 5);
  auto h = gen::hermitian_with_spectrum<T>(eigs, 5);
  auto b = bounds_of(h, 15);
  EXPECT_NEAR(b.mu_1, eigs.front(), 1e-3 * std::abs(eigs.front()));
  EXPECT_GE(b.mu_1, eigs.front() - 1e-10);  // Ritz values never undershoot
}

TYPED_TEST(LanczosTyped, QuantileEstimateLandsInsideTheSpectrum) {
  using T = TypeParam;
  const la::Index n = 200;
  auto eigs = gen::uniform_spectrum<double>(n, 0.0, 10.0);
  auto h = gen::hermitian_with_spectrum<T>(eigs, 7);
  const la::Index ne = 20;
  auto b = bounds_of(h, ne, 30, 6);
  // mu_ne estimates lambda_20 = 1.0 of a uniform [0,10] spectrum; the
  // stochastic quantile is crude but must stay in a sane neighbourhood and
  // strictly inside (mu_1, b_sup).
  EXPECT_GT(b.mu_ne, b.mu_1);
  EXPECT_LT(b.mu_ne, b.b_sup);
  EXPECT_NEAR(b.mu_ne, 1.0, 2.0);
}

TEST(Lanczos, DegenerateSpectrumBreakdownHandled) {
  // H = alpha I: the first Lanczos step finds an invariant subspace
  // (beta = 0); the bounds must still come out sane.
  using T = double;
  const la::Index n = 40;
  la::Matrix<T> h(n, n);
  for (la::Index j = 0; j < n; ++j) h(j, j) = 3.0;
  auto b = bounds_of(h, 4);
  EXPECT_NEAR(b.mu_1, 3.0, 1e-12);
  EXPECT_GE(b.b_sup, 3.0 - 1e-12);
  EXPECT_LT(b.b_sup, 3.5);
}

TEST(Lanczos, MatchesAcrossGridShapes) {
  using T = std::complex<double>;
  const la::Index n = 60;
  auto h = gen::hermitian_with_spectrum<T>(
      gen::bse_like_spectrum<double>(n, 9), 9);
  auto seq = bounds_of(h, 10);

  comm::Team team(4);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, 2, 2);
    auto map = dist::IndexMap::block(n, 2);
    dist::DistHermitianMatrix<T> hd(grid, map, map);
    hd.fill_from_global(h.cview());
    auto par = lanczos_bounds(hd, 10, 25, 4, 2023);
    EXPECT_NEAR(par.b_sup, seq.b_sup, 1e-10);
    EXPECT_NEAR(par.mu_1, seq.mu_1, 1e-10);
    EXPECT_NEAR(par.mu_ne, seq.mu_ne, 1e-10);
  });
}

// ---- lockstep block vs runs advanced alone, and vs the serial loop ----

/// The one-run-at-a-time Lanczos loop the lockstep block replaced, kept as
/// an oracle: every run makes its own one-column H applies and one-scalar
/// allreduces.
template <typename HOp, typename T = typename HOp::Scalar>
detail::LanczosQuadrature<RealType<T>> serial_quadrature(HOp& h, int steps,
                                                         int nvec,
                                                         std::uint64_t seed) {
  using R = RealType<T>;
  const auto& grid = h.grid();
  const auto& rmap = h.row_map();
  const auto& cmap = h.col_map();
  const la::Index mloc = rmap.local_size(grid.my_row());
  steps = int(std::min<la::Index>(steps, h.global_size()));

  la::Matrix<T> v_prev(mloc, 1), v(mloc, 1), w(mloc, 1);
  la::Matrix<T> wb(cmap.local_size(grid.my_col()), 1);
  auto global_dotc = [&](const la::Matrix<T>& a, const la::Matrix<T>& b) {
    T acc = la::dotc(mloc, a.data(), b.data());
    grid.col_comm().all_reduce(&acc, 1);
    return acc;
  };

  detail::LanczosQuadrature<R> q;
  for (int run = 0; run < nvec; ++run) {
    detail::LanczosRun<R> tri;
    bool run_ok = false;
    for (int attempt = 0; attempt < 3 && !run_ok; ++attempt) {
      const auto stream = std::uint64_t(run) + std::uint64_t(attempt) * 100003;
      for (const auto& r : rmap.runs(grid.my_row())) {
        for (la::Index k = 0; k < r.length; ++k) {
          v(r.local_begin + k, 0) =
              lanczos_entry<T>(seed, stream, r.global_begin + k);
        }
      }
      R nrm = std::sqrt(real_part(global_dotc(v, v)));
      la::scal(mloc, T(R(1) / nrm), v.data());
      v_prev.set_zero();
      tri = {};
      bool finite = std::isfinite(nrm) && nrm > R(0);
      for (int j = 0; finite && j < steps; ++j) {
        h.apply_c2b(T(1), v.cview(), T(0), wb.view());
        dist::redistribute_b2c<T>(grid, rmap, cmap, wb.cview(), w.view());
        if (j > 0) {
          la::axpy(mloc, T(-tri.beta.back()), v_prev.data(), w.data());
        }
        const R a = real_part(global_dotc(v, w));
        if (!std::isfinite(a)) {
          finite = false;
          break;
        }
        tri.alpha.push_back(a);
        la::axpy(mloc, T(-a), v.data(), w.data());
        const R b = std::sqrt(real_part(global_dotc(w, w)));
        if (!std::isfinite(b)) {
          finite = false;
          break;
        }
        tri.beta.push_back(b);
        if (j + 1 < steps) {
          if (b == R(0)) break;
          std::swap(v_prev, v);
          la::copy(w.cview(), v.view());
          la::scal(mloc, T(R(1) / b), v.data());
        }
      }
      run_ok = finite;
    }
    if (!run_ok) throw std::runtime_error("oracle: persistent breakdown");
    detail::add_ritz_pairs(tri, q);
  }
  return q;
}

template <typename R>
bool bitwise_equal(const std::vector<R>& a, const std::vector<R>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(R)) == 0);
}

/// |a - b| within 1e-12 of max(|a|, |b|, scale).
void expect_rel(double a, double b, double scale, const char* what) {
  EXPECT_LE(std::abs(a - b),
            1e-12 * std::max({std::abs(a), std::abs(b), scale}))
      << what << ": " << a << " vs " << b;
}

/// Every run's tridiagonal and Ritz pairs are bitwise the same advanced
/// alone (a one-column block) or as a column of the nvec block; returns the
/// block's runs.
template <typename HOp, typename R = RealType<typename HOp::Scalar>>
std::vector<detail::LanczosRun<R>> expect_block_invariant(HOp& h, int steps,
                                                          int nvec,
                                                          std::uint64_t seed) {
  const auto block = detail::lanczos_runs(h, steps, 0, nvec, seed);
  const auto quad = detail::lanczos_quadrature(h, steps, nvec, seed);
  EXPECT_EQ(block.size(), std::size_t(nvec));
  std::size_t offset = 0;
  for (int r = 0; r < nvec && std::size_t(r) < block.size(); ++r) {
    const auto alone = detail::lanczos_runs(h, steps, r, 1, seed);
    EXPECT_TRUE(bitwise_equal(alone[0].alpha, block[std::size_t(r)].alpha))
        << "alpha of run " << r;
    EXPECT_TRUE(bitwise_equal(alone[0].beta, block[std::size_t(r)].beta))
        << "beta of run " << r;
    detail::LanczosQuadrature<R> single;
    detail::add_ritz_pairs(alone[0], single);
    if (offset + single.dos.size() > quad.dos.size()) {
      ADD_FAILURE() << "block has fewer Ritz pairs than run " << r << " alone";
      break;
    }
    for (std::size_t k = 0; k < single.dos.size(); ++k) {
      const auto& [theta, wgt] = quad.dos[offset + k];
      EXPECT_EQ(std::memcmp(&single.dos[k].first, &theta, sizeof(R)), 0)
          << "run " << r << " node " << k;
      EXPECT_EQ(std::memcmp(&single.dos[k].second, &wgt, sizeof(R)), 0)
          << "run " << r << " weight " << k;
    }
    offset += single.dos.size();
  }
  EXPECT_EQ(offset, quad.dos.size());
  return block;
}

/// b_sup, mu_1, mu_ne and the estimate_dos nodes/weights match the serial
/// oracle within 1e-12 (nodes relative to the spectral scale, weights to
/// the total mass 1).
template <typename HOp>
void expect_matches_oracle(HOp& h, la::Index ne, int steps, int nvec,
                           std::uint64_t seed) {
  auto oracle = serial_quadrature(h, steps, nvec, seed);
  const auto want =
      detail::spectral_bounds(oracle, ne, h.global_size(), nvec);
  const auto got = lanczos_bounds(h, ne, steps, nvec, seed);
  const double scale = std::max(std::abs(want.b_sup), std::abs(want.mu_1));
  expect_rel(got.b_sup, want.b_sup, 0.0, "b_sup");
  expect_rel(got.mu_1, want.mu_1, 0.0, "mu_1");
  expect_rel(got.mu_ne, want.mu_ne, 0.0, "mu_ne");

  const auto dos = estimate_dos(h, steps, nvec, seed);
  std::sort(oracle.dos.begin(), oracle.dos.end());
  ASSERT_EQ(dos.nodes.size(), oracle.dos.size());
  for (std::size_t k = 0; k < oracle.dos.size(); ++k) {
    expect_rel(dos.nodes[k], oracle.dos[k].first, scale, "node");
    expect_rel(dos.weights[k], oracle.dos[k].second / double(nvec), 1.0,
               "weight");
  }
}

/// Run fn(grid) on an nprow x npcol grid (a self communicator for 1x1).
template <typename Fn>
void on_grid(int nprow, int npcol, Fn&& fn) {
  if (nprow * npcol == 1) {
    comm::Communicator self;
    comm::Grid2d grid(self, 1, 1);
    fn(grid);
    return;
  }
  comm::Team team(nprow * npcol);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, nprow, npcol);
    fn(grid);
  });
}

struct GridShape {
  int nprow, npcol;
};
constexpr GridShape kGrids[] = {{1, 1}, {2, 2}, {2, 3}};

template <typename T>
void check_dense(const la::Matrix<T>& h, la::Index ne, int steps, int nvec) {
  const la::Index n = h.rows();
  for (const auto g : kGrids) {
    SCOPED_TRACE(::testing::Message() << g.nprow << "x" << g.npcol << " grid");
    on_grid(g.nprow, g.npcol, [&](const comm::Grid2d& grid) {
      dist::DistHermitianMatrix<T> hd(grid, dist::IndexMap::block(n, g.nprow),
                                      dist::IndexMap::block(n, g.npcol));
      hd.fill_from_global(h.cview());
      expect_block_invariant(hd, steps, nvec, 2023);
      expect_matches_oracle(hd, ne, steps, nvec, 2023);
    });
  }
}

TYPED_TEST(LanczosTyped, LockstepBlockMatchesRunsAloneAndSerialOracle) {
  using T = TypeParam;
  const la::Index n = 60;
  auto h = gen::hermitian_with_spectrum<T>(
      gen::bse_like_spectrum<double>(n, 9), 9);
  check_dense(h, 10, 25, 4);
}

TYPED_TEST(LanczosTyped, LockstepFewerRowsThanSteps) {
  // n < steps: every run is cut to n steps and ends on its trailing beta.
  using T = TypeParam;
  const la::Index n = 10;
  auto h = gen::hermitian_with_spectrum<T>(
      gen::uniform_spectrum<double>(n, -1.0, 3.0), 11);
  check_dense(h, 3, 25, 4);
}

TYPED_TEST(LanczosTyped, LockstepSingleRun) {
  using T = TypeParam;
  const la::Index n = 50;
  auto h = gen::hermitian_with_spectrum<T>(
      gen::uniform_spectrum<double>(n, 0.0, 4.0), 13);
  check_dense(h, 5, 25, 1);
}

TYPED_TEST(LanczosTyped, LockstepMatrixFreeOperator) {
  using T = TypeParam;
  const Laplacian3D<T> lap{4, 4, 4};
  const la::Index n = lap.size();
  for (const auto g : kGrids) {
    SCOPED_TRACE(::testing::Message() << g.nprow << "x" << g.npcol << " grid");
    on_grid(g.nprow, g.npcol, [&](const comm::Grid2d& grid) {
      MatrixFreeOperator<T, Laplacian3D<T>> hop(
          grid, dist::IndexMap::block(n, g.nprow),
          dist::IndexMap::block(n, g.npcol), lap);
      expect_block_invariant(hop, 25, 4, 2023);
      expect_matches_oracle(hop, 8, 25, 4, 2023);
    });
  }
}

TEST(Lanczos, LockstepColumnStopsEarlyWhileOthersContinue) {
  // H = 2 I: w = H v - alpha v is exactly zero when the start vector's
  // computed norm rounds to exactly 1, so that run stops on b == 0 after
  // one step, while the other runs keep going on rounding noise. Which runs
  // stop depends on the build's rounding, so the test takes the first
  // Lanczos seed whose block mixes stopped and continuing runs. The stopped
  // columns are zeroed and ride along; no run may notice.
  using T = double;
  const la::Index n = 40;
  la::Matrix<T> h(n, n);
  for (la::Index j = 0; j < n; ++j) h(j, j) = 2.0;
  for (const auto g : kGrids) {
    SCOPED_TRACE(::testing::Message() << g.nprow << "x" << g.npcol << " grid");
    on_grid(g.nprow, g.npcol, [&](const comm::Grid2d& grid) {
      dist::DistHermitianMatrix<T> hd(grid, dist::IndexMap::block(n, g.nprow),
                                      dist::IndexMap::block(n, g.npcol));
      hd.fill_from_global(h.cview());
      bool mixed = false;
      for (std::uint64_t seed = 1; seed <= 64 && !mixed; ++seed) {
        std::size_t early = 0;
        for (const auto& r : detail::lanczos_runs(hd, 25, 0, 4, seed)) {
          early += r.alpha.size() < 25 ? 1 : 0;
        }
        if (early == 0 || early == 4) continue;
        mixed = true;
        expect_block_invariant(hd, 25, 4, seed);
        expect_matches_oracle(hd, 4, 25, 4, seed);
      }
      EXPECT_TRUE(mixed) << "no seed in 1..64 mixed stopped and running runs";
    });
  }
}

}  // namespace
}  // namespace chase::core
