// Backend-equivalence suite for the layered solver engine: the staged
// pipeline (core/engine) over the DLA backends (core/dla_dense.hpp) must
// reproduce the frozen pre-refactor monolithic drivers
// (tests/core/seed_driver.hpp) bit-for-bit — same eigenvalues, same local
// eigenvector entries, same iteration and MatVec counts — on every grid shape
// and scalar type, for both the v1.4 scheme and the legacy LMS scheme. The
// suite also pins the zero-allocation workspace contract (iterations >= 2
// never grow the arena) and drives a matrix-free operator, including the
// begin_apply hook path, through the staged engine.
#include <gtest/gtest.h>

#include <complex>

#include "tests/core/seed_driver.hpp"
#include "core/legacy_lms.hpp"
#include "core/operator.hpp"
#include "core/sequential.hpp"
#include "gen/spectrum.hpp"
#include "tests/testing.hpp"

namespace chase::core {
namespace {

template <typename T>
ChaseConfig small_config() {
  ChaseConfig cfg;
  cfg.nev = 8;
  cfg.nex = 6;
  cfg.tol = 1e-9;
  return cfg;
}

template <typename T>
la::Matrix<T> test_matrix(la::Index n) {
  return gen::hermitian_with_spectrum<T>(
      gen::dft_like_spectrum<double>(n, 33), 33);
}

/// Bitwise comparison of a staged-engine result against the seed oracle:
/// the refactor reorganized the code, not the arithmetic, so every float
/// must match exactly.
template <typename T>
void expect_bitwise_equal(const ChaseResult<T>& staged,
                          const ChaseResult<T>& seed) {
  ASSERT_EQ(staged.converged, seed.converged);
  EXPECT_EQ(staged.iterations, seed.iterations);
  EXPECT_EQ(staged.matvecs, seed.matvecs);
  EXPECT_EQ(staged.bounds.b_sup, seed.bounds.b_sup);
  EXPECT_EQ(staged.bounds.mu_1, seed.bounds.mu_1);
  EXPECT_EQ(staged.bounds.mu_ne, seed.bounds.mu_ne);
  ASSERT_EQ(staged.eigenvalues.size(), seed.eigenvalues.size());
  for (std::size_t j = 0; j < seed.eigenvalues.size(); ++j) {
    EXPECT_EQ(staged.eigenvalues[j], seed.eigenvalues[j]) << "value " << j;
  }
  ASSERT_EQ(staged.eigenvectors.rows(), seed.eigenvectors.rows());
  ASSERT_EQ(staged.eigenvectors.cols(), seed.eigenvectors.cols());
  for (la::Index j = 0; j < seed.eigenvectors.cols(); ++j) {
    for (la::Index i = 0; i < seed.eigenvectors.rows(); ++i) {
      EXPECT_EQ(staged.eigenvectors(i, j), seed.eigenvectors(i, j))
          << "entry (" << i << "," << j << ")";
    }
  }
  ASSERT_EQ(staged.stats.size(), seed.stats.size());
  for (std::size_t k = 0; k < seed.stats.size(); ++k) {
    EXPECT_EQ(staged.stats[k].locked_after, seed.stats[k].locked_after);
    EXPECT_EQ(staged.stats[k].matvecs, seed.stats[k].matvecs);
    EXPECT_EQ(staged.stats[k].max_residual, seed.stats[k].max_residual);
  }
}

struct GridCase {
  int nprow;
  int npcol;
};

class EngineGolden : public ::testing::TestWithParam<GridCase> {};

template <typename T>
void run_golden_case(int nprow, int npcol) {
  const la::Index n = 96;
  auto h = test_matrix<T>(n);
  auto cfg = small_config<T>();

  comm::Team team(nprow * npcol);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, nprow, npcol);
    auto rmap = dist::IndexMap::block(n, nprow);
    auto cmap = dist::IndexMap::block(n, npcol);
    // Fresh operators per run: the filter's diagonal shifts are restored on
    // exit, but independence keeps the comparison airtight.
    dist::DistHermitianMatrix<T> hd_staged(grid, rmap, cmap);
    hd_staged.fill_from_global(h.cview());
    dist::DistHermitianMatrix<T> hd_seed(grid, rmap, cmap);
    hd_seed.fill_from_global(h.cview());

    auto staged = solve(hd_staged, cfg);
    auto seed = seeddrv::solve(hd_seed, cfg);
    ASSERT_TRUE(seed.converged);
    expect_bitwise_equal(staged, seed);
  });
}

TEST_P(EngineGolden, RealMatchesSeedDriverBitwise) {
  run_golden_case<double>(GetParam().nprow, GetParam().npcol);
}

TEST_P(EngineGolden, ComplexMatchesSeedDriverBitwise) {
  run_golden_case<std::complex<double>>(GetParam().nprow, GetParam().npcol);
}

INSTANTIATE_TEST_SUITE_P(Grids, EngineGolden,
                         ::testing::Values(GridCase{1, 1}, GridCase{2, 2},
                                           GridCase{2, 3}),
                         [](const auto& info) {
                           return std::to_string(info.param.nprow) + "x" +
                                  std::to_string(info.param.npcol);
                         });

template <typename T>
void run_lms_golden_case() {
  const la::Index n = 80;
  auto h = test_matrix<T>(n);
  auto cfg = small_config<T>();

  comm::Team team(4);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, 2, 2);
    auto map = dist::IndexMap::block(n, 2);
    dist::DistHermitianMatrix<T> hd_staged(grid, map, map);
    hd_staged.fill_from_global(h.cview());
    dist::DistHermitianMatrix<T> hd_seed(grid, map, map);
    hd_seed.fill_from_global(h.cview());

    auto staged = solve_lms(hd_staged, cfg);
    auto seed = seeddrv::solve_lms(hd_seed, cfg);
    ASSERT_TRUE(seed.converged);
    expect_bitwise_equal(staged, seed);
  });
}

TEST(EngineLms, RealMatchesSeedDriverBitwise) {
  run_lms_golden_case<double>();
}

TEST(EngineLms, ComplexMatchesSeedDriverBitwise) {
  run_lms_golden_case<std::complex<double>>();
}

TEST(EngineWorkspace, SteadyStateIterationsNeverGrowTheArena) {
  using T = std::complex<double>;
  const la::Index n = 96;
  auto h = test_matrix<T>(n);
  auto cfg = small_config<T>();
  cfg.tol = 1e-11;  // enough iterations to exercise the steady state

  for (bool lms : {false, true}) {
    std::vector<perf::Tracker> trackers(4);
    comm::Team team(4);
    team.run(
        [&](comm::Communicator& world) {
          comm::Grid2d grid(world, 2, 2);
          auto map = dist::IndexMap::block(n, 2);
          dist::DistHermitianMatrix<T> hd(grid, map, map);
          hd.fill_from_global(h.cview());
          auto r = lms ? solve_lms(hd, cfg) : solve(hd, cfg);
          ASSERT_TRUE(r.converged);
          ASSERT_GE(r.iterations, 2);
          // The pipeline records arena growth per iteration; the setup-time
          // reservations cover everything, so even iteration 1 is clean.
          for (const auto& s : r.stats) {
            EXPECT_EQ(s.workspace_allocs, 0)
                << (lms ? "lms" : "v1.4") << " iteration " << s.iteration;
          }
        },
        &trackers);
    for (const auto& t : trackers) {
      EXPECT_EQ(t.counter("workspace.steady_growth"), 0.0);
    }
  }
}

/// Matrix-backed row functor (same as test_operator.cpp's DenseRow).
template <typename T>
struct DenseRow {
  const la::Matrix<T>* h;
  T operator()(la::Index row, la::ConstMatrixView<T> x, la::Index col) const {
    T acc(0);
    for (la::Index k = 0; k < h->rows(); ++k) acc += (*h)(row, k) * x(k, col);
    return acc;
  }
};

TEST(EngineMatrixFree, GatherBufferBoundToWorkspace) {
  // Satellite of the workspace arena: the matrix-free adapter's gathered
  // input lives in the SolverWorkspace, so repeated applies inside the
  // engine never grow a private buffer either.
  using T = double;
  const la::Index n = 64;
  auto h = test_matrix<T>(n);
  auto cfg = small_config<T>();

  std::vector<perf::Tracker> trackers(4);
  comm::Team team(4);
  team.run(
      [&](comm::Communicator& world) {
        comm::Grid2d grid(world, 2, 2);
        auto map = dist::IndexMap::block(n, 2);
        MatrixFreeOperator<T, DenseRow<T>> hop(grid, map, map,
                                               DenseRow<T>{&h});
        auto r = solve(hop, cfg);
        ASSERT_TRUE(r.converged);
        for (const auto& s : r.stats) {
          EXPECT_EQ(s.workspace_allocs, 0) << "iteration " << s.iteration;
        }
      },
      &trackers);
  for (const auto& t : trackers) {
    EXPECT_EQ(t.counter("workspace.steady_growth"), 0.0);
  }
}

template <typename T>
struct LapRow {
  Laplacian3D<T> lap;
  long* begin_applies;

  void begin_apply(la::ConstMatrixView<T> /*x*/) const { ++*begin_applies; }

  T operator()(la::Index row, la::ConstMatrixView<T> x, la::Index col) const {
    return lap(row, x, col);
  }
};

TEST(EngineMatrixFree, Laplacian3DConvergesToExactSpectrum) {
  using T = double;
  Laplacian3D<T> lap{6, 5, 4};
  const la::Index n = lap.size();  // 120
  const auto exact = lap.exact_eigenvalues();

  ChaseConfig cfg;
  cfg.nev = 10;
  cfg.nex = 8;
  cfg.tol = 1e-10;

  comm::Team team(6);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, 2, 3);
    auto rmap = dist::IndexMap::block(n, 2);
    auto cmap = dist::IndexMap::block(n, 3);
    long begin_applies = 0;
    MatrixFreeOperator<T, LapRow<T>> hop(grid, rmap, cmap,
                                         LapRow<T>{lap, &begin_applies});
    auto r = solve(hop, cfg);
    ASSERT_TRUE(r.converged);
    for (la::Index j = 0; j < cfg.nev; ++j) {
      EXPECT_NEAR(r.eigenvalues[std::size_t(j)], exact[std::size_t(j)], 1e-8)
          << "pair " << j;
    }
    // The hook runs once per gathered block: at minimum once per filtered
    // MatVec batch, plus the Rayleigh-Ritz / residual applications.
    EXPECT_GT(begin_applies, r.iterations);
  });
}

TEST(EngineObserver, RecoveryRetriesStillNotifyObserver) {
  // Regression test for the monolith's NaN-recovery path, which `continue`d
  // past the observer: every recorded iteration — including filter-recovery
  // retries — must reach after_iteration, so observer counts equal
  // result.stats.size() always.
  using T = double;
  const la::Index n = 72;
  auto h = test_matrix<T>(n);
  auto cfg = small_config<T>();

  struct CountingObserver : ChaseObserver<T> {
    int filters = 0;
    int iterations = 0;
    void after_filter(int, int, la::ConstMatrixView<T>, double) override {
      ++filters;
    }
    void after_iteration(const IterationStats&) override { ++iterations; }
  };

  comm::Team team(4);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, 2, 2);
    auto map = dist::IndexMap::block(n, 2);
    dist::DistHermitianMatrix<T> hd(grid, map, map);
    hd.fill_from_global(h.cview());
    CountingObserver obs;
    auto r = solve(hd, cfg, &obs);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(obs.iterations, int(r.stats.size()));
    EXPECT_EQ(obs.iterations, r.iterations);
    EXPECT_EQ(obs.filters, obs.iterations);
  });
}

}  // namespace
}  // namespace chase::core
