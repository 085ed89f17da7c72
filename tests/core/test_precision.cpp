// Mixed-precision pipeline: promotion-policy triggers in isolation, the
// CHASE_PRECISION policy plumbing, the fp32 shadow filter's halved allreduce
// payload, and end-to-end mixed solves (sequential, distributed v1.4, legacy
// LMS) converging to the fp64 eigenpairs with the fp32 filter demonstrably
// engaged — without disturbing a later double-precision solve.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <vector>

#include "core/filter.hpp"
#include "core/legacy_lms.hpp"
#include "core/precision.hpp"
#include "core/sequential.hpp"
#include "gen/spectrum.hpp"
#include "la/convert.hpp"
#include "perf/tracker.hpp"
#include "tests/testing.hpp"

namespace chase::core {
namespace {

// ---------------------------------------------------------------------------
// PromotionPolicy in isolation: the three triggers, one at a time.

TEST(PromotionPolicy, FloorPromotesOnlyColumnsBelowFloor) {
  engine::PromotionConfig cfg;
  cfg.resid_floor = 1e-5;
  engine::PromotionPolicy p(cfg);
  p.reset(4);
  p.observe(0, 4, {1e-3, 1e-6, 1e-3, 1e-3});
  EXPECT_FALSE(p.column_fp64(0));
  EXPECT_TRUE(p.column_fp64(1));
  EXPECT_FALSE(p.column_fp64(2));
  EXPECT_FALSE(p.column_fp64(3));
  EXPECT_EQ(p.columns_promoted(), 1);
  EXPECT_FALSE(p.subspace_fp64());
}

TEST(PromotionPolicy, StallPromotesAfterConsecutiveStalledIterations) {
  engine::PromotionConfig cfg;
  cfg.resid_floor = 1e-12;  // keep the floor out of the way
  cfg.stall_ratio = 0.85;
  cfg.column_stall_limit = 2;
  engine::PromotionPolicy p(cfg);
  p.reset(2);
  // Column 0 stalls twice in a row; column 1 keeps contracting.
  p.observe(0, 2, {1.0, 1.0});
  p.observe(0, 2, {0.99, 0.5});
  EXPECT_FALSE(p.column_fp64(0)) << "one stall is not enough";
  p.observe(0, 2, {0.985, 0.25});
  EXPECT_TRUE(p.column_fp64(0));
  EXPECT_FALSE(p.column_fp64(1));
  EXPECT_EQ(p.columns_promoted(), 1);
}

TEST(PromotionPolicy, ImprovingColumnResetsItsStallCount) {
  engine::PromotionConfig cfg;
  cfg.resid_floor = 1e-12;
  cfg.stall_ratio = 0.85;
  cfg.column_stall_limit = 2;
  engine::PromotionPolicy p(cfg);
  p.reset(1);
  p.observe(0, 1, {1.0});
  p.observe(0, 1, {0.99});   // stall 1
  p.observe(0, 1, {0.1});    // real progress: counter resets
  p.observe(0, 1, {0.099});  // stall 1 again, not 2
  EXPECT_FALSE(p.column_fp64(0));
  p.observe(0, 1, {0.0985});  // stall 2
  EXPECT_TRUE(p.column_fp64(0));
}

TEST(PromotionPolicy, SubspaceLimitZeroFallsBackImmediately) {
  engine::PromotionConfig cfg;
  cfg.subspace_stall_limit = 0;  // the deterministic-test hook
  engine::PromotionPolicy p(cfg);
  p.reset(3);
  EXPECT_FALSE(p.subspace_fp64());
  p.observe(0, 3, {1.0, 1.0, 1.0});
  EXPECT_TRUE(p.subspace_fp64());
  EXPECT_EQ(p.subspace_promotions(), 1);
  // The subspace flag covers every column, promoted or not.
  EXPECT_TRUE(p.column_fp64(0));
  EXPECT_TRUE(p.column_fp64(2));
}

TEST(PromotionPolicy, SubspaceFallsBackAfterStagnationStreak) {
  engine::PromotionConfig cfg;
  cfg.resid_floor = 1e-12;
  cfg.stall_ratio = 0.85;
  cfg.column_stall_limit = 1000;  // isolate the subspace trigger
  cfg.subspace_stall_limit = 2;
  engine::PromotionPolicy p(cfg);
  p.reset(2);
  p.observe(0, 2, {1.0, 1.0});  // first observation: baseline
  EXPECT_FALSE(p.subspace_fp64());
  p.observe(0, 2, {0.99, 0.99});  // no lock progress, best stalled: streak 1
  EXPECT_FALSE(p.subspace_fp64());
  p.observe(0, 2, {0.985, 0.985});  // streak 2: fall back
  EXPECT_TRUE(p.subspace_fp64());
  EXPECT_EQ(p.subspace_promotions(), 1);
}

TEST(PromotionPolicy, LockingProgressClearsSubspaceStreak) {
  engine::PromotionConfig cfg;
  cfg.resid_floor = 1e-12;
  cfg.column_stall_limit = 1000;
  cfg.subspace_stall_limit = 2;
  engine::PromotionPolicy p(cfg);
  p.reset(4);
  p.observe(0, 4, {1.0, 1.0, 1.0, 1.0});
  p.observe(0, 4, {0.99, 0.99, 0.99, 0.99});  // streak 1
  p.observe(1, 3, {0.0, 0.985, 0.985, 0.985});  // a column locked: streak resets
  p.observe(1, 3, {0.0, 0.98, 0.98, 0.98});     // streak 1 again
  EXPECT_FALSE(p.subspace_fp64());
}

TEST(PromotionPolicy, ResetClearsAllState) {
  engine::PromotionConfig cfg;
  cfg.subspace_stall_limit = 0;
  engine::PromotionPolicy p(cfg);
  p.reset(2);
  p.observe(0, 2, {1e-9, 1e-9});  // floor + immediate subspace fallback
  EXPECT_TRUE(p.subspace_fp64());
  EXPECT_GT(p.columns_promoted(), 0);
  p.reset(2);
  EXPECT_FALSE(p.subspace_fp64());
  EXPECT_FALSE(p.column_fp64(0));
  EXPECT_EQ(p.columns_promoted(), 0);
  EXPECT_EQ(p.subspace_promotions(), 0);
}

// ---------------------------------------------------------------------------
// Policy plumbing.

TEST(PrecisionPolicy, ParseAndName) {
  EXPECT_EQ(parse_precision("double"), Precision::kDouble);
  EXPECT_EQ(parse_precision("mixed"), Precision::kMixed);
  EXPECT_FALSE(parse_precision("single").has_value());
  EXPECT_FALSE(parse_precision("").has_value());
  EXPECT_EQ(precision_name(Precision::kDouble), "double");
  EXPECT_EQ(precision_name(Precision::kMixed), "mixed");
}

TEST(PrecisionPolicy, ScopedOverrideRestores) {
  const Precision before = precision();
  {
    ScopedPrecision outer(Precision::kMixed);
    EXPECT_EQ(precision(), Precision::kMixed);
    {
      ScopedPrecision inner(Precision::kDouble);
      EXPECT_EQ(precision(), Precision::kDouble);
    }
    EXPECT_EQ(precision(), Precision::kMixed);
  }
  EXPECT_EQ(precision(), before);
}

// ---------------------------------------------------------------------------
// End-to-end mixed solves.

template <typename T>
la::Matrix<T> test_matrix(la::Index n) {
  return gen::hermitian_with_spectrum<T>(gen::dft_like_spectrum<double>(n, 7),
                                         7);
}

ChaseConfig small_config() {
  ChaseConfig cfg;
  cfg.nev = 8;
  cfg.nex = 6;
  cfg.tol = 1e-9;
  return cfg;
}

/// Allreduce payload bytes, summed over the four ranks of a 2x2 grid, that
/// one chebyshev_filter call records: on H itself, or on its fp32 shadow
/// (built with fill_demoted, as the mixed backend builds it) applied to the
/// demoted panel.
std::size_t filter_allreduce_bytes(bool fp32_shadow) {
  using T = std::complex<double>;
  using L = std::complex<float>;
  const la::Index n = 96, ncols = 12;
  auto h = test_matrix<T>(n);
  std::vector<perf::Tracker> trackers(4);
  comm::Team team(4);
  team.run(
      [&](comm::Communicator& world) {
        comm::Grid2d grid(world, 2, 2);
        auto map = dist::IndexMap::block(n, 2);
        dist::DistHermitianMatrix<T> hd(grid, map, map);
        hd.fill_from_global(h.cview());
        const la::Index mloc = map.local_size(grid.my_row());
        const la::Index bloc = map.local_size(grid.my_col());
        la::Matrix<T> c(mloc, ncols), b(bloc, ncols);
        Rng rng(11);
        for (la::Index j = 0; j < ncols; ++j) {
          for (la::Index i = 0; i < mloc; ++i) c(i, j) = rng.gaussian<T>();
        }
        const std::vector<int> degs(std::size_t(ncols), 6);
        if (!fp32_shadow) {
          chebyshev_filter(hd, c.view(), b.view(), degs, 0.5, 0.45, -0.99);
          return;
        }
        dist::DistHermitianMatrix<L> h32(grid, map, map);
        h32.fill_demoted(hd);
        la::Matrix<L> c32(mloc, ncols), b32(bloc, ncols);
        la::demote<T>(c.cview(), c32.view());
        chebyshev_filter(h32, c32.view(), b32.view(), degs, 0.5f, 0.45f,
                         -0.99f);
      },
      &trackers);
  std::size_t bytes = 0;
  for (const auto& t : trackers) {
    for (const auto& e : t.collectives()) {
      if (e.region == perf::Region::kFilter &&
          e.kind == perf::CollKind::kAllReduce) {
        bytes += e.bytes;
      }
    }
  }
  return bytes;
}

TEST(MixedFilter, ShadowHalvesTheAllreduceBytes) {
  const std::size_t fp64 = filter_allreduce_bytes(false);
  const std::size_t fp32 = filter_allreduce_bytes(true);
  ASSERT_GT(fp64, 0u);
  EXPECT_EQ(2 * fp32, fp64);
}

template <typename T>
bool bitwise_equal(const ChaseResult<T>& a, const ChaseResult<T>& b) {
  if (a.iterations != b.iterations || a.matvecs != b.matvecs ||
      a.eigenvalues.size() != b.eigenvalues.size() ||
      a.eigenvectors.rows() != b.eigenvectors.rows() ||
      a.eigenvectors.cols() != b.eigenvectors.cols()) {
    return false;
  }
  if (std::memcmp(a.eigenvalues.data(), b.eigenvalues.data(),
                  a.eigenvalues.size() * sizeof(a.eigenvalues[0])) != 0) {
    return false;
  }
  for (la::Index j = 0; j < a.eigenvectors.cols(); ++j) {
    if (std::memcmp(a.eigenvectors.col(j), b.eigenvectors.col(j),
                    std::size_t(a.eigenvectors.rows()) * sizeof(T)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(PrecisionPolicy, DoubleSolveUnchangedByAnInterveningMixedSolve) {
  using T = std::complex<double>;
  auto h = test_matrix<T>(96);
  auto cfg = small_config();
  ScopedPrecision sp(Precision::kDouble);

  const ChaseResult<T> before = solve_sequential<T>(h.cview(), cfg);
  ASSERT_TRUE(before.converged);
  {
    ScopedPrecision mixed(Precision::kMixed);
    ASSERT_TRUE(solve_sequential<T>(h.cview(), cfg).converged);
  }
  const ChaseResult<T> after = solve_sequential<T>(h.cview(), cfg);
  EXPECT_TRUE(bitwise_equal(before, after))
      << "iterations " << before.iterations << " vs " << after.iterations
      << ", matvecs " << before.matvecs << " vs " << after.matvecs;
}

template <typename T>
class MixedSolve : public ::testing::Test {};
TYPED_TEST_SUITE(MixedSolve, chase::testing::DoubleScalarTypes);

TYPED_TEST(MixedSolve, SequentialMatchesDoublePrecision) {
  using T = TypeParam;
  const la::Index n = 96;
  auto h = test_matrix<T>(n);
  auto cfg = small_config();

  ChaseResult<T> ref = [&] {
    ScopedPrecision sp(Precision::kDouble);
    return solve_sequential<T>(h.cview(), cfg);
  }();
  ASSERT_TRUE(ref.converged);

  perf::Tracker t;
  perf::set_thread_tracker(&t);
  ChaseResult<T> mixed = [&] {
    ScopedPrecision sp(Precision::kMixed);
    return solve_sequential<T>(h.cview(), cfg);
  }();
  perf::set_thread_tracker(nullptr);

  ASSERT_TRUE(mixed.converged);
  for (la::Index j = 0; j < cfg.nev; ++j) {
    EXPECT_NEAR(mixed.eigenvalues[std::size_t(j)],
                ref.eigenvalues[std::size_t(j)], 1e-7)
        << "pair " << j;
  }
  // The fp32 filter actually ran, and locked pairs were refined.
  EXPECT_GT(t.counter("precision.filter.cols.fp32"), 0.0);
  EXPECT_GT(t.counter("precision.refine.pairs"), 0.0);
}

TEST(MixedSolve, DistributedV14MatchesSequentialDouble) {
  using T = std::complex<double>;
  const la::Index n = 96;
  auto h = test_matrix<T>(n);
  auto cfg = small_config();

  ChaseResult<T> seq = [&] {
    ScopedPrecision sp(Precision::kDouble);
    return solve_sequential<T>(h.cview(), cfg);
  }();
  ASSERT_TRUE(seq.converged);

  ScopedPrecision sp(Precision::kMixed);
  std::vector<perf::Tracker> trackers(4);
  comm::Team team(4);
  team.run(
      [&](comm::Communicator& world) {
        comm::Grid2d grid(world, 2, 2);
        auto map = dist::IndexMap::block(n, 2);
        dist::DistHermitianMatrix<T> hd(grid, map, map);
        hd.fill_from_global(h.cview());
        auto r = solve(hd, cfg);
        ASSERT_TRUE(r.converged);
        for (la::Index j = 0; j < cfg.nev; ++j) {
          EXPECT_NEAR(r.eigenvalues[std::size_t(j)],
                      seq.eigenvalues[std::size_t(j)], 1e-7)
              << "pair " << j;
        }
      },
      &trackers);
  for (const auto& t : trackers) {
    EXPECT_GT(t.counter("precision.filter.cols.fp32"), 0.0);
    EXPECT_GT(t.counter("precision.refine.pairs"), 0.0);
  }
}

TEST(MixedSolve, LegacyLmsMatchesSequentialDouble) {
  using T = std::complex<double>;
  const la::Index n = 80;
  auto h = test_matrix<T>(n);
  auto cfg = small_config();

  ChaseResult<T> seq = [&] {
    ScopedPrecision sp(Precision::kDouble);
    return solve_sequential<T>(h.cview(), cfg);
  }();
  ASSERT_TRUE(seq.converged);

  ScopedPrecision sp(Precision::kMixed);
  std::vector<perf::Tracker> trackers(4);
  comm::Team team(4);
  team.run(
      [&](comm::Communicator& world) {
        comm::Grid2d grid(world, 2, 2);
        auto map = dist::IndexMap::block(n, 2);
        dist::DistHermitianMatrix<T> hd(grid, map, map);
        hd.fill_from_global(h.cview());
        auto r = solve_lms(hd, cfg);
        ASSERT_TRUE(r.converged);
        for (la::Index j = 0; j < cfg.nev; ++j) {
          EXPECT_NEAR(r.eigenvalues[std::size_t(j)],
                      seq.eigenvalues[std::size_t(j)], 1e-7)
              << "pair " << j;
        }
      },
      &trackers);
  for (const auto& t : trackers) {
    EXPECT_GT(t.counter("precision.filter.cols.fp32"), 0.0);
    EXPECT_GT(t.counter("precision.refine.pairs"), 0.0);
  }
}

TEST(MixedSolve, PerColumnFallbackEngagesDeterministically) {
  // A floor above every reachable residual promotes each active column the
  // first time it is observed, so from iteration 2 on the filter runs the
  // promoted columns in fp64 — while the subspace trigger stays quiet.
  using T = double;
  const la::Index n = 96;
  auto h = test_matrix<T>(n);
  auto cfg = small_config();

  engine::PromotionConfig pc;
  pc.resid_floor = 1e9;
  pc.subspace_stall_limit = 1000;
  ScopedPromotionConfig spc(pc);
  ScopedPrecision sp(Precision::kMixed);

  perf::Tracker t;
  perf::set_thread_tracker(&t);
  auto r = solve_sequential<T>(h.cview(), cfg);
  perf::set_thread_tracker(nullptr);

  ASSERT_TRUE(r.converged);
  EXPECT_GT(t.counter("precision.promote.column"), 0.0);
  EXPECT_GT(t.counter("precision.filter.cols.fp64"), 0.0);
  EXPECT_GT(t.counter("precision.filter.cols.fp32"), 0.0)
      << "iteration 1 runs before any residual is observed";
  EXPECT_EQ(t.counter("precision.promote.subspace"), 0.0);
}

TEST(MixedSolve, SubspaceFallbackEngagesDeterministically) {
  // subspace_stall_limit <= 0 falls back at the first observation: the whole
  // panel filters in fp64 afterwards without any per-column promotions.
  using T = double;
  const la::Index n = 96;
  auto h = test_matrix<T>(n);
  auto cfg = small_config();

  engine::PromotionConfig pc;
  pc.resid_floor = 0.0;  // keep the per-column floor out of the way
  pc.column_stall_limit = 1000;
  pc.subspace_stall_limit = 0;
  ScopedPromotionConfig spc(pc);
  ScopedPrecision sp(Precision::kMixed);

  perf::Tracker t;
  perf::set_thread_tracker(&t);
  auto r = solve_sequential<T>(h.cview(), cfg);
  perf::set_thread_tracker(nullptr);

  ASSERT_TRUE(r.converged);
  EXPECT_GE(t.counter("precision.promote.subspace"), 1.0);
  EXPECT_GT(t.counter("precision.filter.cols.fp64"), 0.0);
  EXPECT_EQ(t.counter("precision.promote.column"), 0.0);
}

}  // namespace
}  // namespace chase::core
