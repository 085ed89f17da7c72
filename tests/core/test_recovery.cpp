// Numerical-breakdown recovery in the Algorithm 2 driver: NaN corruption of
// the filter output and transient corruption of an all_reduce are detected,
// repaired by deterministic re-randomization, and observable in perf
// counters; persistent corruption terminates cleanly instead of looping.
#include <gtest/gtest.h>

#include <chrono>
#include <complex>
#include <cstring>
#include <limits>
#include <optional>

#include "common/faultinject.hpp"
#include "core/lanczos.hpp"
#include "core/sequential.hpp"
#include "gen/spectrum.hpp"
#include "la/norms.hpp"
#include "tests/testing.hpp"

namespace chase::core {
namespace {

template <typename T>
ChaseConfig recovery_config() {
  ChaseConfig cfg;
  cfg.nev = 8;
  cfg.nex = 6;
  cfg.tol = 1e-9;
  return cfg;
}

TEST(Recovery, FilterNanIsRerandomizedAndSolveConverges) {
  using T = double;
  const Index n = 100;
  auto h = gen::hermitian_with_spectrum<T>(
      gen::uniform_spectrum<double>(n, -1.0, 5.0), 41);
  auto cfg = recovery_config<T>();

  perf::Tracker tracker;
  std::vector<double> corrupted_eigs;
  {
    fault::Scoped armed("filter.nan", /*rank=*/-1, /*times=*/1);
    perf::set_thread_tracker(&tracker);
    auto r = solve_sequential<T>(h.cview(), cfg);
    perf::set_thread_tracker(nullptr);
    EXPECT_EQ(fault::fire_count("filter.nan"), 1);
    ASSERT_TRUE(r.converged);
    corrupted_eigs = r.eigenvalues;
  }
  EXPECT_GE(tracker.counter("filter.nan_recovery"), 1.0);

  // The recovered solve must land on the same eigenvalues as a clean one.
  auto clean = solve_sequential<T>(h.cview(), cfg);
  ASSERT_TRUE(clean.converged);
  for (Index j = 0; j < cfg.nev; ++j) {
    EXPECT_NEAR(corrupted_eigs[std::size_t(j)],
                clean.eigenvalues[std::size_t(j)], 1e-7)
        << "pair " << j;
  }
}

TEST(Recovery, FilterNanDistributedConsensus) {
  // rank=-1 arming corrupts the replicated C block identically on every
  // grid column, so the consensus guard takes the same branch everywhere and
  // the 2x2 distributed solve still matches the sequential solution.
  using T = std::complex<double>;
  const Index n = 96;
  auto h = gen::hermitian_with_spectrum<T>(
      gen::dft_like_spectrum<double>(n, 43), 43);
  auto cfg = recovery_config<T>();
  auto seq = solve_sequential<T>(h.cview(), cfg);
  ASSERT_TRUE(seq.converged);

  fault::Scoped armed("filter.nan", /*rank=*/-1, /*times=*/1);
  comm::Team team(4);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, 2, 2);
    auto rmap = dist::IndexMap::block(n, 2);
    auto cmap = dist::IndexMap::block(n, 2);
    dist::DistHermitianMatrix<T> hd(grid, rmap, cmap);
    hd.fill_from_global(h.cview());
    auto r = solve(hd, cfg);
    ASSERT_TRUE(r.converged);
    for (Index j = 0; j < cfg.nev; ++j) {
      EXPECT_NEAR(r.eigenvalues[std::size_t(j)],
                  seq.eigenvalues[std::size_t(j)], 1e-7)
          << "pair " << j;
    }
  });
  EXPECT_EQ(fault::fire_count("filter.nan"), 4);  // once per rank
}

TEST(Recovery, PersistentFilterCorruptionTerminatesCleanly) {
  // Unlimited filter.nan: re-randomization cannot help, so the bounded
  // retry budget must kick in and the solve must report non-convergence
  // instead of spinning or crashing.
  using T = double;
  const Index n = 80;
  auto h = gen::hermitian_with_spectrum<T>(
      gen::uniform_spectrum<double>(n, 0.0, 4.0), 45);
  auto cfg = recovery_config<T>();

  fault::Scoped armed("filter.nan", /*rank=*/-1, /*times=*/-1);
  perf::Tracker tracker;
  perf::set_thread_tracker(&tracker);
  auto r = solve_sequential<T>(h.cview(), cfg);
  perf::set_thread_tracker(nullptr);
  EXPECT_FALSE(r.converged);
  EXPECT_DOUBLE_EQ(tracker.counter("filter.nan_recovery"), 3.0);  // budget
}

TEST(Recovery, TransientAllReduceCorruptionRestartsLanczos) {
  // A corrupted all_reduce during the first Lanczos norm computation makes
  // the recurrence non-finite; the run restarts with a salted random stream
  // and the solve proceeds to convergence.
  using T = double;
  const Index n = 90;
  auto h = gen::hermitian_with_spectrum<T>(
      gen::uniform_spectrum<double>(n, -2.0, 2.0), 47);
  auto cfg = recovery_config<T>();

  fault::Scoped armed("allreduce.corrupt", /*rank=*/-1, /*times=*/1);
  perf::Tracker tracker;
  perf::set_thread_tracker(&tracker);
  auto r = solve_sequential<T>(h.cview(), cfg);
  perf::set_thread_tracker(nullptr);
  ASSERT_TRUE(r.converged);
  EXPECT_GE(tracker.counter("lanczos.restart"), 1.0);

  auto clean = solve_sequential<T>(h.cview(), cfg);
  ASSERT_TRUE(clean.converged);
  for (Index j = 0; j < cfg.nev; ++j) {
    EXPECT_NEAR(r.eigenvalues[std::size_t(j)],
                clean.eigenvalues[std::size_t(j)], 1e-7);
  }
}

TEST(Recovery, CorruptedNormAllReduceRestartsOnlyItsRun) {
  // The first collective of the Lanczos block is the batched allreduce of
  // the nvec start-vector norms; corrupting its element 0 must restart run
  // 0 alone, on its salted stream, while runs 1..3 carry on untouched.
  using T = double;
  const Index n = 90;
  const int steps = 25, nvec = 4;
  auto h = gen::hermitian_with_spectrum<T>(
      gen::uniform_spectrum<double>(n, -2.0, 2.0), 47);
  for (int p : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << p << "x" << p << " grid");
    std::vector<perf::Tracker> trackers(std::size_t(p * p));
    comm::Team team(p * p);
    const auto runs_on_grid = [&](bool corrupt) {
      std::vector<std::vector<detail::LanczosRun<double>>> out(
          std::size_t(p * p));
      std::optional<fault::Scoped> armed;
      if (corrupt) armed.emplace("allreduce.corrupt", /*rank=*/-1, /*times=*/1);
      team.run(
          [&](comm::Communicator& world) {
            comm::Grid2d grid(world, p, p);
            auto map = dist::IndexMap::block(n, p);
            dist::DistHermitianMatrix<T> hd(grid, map, map);
            hd.fill_from_global(h.cview());
            out[std::size_t(world.rank())] =
                detail::lanczos_runs(hd, steps, 0, nvec, 2023);
          },
          corrupt ? &trackers : nullptr);
      if (corrupt) {
        EXPECT_EQ(fault::fire_count("allreduce.corrupt"), p * p);
      }
      return out;
    };
    const auto clean = runs_on_grid(false);
    const auto hit = runs_on_grid(true);
    for (int r = 0; r < p * p; ++r) {
      const auto& got = hit[std::size_t(r)];
      const auto& want = clean[std::size_t(r)];
      EXPECT_DOUBLE_EQ(trackers[std::size_t(r)].counter("lanczos.restart"),
                       1.0);
      ASSERT_EQ(got.size(), std::size_t(nvec));
      // Run 0 restarted on another stream and still ran every step.
      EXPECT_EQ(got[0].alpha.size(), std::size_t(steps));
      EXPECT_NE(got[0].alpha, want[0].alpha);
      for (const double a : got[0].alpha) EXPECT_TRUE(std::isfinite(a));
      for (int run = 1; run < nvec; ++run) {
        const auto& g = got[std::size_t(run)];
        const auto& c = want[std::size_t(run)];
        ASSERT_EQ(g.alpha.size(), c.alpha.size());
        ASSERT_EQ(g.beta.size(), c.beta.size());
        EXPECT_EQ(std::memcmp(g.alpha.data(), c.alpha.data(),
                              g.alpha.size() * sizeof(double)),
                  0)
            << "run " << run;
        EXPECT_EQ(std::memcmp(g.beta.data(), c.beta.data(),
                              g.beta.size() * sizeof(double)),
                  0)
            << "run " << run;
      }
    }
  }
}

TEST(Recovery, PersistentNonFiniteMatrixIsReportedNotLooped) {
  // A NaN in H itself defeats every Lanczos restart: after the bounded
  // retries the solver must raise a diagnosable error.
  using T = double;
  const Index n = 60;
  auto h = chase::testing::random_hermitian<T>(n, 49);
  h(0, 0) = std::numeric_limits<double>::quiet_NaN();
  auto cfg = recovery_config<T>();
  EXPECT_THROW(solve_sequential<T>(h.cview(), cfg), Error);
}

TEST(Recovery, RankDeathDuringDistributedSolveIsReported) {
  // The tentpole wired end to end: a rank dying inside the solver's
  // collectives must surface as TeamAborted naming the rank and site, with
  // no deadlock and no process abort.
  using T = double;
  const Index n = 64;
  auto h = gen::hermitian_with_spectrum<T>(
      gen::uniform_spectrum<double>(n, 0.0, 3.0), 51);
  auto cfg = recovery_config<T>();

  comm::ScopedBarrierTimeout fast(std::chrono::milliseconds(2000));
  fault::Scoped armed("rank.die", /*rank=*/1, /*times=*/1);
  comm::Team team(4);
  try {
    team.run([&](comm::Communicator& world) {
      comm::Grid2d grid(world, 2, 2);
      auto rmap = dist::IndexMap::block(n, 2);
      auto cmap = dist::IndexMap::block(n, 2);
      dist::DistHermitianMatrix<T> hd(grid, rmap, cmap);
      hd.fill_from_global(h.cview());
      (void)solve(hd, cfg);
    });
    FAIL() << "expected TeamAborted";
  } catch (const comm::TeamAborted& e) {
    EXPECT_EQ(e.error().rank, 1);
    EXPECT_EQ(e.error().site, "rank.die");
  }
}

}  // namespace
}  // namespace chase::core
