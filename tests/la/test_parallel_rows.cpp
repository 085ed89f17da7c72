// Row-parallel kernels (src/la/parallel.hpp): hemm, gemm and the right-side
// TRSM cut their output rows into units that any thread may run, so a call
// spread over 2, 3 or 4 cores must produce the very bytes of the 1-core
// call. The sweep covers every register-tile / k-block edge the engine
// special-cases, one and many B column panels, every op pair, and the
// alpha == 0 / beta scaling paths; hemm on a packed operand must give the
// bytes of the plain-operand call at any share and column split. The core
// share tests pin how the per-thread share is derived.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <complex>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "core/sequential.hpp"
#include "gen/spectrum.hpp"
#include "la/gemm.hpp"
#include "la/hemm.hpp"
#include "la/parallel.hpp"
#include "la/trsm.hpp"
#include "svc/service.hpp"
#include "tests/testing.hpp"

namespace chase::la {
namespace {

using chase::testing::random_hermitian;
using chase::testing::random_matrix;

constexpr int kShares[] = {2, 3, 4};
constexpr Op kOps[] = {Op::kNoTrans, Op::kTrans, Op::kConjTrans};

template <typename T>
bool same_bytes(ConstMatrixView<T> x, ConstMatrixView<T> y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (Index j = 0; j < x.cols(); ++j) {
    if (std::memcmp(x.col(j), y.col(j), sizeof(T) * std::size_t(x.rows())) !=
        0) {
      return false;
    }
  }
  return true;
}

/// Run `kernel(c)` on a copy of `c0` at share 1 and at every share in
/// kShares; the results must be memcmp-equal.
template <typename T, typename Kernel>
void expect_share_invariant(const Matrix<T>& c0, Kernel&& kernel,
                            const std::string& what) {
  auto serial = clone(c0.cview());
  {
    const ScopedCoreShare one(1);
    kernel(serial.view());
  }
  for (int share : kShares) {
    const ScopedCoreShare scoped(share);
    auto c = clone(c0.cview());
    kernel(c.view());
    EXPECT_TRUE(same_bytes(c.cview(), serial.cview()))
        << what << " share=" << share;
  }
}

/// The n values of the sweep: a single row, one short of a register tile,
/// around one hemm k block, two blocks plus a ragged tail, and the solver's
/// size.
template <typename T>
std::vector<Index> sweep_rows() {
  constexpr Index mr = detail::MicroTile<T>::mr;
  constexpr Index nb = detail::kHemmBlock<T>;
  return {1, mr - 1, nb - 1, nb, nb + 1, 2 * nb + 7, 1000};
}

/// The column counts: single vector, Lanczos block, shrinking and full
/// filter blocks, and one past a B column panel.
template <typename T>
std::vector<Index> sweep_cols() {
  return {1, 4, 13, 53, detail::MicroTile<T>::nc + 1};
}

/// (alpha, beta) pairs: the alpha == 0 scaling path and each beta store mode.
template <typename T>
std::vector<std::pair<T, T>> sweep_scalars() {
  using R = RealType<T>;
  return {{T(0), T(R(-0.5))}, {T(1), T(0)}, {T(R(0.75)), T(1)},
          {T(R(-1.25)), T(R(-0.5))}};
}

template <typename T>
class ParallelRowsTyped : public ::testing::Test {};
TYPED_TEST_SUITE(ParallelRowsTyped, chase::testing::ScalarTypes);

TYPED_TEST(ParallelRowsTyped, HemmIsBitwiseShareInvariant) {
  using T = TypeParam;
  const auto scalars = sweep_scalars<T>();
  int combo = 0;
  for (Index n : sweep_rows<T>()) {
    const auto a = random_hermitian<T>(n, 10 + std::uint64_t(n));
    for (Index ncols : sweep_cols<T>()) {
      const auto b = random_matrix<T>(n, ncols, 20 + combo);
      const auto c0 = random_matrix<T>(n, ncols, 30 + combo);
      // Every (alpha, beta) pair on the small shapes; the solver-sized ones
      // rotate through them.
      for (std::size_t s = 0; s < scalars.size(); ++s) {
        if (n == 1000 && s != std::size_t(combo) % scalars.size()) continue;
        const auto [alpha, beta] = scalars[s];
        expect_share_invariant<T>(
            c0,
            [&](MatrixView<T> c) {
              hemm(alpha, a.cview(), b.cview(), beta, c);
            },
            "hemm n=" + std::to_string(n) + " ncols=" + std::to_string(ncols) +
                " scalars=" + std::to_string(s));
      }
      ++combo;
    }
  }
}

TYPED_TEST(ParallelRowsTyped, PackedHemmMatchesPlainOperandHemm) {
  // A packed operand built once gives the bytes of the plain-operand hemm
  // (which packs into its scratch on every call) at shares 1 and 4, and with
  // B's columns split into blocks. Every element reads back through at(),
  // whose offset arithmetic is independent of fill's panel walk.
  using T = TypeParam;
  using R = RealType<T>;
  const T betas[] = {T(0), T(1), T(R(-0.5))};
  const T alpha = T(R(0.75));
  int combo = 0;
  for (Index n : sweep_rows<T>()) {
    const auto a = random_hermitian<T>(n, 40 + std::uint64_t(n));
    PackedHermitian<T> packed;
    packed.fill(n, [&](Index i, Index j) { return a(i, j); });
    constexpr Index mr = detail::MicroTile<T>::mr;
    ASSERT_EQ(packed.size(), std::size_t(detail::round_up(n, mr) * n));
    int misplaced = 0;
    for (Index j = 0; j < n; ++j) {
      for (Index i = 0; i < n; ++i) {
        const T got = packed.at(i, j);
        const T want = a(i, j);
        if (std::memcmp(&got, &want, sizeof(T)) != 0) ++misplaced;
      }
    }
    ASSERT_EQ(misplaced, 0) << "n=" << n;
    for (Index ncols : sweep_cols<T>()) {
      const auto b = random_matrix<T>(n, ncols, 60 + combo);
      const auto c0 = random_matrix<T>(n, ncols, 70 + combo);
      for (std::size_t s = 0; s < std::size(betas); ++s) {
        if (n == 1000 && s != std::size_t(combo) % std::size(betas)) continue;
        const T beta = betas[s];
        const std::string what = "n=" + std::to_string(n) +
                                 " ncols=" + std::to_string(ncols) +
                                 " beta=" + std::to_string(s);
        auto plain = clone(c0.cview());
        {
          const ScopedCoreShare one(1);
          hemm(alpha, a.cview(), b.cview(), beta, plain.view());
        }
        for (int share : {1, 4}) {
          const ScopedCoreShare scoped(share);
          auto c = clone(c0.cview());
          hemm(alpha, packed, b.cview(), beta, c.view());
          EXPECT_TRUE(same_bytes(c.cview(), plain.cview()))
              << what << " share=" << share;
          // Column blocks of 1, then of a third of the columns: hemm is
          // column-split invariant (the lockstep Lanczos relies on it).
          for (Index bw : {Index(1), std::max<Index>(1, ncols / 3)}) {
            if (ncols > 64 && bw == 1) continue;
            auto split = clone(c0.cview());
            for (Index j0 = 0; j0 < ncols; j0 += bw) {
              const Index w = std::min(bw, ncols - j0);
              hemm(alpha, packed, b.cview().block(0, j0, n, w), beta,
                   split.view().block(0, j0, n, w));
            }
            EXPECT_TRUE(same_bytes(split.cview(), plain.cview()))
                << what << " share=" << share << " block=" << bw;
          }
        }
      }
      ++combo;
    }
  }
}

TYPED_TEST(ParallelRowsTyped, GemmIsBitwiseShareInvariantForEveryOpPair) {
  using T = TypeParam;
  const auto scalars = sweep_scalars<T>();
  int combo = 0;
  for (Index m : sweep_rows<T>()) {
    // Deep enough for several k panels on the larger shapes.
    const Index k = std::min<Index>(m, 300) + 5;
    for (Index n : sweep_cols<T>()) {
      for (Op opa : kOps) {
        for (Op opb : kOps) {
          const auto [alpha, beta] = scalars[std::size_t(combo) % 4];
          ++combo;
          // The solver-sized and panel-crossing shapes keep one op pair per
          // column count; the smaller ones sweep all nine.
          if ((m == 1000 || n > 53) && (combo % 9) != int(n % 9)) continue;
          const auto a = opa == Op::kNoTrans ? random_matrix<T>(m, k, combo)
                                             : random_matrix<T>(k, m, combo);
          const auto b = opb == Op::kNoTrans
                             ? random_matrix<T>(k, n, 50 + combo)
                             : random_matrix<T>(n, k, 50 + combo);
          const auto c0 = random_matrix<T>(m, n, 90 + combo);
          expect_share_invariant<T>(
              c0,
              [&](MatrixView<T> c) {
                gemm(alpha, opa, a.cview(), opb, b.cview(), beta, c);
              },
              "gemm m=" + std::to_string(m) + " n=" + std::to_string(n) +
                  " opa=" + std::to_string(int(opa)) +
                  " opb=" + std::to_string(int(opb)));
        }
      }
    }
  }
}

TYPED_TEST(ParallelRowsTyped, RightTrsmIsBitwiseShareInvariant) {
  using T = TypeParam;
  using R = RealType<T>;
  for (Index m : sweep_rows<T>()) {
    for (Index n : sweep_cols<T>()) {
      // A well-conditioned upper factor: unit-scale diagonal, small
      // off-diagonal entries.
      auto r = random_matrix<T>(n, n, 7 + std::uint64_t(n));
      for (Index j = 0; j < n; ++j) {
        for (Index i = 0; i < n; ++i) {
          r(i, j) = i > j ? T(0) : r(i, j) * T(R(0.1) / R(n));
        }
        r(j, j) = T(R(2));
      }
      const auto x0 = random_matrix<T>(m, n, 11 + std::uint64_t(m));
      expect_share_invariant<T>(
          x0, [&](MatrixView<T> x) { trsm_right_upper(r.cview(), x); },
          "trsm m=" + std::to_string(m) + " n=" + std::to_string(n));
    }
  }
}

TEST(ParallelRows, SolveIsBitwiseShareInvariant) {
  using T = std::complex<double>;
  const Index n = 400;
  const auto h = gen::hermitian_with_spectrum<T>(
      gen::uniform_spectrum<double>(n, -2.0, 4.0), 5);
  core::ChaseConfig cfg;
  cfg.nev = 20;
  cfg.nex = 10;
  cfg.tol = 1e-10;
  core::ChaseResult<T> one, four;
  {
    const ScopedCoreShare share(1);
    one = core::solve_sequential<T>(h.cview(), cfg);
  }
  {
    const ScopedCoreShare share(4);
    four = core::solve_sequential<T>(h.cview(), cfg);
  }
  ASSERT_TRUE(one.converged);
  EXPECT_EQ(one.iterations, four.iterations);
  EXPECT_EQ(one.matvecs, four.matvecs);
  ASSERT_EQ(one.eigenvalues.size(), four.eigenvalues.size());
  EXPECT_EQ(std::memcmp(one.eigenvalues.data(), four.eigenvalues.data(),
                        sizeof(double) * one.eigenvalues.size()),
            0);
  EXPECT_TRUE(same_bytes(one.eigenvectors.cview(), four.eigenvectors.cview()));
}

TEST(ParallelRows, HelpersJoinWhenTheShareAllowsThem) {
  if (cpu_count() < 2) GTEST_SKIP() << "one CPU: the pool has no helpers";
  const ScopedCoreShare share(2);
  std::mutex mu;
  std::set<std::thread::id> seen;
  std::atomic<int> started{0};
  detail::parallel_units(2, [&](Index) {
    {
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    }
    // Hold the first unit until the second one starts: only a helper can
    // run it while the caller is parked here.
    ++started;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(seen.size(), 2u);
}

TEST(CoreShare, PlainThreadGetsEveryCpuAndScopesNest) {
  EXPECT_GE(cpu_count(), 1);
  EXPECT_EQ(core_share(), cpu_count());
  {
    const ScopedCoreShare outer(3);
    EXPECT_EQ(core_share(), 3);
    {
      const ScopedCoreShare inner(1);
      EXPECT_EQ(core_share(), 1);
    }
    EXPECT_EQ(core_share(), 3);
    const ScopedCoreShare clamped(0);
    EXPECT_EQ(core_share(), 1);
  }
  EXPECT_EQ(core_share(), cpu_count());
}

TEST(CoreShare, TeamRanksSplitTheCpus) {
  for (int nranks : {4, 8}) {
    std::vector<int> shares(std::size_t(nranks), -1);
    comm::Team team(nranks);
    team.run([&](comm::Communicator& world) {
      shares[std::size_t(world.rank())] = core_share();
    });
    for (int s : shares) {
      EXPECT_EQ(s, std::max(1, cpu_count() / nranks)) << "nranks=" << nranks;
    }
  }
  EXPECT_EQ(core_share(), cpu_count());
}

/// Records the core share of the worker thread running the job.
struct ShareProbe : core::ChaseObserver<double> {
  std::atomic<int> share{-1};
  void after_iteration(const core::IterationStats&) override {
    share = core_share();
  }
};

TEST(CoreShare, ServiceWorkersSplitTheCpus) {
  for (int workers : {1, 3}) {
    svc::ServiceConfig cfg;
    cfg.workers = workers;
    svc::SolverService service(cfg);
    const Index n = 48;
    const auto h = gen::hermitian_with_spectrum<double>(
        gen::uniform_spectrum<double>(n, -1.0, 3.0), 3);
    core::ChaseConfig solve_cfg;
    solve_cfg.nev = 5;
    solve_cfg.nex = 3;
    ShareProbe probe;
    svc::JobOptions opts;
    opts.observer_d = &probe;
    const auto sub = service.submit(h.cview(), solve_cfg, opts);
    ASSERT_TRUE(sub.ok());
    EXPECT_EQ(service.wait(sub.id).state, svc::JobState::kDone);
    EXPECT_EQ(probe.share.load(), std::max(1, cpu_count() / workers))
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace chase::la
