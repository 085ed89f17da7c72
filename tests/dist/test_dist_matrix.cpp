#include "dist/dist_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <complex>
#include <cstring>
#include <vector>

#include "dist/multivector.hpp"
#include "la/convert.hpp"
#include "la/norms.hpp"
#include "tests/testing.hpp"

namespace chase::dist {
namespace {

using chase::testing::random_hermitian;
using chase::testing::random_matrix;
using chase::testing::tol;

struct GridCase {
  int nprow;
  int npcol;
  bool cyclic;
  Index block;
};

const GridCase kGridCases[] = {
    {1, 1, false, 0}, {2, 2, false, 0}, {2, 3, false, 0},
    {4, 1, false, 0}, {2, 2, true, 3},  {2, 3, true, 2},
};

class DistMatrixGrid : public ::testing::TestWithParam<GridCase> {};

IndexMap make_map(Index n, int parts, const GridCase& gc) {
  return gc.cyclic ? IndexMap::block_cyclic(n, parts, gc.block)
                   : IndexMap::block(n, parts);
}

TEST_P(DistMatrixGrid, ApplyC2BMatchesSequential) {
  using T = std::complex<double>;
  const auto gc = GetParam();
  const Index n = 37, ne = 5;
  auto h = random_hermitian<T>(n, 1);
  auto x = random_matrix<T>(n, ne, 2);
  // Sequential reference: y = H^H x = H x.
  la::Matrix<T> yref(n, ne);
  la::gemm(T(1), la::Op::kConjTrans, h.cview(), la::Op::kNoTrans, x.cview(),
           T(0), yref.view());

  comm::Team team(gc.nprow * gc.npcol);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, gc.nprow, gc.npcol);
    auto rmap = make_map(n, gc.nprow, gc);
    auto cmap = make_map(n, gc.npcol, gc);
    DistHermitianMatrix<T> hd(grid, rmap, cmap);
    hd.fill_from_global(h.cview());

    // Local C-layout input block.
    la::Matrix<T> xc(rmap.local_size(grid.my_row()), ne);
    scatter_rows(rmap, grid.my_row(), x.cview(), xc.view());
    la::Matrix<T> yb(cmap.local_size(grid.my_col()), ne);
    hd.apply_c2b(T(1), xc.cview(), T(0), yb.view());

    // Compare against the reference rows this rank should hold in B layout.
    la::Matrix<T> yexp(cmap.local_size(grid.my_col()), ne);
    scatter_rows(cmap, grid.my_col(), yref.cview(), yexp.view());
    EXPECT_LE(la::max_abs_diff(yb.cview(), yexp.cview()),
              tol<T>(1e5));
  });
}

TEST_P(DistMatrixGrid, ApplyB2CMatchesSequential) {
  using T = std::complex<double>;
  const auto gc = GetParam();
  const Index n = 41, ne = 4;
  auto h = random_hermitian<T>(n, 3);
  auto x = random_matrix<T>(n, ne, 4);
  la::Matrix<T> yref(n, ne);
  la::gemm(T(1), h.cview(), x.cview(), T(0), yref.view());

  comm::Team team(gc.nprow * gc.npcol);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, gc.nprow, gc.npcol);
    auto rmap = make_map(n, gc.nprow, gc);
    auto cmap = make_map(n, gc.npcol, gc);
    DistHermitianMatrix<T> hd(grid, rmap, cmap);
    hd.fill_from_global(h.cview());

    la::Matrix<T> xb(cmap.local_size(grid.my_col()), ne);
    scatter_rows(cmap, grid.my_col(), x.cview(), xb.view());
    la::Matrix<T> yc(rmap.local_size(grid.my_row()), ne);
    hd.apply_b2c(T(1), xb.cview(), T(0), yc.view());

    la::Matrix<T> yexp(rmap.local_size(grid.my_row()), ne);
    scatter_rows(rmap, grid.my_row(), yref.cview(), yexp.view());
    EXPECT_LE(la::max_abs_diff(yc.cview(), yexp.cview()),
              tol<T>(1e5));
  });
}

TEST_P(DistMatrixGrid, RoundTripRecurrenceStaysInCLayout) {
  // Two applications (even degree) must land back in the C layout and equal
  // the sequential H^2 x — the core of the even-degree filter trick.
  using T = double;
  const auto gc = GetParam();
  const Index n = 24, ne = 3;
  auto h = random_hermitian<T>(n, 5);
  auto x = random_matrix<T>(n, ne, 6);
  la::Matrix<T> hx(n, ne), h2x(n, ne);
  la::gemm(T(1), h.cview(), x.cview(), T(0), hx.view());
  la::gemm(T(1), h.cview(), hx.cview(), T(0), h2x.view());

  comm::Team team(gc.nprow * gc.npcol);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, gc.nprow, gc.npcol);
    auto rmap = make_map(n, gc.nprow, gc);
    auto cmap = make_map(n, gc.npcol, gc);
    DistHermitianMatrix<T> hd(grid, rmap, cmap);
    hd.fill_from_global(h.cview());

    la::Matrix<T> c(rmap.local_size(grid.my_row()), ne);
    la::Matrix<T> b(cmap.local_size(grid.my_col()), ne);
    scatter_rows(rmap, grid.my_row(), x.cview(), c.view());
    hd.apply_c2b(T(1), c.cview(), T(0), b.view());
    hd.apply_b2c(T(1), b.cview(), T(0), c.view());

    la::Matrix<T> cexp(rmap.local_size(grid.my_row()), ne);
    scatter_rows(rmap, grid.my_row(), h2x.cview(), cexp.view());
    EXPECT_LE(la::max_abs_diff(c.cview(), cexp.cview()), tol<T>(1e6));
  });
}

TEST_P(DistMatrixGrid, ShiftDiagonalMatchesGlobalShift) {
  using T = std::complex<double>;
  const auto gc = GetParam();
  const Index n = 19;
  auto h = random_hermitian<T>(n, 7);

  comm::Team team(gc.nprow * gc.npcol);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, gc.nprow, gc.npcol);
    auto rmap = make_map(n, gc.nprow, gc);
    auto cmap = make_map(n, gc.npcol, gc);
    DistHermitianMatrix<T> hd(grid, rmap, cmap);
    hd.fill_from_global(h.cview());
    hd.shift_diagonal(-2.5);
    hd.shift_diagonal(1.0);

    DistHermitianMatrix<T> hexp(grid, rmap, cmap);
    hexp.fill([&](Index i, Index j) {
      return h(i, j) + (i == j ? T(-1.5) : T(0));
    });
    double diff = 0;
    for (Index j = 0; j < hd.local_cols(); ++j) {
      for (Index i = 0; i < hd.local_rows(); ++i) {
        diff = std::max(diff,
                        std::abs(hd.local_at(i, j) - hexp.local_at(i, j)));
      }
    }
    EXPECT_LE(diff, tol<T>());
  });
}

/// True when every local element of `x` and `y` is bitwise equal (packed
/// ranks compare their whole buffer, padding included).
template <typename T>
bool same_local_bytes(const DistHermitianMatrix<T>& x,
                      const DistHermitianMatrix<T>& y) {
  if (x.local_packed() != y.local_packed()) return false;
  if (x.local_packed()) {
    return x.packed().size() == y.packed().size() &&
           std::memcmp(x.packed().data(), y.packed().data(),
                       sizeof(T) * x.packed().size()) == 0;
  }
  for (Index j = 0; j < x.local_cols(); ++j) {
    for (Index i = 0; i < x.local_rows(); ++i) {
      const T a = x.local_at(i, j);
      const T b = y.local_at(i, j);
      if (std::memcmp(&a, &b, sizeof(T)) != 0) return false;
    }
  }
  return true;
}

TEST_P(DistMatrixGrid, ShiftPairRestoresStoredBytes) {
  using T = std::complex<double>;
  const auto gc = GetParam();
  const Index n = 37;
  auto h = random_hermitian<T>(n, 12);

  comm::Team team(gc.nprow * gc.npcol);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, gc.nprow, gc.npcol);
    auto rmap = make_map(n, gc.nprow, gc);
    auto cmap = make_map(n, gc.npcol, gc);
    DistHermitianMatrix<T> hd(grid, rmap, cmap);
    hd.fill_from_global(h.cview());
    DistHermitianMatrix<T> pristine(grid, rmap, cmap);
    pristine.fill_from_global(h.cview());
    // (d - c) + c != d in the last ulp for these values; the pristine +
    // shift rule must restore the stored bytes anyway.
    hd.shift_diagonal(-0.7303);
    hd.shift_diagonal(0.7303);
    EXPECT_TRUE(same_local_bytes(hd, pristine));
  });
}

TEST_P(DistMatrixGrid, RefillLeavesNothingOfThePreviousMatrix) {
  // The service reuses one operator per (n, ne) bucket: a refill must give
  // the bytes of a fresh fill, whatever the previous matrix and shift were.
  using T = std::complex<double>;
  const auto gc = GetParam();
  const Index n = 37;
  auto h1 = random_hermitian<T>(n, 13);
  auto h2 = random_hermitian<T>(n, 14);

  comm::Team team(gc.nprow * gc.npcol);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, gc.nprow, gc.npcol);
    auto rmap = make_map(n, gc.nprow, gc);
    auto cmap = make_map(n, gc.npcol, gc);
    DistHermitianMatrix<T> reused(grid, rmap, cmap);
    reused.fill_from_global(h1.cview());
    reused.shift_diagonal(-1.25);
    reused.fill_from_global(h2.cview());
    DistHermitianMatrix<T> fresh(grid, rmap, cmap);
    fresh.fill_from_global(h2.cview());
    EXPECT_TRUE(same_local_bytes(reused, fresh));
    // And the shift state was reset with it.
    reused.shift_diagonal(0.5);
    fresh.shift_diagonal(0.5);
    EXPECT_TRUE(same_local_bytes(reused, fresh));
  });
}

TEST_P(DistMatrixGrid, MixedShadowIsTheDemotedGlobalBlock) {
  using T = std::complex<double>;
  using L = std::complex<float>;
  const auto gc = GetParam();
  const Index n = 41;
  auto h = random_hermitian<T>(n, 15);
  la::Matrix<L> hlow(n, n);
  la::demote<T>(h.cview(), hlow.view());

  comm::Team team(gc.nprow * gc.npcol);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, gc.nprow, gc.npcol);
    auto rmap = make_map(n, gc.nprow, gc);
    auto cmap = make_map(n, gc.npcol, gc);
    DistHermitianMatrix<T> hd(grid, rmap, cmap);
    hd.fill_from_global(h.cview());
    DistHermitianMatrix<L> shadow(grid, rmap, cmap);
    shadow.fill_demoted(hd);
    EXPECT_EQ(shadow.local_packed(), hd.local_packed());
    int mismatches = 0;
    for (Index j = 0; j < shadow.local_cols(); ++j) {
      const Index gj = cmap.global_index(grid.my_col(), j);
      for (Index i = 0; i < shadow.local_rows(); ++i) {
        const Index gi = rmap.global_index(grid.my_row(), i);
        const L got = shadow.local_at(i, j);
        const L want = hlow(gi, gj);
        if (std::memcmp(&got, &want, sizeof(L)) != 0) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0);
  });
}

TEST_P(DistMatrixGrid, RedistributeC2BMatchesScatter) {
  using T = std::complex<double>;
  const auto gc = GetParam();
  const Index n = 29, ne = 4;
  auto x = random_matrix<T>(n, ne, 8);

  comm::Team team(gc.nprow * gc.npcol);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, gc.nprow, gc.npcol);
    auto rmap = make_map(n, gc.nprow, gc);
    auto cmap = make_map(n, gc.npcol, gc);

    la::Matrix<T> c(rmap.local_size(grid.my_row()), ne);
    scatter_rows(rmap, grid.my_row(), x.cview(), c.view());
    la::Matrix<T> b(cmap.local_size(grid.my_col()), ne);
    redistribute_c2b<T>(grid, rmap, cmap, c.cview(), b.view());

    la::Matrix<T> bexp(cmap.local_size(grid.my_col()), ne);
    scatter_rows(cmap, grid.my_col(), x.cview(), bexp.view());
    EXPECT_LE(la::max_abs_diff(b.cview(), bexp.cview()), tol<T>());
  });
}

TEST_P(DistMatrixGrid, GatherRowsReconstructsFullMatrix) {
  using T = double;
  const auto gc = GetParam();
  const Index n = 23, ne = 3;
  auto x = random_matrix<T>(n, ne, 9);

  comm::Team team(gc.nprow * gc.npcol);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, gc.nprow, gc.npcol);
    auto rmap = make_map(n, gc.nprow, gc);
    la::Matrix<T> local(rmap.local_size(grid.my_row()), ne);
    scatter_rows(rmap, grid.my_row(), x.cview(), local.view());

    la::Matrix<T> full(n, ne);
    gather_rows(grid.col_comm(), rmap, local.cview(), full.view());
    EXPECT_LE(la::max_abs_diff(full.cview(), x.cview()), tol<T>());
  });
}

INSTANTIATE_TEST_SUITE_P(Grids, DistMatrixGrid, ::testing::ValuesIn(kGridCases),
                         [](const auto& info) {
                           const auto& gc = info.param;
                           return std::to_string(gc.nprow) + "x" +
                                  std::to_string(gc.npcol) +
                                  (gc.cyclic ? "_cyclic" + std::to_string(gc.block)
                                             : "_block");
                         });

TEST(DistMatrix, HermitianRanksHoldOnlyThePackedBlock) {
  // 1x1: the whole matrix; 2x2 block maps: the two diagonal ranks. Each
  // holds one round_up(n, MR) * n packed buffer and no plain block; the
  // off-diagonal ranks hold only their plain rows x cols block.
  using T = std::complex<double>;
  constexpr Index mr = la::detail::MicroTile<T>::mr;
  const Index n = 37;
  auto h = random_hermitian<T>(n, 16);
  for (int p : {1, 2}) {
    std::atomic<int> packed_ranks{0};
    comm::Team team(p * p);
    team.run([&](comm::Communicator& world) {
      comm::Grid2d grid(world, p, p);
      auto map = IndexMap::block(n, p);
      DistHermitianMatrix<T> hd(grid, map, map);
      hd.fill_from_global(h.cview());
      const Index rows = hd.local_rows();
      const Index cols = hd.local_cols();
      EXPECT_EQ(hd.local_packed(), grid.my_row() == grid.my_col());
      if (hd.local_packed()) ++packed_ranks;
      if (hd.local_packed()) {
        EXPECT_EQ(rows, cols);
        EXPECT_EQ(hd.packed().size(),
                  std::size_t(la::detail::round_up(rows, mr) * rows));
        EXPECT_EQ(hd.local_storage(), hd.packed().size());
      } else {
        EXPECT_EQ(hd.packed().size(), 0u);
        EXPECT_EQ(hd.local_storage(), std::size_t(rows * cols));
      }
    });
    EXPECT_EQ(packed_ranks.load(), p) << p << "x" << p;
  }
}

TEST(DistMatrix, SingleBroadcastOnSquareGridBlockMap) {
  // The paper's claim: on a square grid one broadcast suffices for the
  // C->B redistribution. Verify via the recorded event stream.
  using T = double;
  const Index n = 16, ne = 2;
  const int p = 2;
  auto x = random_matrix<T>(n, ne, 10);
  std::vector<perf::Tracker> trackers(static_cast<std::size_t>(p * p));
  comm::Team team(p * p);
  team.run(
      [&](comm::Communicator& world) {
        comm::Grid2d grid(world, p, p);
        auto map = IndexMap::block(n, p);
        la::Matrix<T> c(map.local_size(grid.my_row()), ne);
        scatter_rows(map, grid.my_row(), x.cview(), c.view());
        la::Matrix<T> b(map.local_size(grid.my_col()), ne);
        redistribute_c2b<T>(grid, map, map, c.cview(), b.view());
      },
      &trackers);
  std::size_t bcasts = 0;
  for (const auto& ev : trackers[0].collectives()) {
    if (ev.kind == perf::CollKind::kBroadcast) ++bcasts;
  }
  EXPECT_EQ(bcasts, 1u);
}

TEST(DistMatrix, GatherUsesOneBroadcastPerPart) {
  using T = double;
  const Index n = 16, ne = 2;
  const int p = 4;
  auto x = random_matrix<T>(n, ne, 11);
  std::vector<perf::Tracker> trackers(static_cast<std::size_t>(p));
  comm::Team team(p);
  team.run(
      [&](comm::Communicator& world) {
        auto map = IndexMap::block(n, p);
        la::Matrix<T> local(map.local_size(world.rank()), ne);
        scatter_rows(map, world.rank(), x.cview(), local.view());
        la::Matrix<T> full(n, ne);
        gather_rows(world, map, local.cview(), full.view());
      },
      &trackers);
  std::size_t bcasts = 0;
  for (const auto& ev : trackers[0].collectives()) {
    if (ev.kind == perf::CollKind::kBroadcast) ++bcasts;
  }
  EXPECT_EQ(bcasts, std::size_t(p));
}

}  // namespace
}  // namespace chase::dist
