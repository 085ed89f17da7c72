// Property suite for the src/coll algorithmic collective engine.
//
// The contract under test: every algorithm (ring / tree / auto policies over
// the chunk channels) produces *bitwise identical* results to the naive
// publish-and-sync reference, across team sizes, payload sizes (including 0
// and non-chunk-aligned counts), real and complex scalars, and chunk sizes
// small enough to force multi-chunk pipelines. Plus: one reduction per
// distributed H apply, the all_gather_v edge cases, the p2p fault-injection
// sites, and a tsan-targeted concurrent-teams stress test.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "coll/abft.hpp"
#include "coll/engine.hpp"
#include "comm/communicator.hpp"
#include "common/rng.hpp"
#include "dist/dist_matrix.hpp"
#include "perf/tracker.hpp"
#include "perf/tuned.hpp"

namespace chase {
namespace {

using comm::Communicator;
using comm::Reduction;
using comm::Team;
using la::Index;

constexpr int kTeamSizes[] = {1, 2, 3, 4, 5, 8};
constexpr Index kCounts[] = {0, 1, 7, 64, 1023};
constexpr coll::Algorithm kPolicies[] = {
    coll::Algorithm::kNaive, coll::Algorithm::kRing, coll::Algorithm::kTree,
    coll::Algorithm::kAuto};

template <typename T>
std::vector<T> rank_payload(int rank, Index count, std::uint64_t salt) {
  Rng rng(salt, std::uint64_t(rank) + 1);
  std::vector<T> out((std::size_t(count)));
  for (auto& v : out) v = rng.gaussian<T>();
  return out;
}

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Sequential rank-ordered reference — the exact arithmetic the naive
/// all_reduce performs, computed without any communicator.
template <typename T>
std::vector<T> reference_allreduce(int p, Index count, Reduction op,
                                   std::uint64_t salt) {
  std::vector<T> acc = rank_payload<T>(0, count, salt);
  for (int r = 1; r < p; ++r) {
    const std::vector<T> x = rank_payload<T>(r, count, salt);
    for (Index i = 0; i < count; ++i) {
      comm::detail::reduce_assign(op, acc[std::size_t(i)], x[std::size_t(i)]);
    }
  }
  return acc;
}

template <typename T>
void sweep_allreduce() {
  for (const coll::Algorithm algo : kPolicies) {
    coll::ScopedAlgorithm policy(algo);
    // 48 bytes forces multi-chunk pipelines at the larger counts; the
    // default exercises the single-chunk fast path.
    for (const std::size_t chunk : {std::size_t(48), std::size_t(64) << 10}) {
      coll::ScopedChunkBytes chunk_scope(chunk);
      for (const int p : kTeamSizes) {
        for (const Index count : kCounts) {
          const std::uint64_t salt =
              std::uint64_t(p) * 1000003u + std::uint64_t(count);
          const std::vector<T> want =
              reference_allreduce<T>(p, count, Reduction::kSum, salt);
          std::vector<std::vector<T>> got((std::size_t(p)));
          Team team(p);
          team.run([&](Communicator& comm) {
            std::vector<T> x = rank_payload<T>(comm.rank(), count, salt);
            comm.all_reduce(x.data(), count);
            got[std::size_t(comm.rank())] = std::move(x);
          });
          for (int r = 0; r < p; ++r) {
            EXPECT_TRUE(bitwise_equal(got[std::size_t(r)], want))
                << "allreduce algo=" << coll::algorithm_name(algo)
                << " chunk=" << chunk << " p=" << p << " count=" << count
                << " rank=" << r;
          }
        }
      }
    }
  }
}

TEST(CollSweep, AllReduceBitwiseReal) { sweep_allreduce<double>(); }
TEST(CollSweep, AllReduceBitwiseComplex) {
  sweep_allreduce<std::complex<double>>();
}

TEST(CollSweep, AllReduceMaxMin) {
  for (const coll::Algorithm algo : kPolicies) {
    coll::ScopedAlgorithm policy(algo);
    coll::ScopedChunkBytes chunk_scope(48);
    for (const int p : {3, 8}) {
      for (const Reduction op : {Reduction::kMax, Reduction::kMin}) {
        const std::uint64_t salt = 77;
        const Index count = 129;
        const std::vector<double> want =
            reference_allreduce<double>(p, count, op, salt);
        Team team(p);
        team.run([&](Communicator& comm) {
          std::vector<double> x =
              rank_payload<double>(comm.rank(), count, salt);
          comm.all_reduce(x.data(), count, op);
          EXPECT_TRUE(bitwise_equal(x, want))
              << coll::algorithm_name(algo) << " p=" << p;
        });
      }
    }
  }
}

template <typename T>
void sweep_allgather() {
  for (const coll::Algorithm algo : kPolicies) {
    coll::ScopedAlgorithm policy(algo);
    for (const std::size_t chunk : {std::size_t(48), std::size_t(64) << 10}) {
      coll::ScopedChunkBytes chunk_scope(chunk);
      for (const int p : kTeamSizes) {
        for (const Index count : kCounts) {
          const std::uint64_t salt =
              std::uint64_t(p) * 911u + std::uint64_t(count);
          std::vector<T> want;
          for (int r = 0; r < p; ++r) {
            const auto x = rank_payload<T>(r, count, salt);
            want.insert(want.end(), x.begin(), x.end());
          }
          Team team(p);
          team.run([&](Communicator& comm) {
            const std::vector<T> x =
                rank_payload<T>(comm.rank(), count, salt);
            std::vector<T> recv(std::size_t(p) * std::size_t(count), T(42));
            comm.all_gather(x.data(), count, recv.data());
            EXPECT_TRUE(bitwise_equal(recv, want))
                << "allgather algo=" << coll::algorithm_name(algo)
                << " chunk=" << chunk << " p=" << p << " count=" << count
                << " rank=" << comm.rank();
          });
        }
      }
    }
  }
}

TEST(CollSweep, AllGatherBitwiseReal) { sweep_allgather<double>(); }
TEST(CollSweep, AllGatherBitwiseComplex) {
  sweep_allgather<std::complex<double>>();
}

template <typename T>
void sweep_broadcast() {
  for (const coll::Algorithm algo : kPolicies) {
    coll::ScopedAlgorithm policy(algo);
    for (const std::size_t chunk : {std::size_t(48), std::size_t(64) << 10}) {
      coll::ScopedChunkBytes chunk_scope(chunk);
      for (const int p : kTeamSizes) {
        for (const Index count : kCounts) {
          for (const int root : {0, p - 1}) {
            const std::uint64_t salt =
                std::uint64_t(p) * 131u + std::uint64_t(count);
            const std::vector<T> want = rank_payload<T>(root, count, salt);
            Team team(p);
            team.run([&](Communicator& comm) {
              std::vector<T> x =
                  rank_payload<T>(comm.rank(), count, salt);
              comm.broadcast(x.data(), count, root);
              EXPECT_TRUE(bitwise_equal(x, want))
                  << "broadcast algo=" << coll::algorithm_name(algo)
                  << " chunk=" << chunk << " p=" << p << " count=" << count
                  << " root=" << root << " rank=" << comm.rank();
            });
          }
        }
      }
    }
  }
}

TEST(CollSweep, BroadcastBitwiseReal) { sweep_broadcast<double>(); }
TEST(CollSweep, BroadcastBitwiseComplex) {
  sweep_broadcast<std::complex<double>>();
}

TEST(CollSweep, AllGatherVVariedCountsAndHoles) {
  for (const coll::Algorithm algo : kPolicies) {
    coll::ScopedAlgorithm policy(algo);
    coll::ScopedChunkBytes chunk_scope(48);
    for (const int p : {1, 3, 5, 8}) {
      // Mixed zero/nonzero counts plus a one-element hole between ranges:
      // rank r contributes r+1 elements if r is even, nothing otherwise.
      std::vector<Index> counts((std::size_t(p)));
      std::vector<Index> displs((std::size_t(p)));
      Index off = 0;
      for (int r = 0; r < p; ++r) {
        counts[std::size_t(r)] = r % 2 == 0 ? Index(r) + 1 : 0;
        displs[std::size_t(r)] = off;
        off += counts[std::size_t(r)] + 1;  // hole stays untouched
      }
      const Index total = off;
      std::vector<double> want(std::size_t(total), -7.0);
      for (int r = 0; r < p; ++r) {
        const auto x = rank_payload<double>(r, counts[std::size_t(r)], 5);
        std::copy(x.begin(), x.end(),
                  want.begin() + std::ptrdiff_t(displs[std::size_t(r)]));
      }
      Team team(p);
      team.run([&](Communicator& comm) {
        const Index mine = counts[std::size_t(comm.rank())];
        const auto x = rank_payload<double>(comm.rank(), mine, 5);
        std::vector<double> recv(std::size_t(total), -7.0);
        // Zero-count ranks may legally pass a null send buffer.
        comm.all_gather_v(mine > 0 ? x.data() : nullptr, mine, recv.data(),
                          counts, displs);
        EXPECT_TRUE(bitwise_equal(recv, want))
            << "allgatherv algo=" << coll::algorithm_name(algo) << " p=" << p
            << " rank=" << comm.rank();
      });
    }
  }
}

TEST(CollEdge, AllGatherVOverlappingDisplsRejected) {
  for (const coll::Algorithm algo :
       {coll::Algorithm::kNaive, coll::Algorithm::kRing}) {
    coll::ScopedAlgorithm policy(algo);
    Team team(3);
    try {
      team.run([&](Communicator& comm) {
        const std::vector<Index> counts = {2, 2, 2};
        const std::vector<Index> displs = {0, 1, 4};  // rank 1 overlaps rank 0
        std::vector<double> x = {1.0, 2.0};
        std::vector<double> recv(6, 0.0);
        comm.all_gather_v(x.data(), 2, recv.data(), counts, displs);
      });
      FAIL() << "overlapping displs must poison the team";
    } catch (const comm::TeamAborted& e) {
      EXPECT_EQ(e.error().site, "allgatherv.overlap");
    }
  }
}

TEST(CollIntegration, DistApplyBitwiseAcrossPoliciesOneReducePerApply) {
  const Index n = 70;
  const Index ncols = 9;
  const int p = 4;
  auto element = [](Index i, Index j) {
    const double v = 1.0 / double(1 + std::abs(int(i - j)));
    return i <= j ? v : v;  // symmetric
  };
  // One apply_c2b on a 2x2 grid; returns every rank's output. Each rank
  // checks the collective events the apply itself recorded: one allreduce
  // of the whole partial product over the 2-rank column communicator
  // (under ABFT it is the first event, followed by the checksum lane).
  auto apply_once = [&](const std::string& what, bool abft) {
    std::vector<perf::Tracker> trackers((std::size_t(p)));
    std::vector<std::vector<double>> got((std::size_t(p)));
    Team team(p);
    team.run(
        [&](Communicator& comm) {
          comm::Grid2d grid(comm, 2, 2);
          dist::IndexMap rmap = dist::IndexMap::block(n, grid.nprow());
          dist::IndexMap cmap = dist::IndexMap::block(n, grid.npcol());
          dist::DistHermitianMatrix<double> h(grid, rmap, cmap);
          h.fill(element);
          const Index xr = rmap.local_size(grid.my_row());
          const Index yr = cmap.local_size(grid.my_col());
          la::Matrix<double> x(xr, ncols), y(yr, ncols);
          for (Index j = 0; j < ncols; ++j) {
            for (Index i = 0; i < xr; ++i) {
              x(i, j) = element(i + 13 * j, j + 1);
            }
          }
          const auto& events = perf::thread_tracker()->collectives();
          const std::size_t before = events.size();
          h.apply_c2b(1.0, x.view().as_const(), 0.0, y.view());
          ASSERT_GT(events.size(), before) << what;
          if (!abft) EXPECT_EQ(events.size(), before + 1) << what;
          const perf::CollectiveEvent& e = events[before];
          EXPECT_EQ(e.kind, perf::CollKind::kAllReduce) << what;
          EXPECT_EQ(e.bytes, std::size_t(yr * ncols) * sizeof(double)) << what;
          EXPECT_EQ(e.nranks, 2) << what;
          std::vector<double> flat(std::size_t(yr) * std::size_t(ncols));
          std::copy_n(y.data(), flat.size(), flat.data());
          got[std::size_t(comm.rank())] = std::move(flat);
        },
        &trackers);
    return got;
  };
  std::vector<std::vector<std::vector<double>>> outs;  // [run][rank]
  std::vector<std::string> names;
  for (const coll::Algorithm algo : kPolicies) {
    coll::ScopedAlgorithm policy(algo);
    names.emplace_back(coll::algorithm_name(algo));
    outs.push_back(apply_once(names.back(), /*abft=*/false));
  }
  {
    coll::ScopedAbft abft(true);
    names.emplace_back("naive+abft");
    outs.push_back(apply_once(names.back(), /*abft=*/true));
  }
  for (std::size_t a = 1; a < outs.size(); ++a) {
    for (std::size_t r = 0; r < outs[a].size(); ++r) {
      EXPECT_TRUE(bitwise_equal(outs[a][r], outs[0][r]))
          << names[a] << " rank " << r;
    }
  }
}

/// Installs tuned dispatch tables for one scope; on exit no profile is
/// installed, so later tests see the built-in defaults.
class ScopedTunedTables {
 public:
  explicit ScopedTunedTables(const perf::TunedTables& t) {
    perf::set_tuned_tables(t);
  }
  ~ScopedTunedTables() { perf::clear_tuned_tables(); }
  ScopedTunedTables(const ScopedTunedTables&) = delete;
  ScopedTunedTables& operator=(const ScopedTunedTables&) = delete;
};

TEST(CollIntegration, DistApplyFollowsAClearedTuneProfile) {
  // The tune profile picks the allreduce routine per size class. Clearing
  // it between two applies of one matrix must take effect at the second
  // apply: no routine choice may outlive the profile it came from.
  const Index n = 40;
  const Index ncols = 3;
  auto element = [](Index i, Index j) {
    return 1.0 / double(1 + std::abs(int(i - j)));
  };
  perf::TunedTables ring_profile;
  for (int& cell : ring_profile.coll_algo[int(perf::CollKind::kAllReduce)]) {
    cell = int(coll::Algorithm::kRing);
  }
  const int p = 4;
  std::vector<perf::Tracker> trackers((std::size_t(p)));
  std::vector<double> ring_after_first((std::size_t(p)));
  std::vector<double> ring_after_adhoc((std::size_t(p)));
  ScopedTunedTables profile(ring_profile);
  Team team(p);
  team.run(
      [&](Communicator& comm) {
        comm::Grid2d grid(comm, 2, 2);
        dist::IndexMap rmap = dist::IndexMap::block(n, grid.nprow());
        dist::IndexMap cmap = dist::IndexMap::block(n, grid.npcol());
        dist::DistHermitianMatrix<double> h(grid, rmap, cmap);
        h.fill(element);
        const Index xr = rmap.local_size(grid.my_row());
        const Index yr = cmap.local_size(grid.my_col());
        la::Matrix<double> x(xr, ncols), y1(yr, ncols), y2(yr, ncols);
        for (Index j = 0; j < ncols; ++j) {
          for (Index i = 0; i < xr; ++i) x(i, j) = element(i + 5 * j, j);
        }
        const std::size_t r = std::size_t(comm.rank());
        h.apply_c2b(1.0, x.view().as_const(), 0.0, y1.view());
        ring_after_first[r] = perf::thread_tracker()->counter(
            "coll.ring_allreduce.calls");
        comm.barrier();
        if (comm.rank() == 0) perf::clear_tuned_tables();
        comm.barrier();
        double probe = 1.0;
        grid.col_comm().all_reduce(&probe, 1);
        ring_after_adhoc[r] = perf::thread_tracker()->counter(
            "coll.ring_allreduce.calls");
        h.apply_c2b(1.0, x.view().as_const(), 0.0, y2.view());
        EXPECT_EQ(0, std::memcmp(y1.data(), y2.data(),
                                 std::size_t(yr * ncols) * sizeof(double)))
            << "rank " << r;
      },
      &trackers);
  for (std::size_t r = 0; r < trackers.size(); ++r) {
    EXPECT_EQ(ring_after_first[r], 1.0) << "rank " << r;
    EXPECT_EQ(ring_after_adhoc[r], 1.0) << "rank " << r;
    // The second apply ran after the clear, so it must have gone naive.
    EXPECT_EQ(trackers[r].counter("coll.ring_allreduce.calls"), 1.0)
        << "rank " << r;
  }
}

TEST(CollFault, P2pCorruptPropagatesNaN) {
  coll::ScopedAlgorithm policy(coll::Algorithm::kRing);
  coll::ScopedChunkBytes chunk_scope(std::size_t(64) << 10);
  fault::Scoped site("p2p.corrupt", /*rank=*/0, /*times=*/1);
  const int p = 4;
  Team team(p);
  team.run([&](Communicator& comm) {
    std::vector<double> x(33, double(comm.rank() + 1));
    comm.all_reduce(x.data(), Index(x.size()));
    // Rank 0's first reduce-chain chunk was corrupted in flight with 0xFF
    // bytes (a NaN), which the rank-ordered chain folds into every rank's
    // leading element.
    EXPECT_TRUE(std::isnan(x[0])) << "rank " << comm.rank();
  });
}

TEST(CollFault, P2pStallTripsWatchdog) {
  coll::ScopedAlgorithm policy(coll::Algorithm::kRing);
  comm::ScopedBarrierTimeout timeout(std::chrono::milliseconds(200));
  fault::Scoped site("p2p.stall", /*rank=*/1, /*times=*/1);
  Team team(3);
  try {
    team.run([&](Communicator& comm) {
      std::vector<double> x(17, double(comm.rank()));
      comm.all_reduce(x.data(), Index(x.size()));
    });
    FAIL() << "a stalled sender must poison the team";
  } catch (const comm::TeamAborted& e) {
    EXPECT_EQ(e.error().site, "p2p.watchdog") << e.what();
  }
}

TEST(CollFault, RankDieOnChannelPathAborts) {
  coll::ScopedAlgorithm policy(coll::Algorithm::kTree);
  fault::Scoped site("rank.die", /*rank=*/1, /*times=*/1);
  Team team(4);
  try {
    team.run([&](Communicator& comm) {
      std::vector<double> x(65, 1.0);
      comm.all_reduce(x.data(), Index(x.size()));
    });
    FAIL() << "injected rank death must abort the team";
  } catch (const comm::TeamAborted& e) {
    EXPECT_EQ(e.error().rank, 1);
    EXPECT_EQ(e.error().site, "rank.die");
  }
}

// tsan target: several teams of threads hammer the chunk channels and
// split communicators concurrently. Any missing synchronization in
// Mailbox/CommState shows up here under -fsanitize=thread (ctest -L coll
// on the tsan preset).
TEST(CollStress, ConcurrentTeams) {
  coll::ScopedAlgorithm policy(coll::Algorithm::kAuto);
  coll::ScopedChunkBytes chunk_scope(64);
  const int nteams = 4;
  std::vector<std::thread> drivers;
  drivers.reserve(nteams);
  for (int d = 0; d < nteams; ++d) {
    drivers.emplace_back([d] {
      const int p = 2 + d % 3;
      Team team(p);
      team.run([&](Communicator& comm) {
        for (int iter = 0; iter < 20; ++iter) {
          const Index count = 1 + 17 * ((iter + d) % 5);
          std::vector<double> x(std::size_t(count),
                                double(comm.rank() + iter));
          comm.all_reduce(x.data(), count);
          std::vector<double> g(std::size_t(comm.size()) *
                                std::size_t(count));
          comm.all_gather(x.data(), count, g.data());
          std::vector<double> b((std::size_t(count)), double(iter));
          comm.broadcast(b.data(), count, iter % comm.size());
          Communicator half = comm.split(comm.rank() % 2, comm.rank());
          double v = double(comm.rank());
          half.all_reduce(&v, 1);
        }
      });
    });
  }
  for (auto& t : drivers) t.join();
}

}  // namespace
}  // namespace chase
