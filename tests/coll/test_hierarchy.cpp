// Property suite for the two-level (topology-grouped) collective stack.
//
// Under test: the grouped sub-communicators a CHASE_TOPO assignment hangs
// off split() (Communicator::hier_group), the hierarchical routines staying
// bitwise-identical to the naive reference across node shapes x algorithms
// x scalar types, repeated rounds of calls on one communicator staying
// bitwise-exact with fresh payloads every round, and a
// leader-rank death propagating TeamAborted through both communicator
// levels.
#include <gtest/gtest.h>

#include <chrono>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "coll/engine.hpp"
#include "comm/communicator.hpp"
#include "comm/topology.hpp"
#include "common/faultinject.hpp"
#include "common/rng.hpp"

namespace chase {
namespace {

using comm::Communicator;
using comm::Reduction;
using comm::Team;
using la::Index;

constexpr auto kTestTimeout = std::chrono::milliseconds(2000);
constexpr int kRanks = 8;

// Node shapes of an 8-rank team: flat, balanced groupings both ways, and an
// uneven 3 + 5 split.
const char* const kShapes[] = {"1x8", "2x4", "4x2", "0,0,0,1,1,1,1,1"};

const coll::Algorithm kHierPolicies[] = {coll::Algorithm::kHier,
                                         coll::Algorithm::kAuto};

comm::Topology shape(const char* spec) {
  return comm::parse_topology("CHASE_TOPO", spec);
}

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

/// Rank-ordered fold — the exact arithmetic the naive all_reduce performs.
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
void sweep_hier_allreduce() {
  for (const char* spec : kShapes) {
    comm::ScopedTopology topo(shape(spec));
    for (const coll::Algorithm algo : kHierPolicies) {
      coll::ScopedAlgorithm policy(algo);
      for (const std::size_t chunk : {std::size_t(48), std::size_t(64) << 10}) {
        coll::ScopedChunkBytes chunk_scope(chunk);
        for (const Index count : {Index(0), Index(1), Index(7), Index(1023)}) {
          const std::uint64_t salt =
              std::uint64_t(count) * 131u + std::uint64_t(chunk % 97);
          const std::vector<T> want =
              reference_allreduce<T>(kRanks, count, Reduction::kSum, salt);
          std::vector<std::vector<T>> got((std::size_t(kRanks)));
          Team team(kRanks);
          team.run([&](Communicator& comm) {
            std::vector<T> x = rank_payload<T>(comm.rank(), count, salt);
            comm.all_reduce(x.data(), count);
            got[std::size_t(comm.rank())] = std::move(x);
          });
          for (int r = 0; r < kRanks; ++r) {
            EXPECT_TRUE(bitwise_equal(got[std::size_t(r)], want))
                << "topo=" << spec << " algo=" << coll::algorithm_name(algo)
                << " chunk=" << chunk << " count=" << count << " rank=" << r;
          }
        }
      }
    }
  }
}

TEST(HierSweep, AllReduceBitwiseReal) { sweep_hier_allreduce<double>(); }
TEST(HierSweep, AllReduceBitwiseComplex) {
  sweep_hier_allreduce<std::complex<double>>();
}

template <typename T>
void sweep_hier_broadcast_gather() {
  for (const char* spec : kShapes) {
    comm::ScopedTopology topo(shape(spec));
    for (const coll::Algorithm algo : kHierPolicies) {
      coll::ScopedAlgorithm policy(algo);
      coll::ScopedChunkBytes chunk_scope(48);  // force multi-chunk pipelines
      for (const Index count : {Index(1), Index(65), Index(257)}) {
        for (const int root : {0, 3, kRanks - 1}) {
          const std::uint64_t salt = std::uint64_t(count) * 7u + root;
          const std::vector<T> want = rank_payload<T>(root, count, salt);
          Team team(kRanks);
          team.run([&](Communicator& comm) {
            std::vector<T> x = rank_payload<T>(comm.rank(), count, salt);
            comm.broadcast(x.data(), count, root);
            EXPECT_TRUE(bitwise_equal(x, want))
                << "broadcast topo=" << spec << " root=" << root
                << " count=" << count << " rank=" << comm.rank();
          });
        }
        // Uniform allgather.
        {
          const std::uint64_t salt = std::uint64_t(count) + 999u;
          std::vector<T> want;
          for (int r = 0; r < kRanks; ++r) {
            const auto mine = rank_payload<T>(r, count, salt);
            want.insert(want.end(), mine.begin(), mine.end());
          }
          Team team(kRanks);
          team.run([&](Communicator& comm) {
            const auto mine = rank_payload<T>(comm.rank(), count, salt);
            std::vector<T> all(std::size_t(count) * kRanks);
            comm.all_gather(mine.data(), count, all.data());
            EXPECT_TRUE(bitwise_equal(all, want))
                << "allgather topo=" << spec << " count=" << count
                << " rank=" << comm.rank();
          });
        }
        // Variable-count allgather with the canonical contiguous layout
        // (the shape the hierarchical composite accepts).
        {
          std::vector<Index> counts(kRanks);
          std::vector<Index> displs(kRanks);
          Index total = 0;
          for (int r = 0; r < kRanks; ++r) {
            counts[std::size_t(r)] = count + Index(r % 3);
            displs[std::size_t(r)] = total;
            total += counts[std::size_t(r)];
          }
          const std::uint64_t salt = std::uint64_t(count) + 4242u;
          std::vector<T> want(static_cast<std::size_t>(total));
          for (int r = 0; r < kRanks; ++r) {
            const auto mine =
                rank_payload<T>(r, counts[std::size_t(r)], salt);
            std::copy(mine.begin(), mine.end(),
                      want.begin() + std::size_t(displs[std::size_t(r)]));
          }
          Team team(kRanks);
          team.run([&](Communicator& comm) {
            const Index mine_n = counts[std::size_t(comm.rank())];
            const auto mine = rank_payload<T>(comm.rank(), mine_n, salt);
            std::vector<T> all(static_cast<std::size_t>(total));
            comm.all_gather_v(mine.data(), mine_n, all.data(), counts,
                              displs);
            EXPECT_TRUE(bitwise_equal(all, want))
                << "allgather_v topo=" << spec << " count=" << count
                << " rank=" << comm.rank();
          });
        }
      }
    }
  }
}

TEST(HierSweep, BroadcastAndGatherBitwiseReal) {
  sweep_hier_broadcast_gather<double>();
}
TEST(HierSweep, BroadcastAndGatherBitwiseComplex) {
  sweep_hier_broadcast_gather<std::complex<double>>();
}

TEST(HierGroup, SubCommunicatorShapes) {
  comm::ScopedTopology topo(shape("2x4"));
  Team team(kRanks);
  team.run([&](Communicator& comm) {
    const int r = comm.rank();
    ASSERT_TRUE(comm.topo_info().grouped());
    EXPECT_EQ(comm.topo_info().nodes, 2);
    EXPECT_EQ(comm.topo_info().max_per_node, 4);
    const auto& g = comm.hier_group();
    EXPECT_EQ(g.node, r / 4);
    EXPECT_EQ(g.node_first, (r / 4) * 4);
    EXPECT_EQ(g.node_size, 4);
    EXPECT_EQ(g.intra.size(), 4);
    EXPECT_EQ(g.intra.rank(), r % 4);
    EXPECT_EQ(g.is_leader, r % 4 == 3);
    if (g.is_leader) {
      EXPECT_EQ(g.leaders.size(), 2);
      EXPECT_EQ(g.leaders.rank(), r / 4);
    }
    // The sub-communicators are real communicators: collectives on them
    // must work and stay independent of the parent.
    double x = double(r + 1);
    g.intra.all_reduce(&x, 1);
    double want = 0;
    for (int i = 0; i < 4; ++i) want += double((r / 4) * 4 + i + 1);
    EXPECT_EQ(x, want);
  });
}

TEST(HierGroup, UnevenShapeAndSplitInheritance) {
  comm::ScopedTopology topo(shape("0,0,0,1,1,1,1,1"));
  coll::ScopedAlgorithm policy(coll::Algorithm::kHier);
  Team team(kRanks);
  team.run([&](Communicator& comm) {
    const int r = comm.rank();
    const auto& g = comm.hier_group();
    EXPECT_EQ(g.node, r < 3 ? 0 : 1);
    EXPECT_EQ(g.node_size, r < 3 ? 3 : 5);
    EXPECT_EQ(g.is_leader, r == 2 || r == 7);
    // A split child inherits the node assignment of its members: the even
    // ranks {0, 2, 4, 6} live on nodes {0, 0, 1, 1} — still grouped.
    Communicator half = comm.split(r % 2, r);
    const auto& info = half.topo_info();
    if (r % 2 == 0) {
      EXPECT_TRUE(info.grouped());
      EXPECT_EQ(info.nodes, 2);
      EXPECT_EQ(info.max_per_node, 2);
    }
    // Collectives on the grouped child still match the naive fold.
    double x = double(r + 1);
    half.all_reduce(&x, 1);
    double want = 0;
    for (int i = r % 2; i < kRanks; i += 2) want += double(i + 1);
    EXPECT_EQ(x, want);
  });
}

template <typename T>
void repeated_rounds_roundtrip() {
  comm::ScopedTopology topo(shape("2x4"));
  coll::ScopedAlgorithm policy(coll::Algorithm::kAuto);
  coll::ScopedChunkBytes chunk_scope(96);
  const Index count = 201;
  constexpr int kRounds = 3;
  Team team(kRanks);
  team.run([&](Communicator& comm) {
    const int r = comm.rank();
    std::vector<T> x(static_cast<std::size_t>(count));
    std::vector<T> mine(static_cast<std::size_t>(count));
    std::vector<T> all(std::size_t(count) * kRanks);
    for (int it = 0; it < kRounds; ++it) {
      const std::uint64_t salt = std::uint64_t(it) * 7919u + 13u;
      // Every round sees fresh buffer contents.
      auto px = rank_payload<T>(r, count, salt);
      std::copy(px.begin(), px.end(), x.begin());
      comm.all_reduce(x.data(), count);
      EXPECT_TRUE(bitwise_equal(
          x, reference_allreduce<T>(kRanks, count, Reduction::kSum, salt)))
          << "round " << it << " rank " << r;
      auto pb = rank_payload<T>(r, count, salt + 1);
      std::copy(pb.begin(), pb.end(), x.begin());
      comm.broadcast(x.data(), count, /*root=*/5);
      EXPECT_TRUE(bitwise_equal(x, rank_payload<T>(5, count, salt + 1)))
          << "round " << it << " rank " << r;
      auto pm = rank_payload<T>(r, count, salt + 2);
      std::copy(pm.begin(), pm.end(), mine.begin());
      comm.all_gather(mine.data(), count, all.data());
      std::vector<T> want;
      for (int q = 0; q < kRanks; ++q) {
        const auto part = rank_payload<T>(q, count, salt + 2);
        want.insert(want.end(), part.begin(), part.end());
      }
      EXPECT_TRUE(bitwise_equal(all, want)) << "round " << it << " rank " << r;
    }
  });
}

TEST(HierDispatch, RepeatedRoundsMatchReferenceReal) {
  repeated_rounds_roundtrip<double>();
}
TEST(HierDispatch, RepeatedRoundsMatchReferenceComplex) {
  repeated_rounds_roundtrip<std::complex<double>>();
}

TEST(HierFault, LeaderDeathPropagatesThroughBothLevels) {
  // Rank 7 is the leader of node 1 under 2x4: it dies entering the
  // hierarchical collective, and every rank of both levels (its intra-node
  // teammates and the cross-node leader exchange) must unblock with
  // TeamAborted instead of hanging.
  comm::ScopedBarrierTimeout fast(kTestTimeout);
  comm::ScopedTopology topo(shape("2x4"));
  coll::ScopedAlgorithm policy(coll::Algorithm::kHier);
  fault::Scoped armed("rank.die", /*rank=*/7, /*times=*/1);
  Team team(kRanks);
  try {
    team.run([](Communicator& comm) {
      std::vector<double> x(64, double(comm.rank()));
      comm.all_reduce(x.data(), Index(x.size()));
      comm.barrier();
    });
    FAIL() << "expected TeamAborted";
  } catch (const comm::TeamAborted& e) {
    EXPECT_EQ(e.error().rank, 7);
    EXPECT_EQ(e.error().site, "rank.die");
  }
}

TEST(HierFault, RepeatedAllReduceDeathAborts) {
  // Every dispatched call runs the fault-injection hook: a rank dying in
  // one of several back-to-back allreduces aborts the team instead of
  // deadlocking the ranks still calling.
  comm::ScopedBarrierTimeout fast(kTestTimeout);
  comm::ScopedTopology topo(shape("2x4"));
  coll::ScopedAlgorithm policy(coll::Algorithm::kAuto);
  fault::Scoped armed("rank.die", /*rank=*/3, /*times=*/1);
  Team team(kRanks);
  EXPECT_THROW(
      team.run([](Communicator& comm) {
        std::vector<double> x(32, 1.0);
        for (int it = 0; it < 3; ++it) {
          comm.all_reduce(x.data(), Index(x.size()));
        }
      }),
      comm::TeamAborted);
}

}  // namespace
}  // namespace chase
