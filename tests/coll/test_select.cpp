// CHASE_COLL_ALGO=auto is the argmin of the built-in cost model.
//
// Under kAuto, coll::select must return the cheapest of its candidates —
// naive, the flat routine of the kind, and the two-level routine on a
// grouped communicator — as priced by perf::coll_algo_seconds with the
// built-in MachineModel constants, the first candidate winning ties. Swept
// over the three collective kinds, three payload decades, team sizes 2/4/8,
// the STD and NCCL backends, and a flat and a two-group topology.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "coll/engine.hpp"
#include "comm/topology.hpp"
#include "perf/cost_model.hpp"

namespace chase {
namespace {

using perf::CollAlgo;
using perf::CollKind;

// The shape the comm layer derives for a team of `nranks` under a
// CHASE_TOPO spec of two node groups: 2x1, 2x2 and 2x4 for P = 2, 4, 8.
perf::TopoInfo two_groups(int nranks) {
  const comm::Topology topo = comm::parse_topology(
      "CHASE_TOPO", "2x" + std::to_string(nranks / 2));
  return comm::topo_info_of(comm::node_assignment(topo, nranks),
                            topo.inter_bw, topo.inter_latency);
}

TEST(CollSelect, AutoPicksTheModelArgmin) {
  coll::ScopedAlgorithm policy(coll::Algorithm::kAuto);
  const perf::MachineModel model;
  const std::size_t chunk = coll::chunk_bytes();
  std::set<CollAlgo> picked;
  for (const CollKind kind :
       {CollKind::kAllReduce, CollKind::kAllGather, CollKind::kBroadcast}) {
    const CollAlgo flat =
        kind == CollKind::kBroadcast ? CollAlgo::kBinomial : CollAlgo::kRingAlgo;
    for (const std::size_t bytes : {std::size_t(16) << 10,
                                    std::size_t(256) << 10,
                                    std::size_t(4) << 20}) {
      for (const int p : {2, 4, 8}) {
        const perf::TopoInfo grouped = two_groups(p);
        ASSERT_TRUE(grouped.grouped()) << "P=" << p;
        for (const perf::Backend backend :
             {perf::Backend::kStdGpu, perf::Backend::kNcclGpu}) {
          for (const perf::TopoInfo& topo : {perf::TopoInfo{}, grouped}) {
            std::vector<CollAlgo> candidates = {CollAlgo::kNaiveAlgo, flat};
            if (topo.grouped()) candidates.push_back(CollAlgo::kHierAlgo);
            CollAlgo best = candidates.front();
            double best_cost = perf::coll_algo_seconds(
                model, backend, kind, best, bytes, p, chunk, topo);
            for (const CollAlgo a : candidates) {
              const double cost = perf::coll_algo_seconds(
                  model, backend, kind, a, bytes, p, chunk, topo);
              if (cost < best_cost) {
                best_cost = cost;
                best = a;
              }
            }
            const CollAlgo got = coll::select(kind, bytes, p, backend, topo);
            EXPECT_EQ(int(got), int(best))
                << "kind=" << int(kind) << " bytes=" << bytes << " P=" << p
                << " backend=" << perf::backend_name(backend)
                << " grouped=" << topo.grouped();
            picked.insert(got);
          }
        }
      }
    }
  }
  // The sweep crosses decision boundaries: auto is not a constant.
  EXPECT_GE(picked.size(), 2u);
}

}  // namespace
}  // namespace chase
