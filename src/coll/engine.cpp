#include "coll/engine.hpp"

#include <limits>
#include <span>

#include "perf/cost_model.hpp"
#include "perf/machine.hpp"
#include "perf/tuned.hpp"

namespace chase::coll {

namespace {

constexpr std::size_t kDefaultChunkBytes = std::size_t(64) << 10;

perf::CollAlgo cheapest(perf::CollKind kind, std::size_t bytes, int nranks,
                        perf::Backend backend, const perf::TopoInfo& topo,
                        std::span<const perf::CollAlgo> candidates) {
  // Priced with the process-global selection model so a loaded machine
  // profile (tune::install_profile) recalibrates the auto policy too.
  const perf::MachineModel model = perf::selection_model();
  const std::size_t chunk = chunk_bytes();
  perf::CollAlgo best = perf::CollAlgo::kNaiveAlgo;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const perf::CollAlgo a : candidates) {
    const double cost = perf::coll_algo_seconds(model, backend, kind, a, bytes,
                                                nranks, chunk, topo);
    if (cost < best_cost) {
      best_cost = cost;
      best = a;
    }
  }
  return best;
}

}  // namespace

Algorithm algorithm_for(perf::CollKind kind, std::size_t bytes) {
  const perf::TunedTables* t = perf::tuned_tables();
  if (t == nullptr) return algorithm_policy.resolve();
  return algorithm_policy.resolve(
      t->coll_algo[int(kind)][int(perf::msg_class(bytes))]);
}

std::size_t chunk_bytes() {
  const long long raw = chunk_knob.raw();
  if (raw != policy::kNone) return std::size_t(raw);
  if (const perf::TunedTables* t = perf::tuned_tables()) {
    if (t->chunk_bytes > 0) return std::size_t(t->chunk_bytes);
  }
  return kDefaultChunkBytes;
}

perf::CollAlgo select(perf::CollKind kind, std::size_t bytes, int nranks,
                      perf::Backend backend) {
  return select(kind, bytes, nranks, backend, perf::TopoInfo{});
}

perf::CollAlgo select(perf::CollKind kind, std::size_t bytes, int nranks,
                      perf::Backend backend, const perf::TopoInfo& topo) {
  using perf::CollAlgo;
  if (nranks <= 1) return CollAlgo::kNaiveAlgo;
  // The flat channel routine of each family: the ring family pairs the
  // ordered ring (allreduce) / ring (allgather) with the binomial broadcast,
  // the tree family Rabenseifner / bruck with the same broadcast.
  const bool bcast = kind == perf::CollKind::kBroadcast;
  const CollAlgo ring = bcast ? CollAlgo::kBinomial : CollAlgo::kRingAlgo;
  const CollAlgo tree = bcast ? CollAlgo::kBinomial
                        : kind == perf::CollKind::kAllReduce
                            ? CollAlgo::kRabenseifner
                            : CollAlgo::kBruck;
  const bool grouped = topo.grouped();
  switch (algorithm_for(kind, bytes)) {
    case Algorithm::kNaive:
      return CollAlgo::kNaiveAlgo;
    case Algorithm::kRing:
      return ring;
    case Algorithm::kTree:
      return tree;
    case Algorithm::kHier:
      // Explicit two-level policy; degrades to the flat ring family when the
      // communicator spans a single group (or a non-contiguous one).
      return grouped ? CollAlgo::kHierAlgo : ring;
    case Algorithm::kAuto:
    default: {
      // Candidates in tie-break order (the first cheapest wins).
      CollAlgo candidates[4] = {CollAlgo::kNaiveAlgo, ring};
      std::size_t n = 2;
      if (!bcast) candidates[n++] = tree;
      if (grouped) candidates[n++] = CollAlgo::kHierAlgo;
      return cheapest(kind, bytes, nranks, backend, topo,
                      std::span<const CollAlgo>(candidates, n));
    }
  }
}

std::vector<CollPhase> hier_phases(perf::CollKind kind, std::size_t bytes,
                                   int nranks, const perf::TopoInfo& topo) {
  using perf::CollKind;
  std::vector<CollPhase> out;
  const int M = topo.nodes;
  const int per = topo.max_per_node;
  switch (kind) {
    case CollKind::kAllReduce:
      // Two-level decomposition: fold within the fast group, exchange the
      // folded block among leaders, fan the result back out.
      if (per > 1) out.push_back({CollKind::kAllReduce, bytes, per, bytes});
      if (M > 1) out.push_back({CollKind::kAllReduce, bytes, M, bytes});
      if (per > 1) out.push_back({CollKind::kBroadcast, bytes, per, bytes});
      break;
    case CollKind::kAllGather: {
      // `bytes` is the total gathered payload; one node's block is the
      // per-group share the intra phase assembles.
      const std::size_t node_bytes =
          nranks > 0 ? bytes / std::size_t(nranks) * std::size_t(per) : bytes;
      if (per > 1) {
        out.push_back({CollKind::kAllGather, node_bytes, per,
                       node_bytes / std::size_t(per)});
      }
      if (M > 1) {
        out.push_back({CollKind::kAllGather, bytes, M, bytes / std::size_t(M)});
      }
      if (per > 1 && M > 1 && bytes > node_bytes) {
        out.push_back({CollKind::kBroadcast, bytes - node_bytes, per,
                       bytes - node_bytes});
      }
      break;
    }
    case CollKind::kBroadcast:
    default:
      if (M > 1) out.push_back({CollKind::kBroadcast, bytes, M, bytes});
      if (per > 1) out.push_back({CollKind::kBroadcast, bytes, per, bytes});
      break;
  }
  return out;
}

void account_phases(perf::Tracker* t, perf::Backend backend,
                    std::span<const CollPhase> phases) {
  if (t == nullptr) return;
  const bool staged = backend == perf::Backend::kStdGpu;
  for (const auto& p : phases) {
    if (staged) t->record_memcpy(p.local, /*to_device=*/false);
    if (&p == phases.data()) {
      t->end_collective(p.kind, p.bytes, p.nranks);
    } else {
      t->record_collective(p.kind, p.bytes, p.nranks);
    }
    if (staged) t->record_memcpy(p.bytes, /*to_device=*/true);
  }
}

}  // namespace chase::coll
