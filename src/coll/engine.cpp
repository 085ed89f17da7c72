#include "coll/engine.hpp"

#include <limits>
#include <span>

#include "perf/cost_model.hpp"
#include "perf/machine.hpp"

namespace chase::coll {

namespace {

constexpr std::size_t kDefaultChunkBytes = std::size_t(64) << 10;

perf::CollAlgo cheapest(perf::CollKind kind, std::size_t bytes, int nranks,
                        perf::Backend backend, const perf::TopoInfo& topo,
                        std::span<const perf::CollAlgo> candidates) {
  // Priced with the built-in machine constants; nothing recalibrates them.
  const perf::MachineModel model;
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

std::size_t chunk_bytes() {
  const long long raw = chunk_knob.raw();
  return raw != policy::kNone ? std::size_t(raw) : kDefaultChunkBytes;
}

perf::CollAlgo select(perf::CollKind kind, std::size_t bytes, int nranks,
                      perf::Backend backend) {
  return select(kind, bytes, nranks, backend, perf::TopoInfo{});
}

perf::CollAlgo select(perf::CollKind kind, std::size_t bytes, int nranks,
                      perf::Backend backend, const perf::TopoInfo& topo) {
  using perf::CollAlgo;
  if (nranks <= 1) return CollAlgo::kNaiveAlgo;
  // The flat channel routine of each kind: the ordered ring (allreduce), the
  // ring (allgather), the binomial tree (broadcast).
  const CollAlgo flat = kind == perf::CollKind::kBroadcast
                            ? CollAlgo::kBinomial
                            : CollAlgo::kRingAlgo;
  const bool grouped = topo.grouped();
  switch (algorithm()) {
    case Algorithm::kNaive:
      return CollAlgo::kNaiveAlgo;
    case Algorithm::kRing:
      return flat;
    case Algorithm::kHier:
      // Explicit two-level policy; degrades to the flat routine when the
      // communicator spans a single group (or a non-contiguous one).
      return grouped ? CollAlgo::kHierAlgo : flat;
    case Algorithm::kAuto:
    default: {
      // Candidates in tie-break order (the first cheapest wins); the
      // two-level routine only on a grouped communicator.
      const CollAlgo candidates[] = {CollAlgo::kNaiveAlgo, flat,
                                     CollAlgo::kHierAlgo};
      return cheapest(kind, bytes, nranks, backend, topo,
                      std::span<const CollAlgo>(candidates, grouped ? 3 : 2));
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
