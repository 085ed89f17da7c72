#include "coll/engine.hpp"

#include <initializer_list>
#include <limits>

#include "perf/cost_model.hpp"
#include "perf/machine.hpp"
#include "perf/tuned.hpp"

namespace chase::coll {

namespace {

constexpr std::size_t kDefaultChunkBytes = std::size_t(64) << 10;

perf::CollAlgo routine_algo(Routine r) {
  switch (r) {
    case Routine::kRingAllReduce:
      return perf::CollAlgo::kRingAlgo;
    case Routine::kRabenseifnerAllReduce:
      return perf::CollAlgo::kRabenseifner;
    case Routine::kRingAllGather:
      return perf::CollAlgo::kRingAlgo;
    case Routine::kBruckAllGather:
      return perf::CollAlgo::kBruck;
    case Routine::kBinomialBroadcast:
      return perf::CollAlgo::kBinomial;
    case Routine::kHierAllReduce:
    case Routine::kHierAllGather:
    case Routine::kHierBroadcast:
      return perf::CollAlgo::kHierAlgo;
    case Routine::kNaive:
    default:
      return perf::CollAlgo::kNaiveAlgo;
  }
}

Routine cheapest(perf::CollKind kind, std::size_t bytes, int nranks,
                 perf::Backend backend, const perf::TopoInfo& topo,
                 std::initializer_list<Routine> candidates) {
  // Priced with the process-global selection model so a loaded machine
  // profile (tune::install_profile) recalibrates the auto policy too.
  const perf::MachineModel model = perf::selection_model();
  const std::size_t chunk = chunk_bytes();
  Routine best = Routine::kNaive;
  double best_cost = std::numeric_limits<double>::infinity();
  for (Routine r : candidates) {
    const double cost =
        perf::coll_algo_seconds(model, backend, kind, routine_algo(r), bytes,
                                nranks, chunk, topo);
    if (cost < best_cost) {
      best_cost = cost;
      best = r;
    }
  }
  return best;
}

Routine hier_routine(perf::CollKind kind) {
  switch (kind) {
    case perf::CollKind::kAllReduce:
      return Routine::kHierAllReduce;
    case perf::CollKind::kAllGather:
      return Routine::kHierAllGather;
    case perf::CollKind::kBroadcast:
    default:
      return Routine::kHierBroadcast;
  }
}

}  // namespace

std::string_view routine_name(Routine r) {
  switch (r) {
    case Routine::kRingAllReduce:
      return "ring_allreduce";
    case Routine::kRabenseifnerAllReduce:
      return "rabenseifner_allreduce";
    case Routine::kRingAllGather:
      return "ring_allgather";
    case Routine::kBruckAllGather:
      return "bruck_allgather";
    case Routine::kBinomialBroadcast:
      return "binomial_broadcast";
    case Routine::kHierAllReduce:
      return "hier_allreduce";
    case Routine::kHierAllGather:
      return "hier_allgather";
    case Routine::kHierBroadcast:
      return "hier_broadcast";
    case Routine::kNaive:
    default:
      return "naive";
  }
}

bool is_hierarchical(Routine r) {
  return r == Routine::kHierAllReduce || r == Routine::kHierAllGather ||
         r == Routine::kHierBroadcast;
}

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

bool overlap_enabled() { return algorithm() == Algorithm::kAuto; }

Routine select(perf::CollKind kind, std::size_t bytes, int nranks,
               perf::Backend backend) {
  return select(kind, bytes, nranks, backend, perf::TopoInfo{});
}

Routine select(perf::CollKind kind, std::size_t bytes, int nranks,
               perf::Backend backend, const perf::TopoInfo& topo) {
  if (nranks <= 1) return Routine::kNaive;
  const bool grouped = topo.grouped();
  switch (algorithm_for(kind, bytes)) {
    case Algorithm::kNaive:
      return Routine::kNaive;
    case Algorithm::kRing:
      switch (kind) {
        case perf::CollKind::kAllReduce:
          return Routine::kRingAllReduce;
        case perf::CollKind::kAllGather:
          return Routine::kRingAllGather;
        case perf::CollKind::kBroadcast:
        default:
          return Routine::kBinomialBroadcast;
      }
    case Algorithm::kTree:
      switch (kind) {
        case perf::CollKind::kAllReduce:
          return Routine::kRabenseifnerAllReduce;
        case perf::CollKind::kAllGather:
          return Routine::kBruckAllGather;
        case perf::CollKind::kBroadcast:
        default:
          return Routine::kBinomialBroadcast;
      }
    case Algorithm::kHier:
      // Explicit two-level policy; degrades to the flat ring family when the
      // communicator spans a single group (or a non-contiguous one).
      if (grouped) return hier_routine(kind);
      switch (kind) {
        case perf::CollKind::kAllReduce:
          return Routine::kRingAllReduce;
        case perf::CollKind::kAllGather:
          return Routine::kRingAllGather;
        case perf::CollKind::kBroadcast:
        default:
          return Routine::kBinomialBroadcast;
      }
    case Algorithm::kAuto:
    default:
      switch (kind) {
        case perf::CollKind::kAllReduce:
          return grouped
                     ? cheapest(kind, bytes, nranks, backend, topo,
                                {Routine::kNaive, Routine::kRingAllReduce,
                                 Routine::kRabenseifnerAllReduce,
                                 Routine::kHierAllReduce})
                     : cheapest(kind, bytes, nranks, backend, topo,
                                {Routine::kNaive, Routine::kRingAllReduce,
                                 Routine::kRabenseifnerAllReduce});
        case perf::CollKind::kAllGather:
          return grouped
                     ? cheapest(kind, bytes, nranks, backend, topo,
                                {Routine::kNaive, Routine::kRingAllGather,
                                 Routine::kBruckAllGather,
                                 Routine::kHierAllGather})
                     : cheapest(kind, bytes, nranks, backend, topo,
                                {Routine::kNaive, Routine::kRingAllGather,
                                 Routine::kBruckAllGather});
        case perf::CollKind::kBroadcast:
        default:
          return grouped
                     ? cheapest(kind, bytes, nranks, backend, topo,
                                {Routine::kNaive, Routine::kBinomialBroadcast,
                                 Routine::kHierBroadcast})
                     : cheapest(kind, bytes, nranks, backend, topo,
                                {Routine::kNaive,
                                 Routine::kBinomialBroadcast});
      }
  }
}

std::vector<CollPhase> hier_phases(perf::CollKind kind, std::size_t bytes,
                                   int nranks, const perf::TopoInfo& topo) {
  std::vector<CollPhase> out;
  const int M = topo.nodes;
  const int per = topo.max_per_node;
  switch (kind) {
    case perf::CollKind::kAllReduce:
      // Two-level decomposition: fold within the fast group, exchange the
      // folded block among leaders, fan the result back out.
      if (per > 1) out.push_back({perf::CollKind::kAllReduce, bytes, per});
      if (M > 1) out.push_back({perf::CollKind::kAllReduce, bytes, M});
      if (per > 1) out.push_back({perf::CollKind::kBroadcast, bytes, per});
      break;
    case perf::CollKind::kAllGather: {
      // `bytes` is the total gathered payload; one node's block is the
      // per-group share the intra phase assembles.
      const std::size_t node_bytes =
          nranks > 0 ? bytes / std::size_t(nranks) * std::size_t(per) : bytes;
      if (per > 1) out.push_back({perf::CollKind::kAllGather, node_bytes, per});
      if (M > 1) out.push_back({perf::CollKind::kAllGather, bytes, M});
      if (per > 1 && M > 1 && bytes > node_bytes) {
        out.push_back(
            {perf::CollKind::kBroadcast, bytes - node_bytes, per});
      }
      break;
    }
    case perf::CollKind::kBroadcast:
    default:
      if (M > 1) out.push_back({perf::CollKind::kBroadcast, bytes, M});
      if (per > 1) out.push_back({perf::CollKind::kBroadcast, bytes, per});
      break;
  }
  return out;
}

void account_phases(perf::Tracker* t, perf::Backend backend,
                    const std::vector<CollPhase>& phases, bool bracketed) {
  if (t == nullptr) return;
  bool close_bracket = bracketed;
  for (const auto& p : phases) {
    if (p.nranks <= 1) continue;
    const std::size_t local = p.kind == perf::CollKind::kAllGather
                                  ? p.bytes / std::size_t(p.nranks)
                                  : p.bytes;
    if (backend == perf::Backend::kStdGpu) t->record_memcpy(local, false);
    if (close_bracket) {
      t->end_collective(p.kind, p.bytes, p.nranks);
      close_bracket = false;
    } else {
      t->record_collective(p.kind, p.bytes, p.nranks);
    }
    if (backend == perf::Backend::kStdGpu) t->record_memcpy(p.bytes, true);
  }
}

}  // namespace chase::coll
