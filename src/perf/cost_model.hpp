// Pricing of recorded or analytically generated event streams.
//
// A CostBreakdown carries the three Figure-2 stack components (computation,
// communication, host-device movement) for one ChASE kernel. price_tracker()
// converts what a real run recorded into modeled cluster time;
// price_collective()/price flops helpers are shared with the analytic
// replayers in chase_model.hpp.
#pragma once

#include <array>

#include "perf/backend.hpp"
#include "perf/machine.hpp"
#include "perf/tracker.hpp"

namespace chase::perf {

struct CostBreakdown {
  double compute = 0;
  double comm = 0;
  double movement = 0;
  double total() const { return compute + comm + movement; }

  CostBreakdown& operator+=(const CostBreakdown& o) {
    compute += o.compute;
    comm += o.comm;
    movement += o.movement;
    return *this;
  }
};

using KernelCosts = std::array<CostBreakdown, std::size_t(kRegionCount)>;

/// Total across all regions.
CostBreakdown sum_costs(const KernelCosts& costs);

/// Seconds for one collective of `kind` with per-rank payload `bytes` over
/// `nranks` ranks under the given backend (MPI tree vs NCCL ring).
double price_collective(const MachineModel& m, Backend backend, CollKind kind,
                        std::size_t bytes, int nranks);

/// Concrete collective algorithm of the src/coll engine, priced by the
/// extended alpha-beta-gamma model below (alpha: per-step latency, beta:
/// link bandwidth, gamma: elementwise-reduction rate).
enum class CollAlgo : int {
  kNaiveAlgo = 0,   // publish-and-sync: two barriers + every rank reads all
  kRingAlgo,        // ordered pipelined chain (allreduce) / ring (allgather)
  kBinomial,        // binomial tree broadcast, chunk-pipelined
  kHierAlgo,        // two-level: fast-group phase + leader exchange + fanout
};

/// Two-level shape of a communicator: how its ranks group into nodes and
/// what the cross-node link class costs. The comm layer derives one per
/// communicator from the CHASE_TOPO assignment (src/comm/topology.hpp);
/// a default-constructed TopoInfo is the flat single-node shape and prices
/// exactly like the pre-topology model.
struct TopoInfo {
  int nodes = 1;          // node groups spanned by this communicator
  int max_per_node = 1;   // ranks in the largest group
  bool contiguous = true; // groups are contiguous rank ranges (hier-capable)
  double inter_bw = 0;    // emulated cross-group bytes/s (0: MachineModel's)
  double inter_latency = 0;  // emulated cross-group hop seconds (0: model's)

  /// True when hierarchical routing is meaningful: more than one group,
  /// each group a contiguous rank range.
  bool grouped() const { return nodes > 1 && contiguous; }
};

/// Seconds for one collective executed with `algo` and chunk-size
/// `chunk_bytes` pipelining; `bytes` follows the Tracker convention
/// (per-rank payload for reduce/broadcast, total gathered for allgather).
/// This is the objective CHASE_COLL_ALGO=auto minimizes. `algo` is a flat
/// routine: kHierAlgo is priced only by the topology-aware overload, on a
/// grouped topology (the only place the selector offers it).
double coll_algo_seconds(const MachineModel& m, Backend backend, CollKind kind,
                         CollAlgo algo, std::size_t bytes, int nranks,
                         std::size_t chunk_bytes);

/// Topology-aware variant: prices each hop by its link class. Flat
/// `topo` (default TopoInfo) reproduces the overload above exactly; a
/// grouped topology charges the hops that cross node groups at the
/// inter-node alpha-beta terms (topo's emulated values when set, else the
/// MachineModel's inter_bw/inter_latency) — in particular the flat ring
/// allreduce pays for squeezing 2x the payload through its busiest
/// cross-group sender, which is precisely what the hierarchical algorithm
/// avoids.
double coll_algo_seconds(const MachineModel& m, Backend backend, CollKind kind,
                         CollAlgo algo, std::size_t bytes, int nranks,
                         std::size_t chunk_bytes, const TopoInfo& topo);

/// Modeled compute seconds for a RegionCosts record (flops by class plus
/// memory-bound bytes).
double price_compute(const MachineModel& m, const RegionCosts& c);

/// Price everything a Tracker recorded: compute from the analytic flop
/// counters, communication from the collective events, movement from the
/// staging events. This is how a real small-scale run is replayed onto the
/// modeled A100 cluster.
KernelCosts price_tracker(const MachineModel& m, Backend backend,
                          const Tracker& t);

}  // namespace chase::perf
