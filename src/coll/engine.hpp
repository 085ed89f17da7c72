// Algorithm policy for the collective engine (a common/policy.hpp policy).
//
// Mirrors the paper's MPI -> NCCL switch: the naive publish-and-sync path
// stands in for the single-shot MPI collective, while the chunk-pipelined
// channel routines (src/coll) reproduce the algorithmic side of NCCL — one
// flat routine per collective kind (ordered ring allreduce, ring allgather,
// binomial broadcast) plus their two-level variants. The policy is
// process-global:
//
//   CHASE_COLL_ALGO = naive | ring | hier | auto   (default: naive)
//   CHASE_COLL_CHUNK_BYTES = pipelining granularity (default 64 KiB)
//
// `auto` picks per call by minimizing the extended alpha-beta-gamma cost
// model (perf::coll_algo_seconds) over the available routines — the
// in-process analogue of NCCL's protocol/algorithm autotuner. With a
// grouped topology (CHASE_TOPO, src/comm/topology.hpp) the selection runs
// the per-link-class overload, so `auto` chooses the two-level hierarchical
// routines exactly when the slow cross-group links make them win.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/policy.hpp"
#include "perf/backend.hpp"
#include "perf/cost_model.hpp"
#include "perf/tracker.hpp"

namespace chase::coll {

enum class Algorithm : int { kNaive = 0, kRing, kHier, kAuto };

inline constinit policy::Policy<Algorithm, 4> algorithm_policy{
    "CHASE_COLL_ALGO", {"naive", "ring", "hier", "auto"}, Algorithm::kNaive};
using ScopedAlgorithm = policy::Pin<algorithm_policy>;

inline std::string_view algorithm_name(Algorithm a) {
  return algorithm_policy.name(a);
}
inline std::optional<Algorithm> parse_algorithm(std::string_view name) {
  return algorithm_policy.parse(name);
}
/// Effective policy: the override, else the default.
inline Algorithm algorithm() { return algorithm_policy.resolve(); }

/// CHASE_COLL_CHUNK_BYTES knob (strictly positive).
inline constinit policy::Knob chunk_knob{"CHASE_COLL_CHUNK_BYTES",
                                         policy::positive};

/// Pipelining granularity in bytes (>= 1): the CHASE_COLL_CHUNK_BYTES /
/// ScopedChunkBytes override, else the built-in 64 KiB default.
std::size_t chunk_bytes();

class ScopedChunkBytes : public policy::Scoped {
 public:
  explicit ScopedChunkBytes(std::size_t bytes)
      : Scoped(chunk_knob, bytes == 0 ? 1 : (long long)bytes) {}
};

/// Pick the routine for one collective call of `kind`: kNaiveAlgo is the
/// publish-and-sync reference, anything else names the channel routine the
/// dispatcher runs (kRingAlgo is the ordered ring for allreduce and the ring
/// for allgather, kBinomial the broadcast tree). `bytes` follows the Tracker
/// convention (per-rank payload for reduce/broadcast, total gathered buffer
/// for allgather).
perf::CollAlgo select(perf::CollKind kind, std::size_t bytes, int nranks,
                      perf::Backend backend);

/// Topology-aware variant: considers the hierarchical routines and prices
/// every candidate with the per-link-class cost model. With a flat `topo`
/// this is exactly the overload above. All inputs are rank-identical across
/// a communicator, so every rank of an SPMD region picks the same routine.
perf::CollAlgo select(perf::CollKind kind, std::size_t bytes, int nranks,
                      perf::Backend backend, const perf::TopoInfo& topo);

/// One Tracker event of a collective routine: what ran, how many bytes it
/// carried, over how many ranks, and how many of those bytes this rank
/// contributed (what the STD backend stages device-to-host). Flat routines
/// are one phase; the hierarchical ones one per level.
struct CollPhase {
  perf::CollKind kind;
  std::size_t bytes;
  int nranks;
  std::size_t local;
};

/// The per-phase event decomposition of a hierarchical routine on a
/// `nranks`-rank communicator spanning `topo.nodes` groups of at most
/// `topo.max_per_node` ranks. Both the real dispatcher and the analytic
/// model (chase_model) emit events from this one function, so the
/// byte/step accounting of the projections matches the runtime exactly.
/// `bytes` follows the Tracker convention for `kind`.
std::vector<CollPhase> hier_phases(perf::CollKind kind, std::size_t bytes,
                                   int nranks, const perf::TopoInfo& topo);

/// Record `phases` on `t` (no-op when null) — the one accounting path of
/// every collective. The first phase closes the begin_collective() bracket
/// the caller opened (end_collective); the later phases of a two-level
/// routine follow it as plain record_collective() events. On the STD
/// backend each phase additionally stages its payload over PCIe (D2H of the
/// local share before, H2D of the whole payload after), mirroring what a
/// host-staged collective really moves (Section 3.3).
void account_phases(perf::Tracker* t, perf::Backend backend,
                    std::span<const CollPhase> phases);

}  // namespace chase::coll
