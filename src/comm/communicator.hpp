// In-process SPMD runtime standing in for MPI + NCCL.
//
// A Team launches one thread per rank and hands each a Communicator whose
// collectives have MPI semantics: all_reduce (elementwise reduction,
// deterministic order, identical result on every rank), broadcast,
// all_gather(_v), barrier and split. The distributed ChASE drivers are
// written exactly as the MPI/NCCL code of the paper would be; the only
// difference is that the transport is shared memory.
//
// Two transports back the collectives:
//  - the naive publish-and-sync path (one barrier-bracketed shared-memory
//    copy), standing in for a single-shot MPI collective;
//  - the algorithmic engine of src/coll (ring / Rabenseifner / bruck /
//    binomial over chunked point-to-point channels, see chunk_channel.hpp),
//    standing in for NCCL's pipelined algorithms. The CHASE_COLL_ALGO policy
//    (coll/engine.hpp) picks per call; every algorithm is bitwise-identical
//    to the naive reference. Every collective is blocking.
//
// The Backend tag reproduces the paper's three communication variants:
//  - kHostMpi: buffers live on the host, plain MPI collectives
//    (the CPU build of ChASE);
//  - kStdGpu: ChASE(STD) — buffers live on the device, so every collective
//    pays an explicit device-to-host staging copy, an MPI collective, and a
//    host-to-device copy back (Section 3.3);
//  - kNcclGpu: ChASE(NCCL) — device-direct collectives, no staging.
// The data path is identical for all three; the difference is recorded in
// the thread-local perf::Tracker (staging MemcpyEvents + which collective
// cost model applies), which is what the Figure 2/3 benches consume.
//
// Fault tolerance (rank_error.hpp): every synchronization point is a
// "poisoned barrier" — when one rank records a RankError, all siblings
// unblock at their next barrier arrival and raise TeamAborted instead of
// waiting forever, and barrier waits carry a watchdog timeout that detects
// ranks dying outside any collective. The chunk channels follow the same
// protocol (blocking receives watch the poison flag and diagnose a missing
// sender as "p2p.watchdog"). Team::run rethrows the originating rank's
// error after join, so an invariant violation inside an SPMD region may now
// simply throw (see check.hpp) instead of aborting the process.
#pragma once

#define CHASE_COMM_COMMUNICATOR_INCLUDED 1

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "coll/engine.hpp"
#include "comm/chunk_channel.hpp"
#include "comm/rank_error.hpp"
#include "comm/reduction.hpp"
#include "common/check.hpp"
#include "common/faultinject.hpp"
#include "common/scalar.hpp"
#include "la/matrix.hpp"
#include "perf/backend.hpp"
#include "perf/cost_model.hpp"
#include "perf/tracker.hpp"

namespace chase::comm {

using la::Index;
using perf::Backend;
using perf::backend_name;

namespace detail {

struct HierGroup;  // grouped sub-communicators; defined after Communicator

/// Shared state of one communicator: a poisonable barrier, per-rank
/// publication slots used by the naive collectives, and per-rank chunk
/// mailboxes used by the src/coll algorithms. All CommStates of one team
/// (world + split children) share the team's ErrorState.
struct CommState {
  CommState(int size, std::shared_ptr<ErrorState> errors);
  ~CommState();

  int size;
  std::shared_ptr<ErrorState> errors;

  // Poisoned barrier: a classic generation-counting barrier whose waits also
  // watch the team's poison flag and a watchdog deadline (std::barrier has
  // neither an interruptible nor a timed wait, which is exactly what made
  // rank failure fatal before).
  std::mutex bar_mutex;
  std::condition_variable bar_cv;
  int bar_arrived = 0;
  std::uint64_t bar_generation = 0;

  /// Arrive and wait for the team. Throws TeamAborted if the team is (or
  /// becomes) poisoned; records a barrier.watchdog error and throws if
  /// siblings fail to arrive within the watchdog timeout.
  void barrier_wait(int rank);

  /// Quiescing variant for the *final* sync of a publish/read collective:
  /// siblings may still be reading this rank's published buffer, so poison
  /// must not release the wait early — unwinding here frees memory a reader
  /// is touching (the tsan-visible use-after-free of an aborting team). Once
  /// the publish barrier has completed, every participant finishes its
  /// bounded read phase and arrives here without throwing (no fault sites or
  /// nested collectives in between), so waiting out the generation is
  /// deadlock-free; poison is re-checked and raised only *after* it
  /// completes. The watchdog stays as the last-resort escape if that
  /// invariant is ever violated.
  void quiesce_wait(int rank);

  struct Slot {
    const void* ptr = nullptr;
    std::size_t bytes = 0;
    int tag = 0;  // collective kind + dtype, for SPMD-mismatch detection
  };
  std::vector<Slot> slots;

  // Point-to-point transport of the src/coll algorithms: one inbox per rank
  // (unique_ptr — Mailbox owns a mutex/cv and must not move), plus a
  // per-rank sequence counter that keeps chunk tags of consecutive
  // collectives distinct (channels are not drained between collectives).
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::uint64_t> coll_seq;

  // split() coordination. Children are keyed by (generation, color): the
  // generation is bumped once per collective split() call, so a later
  // split() on the same parent with the same color can never observe or
  // hand back a child state from an earlier call (rank 0 prunes older
  // generations when it populates the new one).
  std::vector<std::pair<int, int>> split_requests;  // (color, key) per rank
  std::uint64_t split_generation = 0;
  std::map<std::pair<std::uint64_t, int>, std::shared_ptr<CommState>>
      split_children;

  // Two-level topology of this communicator (comm/topology.hpp): the node
  // id per rank (empty: flat), the emulated cross-node link class, and the
  // collapsed shape the collective engine's selector consumes. Team::run
  // seeds the world state from the process topology; split() children
  // inherit their members' assignments. Written only inside the split/run
  // barrier windows, read-only afterwards.
  std::vector<int> node_of;
  double inter_bw = 0;
  double inter_latency = 0;
  perf::TopoInfo topo;
  void set_nodes(std::vector<int> nodes, double bw, double latency);

  // Lazily built grouped sub-communicators (intra-node team + leader team)
  // for the hierarchical routines: one slot per rank, each rank builds and
  // reads only its own (Communicator::hier_group, a collective).
  std::vector<std::shared_ptr<HierGroup>> hier_groups;
};

}  // namespace detail

class Communicator {
 public:
  Communicator() = default;

  int rank() const { return rank_; }
  int size() const { return state_ ? state_->size : 1; }
  Backend backend() const { return backend_; }

  void barrier() const;

  /// Record a rank-local failure in the team's error slot and raise
  /// TeamAborted; sibling ranks unblock at their next synchronization point.
  [[noreturn]] void raise_error(std::string site, std::string message) const;

  /// In-place elementwise reduction; every rank ends with the identical
  /// result, accumulated in rank order (deterministic, like a fixed-topology
  /// MPI_Allreduce). Dispatches on the CHASE_COLL_ALGO policy; every
  /// algorithm reproduces the naive rank-ordered result bitwise.
  template <typename T>
  void all_reduce(T* data, Index count, Reduction op = Reduction::kSum) const;

  /// Root's buffer is copied to every rank.
  template <typename T>
  void broadcast(T* data, Index count, int root) const;

  /// Equal-count allgather: recv must hold size()*count elements; rank r's
  /// contribution lands at offset r*count.
  template <typename T>
  void all_gather(const T* send, Index count, T* recv) const;

  /// Variable-count allgather with explicit receive offsets. Zero-count
  /// ranks contribute (and copy) nothing; overlapping receive ranges poison
  /// the team with an "allgatherv.overlap" RankError.
  template <typename T>
  void all_gather_v(const T* send, Index count, T* recv,
                    const std::vector<Index>& counts,
                    const std::vector<Index>& displs) const;

  /// Collective: partitions ranks by color; ranks sharing a color form a new
  /// communicator ordered by (key, old rank). Every rank must call.
  Communicator split(int color, int key) const;

  // ---- point-to-point chunk channels (the primitive under src/coll) ----

  /// Deliver `bytes` of `data` to rank `dst`'s inbox under `tag`. Never
  /// blocks (unbounded queues). Fault hooks: p2p.corrupt flips the leading
  /// bytes of the payload in flight, p2p.stall parks the sender until the
  /// team poisons or ~2 watchdog periods elapse.
  void send_chunk(int dst, std::uint64_t tag, const void* data,
                  std::size_t bytes) const;

  /// Nonblocking receive: if a chunk from `src` tagged `tag` is in my inbox
  /// (matched anywhere in the per-source FIFO, so pipelined chunks may
  /// arrive out of order), copy it into `data` and return true. A matching
  /// chunk whose size differs from `bytes` poisons the team.
  bool try_recv_chunk(int src, std::uint64_t tag, void* data,
                      std::size_t bytes) const;

  /// Blocking receive with the poisoned-error/watchdog protocol: diagnoses a
  /// sender that never delivers as "p2p.watchdog" after barrier_timeout().
  void recv_chunk(int src, std::uint64_t tag, void* data,
                  std::size_t bytes) const;

  /// Monotone count of chunks ever delivered to my inbox.
  std::uint64_t inbox_arrivals() const;

  /// Block until the arrival count differs from `seen` (poison-aware,
  /// watchdog-diagnosed); returns the current count. `src`/`tag`, when
  /// known, name the awaited sender in the watchdog diagnosis.
  std::uint64_t wait_new_arrival(std::uint64_t seen, int src = -1,
                                 std::uint64_t tag = 0) const;

  /// Control-plane agreement: true iff every rank passed the same value.
  /// Runs on the trusted naive publication-slot transport (no chunk
  /// channels), so the ABFT sentinels can verify data-plane payloads over a
  /// path the injected transport corruptions cannot reach. Collective.
  bool agree(std::uint64_t value) const;

  /// Next per-rank collective sequence number (tag namespace of one
  /// collective call). Every rank of a communicator must consume these in
  /// lockstep — the dispatch layer draws one per collective.
  std::uint64_t next_collective_seq() const;

  // ---- two-level topology (comm/topology.hpp) ----

  /// Collapsed topology shape of this communicator for the collective
  /// engine's selector: group count, largest group, contiguity, emulated
  /// cross-group link class. Flat for teams without a CHASE_TOPO grouping.
  const perf::TopoInfo& topo_info() const;

  /// Node id per rank (empty when flat). Rank-identical.
  const std::vector<int>& node_ids() const;

  /// Grouped sub-communicators for the hierarchical routines: the intra-node
  /// team plus the cross-node leader team, built with two generation-keyed
  /// split() calls on first use and cached on the communicator state.
  /// Collective on first call; requires topo_info().grouped().
  const detail::HierGroup& hier_group() const;

 private:
  friend class Team;
  Communicator(std::shared_ptr<detail::CommState> state, int rank,
               Backend backend)
      : state_(std::move(state)), rank_(rank), backend_(backend) {}

  // Naive publish-and-sync reference implementations (the deterministic
  // baseline every src/coll algorithm must match bitwise).
  template <typename T>
  void naive_all_reduce(T* data, Index count, Reduction op) const;
  template <typename T>
  void naive_broadcast(T* data, Index count, int root) const;
  template <typename T>
  void naive_all_gather(const T* send, Index count, T* recv) const;
  template <typename T>
  void naive_all_gather_v(const T* send, Index count, T* recv,
                          const std::vector<Index>& counts,
                          const std::vector<Index>& displs) const;

  /// Shared all_gather_v validation: rejects negative counts/displs and
  /// overlapping receive ranges (diagnosed as a RankError, not silent
  /// corruption).
  void validate_gather_layout(const std::vector<Index>& counts,
                              const std::vector<Index>& displs) const;

  void publish_and_sync(const void* ptr, std::size_t bytes, int tag) const;
  const void* peer_ptr(int r) const { return state_->slots[std::size_t(r)].ptr; }
  void sync() const { state_->barrier_wait(rank_); }
  /// Final sync of a publish/read collective: published buffers may still be
  /// under a sibling's read, so this wait survives poison until everyone has
  /// arrived (see CommState::quiesce_wait).
  void sync_quiesce() const { state_->quiesce_wait(rank_); }

  /// Opens the perf bracket of a collective; the body closes it with
  /// coll::account_phases.
  void account_begin() const;
  /// Closes the bracket of a naive (single-event) collective. `bytes` is
  /// the *total* payload the collective moves (per-rank payload for
  /// reduce/broadcast, the full gathered buffer for allgather), matching
  /// the cost model's conventions; `local_bytes` is what this rank stages
  /// on the STD backend.
  void account_naive(perf::CollKind kind, std::size_t bytes,
                     std::size_t local_bytes) const {
    const coll::CollPhase phase{kind, bytes, size(), local_bytes};
    coll::account_phases(perf::thread_tracker(), backend_, {&phase, 1});
  }

  /// Shared body of all_gather / all_gather_v once the team has more than
  /// one rank: routine selection, then the naive, hierarchical or flat
  /// channel path. `uniform` marks the equal-count call (bruck-eligible).
  template <typename T>
  void all_gather_dispatch(const T* send, Index count, T* recv,
                           const std::vector<Index>& counts,
                           const std::vector<Index>& displs,
                           bool uniform) const;

  /// Topology emulation for the naive transport: reading `bytes` from a
  /// peer on another node pays the same cross-node link delay send_chunk
  /// charges, so the flat/naive and hierarchical paths compete fairly under
  /// an emulated slow inter link. No-op on flat teams or same-node peers.
  void throttle_inter(int peer, std::size_t bytes) const;

  std::shared_ptr<detail::CommState> state_;
  int rank_ = 0;
  Backend backend_ = Backend::kHostMpi;
};

namespace detail {

/// The grouped sub-communicators behind one rank of a hierarchical
/// collective: the intra-node team (ranks sharing my node, ordered by parent
/// rank) and the leader team (the last rank of every node; non-leaders hold
/// the complement split, which they never use for data movement). Built once
/// per communicator via Communicator::hier_group().
struct HierGroup {
  Communicator intra;
  Communicator leaders;
  bool is_leader = false;
  int node = 0;        // my node's index in rank order
  int node_first = 0;  // parent rank of my node's first member
  int node_size = 1;
};

}  // namespace detail

/// SPMD launcher: runs fn(comm) on `nranks` threads, each with its own
/// world Communicator. A rank failure (exception or injected death) poisons
/// the team: siblings unblock with TeamAborted at their next collective, all
/// threads are joined, and the *originating* rank's error is rethrown as
/// TeamAborted (rank / site / message preserved). The process survives; a
/// subsequent Team runs on fresh state.
class Team {
 public:
  explicit Team(int nranks, Backend backend = Backend::kHostMpi);

  int size() const { return nranks_; }
  Backend backend() const { return backend_; }

  /// Runs the SPMD region. If `trackers` is non-null it must have nranks
  /// entries; tracker[r] is installed thread-locally on rank r.
  void run(const std::function<void(Communicator&)>& fn,
           std::vector<perf::Tracker>* trackers = nullptr);

 private:
  int nranks_;
  Backend backend_;
};

/// 2D process grid with row and column communicators (Section 2.2): ranks
/// are laid out row-major, the column communicator links ranks with the same
/// grid column (it distributes C), the row communicator links ranks with the
/// same grid row (it distributes B).
class Grid2d {
 public:
  Grid2d(const Communicator& world, int nprow, int npcol);

  int nprow() const { return nprow_; }
  int npcol() const { return npcol_; }
  int my_row() const { return my_row_; }
  int my_col() const { return my_col_; }

  const Communicator& world() const { return world_; }
  /// Ranks with the same grid column; my rank inside it equals my_row().
  const Communicator& col_comm() const { return col_; }
  /// Ranks with the same grid row; my rank inside it equals my_col().
  const Communicator& row_comm() const { return row_; }

  /// Factor `p` into the most square nprow x npcol grid with nprow <= npcol.
  static std::pair<int, int> nearly_square(int p);

 private:
  Communicator world_;
  Communicator row_;
  Communicator col_;
  int nprow_;
  int npcol_;
  int my_row_;
  int my_col_;
};

// ---- template implementations ----

namespace detail {

/// The allreduce.corrupt fault: overwrite one reduced element with the most
/// damaging representable value (NaN where available). Armed with rank -1
/// every rank corrupts its own copy identically, keeping SPMD state
/// consistent while exercising the downstream non-finite guards.
template <typename T>
void corrupt_reduced(T* data, Index count) {
  if (count <= 0 || !fault::fired("allreduce.corrupt")) return;
  if constexpr (kIsComplex<T>) {
    using R = RealType<T>;
    data[0] = T(std::numeric_limits<R>::quiet_NaN(),
                std::numeric_limits<R>::quiet_NaN());
  } else if constexpr (std::is_floating_point_v<T>) {
    data[0] = std::numeric_limits<T>::quiet_NaN();
  } else {
    data[0] = std::numeric_limits<T>::max();
  }
}

}  // namespace detail

template <typename T>
void Communicator::naive_all_reduce(T* data, Index count, Reduction op) const {
  account_begin();
  const std::size_t bytes = std::size_t(count) * sizeof(T);
  publish_and_sync(data, bytes, 100 + int(op));
  std::vector<T> acc(static_cast<std::size_t>(count));
  std::copy_n(static_cast<const T*>(peer_ptr(0)), count, acc.data());
  throttle_inter(0, bytes);
  for (int r = 1; r < size(); ++r) {
    throttle_inter(r, bytes);
    const T* src = static_cast<const T*>(peer_ptr(r));
    for (Index i = 0; i < count; ++i) {
      detail::reduce_assign(op, acc[std::size_t(i)], src[i]);
    }
  }
  sync_quiesce();  // all ranks done reading
  std::copy_n(acc.data(), count, data);
  detail::corrupt_reduced(data, count);
  account_naive(perf::CollKind::kAllReduce, bytes, bytes);
}

template <typename T>
void Communicator::naive_broadcast(T* data, Index count, int root) const {
  account_begin();
  const std::size_t bytes = std::size_t(count) * sizeof(T);
  publish_and_sync(data, bytes, 200 + root);
  if (rank_ != root) {
    throttle_inter(root, bytes);
    std::copy_n(static_cast<const T*>(peer_ptr(root)), count, data);
  }
  sync_quiesce();  // root's buffer free again
  account_naive(perf::CollKind::kBroadcast, bytes, bytes);
}

template <typename T>
void Communicator::naive_all_gather(const T* send, Index count, T* recv) const {
  account_begin();
  const std::size_t local_bytes = std::size_t(count) * sizeof(T);
  // The gathered payload every rank ends up holding — what the Figure 2/3
  // communication-volume model prices (a ring allgather moves total - local
  // bytes through every rank, not just the local contribution).
  const std::size_t total_bytes = std::size_t(size()) * local_bytes;
  if (size() == 1) {
    std::copy_n(send, count, recv);
  } else {
    publish_and_sync(send, local_bytes, 300);
    for (int r = 0; r < size(); ++r) {
      throttle_inter(r, local_bytes);
      std::copy_n(static_cast<const T*>(peer_ptr(r)), count,
                  recv + Index(r) * count);
    }
    sync_quiesce();
  }
  account_naive(perf::CollKind::kAllGather, total_bytes, local_bytes);
}

template <typename T>
void Communicator::naive_all_gather_v(const T* send, Index count, T* recv,
                                      const std::vector<Index>& counts,
                                      const std::vector<Index>& displs) const {
  account_begin();
  const std::size_t local_bytes = std::size_t(count) * sizeof(T);
  std::size_t total_bytes = 0;
  for (const Index c : counts) total_bytes += std::size_t(c) * sizeof(T);
  if (size() == 1) {
    if (count > 0) std::copy_n(send, count, recv + displs[0]);
  } else {
    // A zero-count rank publishes no buffer (its `send` may legitimately be
    // null) and nobody copies from it.
    publish_and_sync(count > 0 ? send : nullptr, local_bytes, 400);
    for (int r = 0; r < size(); ++r) {
      if (counts[std::size_t(r)] == 0) continue;
      throttle_inter(r, std::size_t(counts[std::size_t(r)]) * sizeof(T));
      std::copy_n(static_cast<const T*>(peer_ptr(r)), counts[std::size_t(r)],
                  recv + displs[std::size_t(r)]);
    }
    sync_quiesce();
  }
  account_naive(perf::CollKind::kAllGather, total_bytes, local_bytes);
}

}  // namespace chase::comm

// The public collective templates (declared above) dispatch between the
// naive bodies and the src/coll algorithms; the glue lives in coll/ so this
// header stays the single entry point.
#include "coll/dispatch.hpp"  // IWYU pragma: keep
