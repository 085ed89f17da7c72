// Dispatch glue: defines Communicator's collective member templates on top
// of the src/coll engine. Included at the end of comm/communicator.hpp
// (which owns the class definition and the naive publish-and-sync bodies);
// everything here routes one call to either the naive reference or a chunk
// channel algorithm, wrapped in the same perf accounting and fault-injection
// hooks either way. This is the only path a collective takes: every entry
// point builds its channel op through the per-kind factories below and runs
// it to completion (wait()) inside a perf bracket.
#pragma once

#ifndef CHASE_COMM_COMMUNICATOR_INCLUDED
#error "coll/dispatch.hpp is glue for comm/communicator.hpp; include that"
#endif

#include "coll/algorithms.hpp"
#include "coll/engine.hpp"
#include "coll/hierarchy.hpp"

namespace chase::comm {

namespace detail {

inline Index coll_chunk_elems(std::size_t elem_size) {
  return std::max<Index>(1, Index(coll::chunk_bytes() / elem_size));
}

/// Receive offsets of `nranks` equal `count`-element blocks, back to back.
inline std::vector<Index> packed_displs(int nranks, Index count) {
  std::vector<Index> displs(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) displs[std::size_t(i)] = Index(i) * count;
  return displs;
}

/// The Tracker events of routine `algo`: one per level for the two-level
/// routines, else one event of which this rank contributed `local` bytes.
inline std::vector<coll::CollPhase> phases_of(const Communicator& c,
                                              perf::CollKind kind,
                                              perf::CollAlgo algo,
                                              std::size_t bytes,
                                              std::size_t local) {
  if (algo == perf::CollAlgo::kHierAlgo) {
    return coll::hier_phases(kind, bytes, c.size(), c.topo_info());
  }
  return {{kind, bytes, c.size(), local}};
}

// Per-kind channel-op factories: the one place a (kind, routine) pair turns
// into a state machine. `algo` is never kNaiveAlgo here.

template <typename T>
std::unique_ptr<coll::CollOp> all_reduce_op(const Communicator& c,
                                            perf::CollAlgo algo, T* data,
                                            Index count, Reduction op,
                                            std::uint64_t seq) {
  const Index ce = coll_chunk_elems(sizeof(T));
  switch (algo) {
    case perf::CollAlgo::kHierAlgo:
      return std::make_unique<coll::HierAllReduce<Communicator, T>>(
          c, data, count, op, ce, seq);
    case perf::CollAlgo::kRingAlgo:
      return std::make_unique<coll::OrderedRingAllReduce<Communicator, T>>(
          c, data, count, op, ce, seq);
    default:
      return std::make_unique<coll::RabenseifnerAllReduce<Communicator, T>>(
          c, data, count, op, ce, seq);
  }
}

template <typename T>
std::unique_ptr<coll::CollOp> broadcast_op(const Communicator& c,
                                           perf::CollAlgo algo, T* data,
                                           Index count, int root,
                                           std::uint64_t seq) {
  const Index ce = coll_chunk_elems(sizeof(T));
  if (algo == perf::CollAlgo::kHierAlgo) {
    return std::make_unique<coll::HierBroadcast<Communicator, T>>(
        c, data, count, root, ce, seq);
  }
  return std::make_unique<coll::BinomialBroadcast<Communicator, T>>(
      c, data, count, root, ce, seq);
}

/// Flat allgather: bruck for the equal-count case it was chosen for, else
/// the ring over (counts, displs). The hierarchical allgather is a blocking
/// composite (coll::hier_all_gather_v), not a channel op.
template <typename T>
std::unique_ptr<coll::CollOp> all_gather_op(const Communicator& c,
                                            perf::CollAlgo algo, const T* send,
                                            Index count, T* recv,
                                            std::vector<Index> counts,
                                            std::vector<Index> displs,
                                            std::uint64_t seq) {
  const Index ce = coll_chunk_elems(sizeof(T));
  if (algo == perf::CollAlgo::kBruck) {
    return std::make_unique<coll::BruckAllGather<Communicator, T>>(
        c, send, recv, count, ce, seq);
  }
  return std::make_unique<coll::RingAllGather<Communicator, T>>(
      c, send, recv, std::move(counts), std::move(displs), ce, seq);
}

}  // namespace detail

template <typename T>
void Communicator::all_reduce(T* data, Index count, Reduction op) const {
  if (size() == 1) {
    detail::corrupt_reduced(data, count);
    return;
  }
  const std::size_t bytes = std::size_t(std::max<Index>(count, 0)) * sizeof(T);
  const perf::CollAlgo algo = coll::select(perf::CollKind::kAllReduce, bytes,
                                           size(), backend_, topo_info());
  if (algo == perf::CollAlgo::kNaiveAlgo) {
    naive_all_reduce(data, count, op);
    return;
  }
  fault::check("rank.die");
  account_begin();
  const std::uint64_t seq = next_collective_seq();
  if (count > 0) {
    detail::all_reduce_op(*this, algo, data, count, op, seq)->wait();
  }
  detail::corrupt_reduced(data, count);
  coll::account_phases(
      perf::thread_tracker(), backend_,
      detail::phases_of(*this, perf::CollKind::kAllReduce, algo, bytes, bytes));
}

template <typename T>
void Communicator::broadcast(T* data, Index count, int root) const {
  if (size() == 1) return;
  CHASE_CHECK_MSG(root >= 0 && root < size(), "broadcast root out of range");
  const std::size_t bytes = std::size_t(std::max<Index>(count, 0)) * sizeof(T);
  const perf::CollAlgo algo = coll::select(perf::CollKind::kBroadcast, bytes,
                                           size(), backend_, topo_info());
  if (algo == perf::CollAlgo::kNaiveAlgo) {
    naive_broadcast(data, count, root);
    return;
  }
  fault::check("rank.die");
  account_begin();
  const std::uint64_t seq = next_collective_seq();
  if (count > 0) {
    detail::broadcast_op(*this, algo, data, count, root, seq)->wait();
  }
  coll::account_phases(
      perf::thread_tracker(), backend_,
      detail::phases_of(*this, perf::CollKind::kBroadcast, algo, bytes, bytes));
}

template <typename T>
void Communicator::all_gather(const T* send, Index count, T* recv) const {
  if (size() == 1) {
    naive_all_gather(send, count, recv);
    return;
  }
  std::vector<Index> counts(std::size_t(size()), std::max<Index>(count, 0));
  all_gather_dispatch(send, count, recv, counts,
                      detail::packed_displs(size(), count), /*uniform=*/true);
}

template <typename T>
void Communicator::all_gather_v(const T* send, Index count, T* recv,
                                const std::vector<Index>& counts,
                                const std::vector<Index>& displs) const {
  CHASE_CHECK_MSG(int(counts.size()) == size() && int(displs.size()) == size(),
                  "all_gather_v: counts/displs size mismatch");
  CHASE_CHECK_MSG(counts[std::size_t(rank_)] == count,
                  "all_gather_v: local count disagrees with counts[rank]");
  validate_gather_layout(counts, displs);
  if (size() == 1) {
    naive_all_gather_v(send, count, recv, counts, displs);
    return;
  }
  all_gather_dispatch(send, count, recv, counts, displs, /*uniform=*/false);
}

template <typename T>
void Communicator::all_gather_dispatch(const T* send, Index count, T* recv,
                                       const std::vector<Index>& counts,
                                       const std::vector<Index>& displs,
                                       bool uniform) const {
  const std::size_t local_bytes = std::size_t(std::max<Index>(count, 0)) *
                                  sizeof(T);
  std::size_t total_bytes = 0;
  for (const Index c : counts) total_bytes += std::size_t(c) * sizeof(T);
  perf::CollAlgo algo = coll::select(perf::CollKind::kAllGather, total_bytes,
                                     size(), backend_, topo_info());
  if (algo == perf::CollAlgo::kNaiveAlgo) {
    if (uniform) {
      naive_all_gather(send, count, recv);
    } else {
      naive_all_gather_v(send, count, recv, counts, displs);
    }
    return;
  }
  fault::check("rank.die");
  // The composite hierarchical allgather requires the canonical contiguous
  // layout; scattered receive ranges ride the flat ring instead. The layout
  // is rank-identical, so every rank takes the same branch.
  if (algo == perf::CollAlgo::kHierAlgo &&
      coll::canonical_gather_layout(counts, displs)) {
    // Collective group construction (two split() calls) stays outside the
    // perf bracket; it happens once per communicator.
    const auto& group = hier_group();
    account_begin();
    if (total_bytes > 0) {
      coll::hier_all_gather_v(*this, group, send, recv, counts, displs,
                              detail::coll_chunk_elems(sizeof(T)));
    }
    coll::account_phases(perf::thread_tracker(), backend_,
                         detail::phases_of(*this, perf::CollKind::kAllGather,
                                           algo, total_bytes, local_bytes));
    return;
  }
  // Bruck needs uniform blocks; the variable-count case rides the ring.
  if (algo != perf::CollAlgo::kBruck || !uniform) {
    algo = perf::CollAlgo::kRingAlgo;
  }
  account_begin();
  const std::uint64_t seq = next_collective_seq();
  if (total_bytes > 0) {
    detail::all_gather_op(*this, algo, send, count, recv, counts, displs, seq)
        ->wait();
  }
  coll::account_phases(perf::thread_tracker(), backend_,
                       detail::phases_of(*this, perf::CollKind::kAllGather,
                                         algo, total_bytes, local_bytes));
}

}  // namespace chase::comm
