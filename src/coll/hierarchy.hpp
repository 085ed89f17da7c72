// Two-level hierarchical collectives over a topology-grouped communicator.
//
// When CHASE_TOPO groups a team into nodes (contiguous runs of equal node
// ids, comm/topology.hpp), the flat chunk algorithms waste the slow inter
// links: a flat ordered ring pushes the whole payload across *every* link of
// the chain, so the rank at a node boundary serializes 2N bytes through one
// emulated cable. The routines here follow the classic NCCL/MPI two-level
// shape instead — do the bulk of the work over the fast intra links and
// cross the node boundary exactly once per payload block:
//
//  - HierAllReduce: ordered chain reduce 0 -> 1 -> ... -> P-1 (the exact
//    naive summation order, so the result stays bitwise identical), then the
//    finished chunks hop *down the leader chain* (node M-1's leader -> ... ->
//    node 0's leader, one payload per inter link) while each leader streams
//    them into its node over a chunk-pipelined binomial tree. The busiest
//    inter sender carries N bytes instead of the flat ring's 2N.
//  - HierBroadcast: one "entry" rank per node (the root for the root's node,
//    the node leader otherwise) receives the payload over a binomial tree
//    spanning the entries (inter links, log2 M depth), and each entry
//    re-broadcasts over an intra binomial tree.
//  - hier_all_gather_v(): a composite over the grouped sub-communicators
//    (HierGroup): ring allgather inside each node (fast links, writing
//    directly into the global receive buffer), ring allgather of whole node
//    blocks among the leaders (one block crossing per inter link), then two
//    intra broadcasts that fan the foreign prefix/suffix spans out to the
//    non-leaders. Pure data movement — trivially bitwise-identical. Requires
//    the canonical contiguous layout (displ[r+1] == displ[r] + count[r]);
//    the dispatcher falls back to a flat routine otherwise.
//
// The composite allgather draws fresh sequence numbers from the
// sub-communicators per run; every intra member draws the same number of
// intra seqs and only leaders draw leader seqs, so the per-comm lockstep
// contract holds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "coll/algorithms.hpp"
#include "coll/engine.hpp"
#include "comm/reduction.hpp"
#include "common/check.hpp"
#include "la/matrix.hpp"

namespace chase::coll {

namespace detail {

/// Node structure of a grouped communicator, recovered from the
/// rank-identical node_of assignment: contiguous member runs, one leader
/// (last member) per node.
struct NodeLayout {
  std::vector<int> first;    // parent rank of each node's first member
  std::vector<int> last;     // parent rank of each node's leader
  int my_node = 0;

  NodeLayout(const std::vector<int>& node_of, int rank) {
    CHASE_CHECK_MSG(!node_of.empty(), "hierarchical op on a flat communicator");
    first.push_back(0);
    for (int r = 1; r < int(node_of.size()); ++r) {
      if (node_of[std::size_t(r)] != node_of[std::size_t(r - 1)]) {
        last.push_back(r - 1);
        first.push_back(r);
        if (r <= rank) ++my_node;
      }
    }
    last.push_back(int(node_of.size()) - 1);
  }

  int nodes() const { return int(first.size()); }
  int node_first() const { return first[std::size_t(my_node)]; }
  int node_last() const { return last[std::size_t(my_node)]; }
  int node_size() const { return node_last() - node_first() + 1; }
};

/// Parent/children of `local` in a binomial tree over `n` local indices
/// rooted at `root_local`, expressed in local indices.
struct BinomialShape {
  int parent = -1;           // local index; -1 at the root
  std::vector<int> children;

  BinomialShape(int local, int n, int root_local) {
    const int v = (local - root_local + n) % n;
    unsigned mask = 1;
    while (int(mask) < n && (v & int(mask)) == 0) mask <<= 1;
    if (v != 0) parent = ((v - int(mask)) + root_local) % n;
    for (unsigned m = mask >> 1; m > 0; m >>= 1) {
      if (v + int(m) < n) children.push_back(((v + int(m)) + root_local) % n);
    }
  }
};

}  // namespace detail

/// Deterministic two-level allreduce (see file comment). Tag phases:
/// 0 = ordered reduce chain, 1 = leader chain, 2 = intra broadcast.
template <typename Comm, typename T>
class HierAllReduce final : public ChannelOp<Comm> {
 public:
  HierAllReduce(const Comm& comm, T* data, Index count, comm::Reduction op,
                Index chunk_elems, std::uint64_t seq)
      : ChannelOp<Comm>(comm, "coll.hier_allreduce"),
        data_(data),
        count_(count),
        op_(op),
        chunk_(std::max<Index>(1, chunk_elems)),
        seq_(seq),
        rank_(comm.rank()),
        size_(comm.size()),
        nc_(detail::div_up(count, chunk_)),
        layout_(comm.node_ids(), comm.rank()),
        intra_(rank_ - layout_.node_first(), layout_.node_size(),
               layout_.node_size() - 1) {
    CHASE_CHECK_MSG(nc_ <= 0xFFFF, "allreduce payload needs too many chunks");
    scratch_.resize(std::size_t(std::min<Index>(count_, chunk_)));
    is_leader_ = rank_ == layout_.node_last();
    // Leader chain neighbours: finished chunks originate at the top node's
    // leader (rank P-1) and hop downwards one node at a time.
    if (is_leader_) {
      if (layout_.my_node + 1 < layout_.nodes()) {
        up_leader_ = layout_.last[std::size_t(layout_.my_node + 1)];
      }
      if (layout_.my_node > 0) {
        down_leader_ = layout_.last[std::size_t(layout_.my_node - 1)];
      }
    }
    bc_sent_.assign(intra_.children.size(), 0);
  }

  bool progress() override {
    if (complete()) return true;
    // Phase 0: chunk c accumulates contributions in rank order while hopping
    // 0 -> 1 -> ... -> P-1 (identical fold order to the naive reference).
    while (red_done_ < nc_) {
      const Index b = red_done_ * chunk_;
      const Index len = std::min(chunk_, count_ - b);
      const std::size_t bytes = std::size_t(len) * sizeof(T);
      if (rank_ == 0) {
        this->send(1, tag(0, red_done_), data_ + b, bytes);
      } else {
        if (!this->comm_.try_recv_chunk(rank_ - 1, tag(0, red_done_),
                                        scratch_.data(), bytes)) {
          break;
        }
        this->note_recv(bytes);
        for (Index i = 0; i < len; ++i) {
          comm::detail::reduce_assign(op_, scratch_[std::size_t(i)],
                                      data_[b + i]);
        }
        if (rank_ + 1 < size_) {
          this->send(rank_ + 1, tag(0, red_done_), scratch_.data(), bytes);
        } else {
          std::copy_n(scratch_.data(), len, data_ + b);
        }
      }
      ++red_done_;
    }
    // Phase 1: finished chunks hop down the leader chain. The top leader's
    // "arrival" is its own reduce pass finishing the chunk.
    if (is_leader_) {
      while (chain_got_ < nc_) {
        const Index b = chain_got_ * chunk_;
        const Index len = std::min(chunk_, count_ - b);
        const std::size_t bytes = std::size_t(len) * sizeof(T);
        if (up_leader_ < 0) {
          if (chain_got_ >= red_done_) break;
        } else {
          if (!this->comm_.try_recv_chunk(up_leader_, tag(1, chain_got_),
                                          data_ + b, bytes)) {
            break;
          }
          this->note_recv(bytes);
        }
        if (down_leader_ >= 0) {
          this->send(down_leader_, tag(1, chain_got_), data_ + b, bytes);
        }
        ++chain_got_;
      }
    } else {
      // Phase 2 receive: non-leaders collect finished chunks from their
      // intra binomial parent.
      while (bc_recvd_ < nc_) {
        const Index b = bc_recvd_ * chunk_;
        const Index len = std::min(chunk_, count_ - b);
        const std::size_t bytes = std::size_t(len) * sizeof(T);
        const int parent = layout_.node_first() + intra_.parent;
        if (!this->comm_.try_recv_chunk(parent, tag(2, bc_recvd_), data_ + b,
                                        bytes)) {
          break;
        }
        this->note_recv(bytes);
        ++bc_recvd_;
      }
    }
    // Phase 2 send: stream every locally-final chunk down the intra tree.
    const Index avail = is_leader_ ? chain_got_ : bc_recvd_;
    for (std::size_t i = 0; i < intra_.children.size(); ++i) {
      while (bc_sent_[i] < avail) {
        const Index b = bc_sent_[i] * chunk_;
        const Index len = std::min(chunk_, count_ - b);
        this->send(layout_.node_first() + intra_.children[i], tag(2, bc_sent_[i]),
                   data_ + b, std::size_t(len) * sizeof(T));
        ++bc_sent_[i];
      }
    }
    if (!complete()) return false;
    this->finish();
    return true;
  }


 private:
  bool complete() const {
    if (red_done_ < nc_) return false;
    if (is_leader_ ? chain_got_ < nc_ : bc_recvd_ < nc_) return false;
    for (const Index s : bc_sent_) {
      if (s < nc_) return false;
    }
    return true;
  }

  std::uint64_t tag(unsigned phase, Index chunk) const {
    return detail::make_tag(seq_, phase, 0, unsigned(chunk));
  }

  T* data_;
  Index count_;
  comm::Reduction op_;
  Index chunk_;
  std::uint64_t seq_;
  int rank_;
  int size_;
  Index nc_;
  detail::NodeLayout layout_;
  detail::BinomialShape intra_;
  bool is_leader_ = false;
  int up_leader_ = -1;    // leader of the node above me in the chain
  int down_leader_ = -1;  // leader of the node below
  Index red_done_ = 0;    // chunks through the reduce chain at me
  Index chain_got_ = 0;   // finished chunks present at me (leaders)
  Index bc_recvd_ = 0;    // finished chunks present at me (non-leaders)
  std::vector<Index> bc_sent_;
  std::vector<T> scratch_;
};

/// Two-level broadcast: binomial over per-node entry ranks (inter links),
/// then binomial within each node (intra links). Tag phases: 0 = entry tree,
/// 1 = intra tree.
template <typename Comm, typename T>
class HierBroadcast final : public ChannelOp<Comm> {
 public:
  HierBroadcast(const Comm& comm, T* data, Index count, int root,
                Index chunk_elems, std::uint64_t seq)
      : ChannelOp<Comm>(comm, "coll.hier_broadcast"),
        data_(data),
        count_(count),
        chunk_(std::max<Index>(1, chunk_elems)),
        seq_(seq),
        rank_(comm.rank()),
        nc_(detail::div_up(count, chunk_)),
        layout_(comm.node_ids(), comm.rank()) {
    CHASE_CHECK_MSG(nc_ <= 0xFFFF, "broadcast payload needs too many chunks");
    // Entry rank of node i: the root inside the root's node (it already has
    // the payload), the leader elsewhere.
    const auto& node_of = comm.node_ids();
    const int root_node = [&] {
      int n = 0;
      for (int r = 1; r <= root; ++r) {
        if (node_of[std::size_t(r)] != node_of[std::size_t(r - 1)]) ++n;
      }
      return n;
    }();
    entries_.resize(std::size_t(layout_.nodes()));
    for (int i = 0; i < layout_.nodes(); ++i) {
      entries_[std::size_t(i)] = i == root_node ? root : layout_.last[std::size_t(i)];
    }
    is_entry_ = rank_ == entries_[std::size_t(layout_.my_node)];
    if (is_entry_) {
      const detail::BinomialShape inter(layout_.my_node, layout_.nodes(),
                                        root_node);
      inter_parent_ =
          inter.parent < 0 ? -1 : entries_[std::size_t(inter.parent)];
      for (const int c : inter.children) {
        inter_children_.push_back(entries_[std::size_t(c)]);
      }
    }
    // Intra tree over my node, rooted at the entry's local index.
    const int entry_local =
        entries_[std::size_t(layout_.my_node)] - layout_.node_first();
    intra_ = detail::BinomialShape(rank_ - layout_.node_first(),
                                   layout_.node_size(), entry_local);
    recvd_ = rank_ == root ? nc_ : 0;
    inter_sent_.assign(inter_children_.size(), 0);
    intra_sent_.assign(intra_.children.size(), 0);
  }

  bool progress() override {
    if (complete()) return true;
    // Receive: entries pull from the entry tree, everyone else from the
    // intra tree.
    while (recvd_ < nc_) {
      const Index b = recvd_ * chunk_;
      const Index len = std::min(chunk_, count_ - b);
      const std::size_t bytes = std::size_t(len) * sizeof(T);
      const int src = is_entry_ ? inter_parent_
                                : layout_.node_first() + intra_.parent;
      const unsigned phase = is_entry_ ? 0u : 1u;
      if (src < 0 ||
          !this->comm_.try_recv_chunk(src, tag(phase, recvd_), data_ + b,
                                      bytes)) {
        break;
      }
      this->note_recv(bytes);
      ++recvd_;
    }
    for (std::size_t i = 0; i < inter_children_.size(); ++i) {
      while (inter_sent_[i] < recvd_) {
        const Index b = inter_sent_[i] * chunk_;
        const Index len = std::min(chunk_, count_ - b);
        this->send(inter_children_[i], tag(0, inter_sent_[i]), data_ + b,
                   std::size_t(len) * sizeof(T));
        ++inter_sent_[i];
      }
    }
    for (std::size_t i = 0; i < intra_.children.size(); ++i) {
      while (intra_sent_[i] < recvd_) {
        const Index b = intra_sent_[i] * chunk_;
        const Index len = std::min(chunk_, count_ - b);
        this->send(layout_.node_first() + intra_.children[i],
                   tag(1, intra_sent_[i]), data_ + b,
                   std::size_t(len) * sizeof(T));
        ++intra_sent_[i];
      }
    }
    if (!complete()) return false;
    this->finish();
    return true;
  }


 private:
  bool complete() const {
    if (recvd_ < nc_) return false;
    for (const Index s : inter_sent_) {
      if (s < nc_) return false;
    }
    for (const Index s : intra_sent_) {
      if (s < nc_) return false;
    }
    return true;
  }

  std::uint64_t tag(unsigned phase, Index chunk) const {
    return detail::make_tag(seq_, phase, 0, unsigned(chunk));
  }

  T* data_;
  Index count_;
  Index chunk_;
  std::uint64_t seq_;
  int rank_;
  Index nc_;
  detail::NodeLayout layout_;
  detail::BinomialShape intra_{0, 1, 0};
  std::vector<int> entries_;
  bool is_entry_ = false;
  int inter_parent_ = -1;
  std::vector<int> inter_children_;
  Index recvd_ = 0;
  std::vector<Index> inter_sent_;
  std::vector<Index> intra_sent_;
};

/// True when (counts, displs) is the canonical contiguous layout the
/// composite hierarchical allgather requires: block r starts exactly where
/// block r-1 ended, starting at offset 0.
inline bool canonical_gather_layout(const std::vector<Index>& counts,
                                    const std::vector<Index>& displs) {
  Index off = 0;
  for (std::size_t r = 0; r < counts.size(); ++r) {
    if (displs[r] != off) return false;
    off += counts[r];
  }
  return true;
}

/// Composite two-level allgather over the grouped sub-communicators (see
/// file comment). Blocking; draws its own sequence numbers from the
/// sub-communicators. `Group` is comm::detail::HierGroup (templated to keep
/// this header free of comm/communicator.hpp).
template <typename Comm, typename Group, typename T>
void hier_all_gather_v(const Comm& parent, const Group& group, const T* send,
                       T* recv, const std::vector<Index>& counts,
                       const std::vector<Index>& displs, Index chunk_elems) {
  const auto& node_of = parent.node_ids();
  const detail::NodeLayout layout(node_of, parent.rank());
  const int first = layout.node_first();
  const int nsize = layout.node_size();

  // Phase 1: assemble my node's block over the fast links, writing straight
  // into the global receive buffer (displs are global offsets).
  if (nsize > 1) {
    std::vector<Index> c(counts.begin() + first, counts.begin() + first + nsize);
    std::vector<Index> d(displs.begin() + first, displs.begin() + first + nsize);
    RingAllGather<Comm, T> op(group.intra, send, recv, std::move(c),
                              std::move(d), chunk_elems,
                              group.intra.next_collective_seq());
    op.wait();
  } else if (counts[std::size_t(parent.rank())] > 0) {
    std::copy_n(send, counts[std::size_t(parent.rank())],
                recv + displs[std::size_t(parent.rank())]);
  }

  // Phase 2: leaders exchange whole node blocks — each block crosses each
  // inter link once.
  const Index my_start = displs[std::size_t(first)];
  Index my_elems = 0;
  for (int r = first; r <= layout.node_last(); ++r) {
    my_elems += counts[std::size_t(r)];
  }
  if (group.is_leader && layout.nodes() > 1) {
    std::vector<Index> c(std::size_t(layout.nodes()));
    std::vector<Index> d(std::size_t(layout.nodes()));
    for (int i = 0; i < layout.nodes(); ++i) {
      Index elems = 0;
      for (int r = layout.first[std::size_t(i)];
           r <= layout.last[std::size_t(i)]; ++r) {
        elems += counts[std::size_t(r)];
      }
      c[std::size_t(i)] = elems;
      d[std::size_t(i)] = displs[std::size_t(layout.first[std::size_t(i)])];
    }
    // The leader's contribution is its already-assembled node block inside
    // `recv`; the self-copy in the ctor is an exact-overlap copy_n (no-op).
    RingAllGather<Comm, T> op(group.leaders, recv + my_start, recv,
                              std::move(c), std::move(d), chunk_elems,
                              group.leaders.next_collective_seq());
    op.wait();
  }

  // Phase 3: the leader fans the foreign spans (everything before and after
  // my node's block) out over the fast links. Two contiguous broadcasts;
  // span extents are rank-identical within the node, so every member draws
  // the same intra seqs.
  if (nsize > 1 && layout.nodes() > 1) {
    Index total = 0;
    for (const Index cnt : counts) total += cnt;
    const int root_local = nsize - 1;
    if (my_start > 0) {
      BinomialBroadcast<Comm, T> op(group.intra, recv, my_start, root_local,
                                    chunk_elems,
                                    group.intra.next_collective_seq());
      op.wait();
    }
    const Index end = my_start + my_elems;
    if (total > end) {
      BinomialBroadcast<Comm, T> op(group.intra, recv + end, total - end,
                                    root_local, chunk_elems,
                                    group.intra.next_collective_seq());
      op.wait();
    }
  }
}

}  // namespace chase::coll
