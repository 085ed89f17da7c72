// Chunk-pipelined collective routines over the point-to-point channels.
//
// Every routine is a blocking function template on the communicator type (so
// this header never needs comm/communicator.hpp — the dispatch glue in
// coll/dispatch.hpp instantiates them with comm::Communicator). The required
// Comm surface: rank(), size(), send_chunk(), recv_chunk(). Sends never block
// (the mailboxes are unbounded, comm/chunk_channel.hpp), so per-chunk loops
// of blocking receives cannot deadlock: the sends a receive waits for never
// depend on the receiver's later steps.
//
// Determinism contract: the naive reference folds contributions in rank
// order 0..P-1, and the filter/QR stacks rely on every rank seeing the
// *bitwise identical* reduced value. The ordered-ring allreduce keeps that
// exact summation order: a chunk is accumulated along the chain
// 0 -> 1 -> ... -> P-1 (rank order by construction) and the finished values
// flow on around the ring P-1 -> 0 -> ... -> P-2. Classic NCCL rings rotate
// the starting segment per rank, which reorders the sums; the ordered chain
// pays one extra latency factor for determinism while keeping the
// chunk-pipelined structure (2(P-1)+k-1 hop times for k chunks in flight).
//
// Data movement collectives (ring allgather, binomial broadcast) are pure
// copies, so they are trivially bitwise-safe.
//
// Tag layout (see comm/chunk_channel.hpp): seq(32) | phase(4) | step(12) |
// chunk(16).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/reduction.hpp"
#include "common/check.hpp"
#include "la/matrix.hpp"
#include "perf/tracker.hpp"

namespace chase::coll {

using la::Index;

namespace detail {

inline Index div_up(Index a, Index b) { return (a + b - 1) / b; }

inline std::uint64_t make_tag(std::uint64_t seq, unsigned phase, unsigned step,
                              unsigned chunk) {
  return (seq << 32) | (std::uint64_t(phase & 0xFu) << 28) |
         (std::uint64_t(step & 0xFFFu) << 16) | std::uint64_t(chunk & 0xFFFFu);
}

/// One routine's view of the chunk channels: chunked sends and blocking
/// receives of T elements under this call's tag namespace, tallied into the
/// coll.<routine>.{calls,steps,bytes} counters that finish() flushes.
template <typename Comm, typename T>
class Channel {
 public:
  Channel(const Comm& comm, const char* counter_prefix, Index chunk_elems,
          std::uint64_t seq)
      : comm_(comm),
        prefix_(counter_prefix),
        chunk_(std::max<Index>(1, chunk_elems)),
        seq_(seq) {}

  Index chunk() const { return chunk_; }

  /// Chunks of a `count`-element span (checked against the tag field).
  Index chunks(Index count) const {
    const Index n = div_up(count, chunk_);
    CHASE_CHECK_MSG(n <= 0xFFFF, "collective payload needs too many chunks");
    return n;
  }

  /// Elements of chunk `c` of a `count`-element span.
  Index len(Index count, Index c) const {
    return std::min(chunk_, count - c * chunk_);
  }

  std::uint64_t tag(unsigned phase, unsigned step, Index c) const {
    return make_tag(seq_, phase, step, unsigned(c));
  }

  void send(int dst, std::uint64_t tag, const T* data, Index len) {
    comm_.send_chunk(dst, tag, data, bytes(len));
  }

  void recv(int src, std::uint64_t tag, T* data, Index len) {
    comm_.recv_chunk(src, tag, data, bytes(len));
  }

  /// Flush the per-routine counters (once, on completion).
  void finish() const {
    if (perf::thread_tracker() == nullptr) return;
    const std::string p(prefix_);
    perf::bump_counter(p + ".calls", 1.0);
    perf::bump_counter(p + ".steps", double(steps_));
    perf::bump_counter(p + ".bytes", double(bytes_));
  }

 private:
  std::size_t bytes(Index len) {
    const std::size_t b = std::size_t(len) * sizeof(T);
    ++steps_;
    bytes_ += b;
    return b;
  }

  const Comm& comm_;
  const char* prefix_;
  Index chunk_;
  std::uint64_t seq_;
  std::size_t steps_ = 0;  // chunk sends + receives this rank performed
  std::size_t bytes_ = 0;  // bytes moved through this rank's channels
};

/// Phase 0 of the ordered allreduces: chunk c accumulates contributions in
/// rank order while hopping 0 -> 1 -> ... -> P-1 (the naive fold order). The
/// last rank stores each finished chunk and hands it to `finished(c, x, len)`
/// at once, so the distribute phase streams behind the reduce chain.
template <typename Comm, typename T, typename Finished>
void ordered_chain_reduce(Channel<Comm, T>& ch, const Comm& comm, T* data,
                          Index count, comm::Reduction op,
                          Finished&& finished) {
  const int rank = comm.rank();
  const int size = comm.size();
  const Index nc = ch.chunks(count);
  std::vector<T> scratch(std::size_t(std::min(count, ch.chunk())));
  for (Index c = 0; c < nc; ++c) {
    T* x = data + c * ch.chunk();
    const Index len = ch.len(count, c);
    if (rank == 0) {
      ch.send(1, ch.tag(0, 0, c), x, len);
      continue;
    }
    ch.recv(rank - 1, ch.tag(0, 0, c), scratch.data(), len);
    for (Index i = 0; i < len; ++i) {
      comm::detail::reduce_assign(op, scratch[std::size_t(i)], x[i]);
    }
    if (rank + 1 < size) {
      ch.send(rank + 1, ch.tag(0, 0, c), scratch.data(), len);
    } else {
      std::copy_n(scratch.data(), len, x);
      finished(c, x, len);
    }
  }
}

/// Binomial tree over `n` indices rooted at `root`: the parent of index v
/// strips the lowest set bit of its root-relative position, the children add
/// bits below it.
struct BinomialShape {
  int parent = -1;  // -1 at the root
  std::vector<int> children;

  BinomialShape(int index, int n, int root) {
    const int v = (index - root + n) % n;
    unsigned mask = 1;
    while (int(mask) < n && (v & int(mask)) == 0) mask <<= 1;
    if (v != 0) parent = ((v - int(mask)) + root) % n;
    for (unsigned m = mask >> 1; m > 0; m >>= 1) {
      if (v + int(m) < n) children.push_back(((v + int(m)) + root) % n);
    }
  }
};

}  // namespace detail

/// Deterministic chunk-pipelined ring allreduce (see file comment). Tag
/// phases: 0 = reduce chain, 1 = distribute ring.
template <typename Comm, typename T>
void ring_all_reduce(const Comm& comm, T* data, Index count,
                     comm::Reduction op, Index chunk_elems, std::uint64_t seq) {
  detail::Channel<Comm, T> ch(comm, "coll.ring_allreduce", chunk_elems, seq);
  const int rank = comm.rank();
  const int size = comm.size();
  const Index nc = ch.chunks(count);
  detail::ordered_chain_reduce(ch, comm, data, count, op,
                               [&](Index c, const T* x, Index len) {
                                 ch.send(0, ch.tag(1, 0, c), x, len);
                               });
  // Distribute: finished chunks flow P-1 -> 0 -> 1 -> ... -> P-2.
  if (rank != size - 1) {
    const int prev = rank == 0 ? size - 1 : rank - 1;
    for (Index c = 0; c < nc; ++c) {
      T* x = data + c * ch.chunk();
      const Index len = ch.len(count, c);
      ch.recv(prev, ch.tag(1, 0, c), x, len);
      if (rank != size - 2) ch.send(rank + 1, ch.tag(1, 0, c), x, len);
    }
  }
  ch.finish();
}

/// Ring allgather over per-rank (count, displ) blocks of `recv`: at step t
/// rank r receives block (r - t) mod P from its predecessor and forwards
/// each chunk as it lands, so a slow predecessor only stalls its own stream.
/// Handles the variable-count case directly; the equal-count allgather
/// passes uniform counts.
template <typename Comm, typename T>
void ring_all_gather(const Comm& comm, const T* send, T* recv,
                     const std::vector<Index>& counts,
                     const std::vector<Index>& displs, Index chunk_elems,
                     std::uint64_t seq) {
  detail::Channel<Comm, T> ch(comm, "coll.ring_allgather", chunk_elems, seq);
  const int rank = comm.rank();
  const int size = comm.size();
  CHASE_CHECK_MSG(size <= 0xFFF, "team too large for the ring tag space");
  const auto block = [&](int r) { return recv + displs[std::size_t(r)]; };
  const auto count = [&](int r) { return counts[std::size_t(r)]; };
  // Check every block against the tag space before anything moves.
  for (int r = 0; r < size; ++r) ch.chunks(count(r));
  // An exact-overlap source (a leader passing its assembled node block) is
  // already in place.
  if (count(rank) > 0 && send != block(rank)) {
    std::copy_n(send, count(rank), block(rank));
  }
  const int next = (rank + 1) % size;
  const int prev = (rank + size - 1) % size;
  for (Index c = 0; c < ch.chunks(count(rank)); ++c) {
    ch.send(next, ch.tag(0, 1, c), block(rank) + c * ch.chunk(),
            ch.len(count(rank), c));
  }
  for (int t = 1; t < size; ++t) {
    const int rb = (rank - t + size) % size;
    for (Index c = 0; c < ch.chunks(count(rb)); ++c) {
      T* x = block(rb) + c * ch.chunk();
      const Index len = ch.len(count(rb), c);
      ch.recv(prev, ch.tag(0, unsigned(t), c), x, len);
      if (t + 1 < size) ch.send(next, ch.tag(0, unsigned(t + 1), c), x, len);
    }
  }
  ch.finish();
}

/// Chunk-pipelined binomial-tree broadcast: chunks stream down the tree as
/// they arrive from the parent, so depth costs add once, not per chunk.
template <typename Comm, typename T>
void binomial_broadcast(const Comm& comm, T* data, Index count, int root,
                        Index chunk_elems, std::uint64_t seq) {
  detail::Channel<Comm, T> ch(comm, "coll.binomial_broadcast", chunk_elems,
                              seq);
  const detail::BinomialShape tree(comm.rank(), comm.size(), root);
  const Index nc = ch.chunks(count);
  for (Index c = 0; c < nc; ++c) {
    T* x = data + c * ch.chunk();
    const Index len = ch.len(count, c);
    if (tree.parent >= 0) ch.recv(tree.parent, ch.tag(0, 0, c), x, len);
    for (const int child : tree.children) {
      ch.send(child, ch.tag(0, 0, c), x, len);
    }
  }
  ch.finish();
}

}  // namespace chase::coll
