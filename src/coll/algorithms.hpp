// Chunk-pipelined collective algorithms over the point-to-point channels.
//
// Every algorithm is a CollOp state machine templated on the communicator
// type (so this header never needs comm/communicator.hpp — the dispatch
// glue in coll/dispatch.hpp instantiates them with comm::Communicator and
// runs each to completion with wait()). The required Comm surface: rank(),
// size(), send_chunk(), try_recv_chunk(), inbox_arrivals(),
// wait_new_arrival().
//
// Determinism contract: the naive reference folds contributions in rank
// order 0..P-1, and the filter/QR stacks rely on every rank seeing the
// *bitwise identical* reduced value. Both allreduce algorithms here keep
// that exact summation order:
//
//  - OrderedRingAllReduce: a chunk is accumulated along the chain
//    0 -> 1 -> ... -> P-1 (rank order by construction) and the finished
//    values flow on around the ring P-1 -> 0 -> ... -> P-2. Classic NCCL
//    rings rotate the starting segment per rank, which reorders the sums;
//    the ordered chain pays one extra latency factor for determinism while
//    keeping the chunk-pipelined structure (2(P-1)+k-1 hop times for k
//    chunks in flight).
//  - RabenseifnerAllReduce: reduce-scatter + allgather with the classic
//    2N(P-1)/P per-rank bandwidth, but the reduce-scatter is a direct
//    pairwise exchange whose segment owners fold contributions in rank
//    order, instead of recursive halving (which would build a different
//    summation tree). The latency term grows from 2 log2 P to ~2(P-1);
//    the cost model knows.
//
// Data movement collectives (allgather, broadcast) are pure copies, so ring,
// bruck and binomial shapes are trivially bitwise-safe.
//
// Tag layout (see comm/chunk_channel.hpp): seq(32) | phase(4) | step(12) |
// chunk(16).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
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

}  // namespace detail

/// A collective as a poll-driven state machine over the chunk channels:
/// progress() advances it as far as the already-arrived chunks allow and
/// reports completion; wait() blocks (with the team's poisoned-error/watchdog
/// semantics) until done. Completion is purely local — every expected chunk
/// received and every outgoing chunk pushed — so a finished rank never needs
/// to keep progressing on behalf of its peers.
class CollOp {
 public:
  virtual ~CollOp() = default;

  /// Advance as far as possible without blocking; true once complete.
  /// Idempotent after completion.
  virtual bool progress() = 0;

  /// Block until complete (poison-aware; may throw TeamAborted).
  virtual void wait() = 0;
};

/// Common machinery: blocking wait over progress(), and per-algorithm
/// bytes/steps accounting flushed to the thread tracker on completion.
template <typename Comm>
class ChannelOp : public CollOp {
 public:
  explicit ChannelOp(const Comm& comm, const char* counter_prefix)
      : comm_(comm), prefix_(counter_prefix) {}

  void wait() final {
    for (;;) {
      // Read the arrival counter *before* progressing: a chunk landing
      // between progress() and the wait bumps it past `seen`, so
      // wait_new_arrival returns immediately instead of losing the wakeup.
      const std::uint64_t seen = comm_.inbox_arrivals();
      if (progress()) return;
      comm_.wait_new_arrival(seen);
    }
  }

 protected:
  void send(int dst, std::uint64_t tag, const void* data, std::size_t bytes) {
    comm_.send_chunk(dst, tag, data, bytes);
    ++steps_;
    bytes_ += bytes;
  }

  void note_recv(std::size_t bytes) {
    ++steps_;
    bytes_ += bytes;
  }

  /// Flush the per-algorithm counters exactly once, on completion.
  void finish() {
    if (finished_) return;
    finished_ = true;
    if (perf::thread_tracker() == nullptr) return;
    const std::string p(prefix_);
    perf::bump_counter(p + ".calls", 1.0);
    perf::bump_counter(p + ".steps", double(steps_));
    perf::bump_counter(p + ".bytes", double(bytes_));
  }

  const Comm& comm_;

 private:
  const char* prefix_;
  std::size_t steps_ = 0;   // chunk sends + receives this rank performed
  std::size_t bytes_ = 0;   // bytes moved through this rank's channels
  bool finished_ = false;
};

/// Deterministic chunk-pipelined ring allreduce (see file comment).
template <typename Comm, typename T>
class OrderedRingAllReduce final : public ChannelOp<Comm> {
 public:
  OrderedRingAllReduce(const Comm& comm, T* data, Index count,
                       comm::Reduction op, Index chunk_elems,
                       std::uint64_t seq)
      : ChannelOp<Comm>(comm, "coll.ring_allreduce"),
        data_(data),
        count_(count),
        op_(op),
        chunk_(std::max<Index>(1, chunk_elems)),
        seq_(seq),
        rank_(comm.rank()),
        size_(comm.size()),
        nc_(detail::div_up(count, chunk_)) {
    CHASE_CHECK_MSG(nc_ <= 0xFFFF, "allreduce payload needs too many chunks");
    scratch_.resize(std::size_t(std::min<Index>(count_, chunk_)));
    // The last rank finishes each chunk itself during the reduce pass and
    // only *feeds* the distribute ring.
    if (rank_ == size_ - 1) dist_done_ = nc_;
  }

  bool progress() override {
    if (complete()) return true;
    // Reduce pass: chunk c accumulates contributions in rank order while
    // hopping 0 -> 1 -> ... -> P-1.
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
          this->send(0, tag(1, red_done_), data_ + b, bytes);
        }
      }
      ++red_done_;
    }
    // Distribute pass: finished chunks flow P-1 -> 0 -> 1 -> ... -> P-2.
    while (dist_done_ < nc_) {
      const Index b = dist_done_ * chunk_;
      const Index len = std::min(chunk_, count_ - b);
      const std::size_t bytes = std::size_t(len) * sizeof(T);
      const int prev = rank_ == 0 ? size_ - 1 : rank_ - 1;
      if (!this->comm_.try_recv_chunk(prev, tag(1, dist_done_), data_ + b,
                                      bytes)) {
        break;
      }
      this->note_recv(bytes);
      if (rank_ != size_ - 2) {
        this->send(rank_ + 1, tag(1, dist_done_), data_ + b, bytes);
      }
      ++dist_done_;
    }
    if (!complete()) return false;
    this->finish();
    return true;
  }


 private:
  bool complete() const { return red_done_ == nc_ && dist_done_ == nc_; }

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
  Index red_done_ = 0;
  Index dist_done_ = 0;
  std::vector<T> scratch_;
};

/// Rabenseifner-flavored allreduce: order-preserving reduce-scatter + direct
/// allgather of the owned segments (see file comment).
template <typename Comm, typename T>
class RabenseifnerAllReduce final : public ChannelOp<Comm> {
 public:
  RabenseifnerAllReduce(const Comm& comm, T* data, Index count,
                        comm::Reduction op, Index chunk_elems,
                        std::uint64_t seq)
      : ChannelOp<Comm>(comm, "coll.rabenseifner_allreduce"),
        data_(data),
        count_(count),
        op_(op),
        chunk_(std::max<Index>(1, chunk_elems)),
        seq_(seq),
        rank_(comm.rank()),
        size_(comm.size()) {
    // Segment s (owned by rank s) is the near-equal slice [off_[s],
    // off_[s] + len_[s]) of the payload.
    off_.resize(std::size_t(size_));
    len_.resize(std::size_t(size_));
    const Index base = count_ / size_;
    const Index rem = count_ % size_;
    Index off = 0;
    for (int s = 0; s < size_; ++s) {
      off_[std::size_t(s)] = off;
      len_[std::size_t(s)] = base + (Index(s) < rem ? 1 : 0);
      off += len_[std::size_t(s)];
    }
    CHASE_CHECK_MSG(detail::div_up(chunk_ > 0 ? len_max() : 0, chunk_) <= 0xFFFF,
                    "allreduce segment needs too many chunks");
    nsub_own_ = detail::div_up(own_len(), chunk_);
    scratch_.resize(std::size_t(std::min<Index>(chunk_, std::max<Index>(
                                                            own_len(), 1))));
    tmp_.resize(scratch_.size());
    ag_done_.assign(std::size_t(size_), 0);
  }

  bool progress() override {
    if (complete()) return true;
    // Phase 0 sends: my contribution to every foreign segment, chunked.
    if (!sent_rs_) {
      for (int s = 0; s < size_; ++s) {
        if (s == rank_ || len_[std::size_t(s)] == 0) continue;
        send_segment(s, /*phase=*/0, off_[std::size_t(s)],
                     len_[std::size_t(s)]);
      }
      sent_rs_ = true;
    }
    // Phase 0 fold: finalize my own segment, sub-chunk by sub-chunk, folding
    // the P contributions in rank order.
    while (sub_ < nsub_own_) {
      const Index b = own_off() + sub_ * chunk_;
      const Index len = std::min(chunk_, own_off() + own_len() - b);
      const std::size_t bytes = std::size_t(len) * sizeof(T);
      bool stalled = false;
      while (src_ < size_) {
        if (src_ == rank_) {
          fold(scratch_.data(), data_ + b, len, src_ == 0);
          ++src_;
          continue;
        }
        if (!this->comm_.try_recv_chunk(src_, tag(0, src_, sub_), tmp_.data(),
                                        bytes)) {
          stalled = true;
          break;
        }
        this->note_recv(bytes);
        fold(scratch_.data(), tmp_.data(), len, src_ == 0);
        ++src_;
      }
      if (stalled) break;
      std::copy_n(scratch_.data(), len, data_ + b);
      ++sub_;
      src_ = 0;
    }
    // Phase 1 sends: once my segment is final, hand it to every peer.
    if (sub_ == nsub_own_ && !sent_ag_) {
      for (int s = 0; s < size_; ++s) {
        if (s == rank_ || own_len() == 0) continue;
        send_segment(s, /*phase=*/1, own_off(), own_len());
      }
      sent_ag_ = true;
    }
    // Phase 1 receives: collect every foreign segment (streams from distinct
    // sources are independent, so progress here even while phase 0 stalls).
    for (int s = 0; s < size_; ++s) {
      if (s == rank_ || len_[std::size_t(s)] == 0) continue;
      const Index nsub = detail::div_up(len_[std::size_t(s)], chunk_);
      Index& got = ag_done_[std::size_t(s)];
      while (got < nsub) {
        const Index b = off_[std::size_t(s)] + got * chunk_;
        const Index len =
            std::min(chunk_, off_[std::size_t(s)] + len_[std::size_t(s)] - b);
        const std::size_t bytes = std::size_t(len) * sizeof(T);
        if (!this->comm_.try_recv_chunk(s, tag(1, s, got), data_ + b, bytes)) {
          break;
        }
        this->note_recv(bytes);
        ++got;
      }
    }
    if (!complete()) return false;
    this->finish();
    return true;
  }


 private:
  Index own_off() const { return off_[std::size_t(rank_)]; }
  Index own_len() const { return len_[std::size_t(rank_)]; }

  Index len_max() const {
    Index m = 0;
    for (const Index l : len_) m = std::max(m, l);
    return m;
  }

  bool complete() const {
    if (!sent_rs_ || !sent_ag_ || sub_ < nsub_own_) return false;
    for (int s = 0; s < size_; ++s) {
      if (s == rank_) continue;
      if (ag_done_[std::size_t(s)] < detail::div_up(len_[std::size_t(s)],
                                                    chunk_)) {
        return false;
      }
    }
    return true;
  }

  void fold(T* acc, const T* x, Index len, bool first) {
    if (first) {
      std::copy_n(x, len, acc);
      return;
    }
    for (Index i = 0; i < len; ++i) {
      comm::detail::reduce_assign(op_, acc[std::size_t(i)], x[i]);
    }
  }

  void send_segment(int dst, unsigned phase, Index off, Index len) {
    const Index nsub = detail::div_up(len, chunk_);
    for (Index c = 0; c < nsub; ++c) {
      const Index b = off + c * chunk_;
      const Index l = std::min(chunk_, off + len - b);
      this->send(dst, tag(phase, rank_, c), data_ + b,
                 std::size_t(l) * sizeof(T));
    }
  }

  /// `step` carries the segment owner's view of the stream: phase 0 chunks
  /// are keyed by the *sender* (so the owner can fold in rank order), phase
  /// 1 chunks by the segment owner. Both coincide with the source rank,
  /// which the mailbox already separates, but keeping it in the tag makes
  /// tags globally unique and mismatches loud.
  std::uint64_t tag(unsigned phase, int step_rank, Index chunk) const {
    return detail::make_tag(seq_, phase, unsigned(step_rank), unsigned(chunk));
  }

  T* data_;
  Index count_;
  comm::Reduction op_;
  Index chunk_;
  std::uint64_t seq_;
  int rank_;
  int size_;
  std::vector<Index> off_;
  std::vector<Index> len_;
  Index nsub_own_ = 0;
  Index sub_ = 0;   // next sub-chunk of my segment to finalize
  int src_ = 0;     // next source to fold into the current sub-chunk
  bool sent_rs_ = false;
  bool sent_ag_ = false;
  std::vector<Index> ag_done_;  // phase-1 chunks received per segment
  std::vector<T> scratch_;
  std::vector<T> tmp_;
};

/// Ring allgather over per-rank (count, displ) blocks: step t forwards the
/// block received at step t-1, chunk by chunk, so a slow predecessor only
/// stalls its own stream. Handles the variable-count case directly; the
/// equal-count allgather passes uniform counts.
template <typename Comm, typename T>
class RingAllGather final : public ChannelOp<Comm> {
 public:
  RingAllGather(const Comm& comm, const T* send, T* recv,
                std::vector<Index> counts, std::vector<Index> displs,
                Index chunk_elems, std::uint64_t seq)
      : ChannelOp<Comm>(comm, "coll.ring_allgather"),
        recv_(recv),
        counts_(std::move(counts)),
        displs_(std::move(displs)),
        chunk_(std::max<Index>(1, chunk_elems)),
        seq_(seq),
        rank_(comm.rank()),
        size_(comm.size()) {
    CHASE_CHECK_MSG(size_ <= 0xFFF, "team too large for the ring tag space");
    for (const Index c : counts_) {
      CHASE_CHECK_MSG(detail::div_up(c, chunk_) <= 0xFFFF,
                      "allgather block needs too many chunks");
    }
    if (counts_[std::size_t(rank_)] > 0) {
      std::copy_n(send, counts_[std::size_t(rank_)],
                  recv_ + displs_[std::size_t(rank_)]);
    }
    sent_.assign(std::size_t(size_), 0);
    recvd_.assign(std::size_t(size_), 0);
  }

  bool progress() override {
    if (complete()) return true;
    const int next = (rank_ + 1) % size_;
    const int prev = (rank_ + size_ - 1) % size_;
    for (int t = 1; t < size_; ++t) {
      // At step t I forward block (rank - t + 1) mod P and receive block
      // (rank - t) mod P from my predecessor.
      const int sb = (rank_ - t + 1 + size_) % size_;
      const int rb = (rank_ - t + size_) % size_;
      const Index send_chunks = detail::div_up(counts_[std::size_t(sb)], chunk_);
      // Block sb is my own contribution at t == 1 and otherwise exactly the
      // block step t-1 received — only its already-arrived chunks can go out.
      const Index avail = t == 1 ? send_chunks : recvd_[std::size_t(t - 1)];
      Index& sent = sent_[std::size_t(t)];
      while (sent < avail) {
        const Index b = displs_[std::size_t(sb)] + sent * chunk_;
        const Index len =
            std::min(chunk_, displs_[std::size_t(sb)] +
                                 counts_[std::size_t(sb)] - b);
        this->send(next, tag(t, sent), recv_ + b, std::size_t(len) * sizeof(T));
        ++sent;
      }
      const Index recv_chunks = detail::div_up(counts_[std::size_t(rb)], chunk_);
      Index& got = recvd_[std::size_t(t)];
      while (got < recv_chunks) {
        const Index b = displs_[std::size_t(rb)] + got * chunk_;
        const Index len =
            std::min(chunk_, displs_[std::size_t(rb)] +
                                 counts_[std::size_t(rb)] - b);
        const std::size_t bytes = std::size_t(len) * sizeof(T);
        if (!this->comm_.try_recv_chunk(prev, tag(t, got), recv_ + b, bytes)) {
          break;
        }
        this->note_recv(bytes);
        ++got;
      }
    }
    if (!complete()) return false;
    this->finish();
    return true;
  }


 private:
  bool complete() const {
    for (int t = 1; t < size_; ++t) {
      const int sb = (rank_ - t + 1 + size_) % size_;
      const int rb = (rank_ - t + size_) % size_;
      if (sent_[std::size_t(t)] < detail::div_up(counts_[std::size_t(sb)],
                                                 chunk_) ||
          recvd_[std::size_t(t)] < detail::div_up(counts_[std::size_t(rb)],
                                                  chunk_)) {
        return false;
      }
    }
    return true;
  }

  std::uint64_t tag(int step, Index chunk) const {
    return detail::make_tag(seq_, 0, unsigned(step), unsigned(chunk));
  }

  T* recv_;
  std::vector<Index> counts_;
  std::vector<Index> displs_;
  Index chunk_;
  std::uint64_t seq_;
  int rank_;
  int size_;
  std::vector<Index> sent_;   // chunks forwarded, per ring step
  std::vector<Index> recvd_;  // chunks received, per ring step
};

/// Bruck allgather (equal counts): ceil(log2 P) doubling rounds over a
/// rotated work buffer, un-rotated into the receive buffer at the end.
template <typename Comm, typename T>
class BruckAllGather final : public ChannelOp<Comm> {
 public:
  BruckAllGather(const Comm& comm, const T* send, T* recv, Index count,
                 Index chunk_elems, std::uint64_t seq)
      : ChannelOp<Comm>(comm, "coll.bruck_allgather"),
        recv_(recv),
        count_(count),
        chunk_(std::max<Index>(1, chunk_elems)),
        seq_(seq),
        rank_(comm.rank()),
        size_(comm.size()),
        work_(std::size_t(count) * std::size_t(size_)) {
    CHASE_CHECK_MSG(
        detail::div_up(count_ * Index(size_), chunk_) <= 0xFFFF,
        "allgather payload needs too many chunks");
    if (count_ > 0) std::copy_n(send, count_, work_.data());
  }

  bool progress() override {
    if (complete()) return true;
    if (count_ == 0) {
      done_ = true;
      this->finish();
      return true;
    }
    while (dist_ < size_) {
      // Round r: send my first min(dist, P-dist) blocks dist ranks back,
      // receive the same from dist ranks ahead, appending at block dist.
      const int m = std::min(dist_, size_ - dist_);
      const Index elems = Index(m) * count_;
      const Index nch = detail::div_up(elems, chunk_);
      if (!sent_round_) {
        const int dst = (rank_ - dist_ + size_) % size_;
        for (Index c = 0; c < nch; ++c) {
          const Index b = c * chunk_;
          const Index len = std::min(chunk_, elems - b);
          this->send(dst, tag(round_, c), work_.data() + b,
                     std::size_t(len) * sizeof(T));
        }
        sent_round_ = true;
      }
      const int src = (rank_ + dist_) % size_;
      while (rc_ < nch) {
        const Index b = rc_ * chunk_;
        const Index len = std::min(chunk_, elems - b);
        const std::size_t bytes = std::size_t(len) * sizeof(T);
        if (!this->comm_.try_recv_chunk(
                src, tag(round_, rc_),
                work_.data() + Index(dist_) * count_ + b, bytes)) {
          return false;
        }
        this->note_recv(bytes);
        ++rc_;
      }
      dist_ *= 2;
      ++round_;
      rc_ = 0;
      sent_round_ = false;
    }
    // Un-rotate: work block i holds global block (rank + i) mod P.
    for (int i = 0; i < size_; ++i) {
      std::copy_n(work_.data() + Index(i) * count_, count_,
                  recv_ + Index((rank_ + i) % size_) * count_);
    }
    done_ = true;
    this->finish();
    return true;
  }


 private:
  bool complete() const { return done_; }

  std::uint64_t tag(int round, Index chunk) const {
    return detail::make_tag(seq_, 0, unsigned(round), unsigned(chunk));
  }

  T* recv_;
  Index count_;
  Index chunk_;
  std::uint64_t seq_;
  int rank_;
  int size_;
  std::vector<T> work_;
  int dist_ = 1;
  int round_ = 0;
  Index rc_ = 0;
  bool sent_round_ = false;
  bool done_ = false;
};

/// Chunk-pipelined binomial-tree broadcast: chunks stream down the tree as
/// they arrive from the parent, so depth costs add once, not per chunk.
template <typename Comm, typename T>
class BinomialBroadcast final : public ChannelOp<Comm> {
 public:
  BinomialBroadcast(const Comm& comm, T* data, Index count, int root,
                    Index chunk_elems, std::uint64_t seq)
      : ChannelOp<Comm>(comm, "coll.binomial_broadcast"),
        data_(data),
        count_(count),
        chunk_(std::max<Index>(1, chunk_elems)),
        seq_(seq),
        rank_(comm.rank()),
        size_(comm.size()),
        nc_(detail::div_up(count, chunk_)) {
    CHASE_CHECK_MSG(nc_ <= 0xFFFF, "broadcast payload needs too many chunks");
    // Virtual rank v = (rank - root) mod P turns rank `root` into the tree
    // root; the parent strips v's lowest set bit, children add bits below.
    const int v = (rank_ - root + size_) % size_;
    unsigned mask = 1;
    while (int(mask) < size_ && (v & int(mask)) == 0) mask <<= 1;
    parent_ = v == 0 ? -1 : ((v - int(mask)) + root) % size_;
    for (unsigned m = mask >> 1; m > 0; m >>= 1) {
      if (v + int(m) < size_) children_.push_back(((v + int(m)) + root) % size_);
    }
    recvd_ = parent_ < 0 ? nc_ : 0;
    sent_.assign(children_.size(), 0);
  }

  bool progress() override {
    if (complete()) return true;
    while (recvd_ < nc_) {
      const Index b = recvd_ * chunk_;
      const Index len = std::min(chunk_, count_ - b);
      const std::size_t bytes = std::size_t(len) * sizeof(T);
      if (!this->comm_.try_recv_chunk(parent_, tag(recvd_), data_ + b, bytes)) {
        break;
      }
      this->note_recv(bytes);
      ++recvd_;
    }
    for (std::size_t i = 0; i < children_.size(); ++i) {
      while (sent_[i] < recvd_) {
        const Index b = sent_[i] * chunk_;
        const Index len = std::min(chunk_, count_ - b);
        this->send(children_[i], tag(sent_[i]), data_ + b,
                   std::size_t(len) * sizeof(T));
        ++sent_[i];
      }
    }
    if (!complete()) return false;
    this->finish();
    return true;
  }


 private:
  bool complete() const {
    if (recvd_ < nc_) return false;
    for (const Index s : sent_) {
      if (s < nc_) return false;
    }
    return true;
  }

  std::uint64_t tag(Index chunk) const {
    return detail::make_tag(seq_, 0, 0, unsigned(chunk));
  }

  T* data_;
  Index count_;
  Index chunk_;
  std::uint64_t seq_;
  int rank_;
  int size_;
  Index nc_;
  int parent_ = -1;
  std::vector<int> children_;
  Index recvd_ = 0;
  std::vector<Index> sent_;
};

}  // namespace chase::coll
