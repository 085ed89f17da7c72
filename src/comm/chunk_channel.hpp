// Point-to-point chunk channels: the transport primitive under src/coll.
//
// Every rank owns one Mailbox holding a FIFO of in-flight chunks per source
// rank (a per-rank-pair SPSC queue: only the source pushes, only the owner
// pops). Sends never block — the queues are unbounded, so the blocking
// per-chunk loops of the coll routines cannot deadlock — while receives match
// a chunk by tag *anywhere* in the per-source FIFO, which lets pipelined
// routines overlap chunks of different steps without agreeing on a global
// interleaving.
//
// Tags are built by the coll routines as
//   seq(32) | phase(4) | step(12) | chunk(16)
// where `seq` is the per-rank collective sequence number handed out by
// Communicator::next_collective_seq(); consecutive collectives on the same
// communicator therefore never alias tags even though channels are not
// drained between them.
//
// Communicator::recv_chunk, the one receive, carries the same
// poisoned-error/watchdog semantics as the barriers: the mailbox cv is
// registered with the team's ErrorState, the wait polls the poison flag, and
// an inbox that stays quiet for comm::barrier_timeout() is diagnosed as
// "p2p.watchdog" naming the awaited sender.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace chase::comm::detail {

struct Chunk {
  std::uint64_t tag = 0;
  std::vector<unsigned char> bytes;
};

struct Mailbox {
  explicit Mailbox(int nranks) : from(std::size_t(nranks)) {}

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::deque<Chunk>> from;  // indexed by source rank
  // Bumped on every push; Communicator::recv_chunk restarts its watchdog
  // deadline whenever it moves.
  std::uint64_t arrivals = 0;
};

}  // namespace chase::comm::detail
