// Point-to-point chunk channels: the transport primitive under src/coll.
//
// Every rank owns one Mailbox holding a FIFO of in-flight chunks per source
// rank (a per-rank-pair SPSC queue: only the source pushes, only the owner
// pops). Sends never block — the queues are unbounded, so no send/recv
// ordering can deadlock — while receives match a chunk by tag *anywhere* in
// the per-source FIFO, which lets pipelined algorithms overlap chunks of
// different steps without agreeing on a global interleaving.
//
// Tags are built by the coll algorithms as
//   seq(32) | phase(4) | step(12) | chunk(16)
// where `seq` is the per-rank collective sequence number handed out by
// Communicator::next_collective_seq(); consecutive collectives on the same
// communicator therefore never alias tags even though channels are not
// drained between them.
//
// Blocking receives carry the same poisoned-error/watchdog semantics as the
// PR 1 barriers: waiters register the mailbox cv with the team's ErrorState,
// poll the poison flag, and diagnose a missing sender as "p2p.watchdog"
// after comm::barrier_timeout().
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
  // Bumped on every push; Communicator::wait_new_arrival sleeps on it so
  // a channel op's wait() does not busy-spin.
  std::uint64_t arrivals = 0;
};

}  // namespace chase::comm::detail
