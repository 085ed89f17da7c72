#include "comm/communicator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "comm/topology.hpp"
#include "common/env.hpp"
#include "la/parallel.hpp"

namespace chase::comm {

namespace {

std::atomic<long>& timeout_ms() {
  static std::atomic<long> ms = [] {
    long v = 120000;  // generous: legitimate waits cover imbalanced compute
    // CHASE_WATCHDOG_MS is the documented knob; CHASE_BARRIER_TIMEOUT_MS is
    // the original name, kept as a fallback.
    auto parsed = env::positive_env("CHASE_WATCHDOG_MS");
    if (!parsed) parsed = env::positive_env("CHASE_BARRIER_TIMEOUT_MS");
    if (parsed) v = long(*parsed);
    return v;
  }();
  return ms;
}

/// Emulated cross-node link: stall the calling thread for `seconds`. Sleeps
/// the bulk and spins the tail — sleep_for alone overshoots by the OS
/// scheduling quantum, which would swamp sub-100us link latencies. Capped so
/// a misconfigured CHASE_TOPO cannot hang a collective past the watchdog.
void emulate_link_delay(double seconds) {
  if (seconds <= 0) return;
  seconds = std::min(seconds, 0.25);
  const auto until =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  const auto spin_margin = std::chrono::microseconds(200);
  const auto sleep_until = until - spin_margin;
  if (std::chrono::steady_clock::now() < sleep_until) {
    std::this_thread::sleep_until(sleep_until);
  }
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Seconds the emulated inter link charges for moving `bytes` between ranks
/// `a` and `b` of `st`; zero for flat states, same-node pairs, or a grouping
/// without link emulation.
double inter_delay_seconds(const detail::CommState& st, int a, int b,
                           std::size_t bytes) {
  if (st.node_of.empty() || a == b) return 0;
  if (st.node_of[std::size_t(a)] == st.node_of[std::size_t(b)]) return 0;
  double seconds = st.inter_latency;
  if (st.inter_bw > 0) seconds += double(bytes) / st.inter_bw;
  return seconds;
}

}  // namespace

std::chrono::milliseconds barrier_timeout() {
  return std::chrono::milliseconds(timeout_ms().load(std::memory_order_relaxed));
}

void set_barrier_timeout(std::chrono::milliseconds t) {
  timeout_ms().store(t.count(), std::memory_order_relaxed);
}

namespace detail {

CommState::CommState(int sz, std::shared_ptr<ErrorState> es)
    : size(sz),
      errors(es ? std::move(es) : std::make_shared<ErrorState>()),
      slots(std::size_t(sz)),
      coll_seq(std::size_t(sz), 0),
      split_requests(std::size_t(sz)),
      hier_groups(std::size_t(sz)) {
  errors->register_waiter(&bar_cv);
  mailboxes.reserve(std::size_t(sz));
  for (int r = 0; r < sz; ++r) {
    mailboxes.push_back(std::make_unique<Mailbox>(sz));
    // Chunk waiters must wake eagerly when the team poisons, exactly like
    // barrier waiters.
    errors->register_waiter(&mailboxes.back()->cv);
  }
}

CommState::~CommState() {
  for (const auto& mb : mailboxes) errors->unregister_waiter(&mb->cv);
  errors->unregister_waiter(&bar_cv);
}

void CommState::set_nodes(std::vector<int> nodes, double bw, double latency) {
  node_of = std::move(nodes);
  inter_bw = bw;
  inter_latency = latency;
  topo = topo_info_of(node_of, bw, latency);
}

void CommState::barrier_wait(int rank) {
  std::unique_lock<std::mutex> lock(bar_mutex);
  if (errors->poisoned()) errors->raise();
  const std::uint64_t gen = bar_generation;
  if (++bar_arrived == size) {
    bar_arrived = 0;
    ++bar_generation;
    bar_cv.notify_all();
    return;
  }
  const auto deadline = std::chrono::steady_clock::now() + barrier_timeout();
  // Poll-bounded wait: ErrorState::record notifies this cv, but a
  // notification sent between our poison check and the wait would be lost,
  // so the poll interval bounds the detection latency instead of relying on
  // perfect wakeup ordering.
  while (bar_generation == gen) {
    bar_cv.wait_for(lock, std::chrono::milliseconds(50));
    if (bar_generation != gen) break;
    if (errors->poisoned()) {
      --bar_arrived;  // leave the count consistent for any later arrival
      errors->raise();
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      --bar_arrived;
      std::ostringstream os;
      os << "watchdog on rank " << rank << ": no barrier progress within "
         << barrier_timeout().count() << " ms (" << bar_arrived + 1 << "/"
         << size
         << " ranks arrived; a sibling likely died outside any collective)";
      errors->record(RankError{rank, "barrier.watchdog", os.str()});
      errors->raise();
    }
  }
}

void CommState::quiesce_wait(int rank) {
  std::unique_lock<std::mutex> lock(bar_mutex);
  // No up-front poison check, and no poison exit from the wait loop: a
  // sibling may still be reading the buffer this rank published in the
  // current collective, and leaving early would free it mid-read. All
  // participants passed the publish barrier, so they arrive here after a
  // bounded read phase; only the watchdog breaks a (never-expected) hang.
  const std::uint64_t gen = bar_generation;
  if (++bar_arrived == size) {
    bar_arrived = 0;
    ++bar_generation;
    bar_cv.notify_all();
  } else {
    const auto deadline = std::chrono::steady_clock::now() + barrier_timeout();
    while (bar_generation == gen) {
      bar_cv.wait_for(lock, std::chrono::milliseconds(50));
      if (bar_generation != gen) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        --bar_arrived;
        std::ostringstream os;
        os << "watchdog on rank " << rank << ": collective quiesce made no "
           << "progress within " << barrier_timeout().count() << " ms ("
           << bar_arrived + 1 << "/" << size << " ranks arrived)";
        errors->record(RankError{rank, "barrier.watchdog", os.str()});
        errors->raise();
      }
    }
  }
  // No poison re-check after the generation completes: a rank that cleared
  // the collective keeps its result and aborts at the *next* entry check,
  // exactly like the pre-quiesce barrier. Raising here would race local
  // post-collective work (e.g. the checkpoint store on rank 0) against a
  // sibling that already died one collective ahead.
}

}  // namespace detail

void Communicator::barrier() const {
  fault::check("rank.die");
  if (size() == 1) return;
  state_->barrier_wait(rank_);
}

void Communicator::raise_error(std::string site, std::string message) const {
  RankError e{rank_, std::move(site), std::move(message)};
  if (state_ != nullptr) {
    state_->errors->record(e);
    state_->errors->raise();
  }
  throw TeamAborted(std::move(e));
}

void Communicator::publish_and_sync(const void* ptr, std::size_t bytes,
                                    int tag) const {
  fault::check("rank.die");
  auto& slot = state_->slots[std::size_t(rank_)];
  slot.ptr = ptr;
  slot.bytes = bytes;
  slot.tag = tag;
  state_->barrier_wait(rank_);
  // SPMD-mismatch detection: every rank must be in the same collective. A
  // mismatch poisons the team (diagnosable on every rank) instead of
  // aborting the process.
  for (int r = 0; r < size(); ++r) {
    if (state_->slots[std::size_t(r)].tag != tag) {
      std::ostringstream os;
      os << "ranks disagree on the collective being executed (rank " << rank_
         << " tag " << tag << ", rank " << r << " tag "
         << state_->slots[std::size_t(r)].tag << ")";
      raise_error("collective.mismatch", os.str());
    }
  }
}

void Communicator::send_chunk(int dst, std::uint64_t tag, const void* data,
                              std::size_t bytes) const {
  CHASE_CHECK_MSG(state_ != nullptr && dst >= 0 && dst < size() && dst != rank_,
                  "send_chunk: bad destination");
  auto& st = *state_;
  if (st.errors->poisoned()) st.errors->raise();
  if (fault::fired("p2p.stall")) {
    // Simulated network stall: park the sender for up to two watchdog
    // periods so a waiting receiver's p2p.watchdog fires first; once the
    // team poisons, die like any other waiter.
    const auto give_up = std::chrono::steady_clock::now() + 2 * barrier_timeout();
    while (std::chrono::steady_clock::now() < give_up) {
      if (st.errors->poisoned()) st.errors->raise();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  // Topology emulation: a chunk crossing the node boundary pays the slow
  // inter link before it lands in the destination mailbox. The delay is in
  // the *sender's* thread, exactly where a real rendezvous send serializes —
  // this is what makes a flat ring's boundary rank the bottleneck the
  // hierarchical routines exist to relieve.
  emulate_link_delay(inter_delay_seconds(st, rank_, dst, bytes));
  detail::Chunk chunk;
  chunk.tag = tag;
  const auto* p = static_cast<const unsigned char*>(data);
  chunk.bytes.assign(p, p + bytes);
  if (!chunk.bytes.empty() && fault::fired("p2p.corrupt")) {
    // All-ones leading bytes: a NaN pattern for floating payloads, the kind
    // of silent bit-flip the downstream non-finite guards must survive.
    std::fill_n(chunk.bytes.data(), std::min<std::size_t>(8, bytes),
                static_cast<unsigned char>(0xFF));
  }
  auto& box = *st.mailboxes[std::size_t(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.from[std::size_t(rank_)].push_back(std::move(chunk));
    ++box.arrivals;
  }
  box.cv.notify_all();
}

void Communicator::recv_chunk(int src, std::uint64_t tag, void* data,
                              std::size_t bytes) const {
  CHASE_CHECK_MSG(state_ != nullptr && src >= 0 && src < size() && src != rank_,
                  "recv_chunk: bad source");
  auto& st = *state_;
  auto& box = *st.mailboxes[std::size_t(rank_)];
  auto& q = box.from[std::size_t(src)];
  detail::Chunk got;
  {
    std::unique_lock<std::mutex> lock(box.mutex);
    // The watchdog restarts whenever any chunk reaches this inbox: it fires
    // only when the whole inbox has gone quiet.
    std::uint64_t seen = box.arrivals;
    auto deadline = std::chrono::steady_clock::now() + barrier_timeout();
    for (;;) {
      const auto it = std::find_if(q.begin(), q.end(), [tag](const auto& c) {
        return c.tag == tag;
      });
      if (it != q.end()) {
        got = std::move(*it);
        q.erase(it);
        break;
      }
      if (st.errors->poisoned()) st.errors->raise();
      // Poll-bounded wait, same rationale as barrier_wait: a poison
      // notification between the check and the wait must not be lost.
      box.cv.wait_for(lock, std::chrono::milliseconds(50));
      if (box.arrivals != seen) {
        seen = box.arrivals;
        deadline = std::chrono::steady_clock::now() + barrier_timeout();
        continue;
      }
      if (st.errors->poisoned()) st.errors->raise();
      if (std::chrono::steady_clock::now() >= deadline) {
        std::ostringstream os;
        os << "watchdog on rank " << rank_ << ": no chunk arrived within "
           << barrier_timeout().count() << " ms while waiting for rank "
           << src << " (tag " << tag
           << ") (a peer of the collective likely died or stalled)";
        lock.unlock();
        st.errors->record(RankError{rank_, "p2p.watchdog", os.str()});
        st.errors->raise();
      }
    }
  }
  if (got.bytes.size() != bytes) {
    std::ostringstream os;
    os << "chunk size mismatch from rank " << src << " (tag " << tag
       << "): sent " << got.bytes.size() << " bytes, expected " << bytes;
    raise_error("p2p.mismatch", os.str());
  }
  std::copy(got.bytes.begin(), got.bytes.end(),
            static_cast<unsigned char*>(data));
}

bool Communicator::agree(std::uint64_t value) const {
  if (size() <= 1) return true;
  // Trusted naive transport: publication slots + barriers only — no chunk
  // channels, so neither p2p.corrupt nor the algorithmic engine can touch
  // the verification word the ABFT sentinels exchange here.
  publish_and_sync(&value, sizeof(value), /*tag=*/500);
  bool same = true;
  for (int r = 0; r < size(); ++r) {
    std::uint64_t peer = 0;
    std::memcpy(&peer, peer_ptr(r), sizeof(peer));
    same = same && peer == value;
  }
  sync_quiesce();  // all ranks done reading the stack slot
  return same;
}

std::uint64_t Communicator::next_collective_seq() const {
  return ++state_->coll_seq[std::size_t(rank_)];
}

void Communicator::throttle_inter(int peer, std::size_t bytes) const {
  if (state_ == nullptr) return;
  emulate_link_delay(inter_delay_seconds(*state_, rank_, peer, bytes));
}

const perf::TopoInfo& Communicator::topo_info() const {
  static const perf::TopoInfo flat{};
  return state_ != nullptr ? state_->topo : flat;
}

const std::vector<int>& Communicator::node_ids() const {
  static const std::vector<int> empty;
  return state_ != nullptr ? state_->node_of : empty;
}

const detail::HierGroup& Communicator::hier_group() const {
  CHASE_CHECK_MSG(state_ != nullptr && state_->topo.grouped(),
                  "hier_group: communicator is not topology-grouped");
  auto& slot = state_->hier_groups[std::size_t(rank_)];
  if (slot != nullptr) return *slot;
  const auto& nodes = state_->node_of;
  auto group = std::make_shared<detail::HierGroup>();
  // A grouped assignment is contiguous, so my node is one run of equal ids:
  // its index is the number of run boundaries before me, its extent the run
  // around my rank. The last member acts as the node's leader.
  int node_idx = 0;
  for (int r = 1; r <= rank_; ++r) {
    if (nodes[std::size_t(r)] != nodes[std::size_t(r - 1)]) ++node_idx;
  }
  int first = rank_;
  while (first > 0 &&
         nodes[std::size_t(first - 1)] == nodes[std::size_t(rank_)]) {
    --first;
  }
  int last = rank_;
  while (last + 1 < size() &&
         nodes[std::size_t(last + 1)] == nodes[std::size_t(rank_)]) {
    ++last;
  }
  group->node = node_idx;
  group->node_first = first;
  group->node_size = last - first + 1;
  group->is_leader = rank_ == last;
  // Collective: node_of is rank-identical, so every rank reaches these two
  // split() calls with matching colors and they pair up across the team.
  group->intra = split(/*color=*/nodes[std::size_t(rank_)], /*key=*/rank_);
  group->leaders = split(/*color=*/group->is_leader ? 0 : 1, /*key=*/rank_);
  slot = std::move(group);
  return *slot;
}

void Communicator::validate_gather_layout(
    const std::vector<Index>& counts, const std::vector<Index>& displs) const {
  std::vector<std::pair<Index, int>> spans;  // (displ, rank), counts > 0
  for (int r = 0; r < size(); ++r) {
    const Index c = counts[std::size_t(r)];
    CHASE_CHECK_MSG(c >= 0, "all_gather_v: negative count");
    if (c == 0) continue;  // zero-count ranks own no receive range
    CHASE_CHECK_MSG(displs[std::size_t(r)] >= 0,
                    "all_gather_v: negative displacement");
    spans.emplace_back(displs[std::size_t(r)], r);
  }
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    const int a = spans[i - 1].second;
    const int b = spans[i].second;
    if (spans[i - 1].first + counts[std::size_t(a)] > spans[i].first) {
      std::ostringstream os;
      os << "receive ranges overlap: rank " << a << " [" << spans[i - 1].first
         << ", " << spans[i - 1].first + counts[std::size_t(a)] << ") vs rank "
         << b << " [" << spans[i].first << ", "
         << spans[i].first + counts[std::size_t(b)] << ")";
      raise_error("allgatherv.overlap", os.str());
    }
  }
}

void Communicator::account_begin() const {
  if (auto* t = perf::thread_tracker()) t->begin_collective();
}

Communicator Communicator::split(int color, int key) const {
  fault::check("rank.die");
  if (size() == 1) {
    auto errors = state_ != nullptr ? state_->errors : nullptr;
    return Communicator(
        std::make_shared<detail::CommState>(1, std::move(errors)), 0,
        backend_);
  }
  auto& st = *state_;
  st.split_requests[std::size_t(rank_)] = {color, key};
  st.barrier_wait(rank_);

  // split_requests is stable only between the two barriers (a fast rank may
  // overwrite its slot for a subsequent split immediately after the second
  // one), so both the group construction and the membership scan happen here.
  if (rank_ == 0) {
    ++st.split_generation;
    // Children of earlier split() calls have all been adopted (every rank
    // finished that call before arriving here), so only the new generation
    // must stay alive in the cache.
    st.split_children.clear();
    std::map<int, std::vector<std::pair<int, int>>> groups;  // color -> (key, rank)
    for (int r = 0; r < size(); ++r) {
      const auto& [c, k] = st.split_requests[std::size_t(r)];
      groups[c].emplace_back(k, r);
    }
    for (auto& [c, mem] : groups) {
      std::sort(mem.begin(), mem.end());
      auto child =
          std::make_shared<detail::CommState>(int(mem.size()), st.errors);
      // Children inherit the topology: each member keeps its parent node id
      // (in child rank order), so a split communicator spanning two nodes
      // still sees — and pays for — its cross-node links.
      if (!st.node_of.empty()) {
        std::vector<int> nodes(mem.size());
        for (std::size_t i = 0; i < mem.size(); ++i) {
          nodes[i] = st.node_of[std::size_t(mem[i].second)];
        }
        child->set_nodes(std::move(nodes), st.inter_bw, st.inter_latency);
      }
      st.split_children[{st.split_generation, c}] = std::move(child);
    }
  }
  // My rank in the child: position of (key, old rank) among my color group.
  std::vector<std::pair<int, int>> members;
  for (int r = 0; r < size(); ++r) {
    const auto& [c, k] = st.split_requests[std::size_t(r)];
    if (c == color) members.emplace_back(k, r);
  }
  std::sort(members.begin(), members.end());
  int my_child_rank = 0;
  for (int i = 0; i < int(members.size()); ++i) {
    if (members[std::size_t(i)].second == rank_) {
      my_child_rank = i;
      break;
    }
  }
  st.barrier_wait(rank_);

  // Safe to read after the second barrier: rank 0 can only bump the
  // generation again from inside a *later* split() call, whose first barrier
  // needs this rank too.
  auto child = st.split_children.at({st.split_generation, color});
  return Communicator(std::move(child), my_child_rank, backend_);
}

Team::Team(int nranks, Backend backend) : nranks_(nranks), backend_(backend) {
  CHASE_CHECK_MSG(nranks >= 1, "Team needs at least one rank");
}

void Team::run(const std::function<void(Communicator&)>& fn,
               std::vector<perf::Tracker>* trackers) {
  CHASE_CHECK(trackers == nullptr || int(trackers->size()) == nranks_);
  auto errors = std::make_shared<ErrorState>();
  auto state = std::make_shared<detail::CommState>(nranks_, errors);
  {
    // Seed the world communicator from the process topology (CHASE_TOPO or
    // a ScopedTopology override); specs for other team sizes leave it flat.
    const Topology topo = current_topology();
    auto nodes = node_assignment(topo, nranks_);
    if (!nodes.empty()) {
      state->set_nodes(std::move(nodes), topo.inter_bw, topo.inter_latency);
    }
  }
  std::vector<std::thread> threads;
  threads.reserve(std::size_t(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      const la::ScopedCoreShare share(std::max(1, la::cpu_count() / nranks_));
      fault::set_thread_rank(r);
      perf::Tracker* tracker =
          trackers != nullptr ? &(*trackers)[std::size_t(r)] : nullptr;
      if (tracker != nullptr) perf::set_thread_tracker(tracker);
      try {
        Communicator comm(state, r, backend_);
        fn(comm);
      } catch (const TeamAborted&) {
        // Sibling notification: the originating rank's error is already in
        // the slot; recording ours would only race for first place.
      } catch (const fault::Injected& e) {
        errors->record(RankError{r, e.site(), e.what()});
      } catch (const Error& e) {
        errors->record(RankError{r, "rank.error", e.what()});
      } catch (const std::exception& e) {
        errors->record(RankError{r, "rank.exception", e.what()});
      } catch (...) {
        errors->record(RankError{r, "rank.exception", "unknown exception"});
      }
      fault::set_thread_rank(0);
      if (tracker != nullptr) {
        tracker->flush();
        perf::set_thread_tracker(nullptr);
      }
    });
  }
  for (auto& t : threads) t.join();
  // All threads are joined, so state is quiescent; rethrow the originating
  // rank's failure with full context. The Team (and the process) stays
  // usable: the next run() starts from fresh CommState + ErrorState.
  if (errors->poisoned()) throw TeamAborted(errors->error());
}

Grid2d::Grid2d(const Communicator& world, int nprow, int npcol)
    : world_(world), nprow_(nprow), npcol_(npcol) {
  CHASE_CHECK_MSG(nprow * npcol == world.size(),
                  "grid shape does not match communicator size");
  my_row_ = world.rank() / npcol;
  my_col_ = world.rank() % npcol;
  // Column communicator: ranks sharing my grid column, ordered by row.
  col_ = world.split(/*color=*/my_col_, /*key=*/my_row_);
  // Row communicator: ranks sharing my grid row, ordered by column.
  row_ = world.split(/*color=*/my_row_, /*key=*/my_col_);
}

std::pair<int, int> Grid2d::nearly_square(int p) {
  CHASE_CHECK(p >= 1);
  int best = 1;
  for (int d = 1; d * d <= p; ++d) {
    if (p % d == 0) best = d;
  }
  return {best, p / best};
}

}  // namespace chase::comm
