// Row-parallel execution of the dense kernels on one process-wide helper
// pool.
//
// A kernel cuts its output rows into *units* (hemm: MR-aligned row runs that
// sweep every k block; gemm: the mc row chunks of one packed panel; the
// right-side TRSM: row blocks). The calling thread and any helpers that join
// claim units from one atomic counter; each unit computes its rows with the
// exact serial code path, so the result is bitwise the same for any number
// of participants — including one, where the caller runs every unit in order
// and that loop *is* the serial kernel.
//
// How many cores a call may use is the calling thread's *core share*:
//
//   plain thread         the CPU count (sched_getaffinity)
//   comm::Team rank      max(1, cpus / nranks)   (set by Team::run)
//   svc worker           max(1, cpus / workers)  (set by the worker loop)
//   helper thread        1
//
// A call wakes min(share, units) - 1 helpers. The pool (cpus - 1 threads)
// starts at the first call that wants a helper; a caller never waits for a
// helper to become free — units no helper picked up run on the caller.
// Helpers execute only the unit bodies: argument checks, policy reads and
// Tracker records stay on the caller.
#pragma once

#include <algorithm>
#include <type_traits>

#include "la/matrix.hpp"

namespace chase::la {

/// CPUs this process may run on (its affinity mask), at least 1.
int cpu_count();

/// Cores the calling thread may spread one kernel call over (>= 1).
int core_share();

/// RAII: pin the calling thread's core share to max(1, share); the previous
/// share (an outer scope's, or the default) is restored on exit.
class ScopedCoreShare {
 public:
  explicit ScopedCoreShare(int share);
  ~ScopedCoreShare();
  ScopedCoreShare(const ScopedCoreShare&) = delete;
  ScopedCoreShare& operator=(const ScopedCoreShare&) = delete;

 private:
  int prev_;
};

namespace detail {

using UnitFn = void (*)(void* ctx, Index unit);

/// Run fn(ctx, u) for every u in [0, units) on the caller plus up to
/// `helpers` pool threads (none when helpers <= 0); returns once every unit
/// has finished.
void run_units(Index units, int helpers, UnitFn fn, void* ctx);

/// Run body(u) for every unit u in [0, units), spread over the calling
/// thread's core share. Units must be independent and must not throw.
///
/// Serial and shared calls both reach the body through the one trampoline
/// below, so every unit runs the same machine code on any thread: a second
/// inlined copy could contract the complex multiply-adds differently (FMA
/// formation is per copy), which would break bitwise share invariance.
template <typename Body>
void parallel_units(Index units, Body&& body) {
  using B = std::remove_reference_t<Body>;
  run_units(
      units, int(std::min<Index>(core_share(), units)) - 1,
      [](void* ctx, Index u) { (*static_cast<B*>(ctx))(u); },
      const_cast<void*>(static_cast<const void*>(&body)));
}

}  // namespace detail

}  // namespace chase::la
