// Per-rank performance accounting.
//
// The paper's Figure 2 decomposes each ChASE kernel (Filter, QR,
// Rayleigh-Ritz, Residuals) into computation, communication and host-device
// data movement, for three library variants (LMS / STD / NCCL). The Tracker
// collects exactly that decomposition from a running rank:
//
//  - computation is measured with the thread CPU clock (barrier waits do not
//    consume CPU time, so time-shared ranks still report their own work);
//  - every collective records a CollectiveEvent (kind, payload bytes,
//    communicator size) so the machine model can price it for MPI trees or
//    NCCL rings at any scale;
//  - host<->device staging records MemcpyEvents; the STD backend surrounds
//    every collective with them, the NCCL backend records none, and the
//    legacy LMS driver adds the per-kernel result copies of ChASE v1.2.
//
// A Tracker is installed thread-locally, so library code (src/comm, src/dist,
// src/core) reports to whatever tracker the surrounding driver set up without
// threading a handle through every call.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/timer.hpp"

namespace chase::perf {

/// ChASE kernel the current work is attributed to (Figure 2 categories,
/// plus Lanczos/Other for the parts outside the figure).
enum class Region : int {
  kOther = 0,
  kLanczos,
  kFilter,
  kQr,
  kRayleighRitz,
  kResidual,
  kCount_,
};

inline constexpr int kRegionCount = int(Region::kCount_);

std::string_view region_name(Region r);

enum class CollKind : int { kAllReduce = 0, kBroadcast, kAllGather, kCount_ };

inline constexpr int kCollKindCount = int(CollKind::kCount_);

struct CollectiveEvent {
  Region region;
  CollKind kind;
  std::size_t bytes;  // total payload moved: per-rank buffer for
                      // reduce/broadcast, the full gathered buffer for
                      // allgather
  int nranks;         // communicator size
};

struct MemcpyEvent {
  Region region;
  std::size_t bytes;
  bool to_device;
};

/// Kernel class a flop count is attributed to; the machine model prices each
/// class at a different effective rate (large GEMMs run near peak, panel
/// factorizations at a fraction, tiny redundant kernels far below; kFactor is
/// level-3 factorization work — HERK/TRSM/POTRF/HETRD — priced at the
/// measured rate of the blocked factorization engine).
enum class FlopClass : int {
  kGemm = 0,
  kGemmSingle,  // fp32/complex<float> HEMM/GEMM (mixed-precision filter)
  kPanel,
  kSmall,
  kFactor,
  kCount_
};

inline constexpr int kFlopClassCount = int(FlopClass::kCount_);

/// Accumulated cost decomposition for one region.
struct RegionCosts {
  double compute_seconds = 0;  // thread CPU time outside collectives
  double comm_cpu_seconds = 0; // thread CPU time inside collectives
  std::size_t coll_count = 0;
  std::size_t coll_bytes = 0;
  std::size_t memcpy_count = 0;
  std::size_t memcpy_bytes = 0;
  std::array<double, std::size_t(kFlopClassCount)> flops{};  // by FlopClass
  double mem_bytes = 0;  // bytes touched by memory-bound (BLAS-1) kernels
};

class Tracker {
 public:
  Tracker();

  // Copyable so trackers still live in std::vector (bench_common.hpp); the
  // copy takes the counter data, never the lock.
  Tracker(const Tracker& other);
  Tracker& operator=(const Tracker& other);

  /// Attribute subsequent work to `r`; returns the previous region.
  Region set_region(Region r);
  Region region() const { return region_; }

  void add_flops(FlopClass cls, double flops);
  void add_mem_bytes(double bytes);

  /// Bracket the body of a collective so its CPU time lands in the
  /// communication bucket instead of the compute bucket.
  void begin_collective();
  void end_collective(CollKind kind, std::size_t bytes, int nranks);

  /// Record a CollectiveEvent without the begin/end CPU-time bracketing —
  /// for the later phases of a two-level (hierarchical) collective, whose
  /// first phase already closed the bracket (begin_collective forbids
  /// nesting by design), so their time is charged with that first phase.
  void record_collective(CollKind kind, std::size_t bytes, int nranks);

  void record_memcpy(std::size_t bytes, bool to_device);

  /// Named event counters for rare, qualitative events the fixed cost
  /// decomposition cannot express — recovery-ladder escalations
  /// ("qr.potrf_breakdown", "qr.hhqr_fallback", "qr.variant.<name>"),
  /// numerical-breakdown recoveries ("filter.nan_recovery",
  /// "lanczos.restart"), and whatever future subsystems need observable.
  ///
  /// Counter mutation is mutex-guarded: the solver service (src/svc) bumps
  /// one shared metrics tracker from concurrent worker threads. The region
  /// cost decomposition stays single-thread (a Tracker is installed
  /// thread-locally for that use).
  void bump(std::string_view name, double amount = 1.0);
  /// Value of a named counter; 0 if never bumped.
  double counter(std::string_view name) const;
  /// Snapshot of all named counters (by value: the map may be concurrently
  /// mutated by other threads' bumps).
  std::map<std::string, double, std::less<>> counters() const;

  /// Flush the running CPU timer into the current region.
  void flush();

  const RegionCosts& costs(Region r) const {
    return costs_[std::size_t(int(r))];
  }
  const std::vector<CollectiveEvent>& collectives() const { return colls_; }
  const std::vector<MemcpyEvent>& memcpys() const { return copies_; }

  /// Merge another tracker's accumulators into this one (used to combine
  /// per-rank trackers after a Team run; times take the max across ranks,
  /// event streams are taken from rank 0 which is representative by SPMD).
  void merge_max_times(const Tracker& other);

 private:
  void attribute_elapsed(double* bucket);

  Region region_ = Region::kOther;
  std::array<RegionCosts, std::size_t(kRegionCount)> costs_{};
  std::vector<CollectiveEvent> colls_;
  std::vector<MemcpyEvent> copies_;
  std::map<std::string, double, std::less<>> counters_;
  mutable std::mutex counters_mu_;  // guards counters_ only
  double last_cpu_ = 0;
  bool in_collective_ = false;
};

/// Install / fetch the calling thread's tracker. Library code must tolerate
/// a null tracker (no accounting requested).
void set_thread_tracker(Tracker* t);
Tracker* thread_tracker();

/// Bump a named counter on the calling thread's tracker; no-op without one.
void bump_counter(std::string_view name, double amount = 1.0);

/// RAII region scope: sets the region on construction, restores on exit.
class RegionScope {
 public:
  explicit RegionScope(Region r) {
    if (Tracker* t = thread_tracker()) {
      tracker_ = t;
      prev_ = t->set_region(r);
    }
  }
  ~RegionScope() {
    if (tracker_ != nullptr) tracker_->set_region(prev_);
  }
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;

 private:
  Tracker* tracker_ = nullptr;
  Region prev_ = Region::kOther;
};

}  // namespace chase::perf
