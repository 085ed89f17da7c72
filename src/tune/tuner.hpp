// The micro-benchmark driver behind `chase_tune` (DESIGN.md §15).
//
// run_tuning() probes every implementation choice the runtime can dispatch
// on — collective algorithms per message-size class and the pipelining
// chunk size — plus the one-core rates of the GEMM (fp64 and fp32) and
// factorization engines that calibrate the machine model, through the
// shared tune::measure warmup+repeat harness, records every probe in the
// profile's raw measurement log, and derives the tables from that log.
//
// derive_selections() is a *pure function* of the measurement log
// (argmin seconds per class, first-measured wins ties, and the tuner emits
// probes in enum order; each rate is the best measured at the largest
// probed size). That is what makes
// CHASE_TUNE_REPLAY deterministic: replaying a persisted profile re-derives
// bit-identical tables from the recorded numbers without re-benchmarking.
#pragma once

#include <cstddef>
#include <vector>

#include "tune/profile.hpp"

namespace chase::tune {

struct TuneOptions {
  int warmup = 1;      // untimed runs per probe (chase_tune --warmup)
  int repeats = 3;     // timed runs per probe, best-of (--reps)
  int coll_ranks = 4;  // in-process team size for collective probes (--ranks)
  bool quick = false;  // --quick: smaller representative sizes
  bool skip_collectives = false;  // kernel-only tuning (unit tests)

  // Representative problem sizes: the kernel sizes whose largest carries
  // the rates, one message size per class; filled by with_defaults() from
  // `quick` when left empty.
  std::vector<long long> gemm_sizes;
  std::vector<long long> factor_sizes;
  std::vector<std::size_t> coll_bytes;
  std::vector<std::size_t> chunk_candidates;

  /// Copy with the empty size lists replaced by the built-in (quick or
  /// full) representative sizes.
  TuneOptions with_defaults() const;
};

/// Probe the machine and return a complete profile: local fingerprint, raw
/// measurement log, and the tables derived from it.
MachineProfile run_tuning(const TuneOptions& opts);

/// Deterministically derive the tables from a raw measurement log (see the
/// header comment). Unmeasured classes stay -1/unset. A kernel probe counts
/// towards its rate whatever kernel its last name token names, so a v1 log,
/// which also probed the retired naive kernels, re-derives its stored rates.
perf::TunedTables derive_selections(
    const std::vector<RawMeasurement>& measurements);

/// Whether two tables make the same selections (collective algorithm per
/// class and chunk size) — the replay invariant `chase_tune --check` and
/// bench/micro_tune verify.
bool same_selections(const perf::TunedTables& a, const perf::TunedTables& b);

}  // namespace chase::tune
