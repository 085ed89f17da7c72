// The micro-benchmark driver behind `chase_tune` (DESIGN.md §15).
//
// run_tuning() measures the one-core rates of the GEMM (fp64 and fp32) and
// factorization engines that calibrate the machine model, through the
// shared tune::measure warmup+repeat harness, records every probe in the
// profile's raw measurement log, and derives the rates from that log.
//
// derive_rates() is a *pure function* of the measurement log (each rate is
// the best measured at the largest probed size). That is what lets
// `chase_tune --check` verify a persisted profile offline: re-deriving the
// rates from the recorded numbers must reproduce the stored ones exactly.
#pragma once

#include <vector>

#include "tune/profile.hpp"

namespace chase::tune {

struct TuneOptions {
  int warmup = 1;      // untimed runs per probe (chase_tune --warmup)
  int repeats = 3;     // timed runs per probe, best-of (--reps)
  bool quick = false;  // --quick: smaller representative sizes

  // Representative kernel sizes, whose largest carries the rates; filled by
  // with_defaults() from `quick` when left empty.
  std::vector<long long> gemm_sizes;
  std::vector<long long> factor_sizes;

  /// Copy with the empty size lists replaced by the built-in (quick or
  /// full) representative sizes.
  TuneOptions with_defaults() const;
};

/// Probe the machine and return a complete profile: local fingerprint, raw
/// measurement log, and the rates derived from it.
MachineProfile run_tuning(const TuneOptions& opts);

/// Deterministically derive the rates from a raw measurement log (see the
/// header comment). Unmeasured rates stay 0. A kernel probe counts towards
/// its rate whatever kernel its last name token names, so a v1 log, which
/// also probed the retired naive kernels, re-derives its stored rates.
ProfileRates derive_rates(const std::vector<RawMeasurement>& measurements);

}  // namespace chase::tune
