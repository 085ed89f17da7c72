// Shared micro-benchmark timing harness.
//
// bench/micro_collectives' engine sweep and perfbench's GEMM peak probe run
// the same warmup-then-repeat discipline through measure(), so the rates
// they report are directly comparable.
//
// best-of semantics: micro kernels are quiet-machine measurements, so the
// minimum over repeats is the estimator (mean and total are kept for
// diagnostics).
#pragma once

#include <limits>

#include "common/timer.hpp"

namespace chase::tune {

/// One measured section: `iters` timed runs after `warmup` untimed ones.
struct Measurement {
  double best = 0;   // fastest single run (seconds) — the estimator
  double mean = 0;   // arithmetic mean over the timed runs
  double total = 0;  // wall-clock of all timed runs
  int iters = 0;     // number of timed runs
};

/// Run `fn()` `warmup` times untimed, then `iters` times timed.
/// Negative counts clamp to 0 / 1 so a Measurement always has one run.
template <typename Fn>
Measurement measure(int warmup, int iters, Fn&& fn) {
  if (warmup < 0) warmup = 0;
  if (iters < 1) iters = 1;
  for (int i = 0; i < warmup; ++i) fn();
  Measurement m;
  m.iters = iters;
  m.best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < iters; ++i) {
    WallTimer timer;
    fn();
    const double s = timer.seconds();
    if (s < m.best) m.best = s;
    m.total += s;
  }
  m.mean = m.total / iters;
  return m;
}

/// Rate helper: `work` units (flops, bytes) over the best repeat of `fn`.
/// Returns 0 when the best time is not positive (degenerate clocks).
template <typename Fn>
double measured_rate(double work, int warmup, int iters, Fn&& fn) {
  const Measurement m = measure(warmup, iters, static_cast<Fn&&>(fn));
  return m.best > 0 ? work / m.best : 0.0;
}

}  // namespace chase::tune
