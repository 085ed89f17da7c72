// The shared warmup+repeat harness and the tuner's default probe sizes.
#include <gtest/gtest.h>

#include <vector>

#include "tune/measure.hpp"
#include "tune/tuner.hpp"

namespace chase::tune {
namespace {

TEST(Measure, RunsWarmupPlusItersAndCountsThem) {
  int calls = 0;
  const Measurement m = measure(2, 3, [&] { ++calls; });
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(m.iters, 3);
  EXPECT_GE(m.mean, m.best);
  EXPECT_NEAR(m.total, m.mean * 3, 1e-12);
}

TEST(Measure, ClampsDegenerateCounts) {
  int calls = 0;
  const Measurement m = measure(-3, 0, [&] { ++calls; });
  EXPECT_EQ(calls, 1);  // no warmup, one timed run
  EXPECT_EQ(m.iters, 1);
  EXPECT_GE(m.best, 0.0);
}

TEST(Measure, BestIsMinimumOverRepeats) {
  // A workload whose first timed run is much slower than the rest: best
  // must track the fast runs, mean must sit in between.
  int run = 0;
  const Measurement m = measure(0, 4, [&] {
    volatile double sink = 0;
    const int work = run++ == 0 ? 2'000'000 : 2'000;
    for (int i = 0; i < work; ++i) sink = sink + i;
  });
  EXPECT_LT(m.best, m.mean);
}

TEST(Measure, RateIsWorkOverBest) {
  const double rate = measured_rate(1e6, 0, 3, [] {
    volatile double sink = 0;
    for (int i = 0; i < 10'000; ++i) sink = sink + i;
  });
  EXPECT_GT(rate, 0.0);
}

TEST(TuneEnvTest, DefaultsWhenUnset) {
  // What `chase_tune` runs with when no --reps/--warmup/--quick flag is
  // given.
  const TuneOptions o;
  EXPECT_EQ(o.repeats, 3);
  EXPECT_EQ(o.warmup, 1);
  EXPECT_FALSE(o.quick);
}

TEST(TuneEnvTest, WithDefaultsFillsOneSizePerClass) {
  // One size per kernel rate (the rates come from the largest probed size).
  TuneOptions o;
  const TuneOptions full = o.with_defaults();
  EXPECT_EQ(full.gemm_sizes.size(), 1u);
  EXPECT_EQ(full.factor_sizes.size(), 1u);
  o.quick = true;
  const TuneOptions quick = o.with_defaults();
  EXPECT_EQ(quick.gemm_sizes.size(), 1u);
  EXPECT_LT(quick.gemm_sizes.back(), full.gemm_sizes.back());
  // Explicit lists are preserved untouched.
  o.gemm_sizes = {48, 96};
  EXPECT_EQ(o.with_defaults().gemm_sizes, (std::vector<long long>{48, 96}));
}

}  // namespace
}  // namespace chase::tune
