// MachineModel::calibrate_gemm — the measured-rate hook that replaces the
// model's effective GEMM rate with what the la kernel engine actually
// sustained (the "la.gemm.flops" / "la.gemm.seconds" counters recorded by
// src/la/gemm.hpp on every tracked call).
#include <gtest/gtest.h>

#include <complex>

#include "la/gemm.hpp"
#include "la/hemm.hpp"
#include "la/potrf.hpp"
#include "la/trsm.hpp"
#include "perf/machine.hpp"
#include "perf/tracker.hpp"
#include "tests/testing.hpp"

namespace chase::perf {
namespace {

using chase::testing::random_hermitian;
using chase::testing::random_matrix;
using la::Index;

TEST(MachineCalibration, GemmRateComesFromTrackedCounters) {
  using T = double;
  Tracker t;
  set_thread_tracker(&t);
  const Index n = 256;
  auto a = random_matrix<T>(n, n, 1);
  auto b = random_matrix<T>(n, n, 2);
  la::Matrix<T> c(n, n);
  // Enough repetitions to clear the calibration's minimum-sample guard.
  double expect_flops = 0;
  while (t.counter("la.gemm.seconds") < 2e-3) {
    la::gemm(T(1), a.cview(), b.cview(), T(0), c.view());
    expect_flops += 2.0 * double(n) * double(n) * double(n);
  }
  set_thread_tracker(nullptr);

  EXPECT_DOUBLE_EQ(t.counter("la.gemm.flops"), expect_flops);
  EXPECT_GT(t.counter("la.kernel.micro.calls"), 0);

  MachineModel m;
  const double factory_rate = m.gemm_flops;
  m.calibrate_gemm(t, /*min_seconds=*/1e-3);
  EXPECT_NE(m.gemm_flops, factory_rate);
  EXPECT_DOUBLE_EQ(
      m.gemm_flops,
      t.counter("la.gemm.flops") / t.counter("la.gemm.seconds"));
  // Sanity: a real measured rate on any host is positive and far below the
  // A100 factory constant's 17 Tflop/s.
  EXPECT_GT(m.gemm_flops, 0);
}

TEST(MachineCalibration, TinySamplesAreIgnored) {
  using T = double;
  Tracker t;
  set_thread_tracker(&t);
  auto a = random_matrix<T>(8, 8, 3);
  auto b = random_matrix<T>(8, 8, 4);
  la::Matrix<T> c(8, 8);
  la::gemm(T(1), a.cview(), b.cview(), T(0), c.view());
  set_thread_tracker(nullptr);

  MachineModel m;
  const double factory_rate = m.gemm_flops;
  m.calibrate_gemm(t, /*min_seconds=*/10.0);
  EXPECT_DOUBLE_EQ(m.gemm_flops, factory_rate);
}

TEST(MachineCalibration, HemmCallsFeedTheSameCounters) {
  using T = std::complex<double>;
  Tracker t;
  set_thread_tracker(&t);
  const Index n = 192;
  auto h = random_hermitian<T>(n, 5);
  auto b = random_matrix<T>(n, 32, 6);
  la::Matrix<T> c(n, 32);
  la::hemm(T(1), h.cview(), b.cview(), T(0), c.view());
  set_thread_tracker(nullptr);

  EXPECT_DOUBLE_EQ(t.counter("la.gemm.flops"),
                   8.0 * double(n) * double(n) * 32.0);
  EXPECT_GT(t.counter("la.gemm.seconds"), 0);
  EXPECT_DOUBLE_EQ(t.counter("la.kernel.hemm.calls"), 1.0);
}

TEST(MachineCalibration, FactorRatePoolsAllFiveFamilies) {
  using T = double;
  Tracker t;
  set_thread_tracker(&t);
  const Index n = 160;
  // One POTRF + one TRSM + one HERK; calibrate_factor should pool the
  // la.{trsm,trmm,potrf,herk,hetrd} counter families into a single rate.
  auto x = random_matrix<T>(n + 8, n, 7);
  la::Matrix<T> g(n, n);
  double expect_flops = 0;
  while (t.counter("la.potrf.seconds") + t.counter("la.trsm.seconds") +
             t.counter("la.herk.seconds") <
         2e-3) {
    la::herk_upper(T(1), x.cview(), T(0), g.view());
    for (Index j = 0; j < n; ++j) g(j, j) += T(n);
    ASSERT_EQ(la::potrf_upper(g.view()), 0);
    auto rhs = random_matrix<T>(64, n, 8);
    la::trsm_right_upper(g.cview(), rhs.view());
    expect_flops += double(n + 8) * double(n) * double(n)    // herk
                    + double(n) * double(n) * double(n) / 3  // potrf
                    + 64.0 * double(n) * double(n);          // trsm
  }
  set_thread_tracker(nullptr);

  const double tracked = t.counter("la.herk.flops") +
                         t.counter("la.potrf.flops") +
                         t.counter("la.trsm.flops");
  EXPECT_DOUBLE_EQ(tracked, expect_flops);
  EXPECT_GT(t.counter("la.factor.blocked.calls"), 0);

  MachineModel m;
  const double factory_rate = m.factor_flops;
  m.calibrate_factor(t, /*min_seconds=*/1e-3);
  EXPECT_NE(m.factor_flops, factory_rate);
  const double seconds = t.counter("la.herk.seconds") +
                         t.counter("la.potrf.seconds") +
                         t.counter("la.trsm.seconds");
  EXPECT_DOUBLE_EQ(m.factor_flops, tracked / seconds);
  EXPECT_GT(m.factor_flops, 0);
}

TEST(MachineCalibration, FactorTinySamplesAreIgnored) {
  using T = double;
  Tracker t;
  set_thread_tracker(&t);
  auto r = random_matrix<T>(8, 8, 9);
  for (Index j = 0; j < 8; ++j) r(j, j) += T(8);
  auto rhs = random_matrix<T>(8, 8, 10);
  la::trsm_right_upper(r.cview(), rhs.view());
  set_thread_tracker(nullptr);

  MachineModel m;
  const double factory_rate = m.factor_flops;
  m.calibrate_factor(t, /*min_seconds=*/10.0);
  EXPECT_DOUBLE_EQ(m.factor_flops, factory_rate);
}

}  // namespace
}  // namespace chase::perf
