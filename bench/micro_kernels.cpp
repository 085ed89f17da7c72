// Microbenchmarks of the dense kernels underlying every experiment: GEMM,
// the filter's packed HEMM, the Gram matrix, POTRF, TRSM, the Hermitian
// eigensolver and the Jacobi SVD. Reported Gflop/s calibrate this host
// against the A100 rates in the machine model.
//
// The filter's operand form gets its own case: BM_Hemm applies a
// Hermitian H held packed once (la::PackedHermitian, as the solver holds
// it) to the same panel shapes as BM_Gemm, so the two rows compare hemm
// against gemm directly. Rates are at the process's core share
// (la/parallel.hpp): pin one CPU, e.g. `taskset -c 2`, for one-core rates.
// All the usual --benchmark_* flags apply.
#include <benchmark/benchmark.h>

#include <complex>
#include <vector>

#include "common/rng.hpp"
#include "la/gemm.hpp"
#include "la/heevd.hpp"
#include "la/hemm.hpp"
#include "la/potrf.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "la/trsm.hpp"

namespace {

using namespace chase;
using la::Index;

template <typename T>
la::Matrix<T> random_mat(Index m, Index n, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix<T> a(m, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < m; ++i) a(i, j) = rng.gaussian<T>();
  }
  return a;
}

/// Rate counter of an n x n by n x k product.
template <typename T>
void set_gflops(benchmark::State& state, Index n, Index k) {
  const double z = kIsComplex<T> ? 8.0 : 2.0;
  state.counters["Gflop/s"] = benchmark::Counter(
      z * double(n) * double(n) * double(k) * double(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}

template <typename T>
void BM_Gemm(benchmark::State& state) {
  const Index n = state.range(0);
  const Index k = state.range(1);
  auto a = random_mat<T>(n, n, 1);
  auto b = random_mat<T>(n, k, 2);
  la::Matrix<T> c(n, k);
  for (auto _ : state) {
    la::gemm(T(1), a.cview(), b.cview(), T(0), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops<T>(state, n, k);
}
BENCHMARK(BM_Gemm<double>)->Args({512, 64})->Args({1024, 128});
BENCHMARK(BM_Gemm<std::complex<double>>)->Args({512, 64})->Args({1024, 128});

template <typename T>
void BM_Hemm(benchmark::State& state) {
  const Index n = state.range(0);
  const Index k = state.range(1);
  auto g = random_mat<T>(n, n, 1);
  la::PackedHermitian<T> a;
  a.fill(n, [&](Index i, Index j) { return g(i, j); });
  auto b = random_mat<T>(n, k, 2);
  la::Matrix<T> c(n, k);
  for (auto _ : state) {
    la::hemm(T(1), a, b.cview(), T(0), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops<T>(state, n, k);
}
BENCHMARK(BM_Hemm<double>)->Args({512, 64})->Args({1024, 128});
BENCHMARK(BM_Hemm<std::complex<double>>)->Args({512, 64})->Args({1024, 128});

template <typename T>
void BM_Gram(benchmark::State& state) {
  const Index m = state.range(0), n = state.range(1);
  auto x = random_mat<T>(m, n, 3);
  la::Matrix<T> g(n, n);
  for (auto _ : state) {
    la::gram(x.cview(), g.view());
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_Gram<std::complex<double>>)->Args({4096, 64})->Args({4096, 256});

template <typename T>
void BM_Potrf(benchmark::State& state) {
  const Index n = state.range(0);
  auto x = random_mat<T>(2 * n, n, 4);
  la::Matrix<T> g(n, n);
  la::gram(x.cview(), g.view());
  for (Index j = 0; j < n; ++j) g(j, j) += T(RealType<T>(n));
  for (auto _ : state) {
    auto work = la::clone(g.cview());
    const int info = la::potrf_upper(work.view());
    benchmark::DoNotOptimize(info);
  }
}
BENCHMARK(BM_Potrf<std::complex<double>>)->Arg(64)->Arg(256);

template <typename T>
void BM_TrsmRightUpper(benchmark::State& state) {
  const Index m = state.range(0), n = state.range(1);
  auto x = random_mat<T>(2 * n, n, 5);
  la::Matrix<T> g(n, n);
  la::gram(x.cview(), g.view());
  for (Index j = 0; j < n; ++j) g(j, j) += T(RealType<T>(n));
  la::potrf_upper(g.view());
  auto b = random_mat<T>(m, n, 6);
  for (auto _ : state) {
    auto work = la::clone(b.cview());
    la::trsm_right_upper(g.view().as_const(), work.view());
    benchmark::DoNotOptimize(work.data());
  }
}
BENCHMARK(BM_TrsmRightUpper<std::complex<double>>)->Args({4096, 128});

template <typename T>
void BM_Heevd(benchmark::State& state) {
  const Index n = state.range(0);
  auto g = random_mat<T>(n, n, 7);
  la::Matrix<T> a(n, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) {
      a(i, j) = (g(i, j) + conjugate(g(j, i))) / RealType<T>(2);
    }
  }
  std::vector<RealType<T>> w;
  la::Matrix<T> z(n, n);
  for (auto _ : state) {
    auto work = la::clone(a.cview());
    la::heevd(work.view(), w, z.view());
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_Heevd<double>)->Arg(128)->Arg(256);
BENCHMARK(BM_Heevd<std::complex<double>>)->Arg(128);

template <typename T>
void BM_JacobiCond(benchmark::State& state) {
  const Index m = state.range(0), n = state.range(1);
  auto x = random_mat<T>(m, n, 8);
  for (auto _ : state) {
    auto k = la::cond2(x.cview());
    benchmark::DoNotOptimize(k);
  }
}
BENCHMARK(BM_JacobiCond<std::complex<double>>)->Args({1024, 32});

}  // namespace

BENCHMARK_MAIN();
