// Microbenchmarks of the dense kernels underlying every experiment:
// GEMM (the HEMM workhorse), the Gram matrix, POTRF, TRSM, the Hermitian
// eigensolver and the Jacobi SVD. Reported Gflop/s calibrate this host
// against the A100 rates in the machine model.
//
// Default invocation runs the CHASE_GEMM_KERNEL policy sweep — every kernel
// policy x scalar type x size, plus the paired hemm-vs-gemm comparison on a
// Hermitian operand — and writes results/bench_kernels.json (first argument
// overrides the path); scripts/compare_bench.py checks the invariants the
// engine must uphold. The sweep runs at a core share of one
// (la/parallel.hpp), so every rate is a one-core rate and the micro-vs-naive
// and hemm-vs-gemm gates compare single-core kernels; the JSON records the
// share next to the CPU count. Pass --gbench to run the google-benchmark
// microbenches instead (all the usual --benchmark_* flags apply).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <complex>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "la/gemm.hpp"
#include "la/gemm_policy.hpp"
#include "la/heevd.hpp"
#include "la/hemm.hpp"
#include "la/parallel.hpp"
#include "la/potrf.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "la/trsm.hpp"
#include "tune/measure.hpp"

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
  const double z = kIsComplex<T> ? 8.0 : 2.0;
  state.counters["Gflop/s"] = benchmark::Counter(
      z * double(n) * double(n) * double(k) * double(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm<double>)->Args({512, 64})->Args({1024, 128});
BENCHMARK(BM_Gemm<std::complex<double>>)->Args({512, 64})->Args({1024, 128});

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

// ---------------------------------------------------------------------------
// Kernel-policy sweep -> results/bench_kernels.json
// ---------------------------------------------------------------------------

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` Gflop/s of one thunk through the shared tune::measure
/// harness (noise on a shared host is one-sided — interference only ever
/// slows a run down — so the best repeat is the estimator closest to the
/// kernel's true rate, the same convention the autotuner records).
template <typename F>
double best_gflops(double flops, int reps, F&& run) {
  return chase::tune::measured_rate(flops, /*warmup=*/0, reps,
                                    static_cast<F&&>(run)) /
         1e9;
}

struct GemmRow {
  const char* kernel;
  const char* type;
  la::Index n;
  double gflops;
};

struct HemmRow {
  const char* type;
  la::Index n;
  la::Index ncols;
  double gemm_gflops;
  double hemm_gflops;
  double ratio;  // median of the per-repetition hemm/gemm ratios
};

template <typename T>
void sweep_gemm(const char* type_name, std::vector<GemmRow>& out) {
  const double z = kIsComplex<T> ? 8.0 : 2.0;
  for (la::Index n : {la::Index(256), la::Index(512), la::Index(1024)}) {
    auto a = random_mat<T>(n, n, 1);
    auto b = random_mat<T>(n, n, 2);
    la::Matrix<T> c(n, n);
    const double flops = z * double(n) * double(n) * double(n);
    for (la::GemmKernel kern : {la::GemmKernel::kNaive, la::GemmKernel::kMicro}) {
      la::ScopedGemmKernel scoped(kern);
      // The seed path runs minutes-per-call at n=1024; one repetition is
      // plenty at that duration, while the fast kernels take best-of-5.
      const int reps = kern == la::GemmKernel::kNaive ? (n >= 1024 ? 1 : 2) : 5;
      const double g = best_gflops(flops, reps, [&] {
        la::gemm(T(1), a.cview(), b.cview(), T(0), c.view());
        benchmark::DoNotOptimize(c.data());
      });
      out.push_back({la::gemm_kernel_name(kern).data(), type_name, n, g});
      std::printf("  gemm %-7s %-15s n=%-5lld %8.2f Gflop/s\n",
                  la::gemm_kernel_name(kern).data(), type_name,
                  (long long)n, g);
    }
  }
}

template <typename T>
la::Matrix<T> random_herm(la::Index n, std::uint64_t seed) {
  auto g = random_mat<T>(n, n, seed);
  la::Matrix<T> h(n, n);
  for (la::Index j = 0; j < n; ++j) {
    for (la::Index i = 0; i < n; ++i) {
      h(i, j) = (g(i, j) + conjugate(g(j, i))) / RealType<T>(2);
    }
  }
  return h;
}

template <typename T>
void sweep_hemm(const char* type_name, std::vector<HemmRow>& out) {
  const double z = kIsComplex<T> ? 8.0 : 2.0;
  la::ScopedGemmKernel scoped(la::GemmKernel::kMicro);
  for (la::Index n : {la::Index(512), la::Index(1024)}) {
    const la::Index ncols = n;
    auto h = random_herm<T>(n, 10);
    auto b = random_mat<T>(n, ncols, 11);
    la::Matrix<T> c(n, ncols);
    const double flops = z * double(n) * double(n) * double(ncols);
    // Paired protocol: strictly alternate gemm/hemm repetitions so slow
    // phases of a noisy shared host hit both sides equally, then take the
    // median of the per-repetition ratios (robust against any single
    // corrupted repetition) alongside each side's best rate.
    const int reps = 9;
    std::vector<double> ratios;
    double best_g = 0, best_h = 0;
    for (int r = 0; r < reps; ++r) {
      double t0 = now_seconds();
      la::gemm(T(1), h.cview(), b.cview(), T(0), c.view());
      benchmark::DoNotOptimize(c.data());
      const double g = flops / (now_seconds() - t0) / 1e9;
      t0 = now_seconds();
      la::hemm(T(1), h.cview(), b.cview(), T(0), c.view());
      benchmark::DoNotOptimize(c.data());
      const double hh = flops / (now_seconds() - t0) / 1e9;
      best_g = std::max(best_g, g);
      best_h = std::max(best_h, hh);
      ratios.push_back(hh / g);
    }
    std::nth_element(ratios.begin(), ratios.begin() + reps / 2, ratios.end());
    const double med = ratios[reps / 2];
    out.push_back({type_name, n, ncols, best_g, best_h, med});
    std::printf("  hemm/gemm %-15s n=%-5lld gemm %7.2f  hemm %7.2f  "
                "median ratio %.3f\n",
                type_name, (long long)n, best_g, best_h, med);
  }
}

int run_kernel_sweep(const char* path) {
  la::ScopedCoreShare one_core(1);
  std::vector<GemmRow> gemm_rows;
  std::vector<HemmRow> hemm_rows;
  std::printf("kernel policy sweep (writes %s), core share %d of %d cpus\n",
              path, la::core_share(), la::cpu_count());
  sweep_gemm<float>("float", gemm_rows);
  sweep_gemm<double>("double", gemm_rows);
  sweep_gemm<std::complex<float>>("complex<float>", gemm_rows);
  sweep_gemm<std::complex<double>>("complex<double>", gemm_rows);
  sweep_hemm<double>("double", hemm_rows);
  sweep_hemm<std::complex<double>>("complex<double>", hemm_rows);

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"cpus\": %d,\n  \"core_share\": %d,\n",
               la::cpu_count(), la::core_share());
  std::fprintf(f, "  \"gemm\": [\n");
  for (std::size_t i = 0; i < gemm_rows.size(); ++i) {
    const auto& r = gemm_rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"type\": \"%s\", \"n\": %lld, "
                 "\"gflops\": %.3f}%s\n",
                 r.kernel, r.type, (long long)r.n, r.gflops,
                 i + 1 < gemm_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"hemm_vs_gemm\": [\n");
  for (std::size_t i = 0; i < hemm_rows.size(); ++i) {
    const auto& r = hemm_rows[i];
    std::fprintf(f,
                 "    {\"type\": \"%s\", \"n\": %lld, \"ncols\": %lld, "
                 "\"gemm_gflops\": %.3f, \"hemm_gflops\": %.3f, "
                 "\"median_ratio\": %.4f}%s\n",
                 r.type, (long long)r.n, (long long)r.ncols, r.gemm_gflops,
                 r.hemm_gflops, r.ratio,
                 i + 1 < hemm_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool gbench = false;
  const char* json_path = "results/bench_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gbench") == 0) {
      gbench = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  if (!gbench) {
    if (argc > 1) json_path = argv[1];
    return run_kernel_sweep(json_path);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
