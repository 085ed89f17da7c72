// Microbenchmark of the blocked factorization engine (src/la/factor/):
// the naive seed scalar oracles (la::factor::naive_*, called directly)
// against the engine's entry points (panel + GEMM lowering) for the four
// factorization families — TRSM, POTRF, HERK, HETRD — over the sizes where
// the solver actually runs them.
//
// Writes results/bench_factor.json (first argument overrides the path);
// scripts/compare_bench.py enforces the engine's requirement: blocked must
// reach >= 2x naive on TRSM/POTRF/HERK at n=1024 for double and
// complex<double>, and must not lose to naive on HETRD at n >= 512.
#include <algorithm>
#include <chrono>
#include <complex>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/rng.hpp"
#include "la/gemm.hpp"
#include "la/heevd.hpp"
#include "la/potrf.hpp"
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

template <typename T>
la::Matrix<T> random_herm(Index n, std::uint64_t seed) {
  auto g = random_mat<T>(n, n, seed);
  la::Matrix<T> h(n, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) {
      h(i, j) = (g(i, j) + conjugate(g(j, i))) / RealType<T>(2);
    }
  }
  return h;
}

/// Well-conditioned positive definite matrix (Gram + diagonal boost), built
/// with the micro GEMM so setup stays cheap at n=1024.
template <typename T>
la::Matrix<T> random_posdef(Index n, std::uint64_t seed) {
  auto x = random_mat<T>(n + 16, n, seed);
  la::Matrix<T> g(n, n);
  la::gemm(T(1), la::Op::kConjTrans, x.cview(), la::Op::kNoTrans, x.cview(),
           T(0), g.view());
  for (Index j = 0; j < n; ++j) g(j, j) += T(RealType<T>(n));
  return g;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` seconds of one thunk (host noise is one-sided).
template <typename F>
double best_seconds(int reps, F&& run) {
  double best = 1e99;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    run();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

struct FactorRow {
  const char* op;
  const char* kernel;
  const char* type;
  Index n;
  double seconds;
  double gflops;
};

/// Repetitions per kernel: the naive paths run seconds-per-call at n=1024,
/// so one repetition is plenty at that duration, while the blocked kernels
/// take best-of-5.
int reps_for(bool naive, Index n) {
  if (naive) return n >= 1024 ? 1 : 2;
  return 5;
}

template <typename T>
void sweep_factor(const char* type_name, const std::vector<Index>& ns,
                  const std::vector<Index>& hetrd_ns,
                  std::vector<FactorRow>& out) {
  const double z = kIsComplex<T> ? 4.0 : 1.0;
  // Times `run(naive)` for the oracle, then for the engine, and records one
  // row each.
  auto time_pair = [&](const char* op, Index n, double flops, auto&& run) {
    for (const bool naive : {true, false}) {
      const double secs = best_seconds(reps_for(naive, n),
                                       [&] { run(naive); });
      const char* kernel = naive ? "naive" : "blocked";
      out.push_back({op, kernel, type_name, n, secs, flops / secs / 1e9});
      std::printf("  %-6s %-7s %-15s n=%-5lld %10.4fs %9.2f Gflop/s\n", op,
                  kernel, type_name, (long long)n, secs, flops / secs / 1e9);
    }
  };

  for (Index n : ns) {
    const double flops = z * double(n) * double(n) * double(n);
    // TRSM: solve X R^{-1} with an n x n rhs block (the CholeskyQR shape).
    {
      auto r = random_posdef<T>(n, 1);
      la::potrf_upper(r.view());
      auto x = random_mat<T>(n, n, 2);
      time_pair("trsm", n, flops, [&](bool naive) {
        auto work = la::clone(x.cview());
        if (naive) {
          la::factor::naive_trsm_right_upper(r.view().as_const(),
                                             work.view());
        } else {
          la::trsm_right_upper(r.view().as_const(), work.view());
        }
      });
    }
    // POTRF.
    {
      auto a = random_posdef<T>(n, 3);
      time_pair("potrf", n, flops / 3.0, [&](bool naive) {
        auto work = la::clone(a.cview());
        const int info =
            naive ? la::factor::naive_potrf_upper(work.view(), RealType<T>(0))
                  : la::potrf_upper(work.view());
        if (info != 0) std::abort();
      });
    }
    // HERK: upper-triangle Gram of an n x n block.
    {
      auto x = random_mat<T>(n, n, 4);
      la::Matrix<T> c(n, n);
      time_pair("herk", n, flops, [&](bool naive) {
        if (naive) {
          la::factor::naive_herk_upper(T(1), x.cview(), T(0), c.view());
        } else {
          la::herk_upper(T(1), x.cview(), T(0), c.view());
        }
      });
    }
  }

  for (Index n : hetrd_ns) {
    auto a = random_herm<T>(n, 5);
    std::vector<RealType<T>> d, e;
    std::vector<T> taus;
    la::Matrix<T> q(n, n);
    const double flops = z * 8.0 / 3.0 * double(n) * double(n) * double(n);
    time_pair("hetrd", n, flops, [&](bool naive) {
      auto work = la::clone(a.cview());
      if (naive) {
        d.assign(std::size_t(n), RealType<T>(0));
        e.assign(std::size_t(n - 1), RealType<T>(0));
        taus.assign(std::size_t(n - 1), T(0));
        la::factor::naive_hetrd_reduce(work.view(), d, e, taus);
        la::factor::naive_hetrd_form_q(work.cview(), taus, q.view());
      } else {
        la::hetrd_lower(work.view(), d, e, q.view());
      }
    });
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode();
  const char* path = argc > 1 ? argv[1] : "results/bench_factor.json";

  const std::vector<Index> ns =
      quick ? std::vector<Index>{64, 128} : std::vector<Index>{256, 512, 1024};
  // Naive HETRD is BLAS-2 bound and runs minutes at n=1024; the solver only
  // ever tridiagonalizes subspace-sized matrices, so the sweep stops at 512.
  const std::vector<Index> hetrd_ns =
      quick ? std::vector<Index>{64} : std::vector<Index>{256, 512};

  std::printf("factorization kernel sweep (writes %s)\n", path);
  std::vector<FactorRow> rows;
  sweep_factor<double>("double", ns, hetrd_ns, rows);
  sweep_factor<std::complex<double>>("complex<double>", ns, hetrd_ns, rows);

  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"factor\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"kernel\": \"%s\", \"type\": \"%s\", "
                 "\"n\": %lld, \"seconds\": %.6f, \"gflops\": %.3f}%s\n",
                 r.op, r.kernel, r.type, (long long)r.n, r.seconds, r.gflops,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return 0;
}
