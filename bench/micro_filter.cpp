// Chebyshev filter economics: the degree/column ablation the per-vector
// degree optimization trades on, plus the mixed-precision filter gates.
//
// The mixed section records the evidence compare_bench.py enforces
// (results/bench_mixed.json, JSON key "mixed"):
//   * fp32 filtering of a 64-column panel at n=1024 — including the
//     demote/promote boundary copies — must run >= 1.5x faster than the
//     same filter in fp64 (the tensor-core economics of the paper's
//     mixed-precision pipeline, reproduced by the width-doubled fp32
//     micro-kernel tiles);
//   * on a 2x2 grid the filter's allreduce payload must halve (ratio
//     <= 0.55 measured from the tracker's coll_bytes, exactly 0.5 for a
//     pure fp32 apply);
//   * CHASE_PRECISION=double solves must stay bitwise identical across an
//     intervening mixed solve — the policy must not leak state;
//   * the mixed solve's eigenvalues must match the fp64 solve's.
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/dla_mixed.hpp"
#include "core/filter.hpp"
#include "core/precision.hpp"
#include "gen/spectrum.hpp"
#include "la/convert.hpp"

namespace {

using namespace chase;
using la::Index;

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double best_of(int reps, const std::function<void()>& fn) {
  double best = 1e99;
  for (int r = 0; r < reps; ++r) best = std::min(best, wall_seconds(fn));
  return best;
}

/// Sequential (1x1 grid) operator + panel for filter timing.
template <typename T>
struct SeqFilter {
  comm::Communicator self;
  comm::Grid2d grid{self, 1, 1};
  dist::DistHermitianMatrix<T> h;
  la::Matrix<T> c, b, c0;
  std::vector<int> degs;

  SeqFilter(Index n, Index ncols, int degree, int seed)
      : h(grid, dist::IndexMap::block(n, 1), dist::IndexMap::block(n, 1)),
        c(n, ncols),
        b(n, ncols),
        c0(n, ncols),
        degs(std::size_t(ncols), degree) {
    auto h_full = gen::uniform_matrix<T>(n, -1.0, 1.0, seed);
    h.fill_from_global(h_full.cview());
    Rng rng(seed + 1);
    for (Index j = 0; j < ncols; ++j) {
      for (Index i = 0; i < n; ++i) c0(i, j) = rng.gaussian<T>();
    }
  }

  void reset_panel() { la::copy(c0.cview(), c.view()); }
};

struct MixedResult {
  Index n = 0, cols = 0;
  int degree = 0;
  double fp64_seconds = 0, fp32_seconds = 0, speedup = 0;
  Index grid_n = 0;
  double coll_bytes_fp64 = 0, coll_bytes_fp32 = 0, coll_ratio = 0;
  Index solve_n = 0;
  double tol = 0, max_eig_diff = 0;
  bool double_identical = false;
  double fp32_cols = 0, fp64_cols = 0;  // promotion counters, mixed solve
};

/// Gate 1: wall-clock of the low-precision filter (demote + fp32 filter +
/// promote, the exact boundary the mixed backend pays) vs the fp64 filter.
void bench_filter_speedup(MixedResult& out, Index n, Index ncols, int degree,
                          int reps) {
  using T = double;
  using L = float;
  SeqFilter<T> f64(n, ncols, degree, 5);

  SeqFilter<T> src(n, ncols, degree, 5);
  dist::DistHermitianMatrix<L> h32(src.grid, dist::IndexMap::block(n, 1),
                                   dist::IndexMap::block(n, 1));
  h32.fill_demoted(src.h);
  la::Matrix<L> c32(n, ncols), b32(n, ncols);

  out.fp64_seconds = best_of(reps, [&] {
    f64.reset_panel();
    core::chebyshev_filter(f64.h, f64.c.view(), f64.b.view(), f64.degs, 0.5,
                           0.45, -0.99);
  });
  out.fp32_seconds = best_of(reps, [&] {
    src.reset_panel();
    la::demote<T>(src.c.cview(), c32.view());
    core::chebyshev_filter(h32, c32.view(), b32.view(), src.degs, 0.5f, 0.45f,
                           -0.99f);
    la::promote<T>(c32.cview(), src.c.view());
  });
  out.n = n;
  out.cols = ncols;
  out.degree = degree;
  out.speedup = out.fp64_seconds / out.fp32_seconds;
}

/// Gate 2: filter-region allreduce payload on a 2x2 grid, fp64 vs fp32
/// apply — the halved collective bytes of the mixed pipeline.
void bench_coll_bytes(MixedResult& out, Index n, Index ncols, int degree) {
  auto run = [&](auto scalar_tag) -> double {
    using S = decltype(scalar_tag);
    auto h_full = gen::uniform_matrix<double>(n, -1.0, 1.0, 9);
    la::Matrix<S> h_s(n, n);
    for (Index j = 0; j < n; ++j) {
      for (Index i = 0; i < n; ++i) h_s(i, j) = S(h_full(i, j));
    }
    std::vector<perf::Tracker> trackers(4);
    comm::Team team(4);
    team.run(
        [&](comm::Communicator& world) {
          comm::Grid2d grid(world, 2, 2);
          auto map = dist::IndexMap::block(n, 2);
          dist::DistHermitianMatrix<S> hd(grid, map, map);
          hd.fill_from_global(h_s.cview());
          const Index mloc = map.local_size(grid.my_row());
          const Index bloc = map.local_size(grid.my_col());
          la::Matrix<S> c(mloc, ncols), b(bloc, ncols);
          Rng rng(11);
          for (Index j = 0; j < ncols; ++j) {
            for (Index i = 0; i < mloc; ++i) c(i, j) = rng.gaussian<S>();
          }
          std::vector<int> degs(std::size_t(ncols), degree);
          core::chebyshev_filter(hd, c.view(), b.view(), degs, S(0.5),
                                 S(0.45), S(-0.99));
        },
        &trackers);
    double bytes = 0;
    for (const auto& t : trackers) {
      bytes += double(t.costs(perf::Region::kFilter).coll_bytes);
    }
    return bytes;
  };
  out.grid_n = n;
  out.coll_bytes_fp64 = run(double{});
  out.coll_bytes_fp32 = run(float{});
  out.coll_ratio = out.coll_bytes_fp32 / out.coll_bytes_fp64;
}

/// Gates 3+4: the mixed solve converges to the fp64 eigenvalues, and
/// CHASE_PRECISION=double results are bitwise identical across an
/// intervening mixed solve.
void bench_solve_equivalence(MixedResult& out, Index n, int reps_unused) {
  (void)reps_unused;
  using T = double;
  auto h_full = gen::hermitian_with_spectrum<T>(
      gen::dft_like_spectrum<double>(n, 7), 7);
  core::ChaseConfig cfg;
  cfg.nev = 12;
  cfg.nex = 8;
  cfg.tol = 1e-10;
  out.solve_n = n;
  out.tol = cfg.tol;

  comm::Communicator self;
  comm::Grid2d grid(self, 1, 1);
  auto map = dist::IndexMap::block(n, 1);
  auto solve_once = [&]() {
    dist::DistHermitianMatrix<T> hd(grid, map, map);
    hd.fill_from_global(h_full.cview());
    return core::solve(hd, cfg);
  };

  core::ChaseResult<T> ref, mixed, again;
  {
    core::ScopedPrecision p(core::Precision::kDouble);
    ref = solve_once();
  }
  {
    core::ScopedPrecision p(core::Precision::kMixed);
    perf::Tracker t;
    perf::set_thread_tracker(&t);
    mixed = solve_once();
    perf::set_thread_tracker(nullptr);
    t.flush();
    out.fp32_cols = t.counter("precision.filter.cols.fp32");
    out.fp64_cols = t.counter("precision.filter.cols.fp64");
  }
  {
    core::ScopedPrecision p(core::Precision::kDouble);
    again = solve_once();
  }

  for (std::size_t j = 0; j < ref.eigenvalues.size(); ++j) {
    out.max_eig_diff = std::max(
        out.max_eig_diff, std::abs(ref.eigenvalues[j] - mixed.eigenvalues[j]));
  }
  bool identical = ref.eigenvalues.size() == again.eigenvalues.size();
  if (identical) {
    identical = std::memcmp(ref.eigenvalues.data(), again.eigenvalues.data(),
                            ref.eigenvalues.size() * sizeof(double)) == 0 &&
                ref.eigenvectors.rows() == again.eigenvectors.rows() &&
                ref.eigenvectors.cols() == again.eigenvectors.cols();
    for (Index j = 0; identical && j < ref.eigenvectors.cols(); ++j) {
      identical = std::memcmp(ref.eigenvectors.col(j), again.eigenvectors.col(j),
                              std::size_t(ref.eigenvectors.rows()) *
                                  sizeof(T)) == 0;
    }
  }
  out.double_identical = identical;
}

/// Informational: the classic degree/column ablation (the shrinking-suffix
/// MatVec economics), fp64.
void print_degree_ablation(bool quick) {
  using T = double;
  const Index n = quick ? 256 : 768;
  std::printf("Filter MatVec economics (n=%ld, fp64):\n", long(n));
  for (Index ncols : {Index(16), Index(64)}) {
    for (int degree : {10, 20, 36}) {
      SeqFilter<T> f(n, ncols, degree, 5);
      long matvecs = 0;
      const double s = wall_seconds([&] {
        f.reset_panel();
        matvecs = core::chebyshev_filter(f.h, f.c.view(), f.b.view(), f.degs,
                                         0.5, 0.45, -0.99);
      });
      std::printf("  cols=%-3ld deg=%-3d %8.4fs  %10.0f MatVec/s\n",
                  long(ncols), degree, s, double(matvecs) / s);
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode();
  const std::string out_path =
      argc > 1 ? argv[1] : "results/bench_mixed.json";

  print_degree_ablation(quick);

  MixedResult r;
  const Index n_filter = quick ? 384 : 1024;
  const Index cols = quick ? 32 : 64;
  const int reps = quick ? 3 : 5;
  bench_filter_speedup(r, n_filter, cols, 20, reps);
  std::printf("mixed filter n=%ld cols=%ld deg=%d: fp64 %.4fs  fp32 %.4fs  "
              "speedup %.2fx\n",
              long(r.n), long(r.cols), r.degree, r.fp64_seconds,
              r.fp32_seconds, r.speedup);

  bench_coll_bytes(r, quick ? 128 : 256, quick ? 16 : 32, 16);
  std::printf("2x2 filter coll bytes: fp64 %.0f  fp32 %.0f  ratio %.3f\n",
              r.coll_bytes_fp64, r.coll_bytes_fp32, r.coll_ratio);

  bench_solve_equivalence(r, quick ? 128 : 192, reps);
  std::printf("mixed solve n=%ld: max |eig diff| %.2e (tol %.0e)  "
              "fp32 cols %.0f  fp64 cols %.0f  double bitwise identical: %s\n",
              long(r.solve_n), r.max_eig_diff, r.tol, r.fp32_cols, r.fp64_cols,
              r.double_identical ? "yes" : "NO");

  std::filesystem::create_directories(
      std::filesystem::path(out_path).parent_path());
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n \"mixed\": {\n"
      "  \"n\": %ld, \"cols\": %ld, \"degree\": %d,\n"
      "  \"fp64_seconds\": %.6f, \"fp32_seconds\": %.6f, "
      "\"speedup\": %.4f,\n"
      "  \"grid_n\": %ld, \"coll_bytes_fp64\": %.0f, "
      "\"coll_bytes_fp32\": %.0f, \"coll_ratio\": %.4f,\n"
      "  \"solve_n\": %ld, \"tol\": %.1e, \"max_eig_diff\": %.3e,\n"
      "  \"fp32_cols\": %.0f, \"fp64_cols\": %.0f,\n"
      "  \"double_identical\": %s\n"
      " }\n}\n",
      long(r.n), long(r.cols), r.degree, r.fp64_seconds, r.fp32_seconds,
      r.speedup, long(r.grid_n), r.coll_bytes_fp64, r.coll_bytes_fp32,
      r.coll_ratio, long(r.solve_n), r.tol, r.max_eig_diff, r.fp32_cols,
      r.fp64_cols, r.double_identical ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
