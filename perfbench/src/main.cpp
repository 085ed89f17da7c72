// chase_perfbench — the repository's end-to-end benchmark.
//
//   chase_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--quick] [--out-dir <dir>] [--rev <id>]
//
// Workloads (inputs are generated from --seed; every matrix has a prescribed
// DFT-like spectrum, which is the reference the eigenvalues are checked
// against):
//   seq-z1000           sequential complex<double> solve, n=1000, nev=40
//   grid2x2-z1000-nccl  the same problem on a 2x2 grid, v1.4 scheme, NCCL
//   seq-z1000-mixed     seq-z1000 with the mixed-precision filter
//   svc-scf-closed      8 tenants in a closed SCF-like loop against the
//                       solver service (3 workers, max_batch 8)
//
// --trace 0 measures the end-to-end metrics (no tracker, no spans). --trace 1
// is the separate traced run: it wraps the engine's stages and DLA backend in
// span-recording decorators, reads the library's perf::Tracker counters,
// measures the square-GEMM ceilings, checks that the traced solve reproduces
// the untraced one bitwise, and writes the spans as a Chrome trace.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// the metrics. A human-readable report goes to stderr, and a JSON report with
// the host fingerprint to <out-dir>/report-<workload>-seed<n>-trace<t>.json.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "core/chase.hpp"
#include "core/precision.hpp"
#include "gen/spectrum.hpp"
#include "la/gemm.hpp"
#include "perf/tracker.hpp"
#include "spans.hpp"
#include "svc/service.hpp"
#include "traced_solve.hpp"
#include "tune/measure.hpp"

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

namespace core = chase::core;
namespace comm = chase::comm;
namespace dist = chase::dist;
namespace la = chase::la;
namespace perf = chase::perf;
namespace svc = chase::svc;
using Z = std::complex<double>;
using chase::CpuTimer;
using chase::WallTimer;

// ---------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace 0), in BENCHMARK.json order.
constexpr MetricDef kEndToEnd[] = {
    {"solve_s", "s"},          {"setup_s", "s"},
    {"peak_rss_mb", "MB"},     {"jobs_per_s", "1/s"},
    {"job_ms.p50", "ms"},
};

// Per-layer metrics (--trace 1), in BENCHMARK.json order. A metric whose
// layer a workload does not exercise reads 0 there (e.g. svc.* on the
// solver workloads, precision.* without the mixed filter).
constexpr MetricDef kPerLayer[] = {
    {"core.iterations", "count"},
    {"core.matvecs", "count"},
    {"core.stage.prep_s", "s"},
    {"core.stage.filter_s", "s"},
    {"core.stage.qr_s", "s"},
    {"core.stage.rayleigh_ritz_s", "s"},
    {"core.stage.residual_s", "s"},
    {"core.stage.locking_s", "s"},
    {"core.bounds_s", "s"},
    {"core.cold_extra_s", "s"},
    {"core.stage_coverage", "ratio"},
    {"dla.filter_apply_s", "s"},
    {"dla.qr_s", "s"},
    {"dla.redistribute_s", "s"},
    {"dla.apply_h_s", "s"},
    {"dla.gram_s", "s"},
    {"dla.heevd_s", "s"},
    {"dla.back_transform_s", "s"},
    {"dla.residual_norms_s", "s"},
    {"dla.column_consensus_s", "s"},
    {"la.gemm.gflops", "GF/s"},
    {"la.gemm.peak_frac", "ratio"},
    {"la.gemm32.gflops", "GF/s"},
    {"la.gemm32.peak_frac", "ratio"},
    {"la.trsm.gflops", "GF/s"},
    {"la.potrf.gflops", "GF/s"},
    {"la.herk.gflops", "GF/s"},
    {"la.hetrd.gflops", "GF/s"},
    {"la.peak.zgemm_gflops", "GF/s"},
    {"la.peak.cgemm_gflops", "GF/s"},
    {"la.peak.dgemm_gflops", "GF/s"},
    {"qr.variant.CholQR1", "count"},
    {"qr.variant.CholQR2", "count"},
    {"qr.variant.sCholQR2", "count"},
    {"qr.variant.TSQR", "count"},
    {"qr.variant.HHQR", "count"},
    {"qr.potrf_breakdown", "count"},
    {"coll.allreduce.calls", "count"},
    {"coll.allreduce.bytes", "B"},
    {"coll.allgather.calls", "count"},
    {"coll.allgather.bytes", "B"},
    {"coll.bcast.calls", "count"},
    {"coll.bcast.bytes", "B"},
    {"coll.overlap.blocks", "count"},
    {"coll.plan.builds", "count"},
    {"coll.plan.replays", "count"},
    {"comm.wait_s", "s"},
    {"comm.cpu_s", "s"},
    {"comm.rank_imbalance", "ratio"},
    {"precision.fp32_cols", "count"},
    {"precision.fp64_cols", "count"},
    {"precision.promote.column", "count"},
    {"precision.promote.subspace", "count"},
    {"precision.refine.pairs", "count"},
    {"svc.queue_ms.p50", "ms"},
    {"svc.solve_ms.p50", "ms"},
    {"svc.job_ms.p99", "ms"},
    {"svc.batch_occupancy", "ratio"},
    {"svc.worker_busy", "ratio"},
    {"svc.pool.misses", "count"},
    {"svc.pool.steady_arena_growth", "count"},
    {"trace.overhead", "ratio"},
};

using Values = std::map<std::string, double>;

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;

// Untimed set-ups run first, for this long: a host that was idle runs the
// first second or so of a process up to 3x slower.
constexpr double kWarmupSeconds = 2.0;
constexpr double kQuickWarmupSeconds = 0.2;

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;  // small problems, for the benchmark's smoke test
  std::string out_dir = ".bench_build/perfbench-out";
  std::string rev = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "chase_perfbench: %s\nusage: chase_perfbench --workload "
               "<seq-z1000|grid2x2-z1000-nccl|seq-z1000-mixed|svc-scf-closed>"
               " --seed <n> --seconds <s> --trace <0|1> [--quick] "
               "[--out-dir <dir>] [--rev <id>]\n",
               msg);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = next();
      } else if (a == "--seed") {
        o.seed = std::stoull(next());
      } else if (a == "--seconds") {
        o.seconds = std::stod(next());
      } else if (a == "--trace") {
        o.trace = std::stoi(next()) != 0;
      } else if (a == "--quick") {
        o.quick = true;
      } else if (a == "--out-dir") {
        o.out_dir = next();
      } else if (a == "--rev") {
        o.rev = next();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

// ---------------------------------------------------------------- helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = std::size_t(std::ceil(p * double(v.size()))) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Outcome accounting of every solve or job the run performs.
struct Tally {
  long attempted = 0;
  long failed = 0;       // not converged, rejected, or an eigenvalue missed
  bool faithful = true;  // traced solves reproduced the untraced ones
  std::vector<std::string> notes;

  void fail(std::string why) {
    ++failed;
    if (notes.size() < 8) notes.push_back(std::move(why));
  }
};

/// A problem with a prescribed spectrum: the exact eigenvalues are the
/// reference every result is checked against.
struct Reference {
  std::vector<double> spectrum;  // ascending
  double scale = 1;              // spectral norm
};

Reference make_reference(la::Index n, std::uint64_t seed) {
  Reference ref;
  ref.spectrum = chase::gen::dft_like_spectrum<double>(n, seed);
  ref.scale = std::max(std::abs(ref.spectrum.front()),
                       std::abs(ref.spectrum.back()));
  return ref;
}

/// A converged Ritz value with relative residual <= tol is within
/// tol * scale of an exact eigenvalue; allow a factor 10 for the residual
/// norm estimate.
template <typename R>
bool eigenvalues_match(const std::vector<R>& got, const Reference& ref,
                       const core::ChaseConfig& cfg) {
  if (got.size() != std::size_t(cfg.nev)) return false;
  const double tol = 10.0 * cfg.tol * ref.scale;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::abs(double(got[i]) - ref.spectrum[i]) <= tol)) return false;
  }
  return true;
}

template <typename T>
void check_result(const core::ChaseResult<T>& r, const Reference& ref,
                  const core::ChaseConfig& cfg, Tally& tally) {
  ++tally.attempted;
  if (!r.converged) {
    tally.fail("solve did not converge");
  } else if (!eigenvalues_match(r.eigenvalues, ref, cfg)) {
    tally.fail("eigenvalue outside tolerance of the prescribed spectrum");
  }
}

template <typename T>
bool same_bits(const core::ChaseResult<T>& a, const core::ChaseResult<T>& b) {
  return a.iterations == b.iterations && a.matvecs == b.matvecs &&
         a.converged == b.converged && a.eigenvalues.size() ==
                                           b.eigenvalues.size() &&
         std::memcmp(a.eigenvalues.data(), b.eigenvalues.data(),
                     a.eigenvalues.size() * sizeof(a.eigenvalues[0])) == 0;
}

/// Best-of-3 rate of a square n x n GEMM on this thread, in GF/s — the
/// ceiling the per-kernel rates are reported against.
template <typename T>
double gemm_peak_gflops(la::Index n) {
  la::Matrix<T> a(n, n), b(n, n), c(n, n);
  for (la::Index j = 0; j < n; ++j) {
    for (la::Index i = 0; i < n; ++i) {
      a(i, j) = T(std::sin(double(i + 2 * j)));
      b(i, j) = T(std::cos(double(2 * i + j)));
    }
  }
  const auto m = chase::tune::measure(1, 3, [&] {
    la::gemm(T(1), a.cview(), b.cview(), T(0), c.view());
  });
  return la::detail::gemm_flop_count<T>(n, n, n) / m.best * 1e-9;
}

void measure_peaks(bool quick, Values& v) {
  const la::Index n = quick ? 256 : 1024;
  v["la.peak.zgemm_gflops"] = gemm_peak_gflops<Z>(n);
  v["la.peak.cgemm_gflops"] = gemm_peak_gflops<std::complex<float>>(n);
  v["la.peak.dgemm_gflops"] = gemm_peak_gflops<double>(n);
}

double rate_gflops(const Values& counters, const std::string& kernel) {
  const auto f = counters.find("la." + kernel + ".flops");
  const auto s = counters.find("la." + kernel + ".seconds");
  if (f == counters.end() || s == counters.end() || !(s->second > 0)) {
    return 0;
  }
  return f->second / s->second * 1e-9;
}

/// la.* achieved rates from summed kernel counters, against the ceilings.
void la_rates(const Values& counters, Values& v) {
  for (const char* k : {"gemm", "gemm32", "trsm", "potrf", "herk", "hetrd"}) {
    v[std::string("la.") + k + ".gflops"] = rate_gflops(counters, k);
  }
  const auto frac = [&](const char* rate, const char* peak) {
    return v[peak] > 0 ? v[rate] / v[peak] : 0.0;
  };
  v["la.gemm.peak_frac"] = frac("la.gemm.gflops", "la.peak.zgemm_gflops");
  v["la.gemm32.peak_frac"] = frac("la.gemm32.gflops", "la.peak.cgemm_gflops");
}

void add_counters(const perf::Tracker& t, Values& sum) {
  for (const auto& [name, value] : t.counters()) sum[name] += value;
}

/// Per-solve counters of one rank, plus that rank's CPU/wait split.
struct RankAcc {
  Values counters;                  // library counters, summed over solves
  std::array<double, 3> coll_calls{};  // by perf::CollKind
  std::array<double, 3> coll_bytes{};
  double comm_cpu_s = 0;  // CPU inside blocking collectives
  double cpu_s = 0;       // thread CPU over the traced solves
  double wait_s = 0;      // wall minus thread CPU over the traced solves
};

void accumulate(const perf::Tracker& t, double wall_s, double cpu_s,
                RankAcc& acc) {
  add_counters(t, acc.counters);
  for (const auto& e : t.collectives()) {
    acc.coll_calls[std::size_t(e.kind)] += 1;
    acc.coll_bytes[std::size_t(e.kind)] += double(e.bytes);
  }
  for (int r = 0; r < perf::kRegionCount; ++r) {
    acc.comm_cpu_s += t.costs(perf::Region(r)).comm_cpu_seconds;
  }
  acc.cpu_s += cpu_s;
  acc.wait_s += std::max(0.0, wall_s - cpu_s);
}

/// Span-derived core/dla metrics, per solve, from rank 0's log.
void span_metrics(const SpanLog& log, double solves, Values& v) {
  const auto secs = seconds_by_name(log);
  const auto get = [&](const std::string& name) {
    const auto it = secs.find(name);
    return it == secs.end() ? 0.0 : it->second;
  };
  double covered = get("core.bounds");
  for (const char* s : {"prep", "filter", "qr", "rayleigh_ritz", "residual",
                        "locking"}) {
    const double t = get(std::string("core.stage.") + s);
    covered += t;
    v[std::string("core.stage.") + s + "_s"] = t / solves;
  }
  v["core.bounds_s"] = get("core.bounds") / solves;
  v["core.stage_coverage"] = get("solve") > 0 ? covered / get("solve") : 0;
  for (const char* d : {"filter_apply", "qr", "redistribute", "apply_h",
                        "gram", "heevd", "back_transform", "residual_norms",
                        "column_consensus"}) {
    v[std::string("dla.") + d + "_s"] = get(std::string("dla.") + d) / solves;
  }
}

/// Counter/collective metrics per solve from the ranks' accumulators (event
/// counts from rank 0; times max over ranks; kernel rates summed).
void rank_metrics(const std::vector<RankAcc>& ranks, double solves,
                  Values& v) {
  const RankAcc& r0 = ranks.front();
  const auto c0 = [&](const char* name) {
    const auto it = r0.counters.find(name);
    return it == r0.counters.end() ? 0.0 : it->second / solves;
  };
  for (const char* q : {"CholQR1", "CholQR2", "sCholQR2", "TSQR", "HHQR"}) {
    v[std::string("qr.variant.") + q] = c0(
        (std::string("qr.variant.") + q).c_str());
  }
  v["qr.potrf_breakdown"] = c0("qr.potrf_breakdown");
  const char* kinds[] = {"allreduce", "bcast", "allgather"};  // CollKind order
  for (std::size_t k = 0; k < 3; ++k) {
    v[std::string("coll.") + kinds[k] + ".calls"] = r0.coll_calls[k] / solves;
    v[std::string("coll.") + kinds[k] + ".bytes"] = r0.coll_bytes[k] / solves;
  }
  v["coll.overlap.blocks"] = c0("coll.overlap.blocks");
  v["coll.plan.builds"] = c0("coll.plan.builds");
  v["coll.plan.replays"] = c0("coll.plan.replays");
  v["precision.fp32_cols"] = c0("precision.filter.cols.fp32");
  v["precision.fp64_cols"] = c0("precision.filter.cols.fp64");
  v["precision.promote.column"] = c0("precision.promote.column");
  v["precision.promote.subspace"] = c0("precision.promote.subspace");
  v["precision.refine.pairs"] = c0("precision.refine.pairs");

  double wait = 0, comm_cpu = 0, cpu_max = 0, cpu_sum = 0;
  Values kernels;
  for (const RankAcc& r : ranks) {
    wait = std::max(wait, r.wait_s / solves);
    comm_cpu = std::max(comm_cpu, r.comm_cpu_s / solves);
    cpu_max = std::max(cpu_max, r.cpu_s);
    cpu_sum += r.cpu_s;
    for (const auto& [name, value] : r.counters) {
      if (name.rfind("la.", 0) == 0) kernels[name] += value;
    }
  }
  v["comm.wait_s"] = wait;
  v["comm.cpu_s"] = comm_cpu;
  v["comm.rank_imbalance"] =
      cpu_sum > 0 ? cpu_max / (cpu_sum / double(ranks.size())) : 0;
  la_rates(kernels, v);
}

// ---------------------------------------------------------------- solver

struct SolverSpec {
  la::Index n = 1000, nev = 40, nex = 13;
  int p = 1;  // p x p grid
  perf::Backend backend = perf::Backend::kHostMpi;
  bool mixed = false;
};

std::optional<SolverSpec> solver_spec(const Options& o) {
  SolverSpec s;
  if (o.quick) {
    s.n = 400;
    s.nev = 24;
    s.nex = 8;
  }
  if (o.workload == "seq-z1000") return s;
  if (o.workload == "seq-z1000-mixed") {
    s.mixed = true;
    return s;
  }
  if (o.workload == "grid2x2-z1000-nccl") {
    s.p = 2;
    s.backend = perf::Backend::kNcclGpu;
    return s;
  }
  return std::nullopt;
}

/// Run `body` SPMD: on the calling thread with a self communicator for a 1x1
/// grid, else on a fresh Team of p*p rank threads.
void spmd(const SolverSpec& spec,
          const std::function<void(comm::Communicator&)>& body) {
  if (spec.p == 1) {
    comm::Communicator self;
    body(self);
    return;
  }
  comm::Team team(spec.p * spec.p, spec.backend);
  team.run(body);
}

/// Wall seconds of `fn` between two barriers (so the slowest rank counts).
template <typename Fn>
double timed(const comm::Communicator& world, Fn&& fn) {
  world.barrier();
  WallTimer t;
  fn();
  world.barrier();
  return t.seconds();
}

/// Rank 0 decides whether the measurement loop goes on; every rank follows.
bool consensus(const comm::Communicator& world, bool go) {
  double flag = go ? 1 : 0;
  world.broadcast(&flag, 1, 0);
  return flag != 0;
}

struct SolverInputs {
  SolverSpec spec;
  Reference ref;
  la::Matrix<Z> h;
  core::ChaseConfig cfg;
};

/// The seed draws the matrix's eigenvector basis (the random unitary of the
/// generator). The spectrum and the solver's start vectors are fixed, which
/// keeps the work per solve within about 2% across seeds.
SolverInputs make_solver_inputs(const Options& o, const SolverSpec& spec) {
  SolverInputs in{spec, make_reference(spec.n, 7), {}, {}};
  in.h = chase::gen::hermitian_with_spectrum<Z>(in.ref.spectrum,
                                                o.seed * 7919 + 17);
  in.cfg.nev = spec.nev;
  in.cfg.nex = spec.nex;
  in.cfg.tol = 1e-10;
  in.cfg.seed = 2023;
  return in;
}

/// Untraced run: untimed set-ups for the warm-up time, kSetups timed full
/// set-ups (Team spawn, distribution, a one-iteration warm-up solve that
/// fills the pack pools, builds the collective plans and resolves the tuning
/// profile), then warm solves for the measurement window on the last one.
///
/// The shared hosts this runs on slow single solves by up to 40% in bursts
/// of a few seconds, which moved the median of a run's handful of solves by
/// 17% over five seeds and the fastest solve by 4%. So solve_s is the
/// fastest warm solve; the median goes to stderr.
void run_solver(const Options& o, const SolverInputs& in, Values& v,
                Tally& tally) {
  const SolverSpec& spec = in.spec;
  const int min_solves = o.quick ? 2 : 3;
  core::ChaseConfig warm_cfg = in.cfg;
  warm_cfg.max_iterations = 1;
  std::vector<double> setup_s, solve_s;
  long matvecs = 0;
  int iterations = 0;
  const WallTimer warmup;
  const double warmup_s = o.quick ? kQuickWarmupSeconds : kWarmupSeconds;
  while (setup_s.size() < std::size_t(kSetups)) {
    const bool timed_rep = warmup.seconds() >= warmup_s;
    const bool measure =
        timed_rep && setup_s.size() + 1 == std::size_t(kSetups);
    WallTimer setup_timer;
    spmd(spec, [&](comm::Communicator& world) {
      const bool root = world.rank() == 0;
      comm::Grid2d grid(world, spec.p, spec.p);
      const auto map = dist::IndexMap::block(spec.n, spec.p);
      dist::DistHermitianMatrix<Z> hd(grid, map, map);
      hd.fill_from_global(in.h.cview());
      core::ChaseResult<Z> r = core::solve(hd, warm_cfg);
      world.barrier();
      if (root && timed_rep) setup_s.push_back(setup_timer.seconds());
      if (!measure) return;
      WallTimer window;
      for (int k = 0;; ++k) {
        if (!consensus(world, k < min_solves || window.seconds() < o.seconds)) {
          break;
        }
        const double t = timed(world, [&] { r = core::solve(hd, in.cfg); });
        if (root) {
          solve_s.push_back(t);
          check_result(r, in.ref, in.cfg, tally);
          iterations = r.iterations;
          matvecs = r.matvecs;
        }
      }
    });
  }
  // A solve is the job here: the job metrics restate solve_s.
  const double best = *std::min_element(solve_s.begin(), solve_s.end());
  v["solve_s"] = best;
  v["setup_s"] = median(setup_s);
  v["jobs_per_s"] = 1.0 / best;
  v["job_ms.p50"] = 1e3 * best;
  std::fprintf(stderr,
               "  %zu timed solves (%d iterations, %ld MatVecs), fastest "
               "%.4f s, median %.4f s:",
               solve_s.size(), iterations, matvecs, best, median(solve_s));
  for (const double t : solve_s) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, " s; set-ups:");
  for (const double t : setup_s) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, " s\n");
}

/// Traced run: a cold solve, then untraced/traced pairs for the measurement
/// window. Every traced solve must match the untraced one bitwise.
void run_solver_traced(const Options& o, const SolverInputs& in, Values& v,
                       Tally& tally, std::vector<SpanLog>& logs) {
  const SolverSpec& spec = in.spec;
  const int nranks = spec.p * spec.p;
  const int min_pairs = 2;
  std::vector<RankAcc> acc(std::size_t(nranks), RankAcc{});
  std::vector<double> plain_s, traced_s;
  double cold_s = 0;
  int iterations = 0;
  long matvecs = 0;
  for (int r = 0; r < nranks; ++r) logs.emplace_back(r);

  spmd(spec, [&](comm::Communicator& world) {
    const int rank = world.rank();
    const bool root = rank == 0;
    comm::Grid2d grid(world, spec.p, spec.p);
    const auto map = dist::IndexMap::block(spec.n, spec.p);
    dist::DistHermitianMatrix<Z> hd(grid, map, map);
    hd.fill_from_global(in.h.cview());
    core::ChaseResult<Z> plain;
    const double cold = timed(world, [&] { plain = core::solve(hd, in.cfg); });
    if (root) {
      cold_s = cold;
      iterations = plain.iterations;
      matvecs = plain.matvecs;
      check_result(plain, in.ref, in.cfg, tally);
    }
    WallTimer window;
    for (int k = 0;; ++k) {
      if (!consensus(world, k < min_pairs || window.seconds() < o.seconds)) {
        break;
      }
      const double tp = timed(world, [&] { plain = core::solve(hd, in.cfg); });

      perf::Tracker tracker;
      core::ChaseResult<Z> traced;
      double wall = 0, cpu = 0;
      const double tt = timed(world, [&] {
        perf::set_thread_tracker(&tracker);
        WallTimer wall_timer;
        CpuTimer cpu_timer;
        {
          SolveTrace trace(logs[std::size_t(rank)], k + 1);
          traced = traced_solve(hd, in.cfg, trace);
        }
        cpu = cpu_timer.seconds();
        wall = wall_timer.seconds();
        perf::set_thread_tracker(nullptr);
      });
      accumulate(tracker, wall, cpu, acc[std::size_t(rank)]);
      if (root) {
        plain_s.push_back(tp);
        traced_s.push_back(tt);
        check_result(plain, in.ref, in.cfg, tally);
        check_result(traced, in.ref, in.cfg, tally);
        if (!same_bits(plain, traced) || plain.iterations != iterations ||
            plain.matvecs != matvecs) {
          tally.faithful = false;
          tally.notes.push_back("traced solve differs from untraced solve");
        }
      }
    }
  });

  const double solves = double(traced_s.size());
  v["core.iterations"] = iterations;
  v["core.matvecs"] = double(matvecs);
  v["core.cold_extra_s"] = cold_s - median(plain_s);
  v["trace.overhead"] = median(traced_s) / median(plain_s);
  measure_peaks(o.quick, v);
  span_metrics(logs.front(), solves, v);
  rank_metrics(acc, solves, v);
  std::fprintf(stderr,
               "  %zu untraced/traced pairs: median %.4f s / %.4f s; cold "
               "solve %.4f s\n",
               traced_s.size(), median(plain_s), median(traced_s), cold_s);
}

// ---------------------------------------------------------------- service

/// One SCF step of one tenant: a small Hamiltonian with a prescribed
/// spectrum.
struct SvcProblem {
  bool complex_scalar = false;
  la::Index n = 0;
  Reference ref;
  la::Matrix<double> hd;
  la::Matrix<Z> hz;
  core::ChaseConfig cfg;
};

struct Tenant {
  std::string name;
  std::vector<SvcProblem> steps;  // the SCF sequence, cycled
  int next = 0;
};

constexpr int kSvcWorkers = 3;
constexpr int kSvcMaxBatch = 8;

/// 8 tenants, two per (scalar, n) bucket so batching can coalesce; each
/// walks a sequence of distinct Hamiltonians.
std::vector<Tenant> make_tenants(const Options& o) {
  const int steps = o.quick ? 2 : 4;
  std::vector<Tenant> tenants(8);
  for (int t = 0; t < 8; ++t) {
    Tenant& tenant = tenants[std::size_t(t)];
    tenant.name = "tenant-" + std::to_string(t);
    for (int s = 0; s < steps; ++s) {
      SvcProblem p;
      p.complex_scalar = t % 2 == 1;
      p.n = (t / 2) % 2 == 0 ? 64 : 128;
      // As for the solver workloads, the seed draws the eigenvector basis;
      // each step's spectrum and start vectors are fixed.
      const auto step = std::uint64_t(t * 16 + s);
      p.ref = make_reference(p.n, 100 + step);
      const std::uint64_t basis_seed = o.seed * 7919 + step;
      if (p.complex_scalar) {
        p.hz = chase::gen::hermitian_with_spectrum<Z>(p.ref.spectrum,
                                                      basis_seed);
      } else {
        p.hd = chase::gen::hermitian_with_spectrum<double>(p.ref.spectrum,
                                                           basis_seed);
      }
      p.cfg.nev = p.n / 8;
      p.cfg.nex = p.n / 16;
      p.cfg.tol = 1e-10;
      p.cfg.seed = 2023 + step;
      tenant.steps.push_back(std::move(p));
    }
  }
  return tenants;
}

struct JobRecord {
  double latency_s = 0;  // submit -> finish
  double queue_s = 0;
  double solve_s = 0;    // dispatch -> finish (includes earlier batch-mates)
  long dispatch_seq = 0;
  int batch_width = 0;
};

struct LoopResult {
  std::vector<JobRecord> jobs;
  std::vector<double> done_at_s;  // completion times, in seconds from start
  double window_s = 0;            // first submit -> last completion
};

/// Closed loop from this thread: every tenant keeps one job in flight and
/// submits its next SCF step as soon as the previous one finished, until
/// `jobs` jobs have been submitted. The thread polls the in-flight jobs, so
/// a slow job never delays another tenant's next submission.
LoopResult closed_loop(svc::SolverService& service,
                       std::vector<Tenant>& tenants, long jobs,
                       Tally& tally) {
  struct InFlight {
    svc::JobId id;
    std::size_t tenant;
    const SvcProblem* problem;
  };
  LoopResult out;
  std::vector<InFlight> flight;
  long submitted = 0;
  WallTimer window;
  const auto submit = [&](std::size_t t) {
    ++submitted;
    Tenant& tenant = tenants[t];
    const SvcProblem& p = tenant.steps[std::size_t(tenant.next)];
    tenant.next = (tenant.next + 1) % int(tenant.steps.size());
    svc::JobOptions opts;
    opts.tenant = tenant.name;
    const svc::Submission sub =
        p.complex_scalar ? service.submit(p.hz.cview(), p.cfg, opts)
                         : service.submit(p.hd.cview(), p.cfg, opts);
    if (!sub.ok()) {
      ++tally.attempted;
      tally.fail("submission rejected: " +
                 std::string(svc::svc_error_name(sub.error)));
      return;
    }
    flight.push_back({sub.id, t, &p});
  };
  for (std::size_t t = 0; t < tenants.size() && submitted < jobs; ++t) {
    submit(t);
  }
  while (!flight.empty()) {
    bool progressed = false;
    for (std::size_t i = 0; i < flight.size();) {
      const svc::JobState state = service.poll(flight[i].id);
      if (state == svc::JobState::kQueued ||
          state == svc::JobState::kRunning) {
        ++i;
        continue;
      }
      progressed = true;
      out.window_s = window.seconds();
      out.done_at_s.push_back(out.window_s);
      const InFlight job = flight[i];
      flight.erase(flight.begin() + std::ptrdiff_t(i));
      const svc::JobInfo info = service.info(job.id);
      const SvcProblem& p = *job.problem;
      ++tally.attempted;
      if (info.state != svc::JobState::kDone) {
        tally.fail("job " + std::string(svc::job_state_name(info.state)) +
                   ": " + info.message);
      } else if (!info.converged) {
        tally.fail("job did not converge");
      } else {
        const bool ok =
            p.complex_scalar
                ? eigenvalues_match(service.result<Z>(job.id)->eigenvalues,
                                    p.ref, p.cfg)
                : eigenvalues_match(
                      service.result<double>(job.id)->eigenvalues, p.ref,
                      p.cfg);
        if (!ok) tally.fail("job eigenvalue outside tolerance");
      }
      out.jobs.push_back({info.queue_seconds + info.solve_seconds,
                          info.queue_seconds, info.solve_seconds,
                          info.dispatch_seq, info.batch_width});
      if (submitted < jobs) submit(job.tenant);
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return out;
}

svc::ServiceConfig service_config() {
  svc::ServiceConfig cfg;
  cfg.workers = kSvcWorkers;
  cfg.max_batch = kSvcMaxBatch;
  return cfg;
}

std::vector<double> field(const LoopResult& r, double JobRecord::*f) {
  std::vector<double> out;
  for (const JobRecord& j : r.jobs) out.push_back(j.*f);
  return out;
}

/// Busy seconds of every dispatch: a batch's jobs take consecutive
/// dispatch_seq values and share one dispatch time, so the batch ran for its
/// longest solve_s.
double busy_seconds(const LoopResult& loop) {
  std::vector<JobRecord> by_seq = loop.jobs;
  std::sort(by_seq.begin(), by_seq.end(), [](const auto& a, const auto& b) {
    return a.dispatch_seq < b.dispatch_seq;
  });
  double busy = 0;
  for (std::size_t i = 0; i < by_seq.size();) {
    const auto width = std::size_t(std::max(1, by_seq[i].batch_width));
    const std::size_t end = std::min(by_seq.size(), i + width);
    double longest = 0;
    for (; i < end; ++i) longest = std::max(longest, by_seq[i].solve_s);
    busy += longest;
  }
  return busy;
}

/// Jobs per measured second. The service keeps every finished job's result,
/// so the run's memory grows with its job count; the loop therefore runs a
/// fixed number of jobs per requested second (about that long on a 4-core
/// host) instead of stopping on the clock.
long loop_jobs(double seconds) {
  return std::max(64L, std::lround(320 * seconds));
}

/// Throughput as the median over consecutive groups of 64 completions, so a
/// short stall of the host moves one group, not the result.
double median_rate(const LoopResult& loop) {
  const std::size_t group = 64;
  const auto& t = loop.done_at_s;
  if (t.size() <= group) return double(t.size()) / loop.window_s;
  std::vector<double> rates;
  for (std::size_t i = group; i < t.size(); i += group) {
    rates.push_back(double(group) / (t[i] - t[i - group]));
  }
  return median(rates);
}

/// Untraced service run: untimed set-ups for the warm-up time, then kSetups
/// timed ones (service start + one warm pass over every tenant's SCF
/// sequence), then the closed loop on the last service.
void run_service(const Options& o, std::vector<Tenant>& tenants, Values& v,
                 Tally& tally) {
  const long warm_jobs = long(tenants.size() * tenants.front().steps.size());
  std::vector<double> setup_s;
  LoopResult loop;
  const WallTimer warmup;
  const double warmup_s = o.quick ? kQuickWarmupSeconds : kWarmupSeconds;
  while (setup_s.size() < std::size_t(kSetups)) {
    const bool timed_rep = warmup.seconds() >= warmup_s;
    WallTimer setup_timer;
    svc::SolverService service(service_config());
    closed_loop(service, tenants, warm_jobs, tally);
    if (!timed_rep) continue;
    setup_s.push_back(setup_timer.seconds());
    if (setup_s.size() == std::size_t(kSetups)) {
      loop = closed_loop(service, tenants, loop_jobs(o.seconds), tally);
    }
  }
  // Jobs of four sizes share the workers, so the per-job solve time is the
  // mean: worker busy seconds over jobs.
  v["solve_s"] = busy_seconds(loop) / double(loop.jobs.size());
  v["setup_s"] = median(setup_s);
  v["jobs_per_s"] = median_rate(loop);
  v["job_ms.p50"] = 1e3 * median(field(loop, &JobRecord::latency_s));
  std::fprintf(stderr,
               "  %zu jobs in %.3f s (%.1f jobs/s overall); latency p50 %.3f "
               "ms p99 %.3f ms; set-ups:",
               loop.jobs.size(), loop.window_s,
               double(loop.jobs.size()) / loop.window_s, v["job_ms.p50"],
               1e3 * percentile(field(loop, &JobRecord::latency_s), 0.99));
  for (const double t : setup_s) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, " s\n");
}

/// Traced service run. First the distinct problems solo on this thread
/// (cold pass, then untraced/traced passes through the decorators, which
/// must agree bitwise), then one service set-up and the closed loop with
/// the service's own counters.
void run_service_traced(const Options& o, std::vector<Tenant>& tenants,
                        Values& v, Tally& tally, std::vector<SpanLog>& logs) {
  logs.emplace_back(0);
  SpanLog& log = logs.front();
  std::vector<RankAcc> acc(1, RankAcc{});

  const auto solo = [&](const SvcProblem& p, bool traced, long solve_id,
                        const auto& tag) {
    using T = std::decay_t<decltype(tag)>;
    const la::Matrix<T>* h;
    if constexpr (std::is_same_v<T, double>) {
      h = &p.hd;
    } else {
      h = &p.hz;
    }
    comm::Communicator self;
    comm::Grid2d grid(self, 1, 1);
    const auto map = dist::IndexMap::block(p.n, 1);
    dist::DistHermitianMatrix<T> hd(grid, map, map);
    hd.fill_from_global(h->cview());
    if (!traced) return core::solve(hd, p.cfg);
    SolveTrace trace(log, solve_id);
    return traced_solve(hd, p.cfg, trace);
  };
  // One pass over every distinct problem; returns its wall seconds. Every
  // pass, traced or not, must reproduce the first one bitwise.
  long solve_id = 0;
  int iterations = 0;
  long matvecs = 0;
  std::vector<double> first_eigenvalues;
  const auto pass = [&](bool traced) {
    perf::Tracker tracker;
    if (traced) perf::set_thread_tracker(&tracker);
    WallTimer wall;
    CpuTimer cpu;
    int its = 0;
    long mvs = 0;
    std::vector<double> eigenvalues;
    const auto record = [&](const auto& r, const SvcProblem& p) {
      check_result(r, p.ref, p.cfg, tally);
      its += r.iterations;
      mvs += r.matvecs;
      eigenvalues.insert(eigenvalues.end(), r.eigenvalues.begin(),
                         r.eigenvalues.end());
    };
    for (const Tenant& tenant : tenants) {
      for (const SvcProblem& p : tenant.steps) {
        ++solve_id;
        if (p.complex_scalar) {
          record(solo(p, traced, solve_id, Z{}), p);
        } else {
          record(solo(p, traced, solve_id, double{}), p);
        }
      }
    }
    const double w = wall.seconds(), c = cpu.seconds();
    if (traced) {
      perf::set_thread_tracker(nullptr);
      accumulate(tracker, w, c, acc.front());
    }
    if (first_eigenvalues.empty()) {
      first_eigenvalues = eigenvalues;
      iterations = its;
      matvecs = mvs;
    } else if (its != iterations || mvs != matvecs ||
               eigenvalues.size() != first_eigenvalues.size() ||
               std::memcmp(eigenvalues.data(), first_eigenvalues.data(),
                           eigenvalues.size() * sizeof(double)) != 0) {
      tally.faithful = false;
      tally.notes.push_back("solo pass differs from the first pass");
    }
    return w;
  };
  const double cold_s = pass(false);
  std::vector<double> plain_s, traced_s;
  WallTimer window;
  const double solo_budget = 0.25 * o.seconds;
  while (traced_s.size() < 3 || window.seconds() < solo_budget) {
    plain_s.push_back(pass(false));
    traced_s.push_back(pass(true));
  }
  const double passes = double(traced_s.size());

  svc::SolverService service(service_config());
  closed_loop(service, tenants,
              long(tenants.size() * tenants.front().steps.size()), tally);
  const auto before = service.metrics().counters();
  const LoopResult loop =
      closed_loop(service, tenants, loop_jobs(o.seconds - solo_budget), tally);
  Values delta;
  for (const auto& [name, value] : service.metrics().counters()) {
    const auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0.0 : it->second);
  }

  // core/dla/qr/coll from the solo passes: per pass over the problem set.
  v["core.iterations"] = iterations;
  v["core.matvecs"] = double(matvecs);
  v["core.cold_extra_s"] = cold_s - median(plain_s);
  v["trace.overhead"] = median(traced_s) / median(plain_s);
  measure_peaks(o.quick, v);
  span_metrics(log, passes, v);
  rank_metrics(acc, passes, v);
  // la rates as achieved inside the service's workers.
  la_rates(delta, v);

  const auto lat = field(loop, &JobRecord::latency_s);
  v["svc.queue_ms.p50"] = 1e3 * median(field(loop, &JobRecord::queue_s));
  v["svc.solve_ms.p50"] = 1e3 * median(field(loop, &JobRecord::solve_s));
  v["svc.job_ms.p99"] = 1e3 * percentile(lat, 0.99);
  const double batches = delta["svc.batch.count"];
  v["svc.batch_occupancy"] = batches > 0 ? delta["svc.batch.jobs"] / batches : 0;
  v["svc.worker_busy"] =
      busy_seconds(loop) / (double(kSvcWorkers) * loop.window_s);
  v["svc.pool.misses"] = delta["svc.pool.misses"];
  v["svc.pool.steady_arena_growth"] = double(service.pool_steady_growth());
  std::fprintf(stderr,
               "  %zu solo passes over %d problems: median %.4f s untraced, "
               "%.4f s traced; service loop %zu jobs in %.3f s\n",
               traced_s.size(), int(tenants.size() * tenants[0].steps.size()),
               median(plain_s), median(traced_s), loop.jobs.size(),
               loop.window_s);
}

// ---------------------------------------------------------------- report

std::string read_first_line_with(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto s = line.substr(colon + 1);
        s.erase(0, s.find_first_not_of(" \t"));
        return s;
      }
    }
  }
  return "unknown";
}

std::string read_file_trimmed(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::string s;
  std::getline(in, s);
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

/// Host fingerprint recorded with every result.
std::map<std::string, std::string> host_fingerprint(const Options& o) {
  std::map<std::string, std::string> fp;
  fp["cpus"] = std::to_string(std::thread::hardware_concurrency());
  fp["cpu_model"] = read_first_line_with("/proc/cpuinfo", "model name");
  std::string caches;
  for (int i = 0; i < 8; ++i) {
    const std::filesystem::path dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    if (!std::filesystem::exists(dir)) break;
    if (!caches.empty()) caches += ", ";
    caches += "L" + read_file_trimmed(dir / "level") + " " +
              read_file_trimmed(dir / "type") + " " +
              read_file_trimmed(dir / "size");
  }
  fp["caches"] = caches.empty() ? "unknown" : caches;
  fp["build_flags"] = PERFBENCH_BUILD_FLAGS;
  fp["rev"] = o.rev;
  return fp;
}

void print_metrics_json(FILE* f, const Values& v,
                        const std::vector<MetricDef>& defs) {
  std::fprintf(f, "{");
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = v.find(defs[i].name);
    // JSON has no inf/nan; a metric without a finite value reads 0.
    const double value =
        it == v.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", defs[i].name, value, defs[i].unit);
  }
  std::fprintf(f, "}");
}

void write_report(const Options& o, const Values& v,
                  const std::vector<MetricDef>& defs, const Tally& tally,
                  bool correct) {
  const std::string path = o.out_dir + "/report-" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "  cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
               "\"trace\": %d, \"quick\": %d,\n \"host\": {",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.seconds, o.trace ? 1 : 0, o.quick ? 1 : 0);
  bool first = true;
  for (const auto& [k, val] : host_fingerprint(o)) {
    std::fprintf(f, "%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(),
                 json_escape(val).c_str());
    first = false;
  }
  std::fprintf(f,
               "},\n \"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
               "\"error_rate\": %.17g,\n \"metrics\": ",
               correct ? "true" : "false", tally.attempted, tally.failed,
               tally.attempted > 0 ? double(tally.failed) / tally.attempted
                                   : 0.0);
  print_metrics_json(f, v, defs);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "  report: %s\n", path.c_str());
}

int run(const Options& o) {
  std::filesystem::create_directories(o.out_dir);
  std::fprintf(stderr, "chase_perfbench %s seed=%llu seconds=%g trace=%d%s\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.seconds, o.trace ? 1 : 0, o.quick ? " (quick)" : "");
  for (const auto& [k, val] : host_fingerprint(o)) {
    std::fprintf(stderr, "  host.%s: %s\n", k.c_str(), val.c_str());
  }

  Values v;
  Tally tally;
  std::vector<SpanLog> logs;
  if (const auto spec = solver_spec(o)) {
    const SolverInputs in = make_solver_inputs(o, *spec);
    std::optional<core::ScopedPrecision> precision;
    if (spec->mixed) precision.emplace(core::Precision::kMixed);
    if (o.trace) {
      run_solver_traced(o, in, v, tally, logs);
    } else {
      run_solver(o, in, v, tally);
    }
  } else if (o.workload == "svc-scf-closed") {
    std::vector<Tenant> tenants = make_tenants(o);
    if (o.trace) {
      run_service_traced(o, tenants, v, tally, logs);
    } else {
      run_service(o, tenants, v, tally);
    }
  } else {
    usage(("unknown workload " + o.workload).c_str());
  }
  v["peak_rss_mb"] = peak_rss_mb();

  if (o.trace) {
    const std::string path = o.out_dir + "/trace-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    std::vector<const SpanLog*> ptrs;
    std::size_t spans = 0;
    for (const SpanLog& l : logs) {
      ptrs.push_back(&l);
      spans += l.spans().size();
    }
    if (write_chrome_trace(path, ptrs)) {
      std::fprintf(stderr, "  trace: %s (%zu spans)\n", path.c_str(), spans);
    } else {
      std::fprintf(stderr, "  cannot write %s\n", path.c_str());
    }
  }

  const std::vector<MetricDef> defs =
      o.trace ? std::vector<MetricDef>(std::begin(kPerLayer),
                                       std::end(kPerLayer))
              : std::vector<MetricDef>(std::begin(kEndToEnd),
                                       std::end(kEndToEnd));
  const bool correct =
      tally.failed == 0 && tally.faithful && tally.attempted > 0;
  for (const MetricDef& d : defs) {
    std::fprintf(stderr, "  %-30s %14.6g %s\n", d.name, v[d.name], d.unit);
  }
  std::fprintf(stderr, "  attempted %ld, failed %ld, error_rate %.4g%s\n",
               tally.attempted, tally.failed,
               tally.attempted > 0 ? double(tally.failed) / tally.attempted
                                   : 0.0,
               tally.faithful ? "" : ", TRACED RUN NOT FAITHFUL");
  for (const std::string& n : tally.notes) {
    std::fprintf(stderr, "  note: %s\n", n.c_str());
  }
  write_report(o, v, defs, tally, correct);

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": ",
              correct ? "true" : "false", tally.attempted, tally.failed);
  print_metrics_json(stdout, v, defs);
  std::printf("}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chase_perfbench: %s\n", e.what());
    return 1;
  }
}
