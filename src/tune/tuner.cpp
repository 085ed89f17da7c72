#include "tune/tuner.hpp"

#include <algorithm>
#include <complex>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "coll/engine.hpp"
#include "comm/communicator.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "la/gemm.hpp"
#include "la/gemm_policy.hpp"
#include "la/parallel.hpp"
#include "la/potrf.hpp"
#include "la/trsm.hpp"
#include "tune/measure.hpp"

namespace chase::tune {

namespace {

using la::Index;

// A kernel whose small-size rate trails the small-size winner by more than
// this factor is not re-measured at the larger classes (the seed naive GEMM
// runs minutes-per-call at n ~ 1000; the pruning keeps full tuning runs in
// seconds while the measurement log stays honest about what was probed).
constexpr double kPruneFactor = 4.0;

template <typename T>
la::Matrix<T> random_mat(Index m, Index n, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix<T> a(m, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < m; ++i) a(i, j) = rng.gaussian<T>();
  }
  return a;
}

std::string size_token(const char* prefix, long long v) {
  return std::string(prefix) + std::to_string(v);
}

// --- GEMM probes: gemm.<tag>.n<size>.<kernel> = flop/s -------------------

template <typename T>
void probe_gemm(const TuneOptions& opts, const char* tag,
                std::vector<RawMeasurement>& out) {
  constexpr la::GemmKernel kKernels[] = {la::GemmKernel::kNaive,
                                         la::GemmKernel::kMicro};
  const double z = kIsComplex<T> ? 8.0 : 2.0;
  double small_best = 0;
  double small_rate[2] = {0, 0};
  for (std::size_t si = 0; si < opts.gemm_sizes.size(); ++si) {
    const Index n = Index(opts.gemm_sizes[si]);
    auto a = random_mat<T>(n, n, 1);
    auto b = random_mat<T>(n, n, 2);
    la::Matrix<T> c(n, n);
    const double flops = z * double(n) * double(n) * double(n);
    for (const la::GemmKernel kern : kKernels) {
      if (si > 0 && small_rate[int(kern)] * kPruneFactor < small_best) {
        continue;  // pruned: decisively lost at the small size already
      }
      la::ScopedGemmKernel scoped(kern);
      const double rate = measured_rate(flops, opts.warmup, opts.repeats, [&] {
        la::gemm(T(1), a.cview(), b.cview(), T(0), c.view());
      });
      if (si == 0) {
        small_rate[int(kern)] = rate;
        small_best = std::max(small_best, rate);
      }
      out.push_back({std::string("gemm.") + tag + "." + size_token("n", n) +
                         "." + std::string(la::gemm_kernel_name(kern)),
                     rate, "flop/s"});
    }
  }
}

// --- factorization probes: factor.n<size>.<kernel> = flop/s --------------
//
// One composite per size: POTRF of a shifted Gram matrix plus the TRSM that
// CholeskyQR applies afterwards — the level-3 path both kernels disagree on.

void probe_factor(const TuneOptions& opts, std::vector<RawMeasurement>& out) {
  using T = double;
  constexpr la::FactorKernel kKernels[] = {la::FactorKernel::kNaive,
                                           la::FactorKernel::kBlocked};
  double small_best = 0;
  double small_rate[2] = {0, 0};
  for (std::size_t si = 0; si < opts.factor_sizes.size(); ++si) {
    const Index n = Index(opts.factor_sizes[si]);
    auto g = random_mat<T>(n, n, 3);
    // Symmetrize and shift: diagonally dominant, so POTRF never breaks down.
    for (Index j = 0; j < n; ++j) {
      for (Index i = 0; i < j; ++i) g(i, j) = g(j, i) = (g(i, j) + g(j, i)) / 2;
      g(j, j) = std::abs(g(j, j)) + double(n);
    }
    auto b = random_mat<T>(n, n, 4);
    la::Matrix<T> work(n, n), x(n, n);
    // POTRF ~ n^3/3, TRSM ~ n^3: nominal composite flop count.
    const double flops = (1.0 / 3.0 + 1.0) * double(n) * double(n) * double(n);
    for (const la::FactorKernel kern : kKernels) {
      if (si > 0 && small_rate[int(kern)] * kPruneFactor < small_best) {
        continue;
      }
      la::ScopedFactorKernel scoped(kern);
      const double rate = measured_rate(flops, opts.warmup, opts.repeats, [&] {
        la::copy(g.cview(), work.view());
        la::copy(b.cview(), x.view());
        la::potrf_upper(work.view());
        la::trsm_right_upper(work.cview(), x.view());
      });
      if (si == 0) {
        small_rate[int(kern)] = rate;
        small_best = std::max(small_best, rate);
      }
      out.push_back({std::string("factor.") + size_token("n", n) + "." +
                         std::string(la::factor_kernel_name(kern)),
                     rate, "flop/s"});
    }
  }
}

// --- collective probes: coll.<kind>.b<bytes>.p<ranks>.<algo> = seconds ---

double time_collective(perf::CollKind kind, int p, std::size_t bytes,
                       const TuneOptions& opts) {
  const Index count = Index(std::max<std::size_t>(1, bytes / sizeof(double)));
  double per_op = 0;
  comm::Team team(p);
  team.run([&](comm::Communicator& comm) {
    // `bytes` follows the Tracker convention: total gathered payload for
    // allgather, per-rank payload otherwise.
    const Index send = kind == perf::CollKind::kAllGather
                           ? std::max<Index>(1, count / p)
                           : count;
    std::vector<double> x(std::size_t(send), double(comm.rank() + 1));
    std::vector<double> recv;
    if (kind == perf::CollKind::kAllGather) {
      recv.resize(std::size_t(send) * std::size_t(p));
    }
    const auto once = [&] {
      switch (kind) {
        case perf::CollKind::kAllReduce:
          comm.all_reduce(x.data(), send);
          break;
        case perf::CollKind::kBroadcast:
          comm.broadcast(x.data(), send, 0);
          break;
        case perf::CollKind::kAllGather:
          comm.all_gather(x.data(), send, recv.data());
          break;
      }
      comm.barrier();
    };
    const Measurement m = measure(opts.warmup, opts.repeats, once);
    if (comm.rank() == 0) per_op = m.best;
  });
  return per_op;
}

void probe_collectives(const TuneOptions& opts,
                       std::vector<RawMeasurement>& out) {
  constexpr perf::CollKind kKinds[] = {perf::CollKind::kAllReduce,
                                       perf::CollKind::kBroadcast,
                                       perf::CollKind::kAllGather};
  // Policies probed in enum order (the tie-break order of the replay).
  constexpr coll::Algorithm kAlgos[] = {coll::Algorithm::kNaive,
                                        coll::Algorithm::kRing,
                                        coll::Algorithm::kTree};
  const int p = std::max(2, opts.coll_ranks);
  // Pin the chunk size during the algorithm race so the two sweeps stay
  // independent (the chunk sweep below varies it with the ring pinned).
  for (const perf::CollKind kind : kKinds) {
    for (const std::size_t bytes : opts.coll_bytes) {
      for (const coll::Algorithm algo : kAlgos) {
        coll::ScopedAlgorithm scoped(algo);
        coll::ScopedChunkBytes chunk(std::size_t(64) << 10);
        const double sec = time_collective(kind, p, bytes, opts);
        out.push_back({std::string("coll.") + perf::coll_kind_name(kind) + "." +
                           size_token("b", (long long)(bytes)) + "." +
                           size_token("p", p) + "." +
                           std::string(coll::algorithm_name(algo)),
                       sec, "s"});
      }
    }
  }
  // Chunk-bytes sweep: the largest allreduce payload under the ring policy,
  // the path the chunk size actually pipelines.
  if (!opts.coll_bytes.empty() && !opts.chunk_candidates.empty()) {
    const std::size_t bytes =
        *std::max_element(opts.coll_bytes.begin(), opts.coll_bytes.end());
    for (const std::size_t chunk : opts.chunk_candidates) {
      coll::ScopedAlgorithm scoped(coll::Algorithm::kRing);
      coll::ScopedChunkBytes chunk_scope(chunk);
      const double sec =
          time_collective(perf::CollKind::kAllReduce, p, bytes, opts);
      out.push_back({std::string("chunk.allreduce.") +
                         size_token("b", (long long)(bytes)) + "." +
                         size_token("c", (long long)(chunk)),
                     sec, "s"});
    }
  }
}

// --- measurement-name parsing for derive_selections ----------------------

std::vector<std::string> split_dots(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = s.find('.', start);
    if (dot == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, dot - start));
    start = dot + 1;
  }
}

// "n384" -> 384; -1 on anything else.
long long numeric_token(const std::string& tok, char prefix) {
  if (tok.size() < 2 || tok[0] != prefix) return -1;
  long long v = 0;
  for (std::size_t i = 1; i < tok.size(); ++i) {
    if (tok[i] < '0' || tok[i] > '9') return -1;
    v = v * 10 + (tok[i] - '0');
  }
  return v;
}

}  // namespace

TuneOptions TuneOptions::with_defaults() const {
  TuneOptions o = *this;
  if (o.gemm_sizes.empty()) {
    // One representative per shape class (boundaries 192 / 640).
    o.gemm_sizes = o.quick ? std::vector<long long>{64, 224, 672}
                           : std::vector<long long>{96, 384, 768};
  }
  if (o.factor_sizes.empty()) {
    // One per factorization class (boundaries 128 / 512). The small probe
    // stays above the blocked kernel's n<=64 naive fallback so the two
    // policies actually differ at the measured size.
    o.factor_sizes = o.quick ? std::vector<long long>{96, 256, 640}
                             : std::vector<long long>{96, 320, 768};
  }
  if (o.coll_bytes.empty()) {
    // One per message-size class (boundaries 64 KiB / 1 MiB).
    o.coll_bytes = o.quick
                       ? std::vector<std::size_t>{std::size_t(16) << 10,
                                                  std::size_t(256) << 10,
                                                  std::size_t(2) << 20}
                       : std::vector<std::size_t>{std::size_t(16) << 10,
                                                  std::size_t(256) << 10,
                                                  std::size_t(4) << 20};
  }
  if (o.chunk_candidates.empty()) {
    o.chunk_candidates = {std::size_t(16) << 10, std::size_t(64) << 10,
                          std::size_t(256) << 10};
  }
  return o;
}

TuneOptions options_from_env() {
  TuneOptions o;
  if (const auto v = env::positive_env("CHASE_TUNE_REPS")) {
    o.repeats = int(env::ranged_int("CHASE_TUNE_REPS", std::to_string(*v), 1,
                                    1000));
  }
  if (const auto v = env::text_env("CHASE_TUNE_WARMUP")) {
    o.warmup = int(env::ranged_int("CHASE_TUNE_WARMUP", *v, 0, 1000));
  }
  if (const auto v = env::positive_env("CHASE_TUNE_RANKS")) {
    o.coll_ranks = int(env::ranged_int("CHASE_TUNE_RANKS",
                                       std::to_string(*v), 2, 256));
  }
  if (const auto v = env::text_env("CHASE_TUNE_QUICK")) {
    if (*v == "1" || *v == "true" || *v == "yes") {
      o.quick = true;
    } else if (*v == "0" || *v == "false" || *v == "no") {
      o.quick = false;
    } else {
      env::reject("CHASE_TUNE_QUICK", *v, "not a boolean",
                  "0 | 1 | true | false | yes | no");
    }
  }
  return o;
}

MachineProfile run_tuning(const TuneOptions& opts_in) {
  const TuneOptions opts = opts_in.with_defaults();
  MachineProfile p;
  p.fingerprint = local_fingerprint();
  {
    // Kernel rates are measured on one core: this thread's share would
    // otherwise be every CPU, while a rank thread reading the profile runs
    // at cpus / nranks.
    la::ScopedCoreShare one_core(1);
    probe_gemm<float>(opts, "f", p.measurements);
    probe_gemm<double>(opts, "d", p.measurements);
    probe_gemm<std::complex<float>>(opts, "c", p.measurements);
    probe_gemm<std::complex<double>>(opts, "z", p.measurements);
    probe_factor(opts, p.measurements);
  }
  if (!opts.skip_collectives) probe_collectives(opts, p.measurements);
  p.tables = derive_selections(p.measurements);
  return p;
}

perf::TunedTables derive_selections(
    const std::vector<RawMeasurement>& measurements) {
  perf::TunedTables t;
  // Winner accumulators: first-measured strictly-better wins, so replaying
  // the same log reproduces the same tables.
  double gemm_best[perf::kScalarTagCount][perf::kNClassCount];
  double factor_best[perf::kNClassCount];
  double coll_best[perf::kCollKindCount][perf::kMsgClassCount];
  for (auto& row : gemm_best) {
    for (double& v : row) v = 0;
  }
  for (double& v : factor_best) v = 0;
  for (auto& row : coll_best) {
    for (double& v : row) v = std::numeric_limits<double>::infinity();
  }
  double chunk_best = std::numeric_limits<double>::infinity();
  // The largest measured size per domain carries the model rates.
  long long gemm_rate_size = -1, factor_rate_size = -1;
  double gemm_d_rate = 0, gemm_f_rate = 0, factor_rate = 0;

  for (const RawMeasurement& m : measurements) {
    const auto parts = split_dots(m.name);
    if (parts.size() == 4 && parts[0] == "gemm") {
      const int tag = perf::parse_class(parts[1], perf::scalar_tag_name,
                                        perf::kScalarTagCount);
      const long long n = numeric_token(parts[2], 'n');
      const auto kern = la::parse_gemm_kernel(parts[3]);
      if (tag < 0 || n <= 0 || !kern) continue;
      const int cls =
          int(perf::gemm_n_class(double(n), double(n), double(n)));
      if (m.value > gemm_best[tag][cls]) {
        gemm_best[tag][cls] = m.value;
        t.gemm_kernel[tag][cls] = int(*kern);
      }
      const bool is_d = parts[1] == "d";
      const bool is_f = parts[1] == "f";
      if (is_d || is_f) {
        if (n > gemm_rate_size) {
          gemm_rate_size = n;
          gemm_d_rate = gemm_f_rate = 0;
        }
        if (n == gemm_rate_size) {
          if (is_d) gemm_d_rate = std::max(gemm_d_rate, m.value);
          if (is_f) gemm_f_rate = std::max(gemm_f_rate, m.value);
        }
      }
    } else if (parts.size() == 3 && parts[0] == "factor") {
      const long long n = numeric_token(parts[1], 'n');
      const auto kern = la::parse_factor_kernel(parts[2]);
      if (n <= 0 || !kern) continue;
      const int cls = int(perf::factor_n_class(n));
      if (m.value > factor_best[cls]) {
        factor_best[cls] = m.value;
        t.factor_kernel[cls] = int(*kern);
      }
      if (n > factor_rate_size) {
        factor_rate_size = n;
        factor_rate = 0;
      }
      if (n == factor_rate_size) factor_rate = std::max(factor_rate, m.value);
    } else if (parts.size() == 5 && parts[0] == "coll") {
      const int kind = perf::parse_class(parts[1], perf::coll_kind_name,
                                         perf::kCollKindCount);
      const long long bytes = numeric_token(parts[2], 'b');
      const auto algo = coll::parse_algorithm(parts[4]);
      if (kind < 0 || bytes < 0 || !algo) continue;
      const int cls = int(perf::msg_class(std::size_t(bytes)));
      if (m.value >= 0 && m.value < coll_best[kind][cls]) {
        coll_best[kind][cls] = m.value;
        t.coll_algo[kind][cls] = int(*algo);
      }
    } else if (parts.size() == 4 && parts[0] == "chunk") {
      const long long chunk = numeric_token(parts[3], 'c');
      if (chunk <= 0) continue;
      if (m.value >= 0 && m.value < chunk_best) {
        chunk_best = m.value;
        t.chunk_bytes = chunk;
      }
    }
  }

  t.gemm_flops = gemm_d_rate;
  t.factor_flops = factor_rate;
  if (gemm_d_rate > 0 && gemm_f_rate > 0) {
    t.single_speedup = gemm_f_rate / gemm_d_rate;
  }
  return t;
}

}  // namespace chase::tune
