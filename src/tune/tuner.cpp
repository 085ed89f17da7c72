#include "tune/tuner.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "la/gemm.hpp"
#include "la/parallel.hpp"
#include "la/potrf.hpp"
#include "la/trsm.hpp"
#include "tune/measure.hpp"

namespace chase::tune {

namespace {

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

std::string size_token(const char* prefix, long long v) {
  return std::string(prefix) + std::to_string(v);
}

// --- GEMM probes: gemm.<f|d>.n<size>.micro = flop/s ---------------------
//
// The real types give the fp64 rate and the fp32 speedup. The last token
// names the engine measured; v1 profiles also logged the retired naive (and
// blocked) GEMM kernels and the complex types under the same grammar.

template <typename T>
void probe_gemm(const TuneOptions& opts, const char* tag,
                std::vector<RawMeasurement>& out) {
  for (const long long size : opts.gemm_sizes) {
    const Index n = Index(size);
    auto a = random_mat<T>(n, n, 1);
    auto b = random_mat<T>(n, n, 2);
    la::Matrix<T> c(n, n);
    const double flops = 2.0 * double(n) * double(n) * double(n);
    const double rate = measured_rate(flops, opts.warmup, opts.repeats, [&] {
      la::gemm(T(1), a.cview(), b.cview(), T(0), c.view());
    });
    out.push_back({std::string("gemm.") + tag + "." + size_token("n", n) +
                       ".micro",
                   rate, "flop/s"});
  }
}

// --- factorization probes: factor.n<size>.blocked = flop/s ---------------
//
// One composite per size: POTRF of a shifted Gram matrix plus the TRSM that
// CholeskyQR applies afterwards.

void probe_factor(const TuneOptions& opts, std::vector<RawMeasurement>& out) {
  using T = double;
  for (const long long size : opts.factor_sizes) {
    const Index n = Index(size);
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
    const double rate = measured_rate(flops, opts.warmup, opts.repeats, [&] {
      la::copy(g.cview(), work.view());
      la::copy(b.cview(), x.view());
      la::potrf_upper(work.view());
      la::trsm_right_upper(work.cview(), x.view());
    });
    out.push_back({std::string("factor.") + size_token("n", n) + ".blocked",
                   rate, "flop/s"});
  }
}

// --- measurement-name parsing for derive_rates ---------------------------

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
  // One kernel size each: the rates come from the largest probed size.
  if (o.gemm_sizes.empty()) o.gemm_sizes = {o.quick ? 672 : 768};
  if (o.factor_sizes.empty()) o.factor_sizes = {o.quick ? 640 : 768};
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
    probe_factor(opts, p.measurements);
  }
  p.rates = derive_rates(p.measurements);
  return p;
}

ProfileRates derive_rates(const std::vector<RawMeasurement>& measurements) {
  // The largest measured size per domain carries the rates: the best rate
  // logged there, whatever kernel name the entry carries.
  long long gemm_rate_size = -1, factor_rate_size = -1;
  double gemm_d_rate = 0, gemm_f_rate = 0, factor_rate = 0;

  for (const RawMeasurement& m : measurements) {
    const auto parts = split_dots(m.name);
    if (parts.size() == 4 && parts[0] == "gemm") {
      const long long n = numeric_token(parts[2], 'n');
      const bool is_d = parts[1] == "d";
      const bool is_f = parts[1] == "f";
      if (n <= 0 || !(is_d || is_f)) continue;
      if (n > gemm_rate_size) {
        gemm_rate_size = n;
        gemm_d_rate = gemm_f_rate = 0;
      }
      if (n == gemm_rate_size) {
        if (is_d) gemm_d_rate = std::max(gemm_d_rate, m.value);
        if (is_f) gemm_f_rate = std::max(gemm_f_rate, m.value);
      }
    } else if (parts.size() == 3 && parts[0] == "factor") {
      const long long n = numeric_token(parts[1], 'n');
      if (n <= 0) continue;
      if (n > factor_rate_size) {
        factor_rate_size = n;
        factor_rate = 0;
      }
      if (n == factor_rate_size) factor_rate = std::max(factor_rate, m.value);
    }
  }

  ProfileRates r;
  r.gemm_flops = gemm_d_rate;
  r.factor_flops = factor_rate;
  if (gemm_d_rate > 0 && gemm_f_rate > 0) {
    r.single_speedup = gemm_f_rate / gemm_d_rate;
  }
  return r;
}

}  // namespace chase::tune
