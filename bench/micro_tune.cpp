// Autotuner end-to-end gate (DESIGN.md §15).
//
// Runs an in-process quick tuning pass (tune::run_tuning), persists the
// profile to results/machine_profile.json, then times the same sequential
// solve under (a) the installed tuned dispatch tables and (b) every fixed
// single-policy configuration (GEMM {naive, micro} x factor {naive,
// blocked} pinned for the whole solve). The acceptance signals,
// emitted to results/bench_tune.json and gated by scripts/compare_bench.py:
//
//   * tuned <= 1.05x the best fixed configuration — consulting per-class
//     tables must not tax the hot path;
//   * worst fixed >= 1.3x tuned — the tuner must actually protect the solve
//     from a bad global policy choice;
//   * replay determinism — derive_selections over the persisted measurement
//     log must reproduce the persisted tables bit-for-bit, after a save and
//     load round trip.
//
// `--schema <path>` instead validates an existing profile JSON (schema,
// version, structure and the replay invariant) without benchmarking:
// exit 0 if the file is a loadable profile, 1 otherwise.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "gen/spectrum.hpp"
#include "la/factor/policy.hpp"
#include "la/gemm_policy.hpp"
#include "core/sequential.hpp"
#include "tune/profile.hpp"
#include "tune/runtime.hpp"
#include "tune/tuner.hpp"

namespace {

using chase::la::Index;
namespace tune = chase::tune;

struct FixedConfig {
  chase::la::GemmKernel gemm;
  chase::la::FactorKernel factor;
  double seconds = 0;
};

bool tables_equal(const chase::perf::TunedTables& a,
                  const chase::perf::TunedTables& b) {
  for (int t = 0; t < chase::perf::kScalarTagCount; ++t) {
    for (int c = 0; c < chase::perf::kNClassCount; ++c) {
      if (a.gemm_kernel[t][c] != b.gemm_kernel[t][c]) return false;
    }
  }
  for (int c = 0; c < chase::perf::kNClassCount; ++c) {
    if (a.factor_kernel[c] != b.factor_kernel[c]) return false;
  }
  for (int k = 0; k < chase::perf::kCollKindCount; ++k) {
    for (int c = 0; c < chase::perf::kMsgClassCount; ++c) {
      if (a.coll_algo[k][c] != b.coll_algo[k][c]) return false;
    }
  }
  return a.chunk_bytes == b.chunk_bytes;
}

int schema_check(const char* path) {
  std::string error;
  const auto p = tune::load_profile(path, &error);
  if (!p) {
    std::fprintf(stderr, "%s: invalid profile: %s\n", path, error.c_str());
    return 1;
  }
  if (!tables_equal(p->tables, tune::derive_selections(p->measurements))) {
    std::fprintf(stderr,
                 "%s: stored tables do not match the measurement log "
                 "(replay invariant violated)\n",
                 path);
    return 1;
  }
  std::printf("%s: valid %s v%d profile (%zu measurements)\n", path,
              tune::kProfileSchema, tune::kProfileVersion,
              p->measurements.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--schema") == 0 && i + 1 < argc) {
      return schema_check(argv[i + 1]);
    }
    std::fprintf(stderr, "usage: %s [--schema <profile.json>]\n", argv[0]);
    return 2;
  }

  const bool quick = chase::bench::quick_mode();

  // ---- tune (quick sizes: the probes, not the solve, dominate otherwise)
  tune::TuneOptions opts;
  opts.quick = true;
  opts.coll_ranks = 2;
  if (quick) {
    opts.repeats = 1;
    opts.skip_collectives = true;
  }
  std::printf("tuning (quick probe sizes, %d repeat%s)...\n", opts.repeats,
              opts.repeats == 1 ? "" : "s");
  const tune::MachineProfile profile = tune::run_tuning(opts);

  std::filesystem::create_directories("results");
  const std::string profile_path = "results/machine_profile.json";
  std::string error;
  if (!tune::save_profile(profile, profile_path, &error)) {
    std::fprintf(stderr, "cannot save %s: %s\n", profile_path.c_str(),
                 error.c_str());
    return 1;
  }

  // Replay determinism, through the persisted file: load it back and
  // re-derive the tables from the recorded measurement log alone.
  bool replay_deterministic = false;
  if (const auto back = tune::load_profile(profile_path, &error)) {
    replay_deterministic =
        tables_equal(back->tables, tune::derive_selections(back->measurements));
  } else {
    std::fprintf(stderr, "round-trip load failed: %s\n", error.c_str());
  }
  std::printf("profile: %s (%zu measurements, replay %s)\n",
              profile_path.c_str(), profile.measurements.size(),
              replay_deterministic ? "deterministic" : "NON-DETERMINISTIC");

  // ---- end-to-end solve under tuned vs fixed policies
  const Index n = quick ? 192 : 384;
  chase::core::ChaseConfig cfg;
  cfg.nev = n / 8;
  cfg.nex = n / 16;
  cfg.tol = 1e-9;
  const auto h = chase::gen::uniform_matrix<double>(n, 0.1, 10.0, 2023);
  const int reps = quick ? 1 : 3;

  const auto time_solve = [&] {
    const chase::tune::Measurement m = chase::bench::measure(
        /*warmup=*/0, reps, [&] {
          auto r = chase::core::solve_sequential<double>(h.view(), cfg);
          if (!r.converged) {
            std::fprintf(stderr, "solve did not converge\n");
            std::exit(1);
          }
        });
    return m.best;
  };

  std::vector<FixedConfig> fixed;
  for (const auto g :
       {chase::la::GemmKernel::kNaive, chase::la::GemmKernel::kMicro}) {
    for (const auto f :
         {chase::la::FactorKernel::kNaive, chase::la::FactorKernel::kBlocked}) {
      fixed.push_back({g, f, 0});
    }
  }

  std::printf("\nend-to-end solve n=%lld nev=%lld nex=%lld (best of %d):\n",
              (long long)n, (long long)cfg.nev, (long long)cfg.nex, reps);

  tune::uninstall_profile();
  for (FixedConfig& c : fixed) {
    chase::la::ScopedGemmKernel gemm_pin(c.gemm);
    chase::la::ScopedFactorKernel factor_pin(c.factor);
    c.seconds = time_solve();
    std::printf("  fixed gemm=%-8s factor=%-8s %10.4f s\n",
                std::string(chase::la::gemm_kernel_name(c.gemm)).c_str(),
                std::string(chase::la::factor_kernel_name(c.factor)).c_str(),
                c.seconds);
  }

  if (!tune::install_profile(profile)) {
    std::fprintf(stderr, "freshly tuned profile rejected on this machine\n");
    return 1;
  }
  const double tuned_seconds = time_solve();
  tune::uninstall_profile();
  std::printf("  tuned (profile dispatch tables)   %10.4f s\n", tuned_seconds);

  const FixedConfig* best = &fixed[0];
  const FixedConfig* worst = &fixed[0];
  for (const FixedConfig& c : fixed) {
    if (c.seconds < best->seconds) best = &c;
    if (c.seconds > worst->seconds) worst = &c;
  }
  const double tuned_vs_best = tuned_seconds / best->seconds;
  const double worst_vs_tuned = worst->seconds / tuned_seconds;
  std::printf("\ntuned/best_fixed %.3f (gate <= 1.05)  worst/tuned %.2fx "
              "(gate >= 1.3)\n",
              tuned_vs_best, worst_vs_tuned);

  std::FILE* out = std::fopen("results/bench_tune.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open results/bench_tune.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n  \"tune\": {\n    \"n\": %lld,\n    \"nev\": %lld,\n"
               "    \"nex\": %lld,\n    \"reps\": %d,\n"
               "    \"profile_path\": \"%s\",\n"
               "    \"measurements\": %zu,\n"
               "    \"replay_deterministic\": %s,\n    \"configs\": [\n",
               (long long)n, (long long)cfg.nev, (long long)cfg.nex, reps,
               profile_path.c_str(), profile.measurements.size(),
               replay_deterministic ? "true" : "false");
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    const FixedConfig& c = fixed[i];
    std::fprintf(out,
                 "      {\"gemm\": \"%s\", \"factor\": \"%s\", "
                 "\"seconds\": %.6f}%s\n",
                 std::string(chase::la::gemm_kernel_name(c.gemm)).c_str(),
                 std::string(chase::la::factor_kernel_name(c.factor)).c_str(),
                 c.seconds, i + 1 < fixed.size() ? "," : "");
  }
  std::fprintf(out,
               "    ],\n    \"tuned_seconds\": %.6f,\n"
               "    \"best_fixed_seconds\": %.6f,\n"
               "    \"worst_fixed_seconds\": %.6f,\n"
               "    \"tuned_vs_best\": %.4f,\n"
               "    \"worst_vs_tuned\": %.4f\n  }\n}\n",
               tuned_seconds, best->seconds, worst->seconds, tuned_vs_best,
               worst_vs_tuned);
  std::fclose(out);
  std::printf("wrote results/bench_tune.json\n");
  return 0;
}
