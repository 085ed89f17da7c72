// Autotuner end-to-end gate (DESIGN.md §15).
//
// Runs an in-process quick tuning pass (tune::run_tuning), persists the
// profile to results/machine_profile.json, then times the same sequential
// solve with the profile installed ("tuned": its measured rates calibrate
// the selection model) and with no profile, alternating the two. The
// acceptance signals, emitted to results/bench_tune.json and gated by
// scripts/compare_bench.py:
//
//   * tuned <= 1.05x the profile-less solve — a loaded profile must not tax
//     the hot path;
//   * replay determinism — derive_rates over the persisted measurement log
//     must reproduce the persisted rates bit-for-bit, after a save and load
//     round trip.
//
// `--schema <path>` instead validates an existing profile JSON (schema,
// version, structure and the replay invariant) without benchmarking:
// exit 0 if the file is a loadable profile, 1 otherwise.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench/bench_common.hpp"
#include "gen/spectrum.hpp"
#include "core/sequential.hpp"
#include "tune/profile.hpp"
#include "tune/runtime.hpp"
#include "tune/tuner.hpp"

namespace {

using chase::la::Index;
namespace tune = chase::tune;

int schema_check(const char* path) {
  std::string error;
  const auto p = tune::load_profile(path, &error);
  if (!p) {
    std::fprintf(stderr, "%s: invalid profile: %s\n", path, error.c_str());
    return 1;
  }
  if (p->rates != tune::derive_rates(p->measurements)) {
    std::fprintf(stderr,
                 "%s: stored rates do not match the measurement log "
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
  if (quick) opts.repeats = 1;
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
  // re-derive the rates from the recorded measurement log alone.
  bool replay_deterministic = false;
  if (const auto back = tune::load_profile(profile_path, &error)) {
    replay_deterministic =
        back->rates == tune::derive_rates(back->measurements);
  } else {
    std::fprintf(stderr, "round-trip load failed: %s\n", error.c_str());
  }
  std::printf("profile: %s (%zu measurements, replay %s)\n",
              profile_path.c_str(), profile.measurements.size(),
              replay_deterministic ? "deterministic" : "NON-DETERMINISTIC");

  // ---- end-to-end solve, tuned vs profile-less
  const Index n = quick ? 192 : 384;
  chase::core::ChaseConfig cfg;
  cfg.nev = n / 8;
  cfg.nex = n / 16;
  cfg.tol = 1e-9;
  const auto h = chase::gen::uniform_matrix<double>(n, 0.1, 10.0, 2023);
  const int reps = quick ? 1 : 3;

  const auto time_solve = [&] {
    const chase::tune::Measurement m = chase::bench::measure(
        /*warmup=*/0, 1, [&] {
          auto r = chase::core::solve_sequential<double>(h.view(), cfg);
          if (!r.converged) {
            std::fprintf(stderr, "solve did not converge\n");
            std::exit(1);
          }
        });
    return m.best;
  };

  std::printf("\nend-to-end solve n=%lld nev=%lld nex=%lld (best of %d, "
              "alternating):\n",
              (long long)n, (long long)cfg.nev, (long long)cfg.nex, reps);
  // Alternate the two so a slow phase of a shared host hits both sides.
  double profileless_seconds = 1e99, tuned_seconds = 1e99;
  for (int r = 0; r < reps; ++r) {
    tune::uninstall_profile();
    profileless_seconds = std::min(profileless_seconds, time_solve());
    if (!tune::install_profile(profile)) {
      std::fprintf(stderr, "freshly tuned profile rejected on this machine\n");
      return 1;
    }
    tuned_seconds = std::min(tuned_seconds, time_solve());
  }
  tune::uninstall_profile();
  const double tuned_vs_profileless = tuned_seconds / profileless_seconds;
  std::printf("  profile-less %10.4f s\n  tuned        %10.4f s\n",
              profileless_seconds, tuned_seconds);
  std::printf("\ntuned/profile-less %.3f (gate <= 1.05)\n",
              tuned_vs_profileless);

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
               "    \"replay_deterministic\": %s,\n"
               "    \"profileless_seconds\": %.6f,\n"
               "    \"tuned_seconds\": %.6f,\n"
               "    \"tuned_vs_profileless\": %.4f\n  }\n}\n",
               (long long)n, (long long)cfg.nev, (long long)cfg.nex, reps,
               profile_path.c_str(), profile.measurements.size(),
               replay_deterministic ? "true" : "false", profileless_seconds,
               tuned_seconds, tuned_vs_profileless);
  std::fclose(out);
  std::printf("wrote results/bench_tune.json\n");
  return 0;
}
