// chase_tune: probe this machine once, persist the measured rates.
//
//   chase_tune [--out <path>] [--quick] [--reps N] [--warmup N]
//              [--check <path>]
//
// Runs the autotuner (src/tune/tuner.hpp) and writes the machine profile
// JSON to --out (default: $CHASE_PROFILE when set, else
// machine_profile.json). Point CHASE_PROFILE at the written file and every
// subsequent solve calibrates its selection machine model (the cost model
// behind CHASE_COLL_ALGO=auto and the QR variant selector) from the
// measured rates.
//
// --check validates an existing profile instead of tuning: schema/version,
// fingerprint-vs-this-host, and that the stored rates match what
// derive_rates re-derives from the recorded measurements (the replay
// invariant). Exit 0 iff all three hold. A malformed flag or flag value
// prints the reason and the usage line to stderr and exits 2.
#include <cstdio>
#include <cstring>
#include <string>

#include "common/env.hpp"
#include "tune/profile.hpp"
#include "tune/tuner.hpp"

namespace {

using namespace chase;

int check_profile(const std::string& path) {
  std::string error;
  const auto p = tune::load_profile(path, &error);
  if (!p) {
    std::fprintf(stderr, "chase_tune --check: %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  int failures = 0;
  if (!p->fingerprint.matches(tune::local_fingerprint())) {
    std::fprintf(stderr,
                 "chase_tune --check: fingerprint mismatch (profile measured "
                 "on %s)\n",
                 p->fingerprint.host.c_str());
    ++failures;
  }
  if (p->rates != tune::derive_rates(p->measurements)) {
    std::fprintf(stderr,
                 "chase_tune --check: stored rates do not match the "
                 "measurement log (replay invariant violated)\n");
    ++failures;
  }
  if (failures == 0) {
    std::printf("%s: valid profile for this machine (%zu measurements)\n",
                path.c_str(), p->measurements.size());
  }
  return failures == 0 ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out <path>] [--quick] [--reps N] [--warmup N] "
               "[--check <path>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  tune::TuneOptions opts;
  std::string out_path;
  if (const auto env = env::text_env("CHASE_PROFILE")) out_path = *env;
  if (out_path.empty()) out_path = "machine_profile.json";

  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--check") == 0 && i + 1 < argc) {
        return check_profile(argv[++i]);
      } else if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
        out_path = argv[++i];
      } else if (std::strcmp(arg, "--quick") == 0) {
        opts.quick = true;
      } else if (std::strcmp(arg, "--reps") == 0 && i + 1 < argc) {
        opts.repeats = int(env::ranged_int("--reps", argv[++i], 1, 1000));
      } else if (std::strcmp(arg, "--warmup") == 0 && i + 1 < argc) {
        opts.warmup = int(env::ranged_int("--warmup", argv[++i], 0, 1000));
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const env::ConfigError& e) {
    std::fprintf(stderr, "chase_tune: %s\n", e.what());
    return usage(argv[0]);
  }

  std::printf("chase_tune: probing this machine (%s mode, %d warmup + %d "
              "timed reps per probe)...\n",
              opts.quick ? "quick" : "full", opts.warmup, opts.repeats);
  const tune::MachineProfile profile = tune::run_tuning(opts);
  std::printf("fingerprint: %s / %s / %d threads\n",
              profile.fingerprint.host.c_str(),
              profile.fingerprint.cpu.c_str(), profile.fingerprint.threads);
  std::printf("%zu measurements recorded\n", profile.measurements.size());
  std::printf("measured rates: gemm %.3g flop/s, factor %.3g flop/s, fp32 "
              "speedup %.2fx\n",
              profile.rates.gemm_flops, profile.rates.factor_flops,
              profile.rates.single_speedup);

  std::string error;
  if (!tune::save_profile(profile, out_path, &error)) {
    std::fprintf(stderr, "chase_tune: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s\nexport CHASE_PROFILE=%s to use it\n",
              out_path.c_str(), out_path.c_str());
  return 0;
}
