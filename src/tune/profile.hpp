// Versioned, per-machine autotuning profile (DESIGN.md §15).
//
// A MachineProfile is what `chase_tune` persists and what CHASE_PROFILE
// loads at solve start: the machine fingerprint the measurements were taken
// on, the raw measurement log (every kernel and algorithm probed, so the
// tables can be re-derived deterministically without re-benchmarking —
// CHASE_TUNE_REPLAY), and the derived tables in the low-level
// perf::TunedTables form the coll policy layer and the machine model
// consume.
//
// The JSON wire format is schema- and version-checked:
//
//   {"schema": "chase.machine_profile", "version": 1,
//    "fingerprint": {"host": "...", "cpu": "...", "threads": N},
//    "measurements": [{"name": "gemm.d.n384.micro",
//                      "value": 1.23e9, "unit": "flop/s"}, ...],
//    "tables": {"coll_algo":     [{"kind": "allreduce", "msgclass": "small",
//                                  "algo": "ring"}, ...],
//               "chunk_bytes": 65536,
//               "rates": {"gemm_flops": ..., "factor_flops": ...,
//                         "single_speedup": ...}}}
//
// decode_profile rejects unknown schemas, future versions, and malformed
// documents outright (the caller falls back to built-in defaults and bumps
// "tune.profile.rejected"); unknown *enum names* inside the tables merely
// leave that entry untuned, so a profile written by a newer build with more
// algorithms still loads on an older one. Every table key is optional and
// unknown keys are ignored: v1 profiles written before the GEMM and
// factorization kernel policies were retired still carry "gemm_kernel" and
// "factor_kernel" tables, and load with those tables unread.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perf/tuned.hpp"

namespace chase::tune {

inline constexpr const char* kProfileSchema = "chase.machine_profile";
inline constexpr int kProfileVersion = 1;

/// Identity of the machine a profile was measured on. Tuned tables are
/// meaningless on different hardware, so install is gated on a match.
struct Fingerprint {
  std::string host;
  std::string cpu;
  int threads = 0;

  bool matches(const Fingerprint& other) const {
    return host == other.host && cpu == other.cpu &&
           threads == other.threads;
  }
};

/// Fingerprint of the machine this process runs on (hostname, the
/// /proc/cpuinfo model name when readable, hardware_concurrency).
Fingerprint local_fingerprint();

/// One raw tuner measurement, e.g. {"gemm.d.n384.micro", 1.2e9, "flop/s"}.
struct RawMeasurement {
  std::string name;
  double value = 0;
  std::string unit;
};

struct MachineProfile {
  Fingerprint fingerprint;
  std::vector<RawMeasurement> measurements;
  perf::TunedTables tables;

  /// Lookup in the raw measurement log; 0 when absent.
  double measurement(std::string_view name) const;
};

/// Serialize to the versioned JSON document above.
std::string encode_profile(const MachineProfile& p);

/// Parse and schema-check one JSON document. On failure returns nullopt and
/// (when `error` is non-null) a one-line reason.
std::optional<MachineProfile> decode_profile(std::string_view text,
                                             std::string* error = nullptr);

/// File round-trip of encode/decode.
bool save_profile(const MachineProfile& p, const std::string& path,
                  std::string* error = nullptr);
std::optional<MachineProfile> load_profile(const std::string& path,
                                           std::string* error = nullptr);

/// Install `p` process-wide: publish the dispatch tables
/// (perf::set_tuned_tables) and recalibrate the selection MachineModel from
/// the measured rates. Skips (returns false, bumps "tune.profile.rejected")
/// when `check_fingerprint` and the profile was measured elsewhere.
bool install_profile(const MachineProfile& p, bool check_fingerprint = true);

/// Remove any installed profile: consumers fall back to built-in defaults.
void uninstall_profile();

}  // namespace chase::tune
