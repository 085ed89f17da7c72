// Versioned, per-machine autotuning profile (DESIGN.md §15).
//
// A MachineProfile is what `chase_tune` persists and what CHASE_PROFILE
// loads at solve start: the machine fingerprint the measurements were taken
// on, the raw measurement log (every probe, so the rates can be re-derived
// deterministically without re-benchmarking — `chase_tune --check`), and
// the measured machine rates that calibrate the selection MachineModel
// (perf::selection_model), the one model behind CHASE_COLL_ALGO=auto and
// the QR variant selector.
//
// The JSON wire format is schema- and version-checked:
//
//   {"schema": "chase.machine_profile", "version": 1,
//    "fingerprint": {"host": "...", "cpu": "...", "threads": N},
//    "measurements": [{"name": "gemm.d.n768.micro",
//                      "value": 1.23e9, "unit": "flop/s"}, ...],
//    "tables": {"rates": {"gemm_flops": ..., "factor_flops": ...,
//                         "single_speedup": ...}}}
//
// decode_profile rejects unknown schemas, future versions, and malformed
// documents outright (the caller falls back to built-in defaults and bumps
// "tune.profile.rejected"). Every table key is optional and unknown keys
// are ignored: v1 profiles written before the collective and kernel tables
// were retired still carry "coll_algo", "chunk_bytes", "gemm_kernel" and
// "factor_kernel", and load with those tables unread.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace chase::tune {

inline constexpr const char* kProfileSchema = "chase.machine_profile";
inline constexpr int kProfileVersion = 1;

/// Identity of the machine a profile was measured on. Measured rates are
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

/// The measured machine rates a profile carries (0 = unset).
struct ProfileRates {
  double gemm_flops = 0;      // double GEMM engine, one core (flop/s)
  double factor_flops = 0;    // factorization engine, one core (flop/s)
  double single_speedup = 0;  // fp32 / fp64 GEMM rate ratio

  bool operator==(const ProfileRates&) const = default;
};

struct MachineProfile {
  Fingerprint fingerprint;
  std::vector<RawMeasurement> measurements;
  ProfileRates rates;
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

/// Install `p` process-wide: recalibrate the selection MachineModel from its
/// measured rates. Skips (returns false, bumps "tune.profile.rejected") when
/// `check_fingerprint` and the profile was measured elsewhere.
bool install_profile(const MachineProfile& p, bool check_fingerprint = true);

/// Remove any installed profile: consumers fall back to built-in defaults.
void uninstall_profile();

}  // namespace chase::tune
