// Tuned dispatch tables: the low-level, dependency-free representation of a
// loaded machine profile (src/tune).
//
// The autotuner benchmarks the registered kernels and collective algorithms
// and persists the winners per shape/size class (DBCSR-style: tune once per
// machine, dispatch from the table at runtime). The la and coll policy
// layers cannot depend on src/tune (tune drives them), so the *data* lives
// here in perf — plain ints keyed by the class enums below, with the
// translation to la::GemmKernel / la::FactorKernel / coll::Algorithm done by
// the consumers, and the installation done by tune::install_profile().
//
// Precedence contract (enforced by each consumer): an explicit override
// (CHASE_* env var or a Scoped* policy guard) always wins; otherwise a
// loaded profile's table entry; otherwise the built-in/build-time default.
// A process that never loads a profile sees every entry unset and behaves
// exactly as before the autotuner existed.
#pragma once

#include <atomic>
#include <cstddef>
#include <string_view>

#include "perf/tracker.hpp"

namespace chase::perf {

// --- shape and size classes the tuned tables are keyed by ---

/// Scalar storage type of a dense kernel call.
enum class ScalarTag : int { kF32 = 0, kF64, kC32, kC64, kCount_ };
inline constexpr int kScalarTagCount = int(ScalarTag::kCount_);

const char* scalar_tag_name(ScalarTag t);

/// Dense-kernel shape class, by the geometric-mean dimension of the
/// product (cbrt(m*n*k) for GEMM, the triangular n for factorizations).
/// Class boundaries match the tuner's representative sizes: it measures one
/// size per class and the winner covers the class.
enum class NClass : int { kSmall = 0, kMedium, kLarge, kCount_ };
inline constexpr int kNClassCount = int(NClass::kCount_);

const char* n_class_name(NClass c);

/// Class of a GEMM-shaped product m x n x k.
NClass gemm_n_class(double m, double n, double k);

/// Class of a factorization on a triangular dimension n.
NClass factor_n_class(long long n);

/// Collective message-size class (bytes follow the Tracker convention:
/// per-rank payload for reduce/broadcast, total gathered for allgather).
enum class MsgClass : int { kSmallMsg = 0, kMediumMsg, kLargeMsg, kCount_ };
inline constexpr int kMsgClassCount = int(MsgClass::kCount_);

const char* msg_class_name(MsgClass c);
const char* coll_kind_name(CollKind k);
MsgClass msg_class(std::size_t bytes);

/// Index of the enumerator of E in [0, count) that `namer` names `name`, or
/// -1 (unknown names leave a profile cell untuned instead of failing it).
template <typename E>
int parse_class(std::string_view name, const char* (*namer)(E), int count) {
  for (int i = 0; i < count; ++i) {
    if (name == namer(E(i))) return i;
  }
  return -1;
}

// --- the tables themselves ---

/// One loaded profile's dispatch tables. Entries are the *int value* of the
/// consumer-side enum (la::GemmKernel, la::FactorKernel, coll::Algorithm);
/// -1 means "no tuned entry, fall through to the default". Rates are the
/// measured machine rates (0 = unset) that calibrate the selection
/// MachineModel.
struct TunedTables {
  int gemm_kernel[kScalarTagCount][kNClassCount];
  int factor_kernel[kNClassCount];
  int coll_algo[kCollKindCount][kMsgClassCount];
  long long chunk_bytes = 0;  // 0 = unset
  double gemm_flops = 0;      // measured double GEMM rate (flops/s)
  double factor_flops = 0;    // measured factorization-engine rate
  double single_speedup = 0;  // measured fp32/fp64 GEMM rate ratio

  TunedTables() {
    for (auto& row : gemm_kernel) {
      for (int& v : row) v = -1;
    }
    for (int& v : factor_kernel) v = -1;
    for (auto& row : coll_algo) {
      for (int& v : row) v = -1;
    }
  }
};

/// The process-global tuned tables, or null when no profile is installed.
/// One relaxed-ish atomic load — cheap enough for the per-call kernel
/// dispatchers. The returned pointer stays valid for the process lifetime
/// (replaced tables are retired, not freed).
const TunedTables* tuned_tables();

/// Install a copy of `t` as the process-global tables (published with
/// release semantics; the previous tables are retired, never freed, so
/// concurrent readers stay safe).
void set_tuned_tables(const TunedTables& t);

/// Remove the installed tables; consumers fall back to built-in defaults.
void clear_tuned_tables();

}  // namespace chase::perf
