// Tuned dispatch tables: the low-level, dependency-free representation of a
// loaded machine profile (src/tune).
//
// The autotuner benchmarks the collective algorithms and persists the
// winners per message-size class (DBCSR-style: tune once per machine,
// dispatch from the table at runtime), plus the measured kernel rates that
// calibrate the machine model. The coll policy layer cannot depend on
// src/tune (tune drives it), so the *data* lives here in perf — plain ints
// keyed by the class enums below, with the translation to coll::Algorithm
// done by the consumer, and the installation done by
// tune::install_profile().
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

// --- size classes the tuned tables are keyed by ---

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
/// consumer-side enum (coll::Algorithm); -1 means "no tuned entry, fall
/// through to the default". Rates are the measured machine rates (0 =
/// unset) that calibrate the selection MachineModel.
struct TunedTables {
  int coll_algo[kCollKindCount][kMsgClassCount];
  long long chunk_bytes = 0;  // 0 = unset
  double gemm_flops = 0;      // measured double GEMM rate (flops/s)
  double factor_flops = 0;    // measured factorization-engine rate
  double single_speedup = 0;  // measured fp32/fp64 GEMM rate ratio

  TunedTables() {
    for (auto& row : coll_algo) {
      for (int& v : row) v = -1;
    }
  }
};

/// The process-global tuned tables, or null when no profile is installed.
/// One acquire load — cheap enough for the per-call collective
/// dispatcher. The returned pointer stays valid for the process lifetime
/// (replaced tables are retired, not freed).
const TunedTables* tuned_tables();

/// Install a copy of `t` as the process-global tables (published with
/// release semantics; the previous tables are retired, never freed, so
/// concurrent readers stay safe).
void set_tuned_tables(const TunedTables& t);

/// Remove the installed tables; consumers fall back to built-in defaults.
void clear_tuned_tables();

}  // namespace chase::perf
