#include "perf/tuned.hpp"

#include <cmath>
#include <memory>
#include <mutex>
#include <vector>

namespace chase::perf {

namespace {

// Class boundaries. The tuner measures one representative size per class
// (96 / 384 / 1024 for GEMM, 128 / 256 / 1024 for factorizations) and the
// winner covers the whole class.
constexpr double kGemmSmallMax = 192;
constexpr double kGemmMediumMax = 640;
constexpr long long kFactorSmallMax = 128;
constexpr long long kFactorMediumMax = 512;
constexpr std::size_t kMsgSmallMax = std::size_t(64) << 10;   // 64 KiB
constexpr std::size_t kMsgMediumMax = std::size_t(1) << 20;   // 1 MiB

struct TableSlot {
  std::atomic<const TunedTables*> current{nullptr};
  std::mutex mu;  // serializes writers
  // Replaced tables are retired here instead of freed: a reader may still
  // hold the old pointer (the dispatchers are called from rank threads).
  std::vector<std::unique_ptr<const TunedTables>> retired;
};

TableSlot& slot() {
  static TableSlot s;
  return s;
}

}  // namespace

const char* scalar_tag_name(ScalarTag t) {
  switch (t) {
    case ScalarTag::kF32:
      return "f";
    case ScalarTag::kF64:
      return "d";
    case ScalarTag::kC32:
      return "c";
    case ScalarTag::kC64:
    default:
      return "z";
  }
}

const char* n_class_name(NClass c) {
  switch (c) {
    case NClass::kSmall:
      return "small";
    case NClass::kMedium:
      return "medium";
    case NClass::kLarge:
    default:
      return "large";
  }
}

NClass gemm_n_class(double m, double n, double k) {
  const double dim = std::cbrt(m * n * k);
  if (dim <= kGemmSmallMax) return NClass::kSmall;
  if (dim <= kGemmMediumMax) return NClass::kMedium;
  return NClass::kLarge;
}

NClass factor_n_class(long long n) {
  if (n <= kFactorSmallMax) return NClass::kSmall;
  if (n <= kFactorMediumMax) return NClass::kMedium;
  return NClass::kLarge;
}

const char* msg_class_name(MsgClass c) {
  switch (c) {
    case MsgClass::kSmallMsg:
      return "small";
    case MsgClass::kMediumMsg:
      return "medium";
    case MsgClass::kLargeMsg:
    default:
      return "large";
  }
}

const char* coll_kind_name(CollKind k) {
  switch (k) {
    case CollKind::kAllReduce:
      return "allreduce";
    case CollKind::kBroadcast:
      return "broadcast";
    case CollKind::kAllGather:
    default:
      return "allgather";
  }
}

MsgClass msg_class(std::size_t bytes) {
  if (bytes <= kMsgSmallMax) return MsgClass::kSmallMsg;
  if (bytes <= kMsgMediumMax) return MsgClass::kMediumMsg;
  return MsgClass::kLargeMsg;
}

const TunedTables* tuned_tables() {
  return slot().current.load(std::memory_order_acquire);
}

void set_tuned_tables(const TunedTables& t) {
  auto& s = slot();
  std::lock_guard<std::mutex> lock(s.mu);
  auto fresh = std::make_unique<const TunedTables>(t);
  const TunedTables* prev =
      s.current.exchange(fresh.get(), std::memory_order_acq_rel);
  s.retired.push_back(std::move(fresh));
  if (prev != nullptr) {
    // Already owned by `retired` from a previous install; nothing to do.
  }
}

void clear_tuned_tables() {
  auto& s = slot();
  std::lock_guard<std::mutex> lock(s.mu);
  s.current.store(nullptr, std::memory_order_release);
}

}  // namespace chase::perf
