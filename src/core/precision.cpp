#include "core/precision.hpp"

#include <mutex>

namespace chase::core {

namespace {

// The promotion config is a small aggregate, not an atomic word; guarded by
// a mutex (read once per solve at setup, never on the hot path).
struct PromotionSlot {
  std::mutex mu;
  engine::PromotionConfig cfg;
};

PromotionSlot& promotion_slot() {
  static PromotionSlot slot;
  return slot;
}

}  // namespace

engine::PromotionConfig promotion_config() {
  auto& slot = promotion_slot();
  std::lock_guard<std::mutex> lock(slot.mu);
  return slot.cfg;
}

void set_promotion_config(const engine::PromotionConfig& cfg) {
  auto& slot = promotion_slot();
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.cfg = cfg;
}

}  // namespace chase::core
