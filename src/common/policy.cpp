#include "common/policy.hpp"

namespace chase::policy {

long long Slot::seed() const {
  long long v = kNone;
  if (const auto text = env::text_env(env_var_)) v = from_text(*text);
  // A racing first read parsed the same text, and a guard may have pinned a
  // value meanwhile: whichever landed first wins.
  long long expected = kUnread;
  if (raw_.compare_exchange_strong(expected, v, std::memory_order_relaxed)) {
    return v;
  }
  return expected;
}

long long positive(const char* env_var, const std::string& text) {
  return env::positive_int(env_var, text.c_str());
}

}  // namespace chase::policy
