#include "tune/runtime.hpp"

#include <mutex>
#include <string>

#include "common/env.hpp"
#include "perf/tracker.hpp"
#include "tune/profile.hpp"

namespace chase::tune {

namespace {

struct RuntimeState {
  std::mutex mu;
  bool resolved = false;
};

RuntimeState& state() {
  static RuntimeState s;
  return s;
}

}  // namespace

void ensure_profile_from_env() {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.resolved) return;
  s.resolved = true;
  const auto path = env::text_env("CHASE_PROFILE");
  if (!path) return;
  const auto profile = load_profile(*path);
  if (!profile) {
    if (auto* t = perf::thread_tracker()) t->bump("tune.profile.rejected", 1.0);
    return;
  }
  // install_profile bumps tune.profile.rejected itself on a fingerprint
  // mismatch.
  install_profile(*profile);
}

void reset_runtime_for_testing() {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.resolved = false;
  uninstall_profile();
}

}  // namespace chase::tune
