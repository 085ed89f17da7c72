// Process-global runtime policies: the one mechanism behind every CHASE_*
// switch the solver resolves per call.
//
// A policy is an atomic override slot seeded from one environment variable
// at first read. The enum-valued policies (GEMM kernel, factorization
// kernel, collective algorithm, solve precision) resolve as
//
//   explicit override (the env var, or a Scoped guard)
//     > loaded machine-profile entry (perf::tuned_tables(), when >= 0)
//     > built-in default,
//
// and the integer knobs (collective chunk bytes, checkpoint interval, ABFT)
// use the same slot and guard with their own fallback. Reading a slot is one
// relaxed atomic load; only the first read parses the environment, and a
// set-but-unknown value throws env::ConfigError naming the variable and the
// accepted values. Slots are process-global: pin them on the main thread
// before Team::run, never from inside the rank lambda.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "common/env.hpp"

namespace chase::policy {

/// Raw slot value meaning "no override".
inline constexpr long long kNone = -1;

/// One override slot: kNone, or the raw value the environment variable or a
/// Scoped guard pinned. Slots are constant-initialized globals (constinit),
/// so they are usable from any static initializer.
class Slot {
 public:
  constexpr explicit Slot(const char* env_var) : env_var_(env_var) {}

  long long raw() const {
    const long long v = raw_.load(std::memory_order_relaxed);
    return v != kUnread ? v : seed();
  }
  void set_raw(long long raw) { raw_.store(raw, std::memory_order_relaxed); }
  bool overridden() const { return raw() != kNone; }
  const char* env_var() const { return env_var_; }

  /// Raw value that `text`, as the value of env_var(), stands for. Throws
  /// env::ConfigError naming the variable when `text` is not accepted.
  virtual long long from_text(const std::string& text) const = 0;

 protected:
  ~Slot() = default;

 private:
  static constexpr long long kUnread = -2;
  long long seed() const;

  const char* env_var_;
  mutable std::atomic<long long> raw_{kUnread};
};

/// RAII override: pins `raw` and, on exit, restores the slot's previous raw
/// value (an outer guard's pin, the env value, or "none"), so guards nest.
class Scoped {
 public:
  Scoped(Slot& slot, long long raw) : slot_(slot), prev_(slot.raw()) {
    slot.set_raw(raw);
  }
  ~Scoped() { slot_.set_raw(prev_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Slot& slot_;
  const long long prev_;
};

/// Enum-valued policy: `names[i]` names enumerator i, `fallback` is the
/// built-in default.
template <typename E, std::size_t N>
class Policy final : public Slot {
 public:
  constexpr Policy(const char* env_var, std::array<std::string_view, N> names,
                   E fallback)
      : Slot(env_var), names_(names), fallback_(fallback) {}

  std::string_view name(E e) const {
    const auto i = static_cast<std::size_t>(e);
    return i < N ? names_[i] : "?";
  }

  std::optional<E> parse(std::string_view text) const {
    for (std::size_t i = 0; i < N; ++i) {
      if (text == names_[i]) return E(i);
    }
    return std::nullopt;
  }

  long long from_text(const std::string& text) const override {
    if (const auto e = parse(text)) return static_cast<long long>(*e);
    std::string expected;
    for (const std::string_view n : names_) {
      if (!expected.empty()) expected += " | ";
      expected += n;
    }
    env::reject(env_var(), text, "unknown policy", expected);
  }

  /// override > `tuned` profile entry (when >= 0) > built-in default.
  E resolve(int tuned = -1) const {
    const long long v = raw();
    if (v != kNone) return E(v);
    return tuned >= 0 ? E(tuned) : fallback_;
  }

 private:
  std::array<std::string_view, N> names_;
  E fallback_;
};

/// Scoped pin of the enum policy object `P`, e.g. Pin<la::gemm_policy>.
template <auto& P>
class Pin : public Scoped {
 public:
  explicit Pin(decltype(P.resolve()) value)
      : Scoped(P, static_cast<long long>(value)) {}
};

/// Integer knob: `parse(env_var, text)` maps the environment text to a raw
/// value or throws env::ConfigError.
class Knob final : public Slot {
 public:
  using Parser = long long (*)(const char* env_var, const std::string& text);
  constexpr Knob(const char* env_var, Parser parse)
      : Slot(env_var), parse_(parse) {}

  long long from_text(const std::string& text) const override {
    return parse_(env_var(), text);
  }

 private:
  Parser parse_;
};

/// Knob parser for strictly positive integers (env::positive_int).
long long positive(const char* env_var, const std::string& text);

}  // namespace chase::policy
