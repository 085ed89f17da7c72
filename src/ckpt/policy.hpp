// Checkpoint cadence policy.
//
// CHASE_CKPT_INTERVAL=k captures a snapshot every k-th iteration boundary
// (unset: checkpointing disabled). ScopedCheckpointInterval shadows the
// environment — tests and the elastic restart driver use it so cadence is
// never process-global state they cannot control.
#pragma once

#include <algorithm>

#include "common/policy.hpp"

namespace chase::ckpt {

inline constinit policy::Knob interval_knob{"CHASE_CKPT_INTERVAL",
                                            policy::positive};

/// Effective capture cadence: the pinned or CHASE_CKPT_INTERVAL value, else
/// 0 (disabled).
inline int checkpoint_interval() {
  return int(std::max<long long>(interval_knob.raw(), 0));
}

/// Pins cadence `interval` (0 = disabled) for the guard's lifetime.
class ScopedCheckpointInterval : public policy::Scoped {
 public:
  explicit ScopedCheckpointInterval(int interval)
      : Scoped(interval_knob, interval) {}
};

}  // namespace chase::ckpt
