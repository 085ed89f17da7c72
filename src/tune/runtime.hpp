// Solve-start profile resolution (DESIGN.md §15).
//
// core::solve / core::solve_lms call ensure_profile_from_env() on entry.
// Once per process, the CHASE_PROFILE env knob is resolved: the named
// profile is loaded, schema/fingerprint-checked and installed
// (tune::install_profile). A rejected profile — unreadable, corrupt, wrong
// version, wrong machine — bumps "tune.profile.rejected" and the process
// falls back to built-in defaults; it never aborts a solve.
#pragma once

namespace chase::tune {

/// Process-once env resolution. Idempotent and thread-safe.
void ensure_profile_from_env();

/// The same call under its older name; perfbench's traced solve uses it.
inline void resolve_at_solve_start() { ensure_profile_from_env(); }

/// Test hook: forget that env resolution ran (so the next
/// ensure_profile_from_env() re-reads CHASE_PROFILE) and uninstall any
/// loaded profile.
void reset_runtime_for_testing();

}  // namespace chase::tune
