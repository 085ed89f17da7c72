// Solve-start hook kept for perfbench's traced solve.
//
// perfbench/src/traced_solve.hpp calls resolve_at_solve_start() before each
// solve; nothing else does, and there is nothing to resolve. It stays until
// perfbench drops the call (ROADMAP 8).
#pragma once

namespace chase::tune {

inline void resolve_at_solve_start() {}

}  // namespace chase::tune
