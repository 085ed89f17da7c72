// Shared plumbing for the experiment benches: instrumented distributed runs
// (result + merged per-rank cost tracker) and table formatting.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/chase.hpp"
#include "core/legacy_lms.hpp"
#include "gen/suite.hpp"
#include "perf/cost_model.hpp"

namespace chase::bench {

using core::ChaseConfig;
using core::ChaseResult;
using perf::Backend;

/// True when CHASE_BENCH_QUICK=1: benches shrink their workloads (used to
/// smoke-test the harness).
inline bool quick_mode() {
  const char* env = std::getenv("CHASE_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

template <typename T>
struct InstrumentedRun {
  ChaseResult<T> result;
  perf::Tracker tracker;  // rank-0 events, max-over-ranks timings
};

/// Run the given solver variant on a p x p grid with per-rank trackers, and
/// merge them (max compute times over ranks, rank-0 event stream).
template <typename T>
InstrumentedRun<T> run_distributed(la::ConstMatrixView<T> h_full, int p,
                                   const ChaseConfig& cfg, Backend backend,
                                   bool lms = false) {
  const la::Index n = h_full.rows();
  InstrumentedRun<T> out;
  std::vector<perf::Tracker> trackers(std::size_t(p) * std::size_t(p));
  comm::Team team(p * p, backend);
  team.run(
      [&](comm::Communicator& world) {
        comm::Grid2d grid(world, p, p);
        auto map = dist::IndexMap::block(n, p);
        dist::DistHermitianMatrix<T> hd(grid, map, map);
        hd.fill_from_global(h_full);
        auto r = lms ? core::solve_lms(hd, cfg) : core::solve(hd, cfg);
        if (world.rank() == 0) out.result = std::move(r);
      },
      &trackers);
  out.tracker = std::move(trackers[0]);
  for (std::size_t r = 1; r < trackers.size(); ++r) {
    out.tracker.merge_max_times(trackers[r]);
  }
  return out;
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace chase::bench
