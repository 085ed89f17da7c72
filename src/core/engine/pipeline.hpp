// The staged iteration pipeline: one loop drives any stage list over any
// DLA backend. The pipeline owns the per-iteration bookkeeping the stages
// share — stats lifecycle, observer notification (on every recorded
// iteration, including filter-recovery retries), workspace-arena growth
// accounting — so a scheme is fully described by (backend, stage list).
#pragma once

#include <cmath>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/faultinject.hpp"
#include "core/degrees.hpp"
#include "core/dla.hpp"
#include "core/lanczos.hpp"
#include "core/types.hpp"

namespace chase::core::engine {

/// What an iteration does after a stage returns:
///   kContinue  — run the next stage;
///   kRetry     — record this iteration and rerun from the first stage
///                (the filter guard's re-randomization path);
///   kAbort     — stop the solve without recording this iteration;
///   kConverged — record this iteration and stop, converged.
enum class StageOutcome { kContinue, kRetry, kAbort, kConverged };

template <typename T>
struct SolveContext {
  using R = RealType<T>;

  SolveContext(const ChaseConfig& cfg_in, ChaseObserver<T>* observer_in,
               ChaseResult<T>& result_in, SolverWorkspace<T>& ws_in)
      : cfg(cfg_in), observer(observer_in), result(result_in), ws(ws_in) {}

  const ChaseConfig& cfg;
  ChaseObserver<T>* observer;
  ChaseResult<T>& result;
  SolverWorkspace<T>& ws;

  Index ne = 0;
  R b_sup{}, mu_1{}, mu_ne{}, center{}, half{}, scale{}, tol{};
  std::vector<R> ritz, resid;
  std::vector<int> degs;
  Index locked = 0;
  int nan_recoveries = 0;  // bounded per solve; see the filter guard
  int iter = 0;
  IterationStats stats;  // the iteration being assembled

  /// Derive the filter interval and the Ritz bookkeeping from
  /// result.bounds. Before the first Rayleigh-Ritz no Ritz values exist;
  /// mu_1 is the natural stand-in (Algorithm 5's first-iteration estimate
  /// only consumes the most extremal value).
  void init_from_bounds() {
    ne = cfg.subspace();
    b_sup = result.bounds.b_sup;
    mu_1 = result.bounds.mu_1;
    mu_ne = result.bounds.mu_ne;
    center = (b_sup + mu_ne) / R(2);
    half = (b_sup - mu_ne) / R(2);
    // Residuals are measured relative to the spectral-norm estimate.
    scale = std::max(std::abs(b_sup), std::abs(mu_1));
    tol = R(cfg.tol);
    ritz.assign(std::size_t(ne), mu_1);
    resid.assign(std::size_t(ne), R(1));
    degs.assign(std::size_t(ne), round_up_even(cfg.initial_degree));
  }
};

/// One step of the outer iteration. Stages hold no per-solve state — all of
/// it lives in the SolveContext/Workspace — so a stage list is reusable.
template <typename T>
class Stage {
 public:
  virtual ~Stage() = default;
  virtual std::string_view name() const = 0;
  virtual StageOutcome run(SolveContext<T>& ctx, DlaBackend<T>& dla) = 0;
};

/// Fill C with the initial subspace: user-provided approximate eigenvectors
/// in the leading columns (if any), the rest random — reproducible across
/// grid shapes (entry of global row g, column j depends only on (seed, j,
/// g)).
template <typename T>
void seed_initial_subspace(SolverWorkspace<T>& ws, DlaBackend<T>& dla,
                           const ChaseConfig& cfg,
                           la::ConstMatrixView<T> initial_subspace) {
  const Index mloc = dla.c_rows();
  const Index ne = cfg.subspace();
  Index given = 0;
  if (!initial_subspace.empty()) {
    CHASE_CHECK_MSG(initial_subspace.rows() == mloc &&
                        initial_subspace.cols() <= ne,
                    "initial subspace: expected local C-layout rows and at "
                    "most nev+nex columns");
    given = initial_subspace.cols();
    la::copy(initial_subspace, ws.c().block(0, 0, mloc, given));
  }
  for (const auto& run : dla.row_map().runs(dla.grid().my_row())) {
    for (Index j = given; j < ne; ++j) {
      for (Index k = 0; k < run.length; ++k) {
        ws.c()(run.local_begin + k, j) = lanczos_entry<T>(
            cfg.seed, std::uint64_t(1000 + j), run.global_begin + k);
      }
    }
  }
}

/// Drive the stage list until convergence, abort, or the iteration cap.
/// `first_iter > 1` resumes a checkpointed solve: the iteration numbering
/// continues where the snapshot left off, so cadence policies, observers
/// and iteration-qualified fault sites see the same counter an
/// uninterrupted run would.
template <typename T>
void run_pipeline(SolveContext<T>& ctx, DlaBackend<T>& dla,
                  const std::vector<Stage<T>*>& stages, int first_iter = 1) {
  for (int iter = first_iter; iter <= ctx.cfg.max_iterations; ++iter) {
    ctx.iter = iter;
    // Iteration-qualified fault sites (site@iter=k) key off this counter.
    fault::set_iteration(iter);
    ctx.stats = IterationStats{};
    ctx.stats.iteration = iter;
    ctx.stats.locked_before = int(ctx.locked);
    // Iterations past the first executed one are steady state: the arena
    // must not grow in them (the first one sizes whatever setup could not).
    ctx.ws.set_steady_state(iter >= first_iter + 1);
    const long arena_before = ctx.ws.alloc_events();

    StageOutcome outcome = StageOutcome::kContinue;
    for (Stage<T>* stage : stages) {
      outcome = stage->run(ctx, dla);
      if (outcome != StageOutcome::kContinue) break;
    }
    ctx.stats.workspace_allocs = ctx.ws.alloc_events() - arena_before;

    if (outcome == StageOutcome::kAbort) break;
    ctx.result.stats.push_back(ctx.stats);
    ctx.result.iterations = iter;
    if (ctx.observer != nullptr) ctx.observer->after_iteration(ctx.stats);
    if (outcome == StageOutcome::kConverged) {
      ctx.result.converged = true;
      break;
    }
  }
  fault::set_iteration(0);
  ctx.ws.set_steady_state(false);
}

}  // namespace chase::core::engine
