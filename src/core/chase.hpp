// The ChASE eigensolver driver — Algorithm 2 of the paper: the novel
// parallelization scheme with the distributed 1D-CAQR, the row/column-
// communicator Rayleigh-Ritz, distributed residuals, and deflation/locking.
//
// The driver is a thin front-end over the layered solver engine (the
// architecture of the real ChASE library): the subspace iteration is a
// stage list (core/engine/stages.hpp) driven by one pipeline
// (core/engine/pipeline.hpp) against an abstract DLA backend
// (core/dla.hpp), over a zero-allocation workspace arena
// (core/engine/workspace.hpp). This driver instantiates the v1.4 backend
// (DenseDlaBackend).
//
// The same driver covers every build of the library:
//   * sequential     — pass a DistHermitianMatrix on a 1x1 grid with a
//                      default-constructed (self) Communicator;
//   * distributed    — run inside a comm::Team on a p x q grid;
//   * STD vs NCCL    — choose the Team's Backend; the algorithm is
//                      identical, only the collective cost accounting (and
//                      the staging copies of the STD path) differ.
// The legacy v1.2 scheme lives separately in legacy_lms.hpp — same
// pipeline and stage bodies, different backend and guard policy.
#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include "ckpt/engine.hpp"
#include "common/log.hpp"
#include "core/config.hpp"
#include "core/degrees.hpp"
#include "core/dla_dense.hpp"
#include "core/dla_mixed.hpp"
#include "core/precision.hpp"
#include "core/engine/pipeline.hpp"
#include "core/engine/stages.hpp"
#include "core/filter.hpp"
#include "core/lanczos.hpp"
#include "core/types.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/multivector.hpp"
#include "la/heevd.hpp"
#include "la/stedc.hpp"
#include "qr/condest.hpp"
#include "qr/qr_selector.hpp"
#include "tune/runtime.hpp"

namespace chase::core {

/// Solve for the nev lowest eigenpairs of the distributed Hermitian matrix.
///
/// On return, `eigenvectors` holds the local C-layout rows of the converged
/// Ritz vectors (use dist::gather_rows to assemble them, or keep them
/// distributed — DFT codes consume them in place).
///
/// `initial_subspace`, if non-empty, seeds the leading columns of the search
/// space with approximate eigenvectors (local C-layout rows, up to nev+nex
/// columns; the rest is filled randomly). This is the warm start that makes
/// ChASE effective on DFT self-consistency sequences (Section 1): correlated
/// consecutive Hamiltonians re-converge in a fraction of the MatVecs.
/// `ck` optionally wires in the checkpoint/restart engine (src/ckpt):
/// ck.engine captures snapshots at iteration boundaries under its cadence,
/// ck.resume restores a decoded snapshot instead of running the Lanczos
/// bounds pass and the random seeding — iteration numbering continues where
/// the snapshot left off, making the resumed solve bitwise-equal to an
/// uninterrupted one.
/// `ws_external`, if non-null, is the workspace arena to solve over instead
/// of a driver-local one — the solver-service pool (src/svc) passes cleared
/// pooled arenas here so back-to-back jobs allocate nothing. The arena must
/// be value-cleared (SolverWorkspace::clear_values) or fresh; setup() resizes
/// it to this problem's shape.
template <typename HOp, typename T = typename HOp::Scalar>
ChaseResult<T> solve(HOp& h, const ChaseConfig& cfg,
                     ChaseObserver<T>* observer = nullptr,
                     la::ConstMatrixView<T> initial_subspace = {},
                     const ckpt::SolveCkpt<T>& ck = {},
                     engine::SolverWorkspace<T>* ws_external = nullptr) {
  const Index ne = cfg.subspace();
  CHASE_CHECK_MSG(cfg.nev > 0 && ne <= h.global_size(), "invalid nev/nex");
  CHASE_CHECK_MSG(cfg.initial_degree >= 2, "invalid initial degree");

  // Load the machine profile named by CHASE_PROFILE (once per process): its
  // measured rates calibrate the selection model the QR selector and
  // CHASE_COLL_ALGO=auto price with.
  tune::ensure_profile_from_env();

  // Backend selection: the CHASE_PRECISION policy swaps in the
  // mixed-precision backend (fp32 filtering, fp64 everything else) when the
  // operator can be shadowed in low precision; matrix-free operators and
  // non-double scalars always solve in pure working precision.
  DenseDlaBackend<HOp> dla_plain(h);
  std::optional<MixedBackendFor<HOp, DenseDlaBackend<HOp>>> dla_mixed;
  DlaBackend<T>& dla = select_backend(h, dla_plain, dla_mixed);
  engine::SolverWorkspace<T> ws_local;
  engine::SolverWorkspace<T>& ws =
      ws_external != nullptr ? *ws_external : ws_local;
  dla.setup(ws, cfg);

  ChaseResult<T> result;
  engine::SolveContext<T> ctx{cfg, observer, result, ws};
  int first_iter = 1;
  if (ck.resume != nullptr) {
    ckpt::apply_resume(*ck.resume, ctx, dla);
    first_iter = int(ck.resume->iter) + 1;
  } else {
    result.bounds = dla.estimate_bounds(cfg);
    engine::seed_initial_subspace<T>(ws, dla, cfg, initial_subspace);
    ctx.init_from_bounds();
  }

  engine::PrepStage<T> prep;
  engine::FilterStage<T> filter(/*recover=*/true);
  engine::QrStage<T> qr;
  engine::RayleighRitzStage<T> rr;
  engine::ResidualStage<T> residual;
  engine::LockingStage<T> locking;
  ckpt::CheckpointStage<T> checkpoint(ck.engine);
  std::vector<engine::Stage<T>*> stages{&prep, &filter,   &qr,
                                        &rr,   &residual, &locking};
  if (ck.engine != nullptr && ck.engine->enabled()) {
    stages.push_back(&checkpoint);
  }
  engine::run_pipeline(ctx, dla, stages, first_iter);

  const Index mloc = dla.c_rows();
  result.eigenvalues.assign(ctx.ritz.begin(), ctx.ritz.begin() + cfg.nev);
  result.eigenvectors.resize(mloc, cfg.nev);
  la::copy(ws.c().block(0, 0, mloc, cfg.nev).as_const(),
           result.eigenvectors.view());
  return result;
}

}  // namespace chase::core
