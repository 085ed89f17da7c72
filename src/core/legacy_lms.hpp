// The legacy ChASE v1.2 scheme — "LMS" (Limited Memory and Scaling) in the
// paper's benchmarks (Section 2.2/2.3).
//
// The Filter uses the same distributed HEMM as the new scheme, but QR, the
// Rayleigh-Ritz projection and the Residuals are executed *redundantly* on
// every rank: the distributed multivector is collected into a full N x n_e
// buffer via one broadcast per task (the message count that doubles when the
// rank count quadruples), the kernel runs on the full buffer on every rank,
// and the result is scattered back. Two redundant N x n_e buffers dominate
// the memory footprint — the reason ChASE(LMS) cannot run beyond 144 nodes
// in Figure 3a.
//
// On GPUs, v1.2 also copied every offloaded result back to the host
// immediately (Section 2.3); the redundant backend records those transfers
// so the Figure 2 movement bars can be priced.
//
// Since the layered-engine refactor this file holds no duplicated filter /
// QR / Rayleigh-Ritz code: the scheme is the same staged pipeline as
// core::solve with the RedundantDlaBackend, the abort-on-corruption filter
// guard of v1.2, and one extra stage syncing the redundant full basis copy.
#pragma once

#include "core/chase.hpp"

namespace chase::core {

/// Solve with the v1.2 scheme. Numerically equivalent to core::solve (same
/// filter, same locking); only the parallelization of QR/RR/Residuals
/// differs. Always uses Householder QR, as v1.2 did.
/// `ck` wires in the checkpoint/restart engine exactly as in core::solve;
/// the redundant backend restores its full basis copies from the snapshot's
/// replicated V directly (no collective), see RedundantDlaBackend.
template <typename HOp, typename T = typename HOp::Scalar>
ChaseResult<T> solve_lms(HOp& h,
                         const ChaseConfig& cfg,
                         ChaseObserver<T>* observer = nullptr,
                         const ckpt::SolveCkpt<T>& ck = {}) {
  const Index ne = cfg.subspace();
  CHASE_CHECK_MSG(cfg.nev > 0 && ne <= h.global_size(), "invalid nev/nex");

  // Same precision-policy backend selection as core::solve: the mixed
  // wrapper derives from the redundant backend, so the legacy QR/RR path is
  // preserved while the filter runs on the fp32 shadow.
  RedundantDlaBackend<HOp> dla_plain(h);
  std::optional<MixedBackendFor<HOp, RedundantDlaBackend<HOp>>> dla_mixed;
  DlaBackend<T>& dla = select_backend(h, dla_plain, dla_mixed);
  engine::SolverWorkspace<T> ws;
  dla.setup(ws, cfg);

  ChaseResult<T> result;
  engine::SolveContext<T> ctx{cfg, observer, result, ws};
  int first_iter = 1;
  if (ck.resume != nullptr) {
    ckpt::apply_resume(*ck.resume, ctx, dla);
    first_iter = int(ck.resume->iter) + 1;
  } else {
    result.bounds = dla.estimate_bounds(cfg);
    engine::seed_initial_subspace<T>(ws, dla, cfg, {});
    ctx.init_from_bounds();
  }

  engine::PrepStage<T> prep;
  engine::FilterStage<T> filter(/*recover=*/false);
  engine::QrStage<T> qr;
  engine::RayleighRitzStage<T> rr;
  engine::ResidualStage<T> residual;
  engine::BasisSyncStage<T> basis_sync;
  engine::LockingStage<T> locking;
  ckpt::CheckpointStage<T> checkpoint(ck.engine);
  std::vector<engine::Stage<T>*> stages{
      &prep, &filter, &qr, &rr, &residual, &basis_sync, &locking};
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
