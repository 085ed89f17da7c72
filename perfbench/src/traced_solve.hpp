// Bench-side decorators around the solver engine: a Stage<T> wrapper and a
// DlaBackend<T> wrapper that open a span around every call and forward it
// unchanged, plus traced_solve(), which runs the same backend selection and
// stage list as core::solve through engine::run_pipeline with the wrappers in
// place. Nothing here touches the numerics, so a traced solve must reproduce
// the untraced core::solve bitwise — the benchmark checks that on every run.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/chase.hpp"
#include "spans.hpp"

namespace perfbench {

namespace engine = chase::core::engine;
using chase::la::Index;

/// Span bookkeeping of one traced solve on one rank: the solve span, and an
/// iteration span that opens when a stage sees a new ctx.iter.
class SolveTrace {
 public:
  SolveTrace(SpanLog& log, long solve_id) : log_(log), solve_id_(solve_id) {
    log_.open("solve", solve_id_);
  }
  ~SolveTrace() {
    end_iterations();
    if (!log_.idle()) log_.close();  // the solve span
  }
  SolveTrace(const SolveTrace&) = delete;
  SolveTrace& operator=(const SolveTrace&) = delete;

  SpanLog& log() { return log_; }
  long solve_id() const { return solve_id_; }

  void enter_iteration(int iter) {
    if (iter == iter_) return;
    end_iterations();
    log_.open("iteration", solve_id_);
    iter_ = iter;
  }
  void end_iterations() {
    if (iter_ != 0) log_.close();
    iter_ = 0;
  }

 private:
  SpanLog& log_;
  long solve_id_;
  int iter_ = 0;
};

template <typename T>
class TracedStage final : public engine::Stage<T> {
 public:
  TracedStage(engine::Stage<T>& inner, SolveTrace& trace)
      : inner_(inner),
        trace_(trace),
        span_name_("core.stage." + std::string(inner.name())) {}

  std::string_view name() const override { return inner_.name(); }

  engine::StageOutcome run(engine::SolveContext<T>& ctx,
                           chase::core::DlaBackend<T>& dla) override {
    trace_.enter_iteration(ctx.iter);
    ScopedSpan span(trace_.log(), span_name_, trace_.solve_id());
    return inner_.run(ctx, dla);
  }

 private:
  engine::Stage<T>& inner_;
  SolveTrace& trace_;
  std::string span_name_;
};

/// Forwards every DlaBackend call to `inner`, inside a "dla.<call>" span.
template <typename T>
class TracedDla final : public chase::core::DlaBackend<T> {
 public:
  using R = chase::RealType<T>;
  using Workspace = engine::SolverWorkspace<T>;

  TracedDla(chase::core::DlaBackend<T>& inner, SolveTrace& trace)
      : inner_(inner), trace_(trace) {}

  Index global_size() const override { return inner_.global_size(); }
  Index c_rows() const override { return inner_.c_rows(); }
  Index b_rows() const override { return inner_.b_rows(); }
  const chase::comm::Grid2d& grid() const override { return inner_.grid(); }
  const chase::dist::IndexMap& row_map() const override {
    return inner_.row_map();
  }

  void setup(Workspace& ws, const chase::core::ChaseConfig& cfg) override {
    auto s = span("dla.setup");
    inner_.setup(ws, cfg);
  }
  chase::core::SpectralBounds<R> estimate_bounds(
      const chase::core::ChaseConfig& cfg) override {
    auto s = span("core.bounds");
    return inner_.estimate_bounds(cfg);
  }
  long filter_apply(Workspace& ws, Index locked, const std::vector<int>& degs,
                    R center, R half, R mu_1) override {
    auto s = span("dla.filter_apply");
    return inner_.filter_apply(ws, locked, degs, center, half, mu_1);
  }
  void column_consensus(std::vector<R>& col_ok) override {
    auto s = span("dla.column_consensus");
    inner_.column_consensus(col_ok);
  }
  chase::qr::QrReport qr(Workspace& ws, Index locked, double est_cond,
                         const chase::qr::QrOptions& opts) override {
    auto s = span("dla.qr");
    return inner_.qr(ws, locked, est_cond, opts);
  }
  void redistribute(Workspace& ws, Index locked, Index act) override {
    auto s = span("dla.redistribute");
    inner_.redistribute(ws, locked, act);
  }
  void apply_h(Workspace& ws, Index locked, Index act) override {
    auto s = span("dla.apply_h");
    inner_.apply_h(ws, locked, act);
  }
  void gram(Workspace& ws, Index locked, Index act) override {
    auto s = span("dla.gram");
    inner_.gram(ws, locked, act);
  }
  void heevd(Workspace& ws, Index act, chase::core::RrSolver solver) override {
    auto s = span("dla.heevd");
    inner_.heevd(ws, act, solver);
  }
  void back_transform(Workspace& ws, Index locked, Index act) override {
    auto s = span("dla.back_transform");
    inner_.back_transform(ws, locked, act);
  }
  void residual_norms(Workspace& ws, Index locked, Index act,
                      const std::vector<R>& ritz, R scale,
                      std::vector<R>& resid) override {
    auto s = span("dla.residual_norms");
    inner_.residual_norms(ws, locked, act, ritz, scale, resid);
  }
  void observe_residuals(Workspace& ws, Index locked, Index act,
                         const std::vector<R>& resid) override {
    auto s = span("dla.observe_residuals");
    inner_.observe_residuals(ws, locked, act, resid);
  }
  void refine_locked(Workspace& ws, Index locked, Index cand,
                     std::vector<R>& ritz, R scale,
                     std::vector<R>& resid) override {
    auto s = span("dla.refine_locked");
    inner_.refine_locked(ws, locked, cand, ritz, scale, resid);
  }
  void end_iteration(Workspace& ws) override {
    auto s = span("dla.end_iteration");
    inner_.end_iteration(ws);
  }
  void save_basis(Workspace& ws, chase::la::MatrixView<T> v_global) override {
    auto s = span("dla.save_basis");
    inner_.save_basis(ws, v_global);
  }
  void restore_basis(Workspace& ws,
                     chase::la::ConstMatrixView<T> v_global) override {
    auto s = span("dla.restore_basis");
    inner_.restore_basis(ws, v_global);
  }
  void permute(Workspace& ws, Index first, const std::vector<Index>& perm,
               std::vector<R>& ritz, std::vector<R>& resid,
               std::vector<int>& degs) override {
    auto s = span("dla.permute");
    inner_.permute(ws, first, perm, ritz, resid, degs);
  }

 private:
  ScopedSpan span(const char* name) {
    return ScopedSpan(trace_.log(), name, trace_.solve_id());
  }

  chase::core::DlaBackend<T>& inner_;
  SolveTrace& trace_;
};

/// core::solve (no checkpointing, no warm start) with every stage and every
/// backend call wrapped in a span. Keep the backend selection and the stage
/// list in step with core/chase.hpp: the benchmark's fidelity check fails
/// when they drift apart.
template <typename HOp, typename T = typename HOp::Scalar>
chase::core::ChaseResult<T> traced_solve(HOp& h,
                                         const chase::core::ChaseConfig& cfg,
                                         SolveTrace& trace) {
  using namespace chase::core;
  chase::tune::resolve_at_solve_start();
  DenseDlaBackend<HOp> dla_plain(h);
  std::optional<MixedBackendFor<HOp, DenseDlaBackend<HOp>>> dla_mixed;
  TracedDla<T> dla(select_backend(h, dla_plain, dla_mixed), trace);
  engine::SolverWorkspace<T> ws;
  dla.setup(ws, cfg);

  ChaseResult<T> result;
  engine::SolveContext<T> ctx{cfg, nullptr, result, ws};
  result.bounds = dla.estimate_bounds(cfg);
  engine::seed_initial_subspace<T>(ws, dla, cfg, {});
  ctx.init_from_bounds();

  engine::PrepStage<T> prep;
  engine::FilterStage<T> filter(/*recover=*/true);
  engine::QrStage<T> qr;
  engine::RayleighRitzStage<T> rr;
  engine::ResidualStage<T> residual;
  engine::LockingStage<T> locking;
  TracedStage<T> t_prep(prep, trace), t_filter(filter, trace), t_qr(qr, trace),
      t_rr(rr, trace), t_residual(residual, trace), t_locking(locking, trace);
  const std::vector<engine::Stage<T>*> stages{&t_prep, &t_filter,   &t_qr,
                                              &t_rr,   &t_residual, &t_locking};
  engine::run_pipeline(ctx, dla, stages);
  trace.end_iterations();

  const Index mloc = dla.c_rows();
  result.eigenvalues.assign(ctx.ritz.begin(), ctx.ritz.begin() + cfg.nev);
  result.eigenvectors.resize(mloc, cfg.nev);
  chase::la::copy(ws.c().block(0, 0, mloc, cfg.nev).as_const(),
                  result.eigenvectors.view());
  return result;
}

}  // namespace perfbench
