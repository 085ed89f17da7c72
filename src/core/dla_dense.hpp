// The two DLA backends of the staged engine.
//
// DenseDlaBackend — the paper's v1.4 parallelization: distributed 1D-CAQR
// over the column communicator, Rayleigh-Ritz as a local Gram product plus
// a row-communicator allreduce, distributed residuals. It wraps today's
// la/qr/dist/comm substrate, so the packed HEMM on diagonal ranks comes
// along for free. Works for any operator with the DistHermitianMatrix duck
// type, including matrix-free operators (whose gather buffer it binds to
// the workspace arena).
//
// RedundantDlaBackend — the legacy v1.2 "LMS" scheme as a backend: QR,
// Rayleigh-Ritz and residuals run redundantly on every rank over gathered
// full N x n_e buffers, with the per-kernel host-device round trips of
// Section 2.3 recorded for the Figure-2 movement bars.
#pragma once

#include "coll/abft.hpp"
#include "core/dla.hpp"
#include "core/filter.hpp"
#include "core/lanczos.hpp"
#include "dist/multivector.hpp"
#include "la/gemm.hpp"
#include "la/heevd.hpp"
#include "la/householder.hpp"
#include "la/stedc.hpp"

namespace chase::core {

namespace detail {

/// v1.2 host-device round trip: the result of an offloaded kernel of
/// `bytes` is copied D2H and later re-uploaded.
inline void record_lms_roundtrip(std::size_t bytes) {
  if (auto* t = perf::thread_tracker()) {
    t->record_memcpy(bytes, /*to_device=*/false);
    t->record_memcpy(bytes, /*to_device=*/true);
  }
}

}  // namespace detail

template <typename HOp, typename T = typename HOp::Scalar>
class DenseDlaBackend : public DlaBackend<T> {
 public:
  using R = RealType<T>;
  using Workspace = engine::SolverWorkspace<T>;

  explicit DenseDlaBackend(HOp& h) : h_(&h) {}

  Index global_size() const override { return h_->global_size(); }
  Index c_rows() const override {
    return h_->row_map().local_size(h_->grid().my_row());
  }
  Index b_rows() const override {
    return h_->col_map().local_size(h_->grid().my_col());
  }
  const comm::Grid2d& grid() const override { return h_->grid(); }
  const dist::IndexMap& row_map() const override { return h_->row_map(); }

  void setup(Workspace& ws, const ChaseConfig& cfg) override {
    const Index ne = cfg.subspace();
    ws.reserve_basis(c_rows(), b_rows(), ne);
    ws.reserve_ritz(c_rows(), b_rows(), ne);
    maybe_bind_gather(ws, ne);
  }

  SpectralBounds<R> estimate_bounds(const ChaseConfig& cfg) override {
    if (cfg.use_custom_bounds) {
      CHASE_CHECK_MSG(cfg.custom_mu_1 < cfg.custom_mu_ne &&
                          cfg.custom_mu_ne < cfg.custom_b_sup,
                      "custom bounds must satisfy mu_1 < mu_ne < b_sup");
      return {R(cfg.custom_b_sup), R(cfg.custom_mu_1), R(cfg.custom_mu_ne)};
    }
    return lanczos_bounds(*h_, cfg.subspace(), cfg.lanczos_steps,
                          cfg.lanczos_vectors, cfg.seed);
  }

  long filter_apply(Workspace& ws, Index locked, const std::vector<int>& degs,
                    R center, R half, R mu_1) override {
    const Index act = Index(degs.size());
    return chebyshev_filter(*h_, ws.c().block(0, locked, c_rows(), act),
                            ws.b().block(0, locked, b_rows(), act), degs,
                            center, half, mu_1);
  }

  void column_consensus(std::vector<R>& col_ok) override {
    coll::checked_all_reduce(grid().col_comm(), col_ok.data(),
                             Index(col_ok.size()), comm::Reduction::kMin);
  }

  // Distributed 1D-CAQR over the column communicator (Algorithm 2 line 12)
  // on the full subspace so the fresh vectors are orthogonalized against the
  // locked ones; then re-inject the locked columns from C2 (line 13) and
  // refresh C2's active part.
  qr::QrReport qr(Workspace& ws, Index locked, double est_cond,
                  const qr::QrOptions& opts) override {
    auto report = qr::caqr_1d(ws.c().view(), h_->row_map(), grid().col_comm(),
                              est_cond, opts);
    const Index mloc = c_rows();
    const Index act = ws.c().cols() - locked;
    if (locked > 0) {
      la::copy(ws.c2().block(0, 0, mloc, locked).as_const(),
               ws.c().block(0, 0, mloc, locked));
    }
    la::copy(ws.c().block(0, locked, mloc, act).as_const(),
             ws.c2().block(0, locked, mloc, act));
    return report;
  }

  void redistribute(Workspace& ws, Index locked, Index act) override {
    auto c2_act = ws.c2().block(0, locked, c_rows(), act);
    auto b2_act = ws.b2().block(0, locked, b_rows(), act);
    dist::redistribute_c2b<T>(grid(), h_->row_map(), h_->col_map(),
                              c2_act.as_const(), b2_act);
  }

  void apply_h(Workspace& ws, Index locked, Index act) override {
    auto b_act = ws.b().block(0, locked, b_rows(), act);
    h_->apply_c2b(T(1), ws.c().block(0, locked, c_rows(), act).as_const(),
                  T(0), b_act);
  }

  // A_act = B2_act^H B_act summed over the process columns: each rank's
  // Gram contribution covers its B-layout rows, one allreduce over the row
  // communicator completes the redundant act x act quotient.
  void gram(Workspace& ws, Index locked, Index act) override {
    const Index bloc = b_rows();
    auto a_act = ws.rr_view(act);
    la::gemm(T(1), la::Op::kConjTrans,
             ws.b2().block(0, locked, bloc, act).as_const(), la::Op::kNoTrans,
             ws.b().block(0, locked, bloc, act).as_const(), T(0), a_act);
    if (auto* t = perf::thread_tracker()) {
      const double z = kIsComplex<T> ? 8.0 : 2.0;
      t->add_flops(perf::FlopClass::kGemm,
                   z * double(bloc) * double(act) * double(act));
    }
    coll::checked_all_reduce(grid().row_comm(), a_act.data(), act * act);
  }

  // Redundant diagonalization of the Rayleigh quotient (line 18), via
  // implicit QL or Divide & Conquer (Section 2.1's reference [14]).
  void heevd(Workspace& ws, Index act, RrSolver solver) override {
    if (solver == RrSolver::kDivideConquer) {
      la::heevd_dc(ws.rr_view(act), ws.theta(), ws.evec_view(act));
    } else {
      la::heevd(ws.rr_view(act), ws.theta(), ws.evec_view(act));
    }
    if (auto* t = perf::thread_tracker()) {
      const double z = kIsComplex<T> ? 4.0 : 1.0;
      t->add_flops(perf::FlopClass::kSmall,
                   z * 9.0 * double(act) * double(act) * double(act));
    }
  }

  // Back-transform (line 19): C_act = C2_act * Y, then refresh C2.
  void back_transform(Workspace& ws, Index locked, Index act) override {
    const Index mloc = c_rows();
    auto c_act = ws.c().block(0, locked, mloc, act);
    auto c2_act = ws.c2().block(0, locked, mloc, act);
    la::gemm(T(1), c2_act.as_const(), ws.evec_view(act).as_const(), T(0),
             c_act);
    if (auto* t = perf::thread_tracker()) {
      const double z = kIsComplex<T> ? 8.0 : 2.0;
      t->add_flops(perf::FlopClass::kGemm,
                   z * double(mloc) * double(act) * double(act));
    }
    la::copy(c_act.as_const(), c2_act);
  }

  // At an iteration boundary C2 == C (qr copies active C into C2, the
  // back-transform refreshes it), so restoring C and mirroring it into C2
  // reproduces the exact post-iteration state.
  void restore_basis(Workspace& ws, la::ConstMatrixView<T> v_global) override {
    DlaBackend<T>::restore_basis(ws, v_global);
    la::copy(ws.c().view().as_const(), ws.c2().view());
  }

  void residual_norms(Workspace& ws, Index locked, Index act,
                      const std::vector<R>& ritz, R scale,
                      std::vector<R>& resid) override {
    const Index bloc = b_rows();
    auto b_act = ws.b().block(0, locked, bloc, act);
    auto b2_act = ws.b2().block(0, locked, bloc, act);
    auto& nrm = ws.norms();
    nrm.assign(std::size_t(act), R(0));
    for (Index j = 0; j < act; ++j) {
      const R lambda = ritz[std::size_t(locked + j)];
      T* bj = b_act.col(j);
      const T* b2j = b2_act.col(j);
      R acc(0);
      for (Index i = 0; i < bloc; ++i) {
        const T d = bj[i] - T(lambda) * b2j[i];
        acc += real_part(conjugate(d) * d);
      }
      nrm[std::size_t(j)] = acc;
    }
    if (auto* t = perf::thread_tracker()) {
      t->add_mem_bytes(3.0 * double(bloc) * double(act) * sizeof(T));
    }
    coll::checked_all_reduce(grid().row_comm(), nrm.data(), act);
    for (Index j = 0; j < act; ++j) {
      resid[std::size_t(locked + j)] = std::sqrt(nrm[std::size_t(j)]) / scale;
    }
  }

 protected:
  void maybe_bind_gather(Workspace& ws, Index ne) {
    if constexpr (requires(HOp& op, la::Matrix<T>* buf) {
                    op.bind_gather_buffer(buf);
                  }) {
      ws.reserve_gather(global_size(), ne);
      h_->bind_gather_buffer(&ws.gather());
    }
  }

  HOp* h_;
};

template <typename HOp, typename T = typename HOp::Scalar>
class RedundantDlaBackend : public DenseDlaBackend<HOp, T> {
 public:
  using R = RealType<T>;
  using Workspace = engine::SolverWorkspace<T>;
  using Base = DenseDlaBackend<HOp, T>;
  using Base::b_rows;
  using Base::c_rows;
  using Base::global_size;
  using Base::grid;

  explicit RedundantDlaBackend(HOp& h) : Base(h) {}

  void setup(Workspace& ws, const ChaseConfig& cfg) override {
    const Index ne = cfg.subspace();
    ws.reserve_basis(c_rows(), b_rows(), ne);
    ws.reserve_full(global_size(), ne);
    this->maybe_bind_gather(ws, ne);
  }

  // v1.2 redundant QR: collect C into the full buffer with one broadcast per
  // task, factorize everywhere with Householder QR, scatter back. The locked
  // columns are re-injected from the previous full basis copy.
  qr::QrReport qr(Workspace& ws, Index locked, double est_cond,
                  const qr::QrOptions& /*opts*/) override {
    const Index n = global_size();
    const Index ne = ws.c().cols();
    {
      perf::RegionScope qr_scope(perf::Region::kQr);
      dist::gather_rows(grid().col_comm(), this->row_map(),
                        ws.c().view().as_const(), ws.cfull().view());
      la::householder_orthonormalize(ws.cfull().view());
      if (auto* t = perf::thread_tracker()) {
        const double z = kIsComplex<T> ? 4.0 : 1.0;
        t->add_flops(perf::FlopClass::kPanel,
                     4.0 * z * double(n) * double(ne) * double(ne));
      }
      detail::record_lms_roundtrip(std::size_t(n) * std::size_t(ne) *
                                   sizeof(T));
      if (locked > 0) {
        la::copy(ws.wfull().block(0, 0, n, locked).as_const(),
                 ws.cfull().block(0, 0, n, locked));
      }
      dist::scatter_rows(this->row_map(), grid().my_row(),
                         ws.cfull().view().as_const(), ws.c().view());
    }
    qr::QrReport report;
    report.selected = qr::QrVariant::kHouseholder;
    report.used = qr::QrVariant::kHouseholder;
    report.est_cond = est_cond;
    return report;
  }

  // The legacy scheme gathers instead of redistributing; the collection
  // happens inside gram()/residual_norms() right after the H-apply.
  void redistribute(Workspace& /*ws*/, Index /*locked*/,
                    Index /*act*/) override {}

  // Rectangular projection A = C^H W on the gathered full buffers, executed
  // redundantly on every rank (priced at the panel rate: a single device per
  // rank in v1.2, not the multi-GPU GEMM rate). The Hermitian work (W = H C)
  // already went through the distributed HEMM in apply_h.
  void gram(Workspace& ws, Index locked, Index act) override {
    const Index n = global_size();
    auto b_act = ws.b().block(0, locked, b_rows(), act);
    dist::gather_rows(grid().row_comm(), this->h_->col_map(),
                      b_act.as_const(), ws.wfull().block(0, locked, n, act));
    auto a_act = ws.a_full().block(0, 0, act, act);
    la::gemm(T(1), la::Op::kConjTrans,
             ws.cfull().block(0, locked, n, act).as_const(), la::Op::kNoTrans,
             ws.wfull().block(0, locked, n, act).as_const(), T(0), a_act);
    if (auto* t = perf::thread_tracker()) {
      const double z = kIsComplex<T> ? 8.0 : 2.0;
      t->add_flops(perf::FlopClass::kPanel,
                   z * double(n) * double(act) * double(act));
    }
  }

  // v1.2 always used implicit QL for the reduced problem, regardless of the
  // configured solver.
  void heevd(Workspace& ws, Index act, RrSolver /*solver*/) override {
    auto a_act = ws.a_full().block(0, 0, act, act);
    auto evec_act = ws.evec_full().block(0, 0, act, act);
    la::heevd(a_act, ws.theta(), evec_act);
    if (auto* t = perf::thread_tracker()) {
      const double z = kIsComplex<T> ? 4.0 : 1.0;
      t->add_flops(perf::FlopClass::kSmall,
                   z * 9.0 * double(act) * double(act) * double(act));
    }
  }

  // Redundant back-transform on the full buffer, then scatter to C.
  void back_transform(Workspace& ws, Index locked, Index act) override {
    const Index n = global_size();
    auto evec_act = ws.evec_full().block(0, 0, act, act);
    la::gemm(T(1), ws.cfull().block(0, locked, n, act).as_const(),
             evec_act.as_const(), T(0), ws.wfull().block(0, locked, n, act));
    la::copy(ws.wfull().block(0, locked, n, act).as_const(),
             ws.cfull().block(0, locked, n, act));
    if (auto* t = perf::thread_tracker()) {
      const double z = kIsComplex<T> ? 8.0 : 2.0;
      t->add_flops(perf::FlopClass::kPanel,
                   z * double(n) * double(act) * double(act));
    }
    detail::record_lms_roundtrip(std::size_t(n) * std::size_t(act) *
                                 sizeof(T));
    dist::scatter_rows(this->row_map(), grid().my_row(),
                       ws.cfull().view().as_const(), ws.c().view());
  }

  void residual_norms(Workspace& ws, Index locked, Index act,
                      const std::vector<R>& ritz, R scale,
                      std::vector<R>& resid) override {
    const Index n = global_size();
    auto b_act = ws.b().block(0, locked, b_rows(), act);
    dist::gather_rows(grid().row_comm(), this->h_->col_map(),
                      b_act.as_const(), ws.wfull().block(0, locked, n, act));
    detail::record_lms_roundtrip(std::size_t(n) * std::size_t(act) *
                                 sizeof(T));
    for (Index j = 0; j < act; ++j) {
      const R lambda = ritz[std::size_t(locked + j)];
      R acc(0);
      for (Index i = 0; i < n; ++i) {
        const T d =
            ws.wfull()(i, locked + j) - T(lambda) * ws.cfull()(i, locked + j);
        acc += real_part(conjugate(d) * d);
      }
      resid[std::size_t(locked + j)] = std::sqrt(acc) / scale;
    }
    if (auto* t = perf::thread_tracker()) {
      t->add_mem_bytes(3.0 * double(n) * double(act) * sizeof(T));
    }
  }

  // wfull keeps the current full Ritz basis for the next iteration's
  // locked-column re-injection.
  void end_iteration(Workspace& ws) override {
    la::copy(ws.cfull().view().as_const(), ws.wfull().view());
  }

  // The redundant scheme's boundary invariant is wfull == gather(C) (set by
  // end_iteration); the snapshot's V *is* that gathered basis, so the
  // restore refills both redundant full buffers directly — no collective.
  void restore_basis(Workspace& ws, la::ConstMatrixView<T> v_global) override {
    DlaBackend<T>::restore_basis(ws, v_global);
    la::copy(v_global, ws.cfull().view());
    la::copy(v_global, ws.wfull().view());
  }
};

}  // namespace chase::core
