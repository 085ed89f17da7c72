// Mixed-precision DLA backend: the Chebyshev filter runs in fp32 /
// complex<float> on a low-precision shadow of H, everything else — QR,
// Rayleigh-Ritz, residuals, locking — stays in the working fp64 types of the
// wrapped base backend. This is the mixed-precision scheme the production
// ChASE library ships (Wu et al., SC 2023): the filter dominates the flop
// and byte budget, low-precision filtering merely perturbs the subspace the
// fp64 Rayleigh-Ritz then corrects, and the residual framework detects when
// fp32 rounding starts limiting a column's convergence.
//
// Layering: MixedDlaBackend<HOp, Base> derives from either fp64 backend
// (DenseDlaBackend for the v1.4 scheme, RedundantDlaBackend for the legacy
// LMS scheme — the latter inherits the dense filter, so one override covers
// both) and replaces only
//   * filter_apply       — demote the active panel, filter on the fp32
//                          shadow (halved flops through the f/c micro
//                          kernels, halved allreduce payloads through the
//                          templated collectives), promote the result back;
//                          columns the promotion policy has flagged are
//                          packed separately and filtered in fp64;
//   * observe_residuals  — feed the replicated post-iteration residuals to
//                          the PromotionPolicy (per-column fp64 fallback on
//                          stall or on approaching the fp32 floor,
//                          whole-subspace fallback on stagnation);
//   * refine_locked      — one step of iterative refinement before pairs
//                          freeze: recompute the Rayleigh quotient of each
//                          candidate column in fp64 and re-evaluate its
//                          residual, so locked pairs are indistinguishable
//                          from a pure-fp64 run at the solver tolerance.
//
// Collective safety: the promotion mask is derived from allreduced
// residuals and the replicated locked count, so every rank partitions the
// active columns identically and the shadow filter's reductions stay
// aligned across the grid.
#pragma once

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "core/dla_dense.hpp"
#include "core/precision.hpp"
#include "dist/dist_matrix.hpp"
#include "la/convert.hpp"

namespace chase::core {

/// Operators the mixed backend can shadow in low precision: the working
/// scalar has a lower partner and the operator exposes its explicit local
/// block (element access) plus the grid/maps needed to build a
/// DistHermitianMatrix shadow. Matrix-free operators fail this and solve in
/// pure fp64.
template <typename HOp>
concept MixedShadowCapable =
    la::kHasLowPrecision<typename HOp::Scalar> && requires(const HOp& h) {
      { h.local_at(la::Index(0), la::Index(0)) };
      { h.local_packed() };
      { h.grid() };
      { h.row_map() };
      { h.col_map() };
    };

template <typename HOp, typename Base = DenseDlaBackend<HOp>>
  requires MixedShadowCapable<HOp>
class MixedDlaBackend : public Base {
 public:
  using T = typename HOp::Scalar;
  using L = la::LowPrecision<T>;
  using R = RealType<T>;
  using RL = RealType<L>;
  using Workspace = engine::SolverWorkspace<T>;
  using Index = la::Index;

  explicit MixedDlaBackend(HOp& h) : Base(h) {}

  void setup(Workspace& ws, const ChaseConfig& cfg) override {
    Base::setup(ws, cfg);
    ne_ = cfg.subspace();
    policy_ = engine::PromotionPolicy(promotion_config());
    policy_.reset(ne_);
    refresh_shadow();
    const Index mloc = this->c_rows();
    const Index bloc = this->b_rows();
    if (c_low_.rows() != mloc || c_low_.cols() != ne_) {
      c_low_.resize(mloc, ne_);
      b_low_.resize(bloc, ne_);
      c_hi_.resize(mloc, ne_);
      b_hi_.resize(bloc, ne_);
    }
    quot_.reserve(std::size_t(2 * ne_));
    lo_cols_.reserve(std::size_t(ne_));
    hi_cols_.reserve(std::size_t(ne_));
    lo_degs_.reserve(std::size_t(ne_));
    hi_degs_.reserve(std::size_t(ne_));
  }

  long filter_apply(Workspace& ws, Index locked, const std::vector<int>& degs,
                    R center, R half, R mu_1) override {
    const Index act = Index(degs.size());
    if (act == 0) return 0;
    // Whole-subspace fallback, or an interval too tight for fp32 rounding
    // (the narrowed bounds must survive the cast): pure fp64 filtering.
    if (policy_.subspace_fp64() || !(RL(mu_1) < RL(center)) ||
        !(RL(half) > RL(0))) {
      perf::bump_counter("precision.filter.cols.fp64", double(act));
      return Base::filter_apply(ws, locked, degs, center, half, mu_1);
    }

    // Partition the active columns by the promotion mask. Both groups keep
    // the PrepStage's degree-ascending order (a subsequence of a sorted
    // sequence), which the filter's shrinking-suffix loop requires.
    lo_cols_.clear();
    hi_cols_.clear();
    lo_degs_.clear();
    hi_degs_.clear();
    for (Index j = 0; j < act; ++j) {
      if (policy_.column_fp64(locked + j)) {
        hi_cols_.push_back(j);
        hi_degs_.push_back(degs[std::size_t(j)]);
      } else {
        lo_cols_.push_back(j);
        lo_degs_.push_back(degs[std::size_t(j)]);
      }
    }

    const Index mloc = this->c_rows();
    const Index bloc = this->b_rows();
    long matvecs = 0;

    if (!lo_cols_.empty()) {
      const Index nlo = Index(lo_cols_.size());
      {
        // The demote/promote boundary copies are part of the filter's cost.
        perf::RegionScope scope(perf::Region::kFilter);
        for (Index k = 0; k < nlo; ++k) {
          const Index src = locked + lo_cols_[std::size_t(k)];
          la::demote<T>(ws.c().block(0, src, mloc, 1).as_const(),
                        c_low_.block(0, k, mloc, 1));
        }
        if (auto* t = perf::thread_tracker()) {
          t->add_mem_bytes(double(mloc) * double(nlo) *
                           double(sizeof(T) + sizeof(L)));
        }
      }
      matvecs += chebyshev_filter(*h_low_, c_low_.block(0, 0, mloc, nlo),
                                  b_low_.block(0, 0, bloc, nlo), lo_degs_,
                                  RL(center), RL(half), RL(mu_1));
      {
        perf::RegionScope scope(perf::Region::kFilter);
        for (Index k = 0; k < nlo; ++k) {
          const Index dst = locked + lo_cols_[std::size_t(k)];
          la::promote<T>(c_low_.block(0, k, mloc, 1).as_const(),
                         ws.c().block(0, dst, mloc, 1));
        }
        if (auto* t = perf::thread_tracker()) {
          t->add_mem_bytes(double(mloc) * double(nlo) *
                           double(sizeof(T) + sizeof(L)));
        }
      }
      perf::bump_counter("precision.filter.cols.fp32", double(nlo));
    }

    if (!hi_cols_.empty()) {
      const Index nhi = Index(hi_cols_.size());
      {
        perf::RegionScope scope(perf::Region::kFilter);
        for (Index k = 0; k < nhi; ++k) {
          const Index src = locked + hi_cols_[std::size_t(k)];
          la::copy(ws.c().block(0, src, mloc, 1).as_const(),
                   c_hi_.block(0, k, mloc, 1));
        }
      }
      matvecs += chebyshev_filter(*this->h_, c_hi_.block(0, 0, mloc, nhi),
                                  b_hi_.block(0, 0, bloc, nhi), hi_degs_,
                                  center, half, mu_1);
      {
        perf::RegionScope scope(perf::Region::kFilter);
        for (Index k = 0; k < nhi; ++k) {
          const Index dst = locked + hi_cols_[std::size_t(k)];
          la::copy(c_hi_.block(0, k, mloc, 1).as_const(),
                   ws.c().block(0, dst, mloc, 1));
        }
      }
      perf::bump_counter("precision.filter.cols.fp64", double(nhi));
    }
    return matvecs;
  }

  void observe_residuals(Workspace& /*ws*/, Index locked, Index act,
                         const std::vector<R>& resid) override {
    const bool sub_before = policy_.subspace_fp64();
    const long cols_before = policy_.columns_promoted();
    policy_.observe(locked, act, resid);
    const long promoted = policy_.columns_promoted() - cols_before;
    if (promoted > 0) {
      perf::bump_counter("precision.promote.column", double(promoted));
    }
    if (!sub_before && policy_.subspace_fp64()) {
      perf::bump_counter("precision.promote.subspace");
    }
  }

  // One step of iterative refinement on the pairs about to lock: the fp64
  // Rayleigh quotient rho = v^H (H v) / v^H v of each candidate column
  // replaces its Ritz value (computed from the Residual stage's buffers, no
  // extra H apply), and the residuals are re-evaluated against the refined
  // values. The Locking stage recounts afterwards.
  void refine_locked(Workspace& ws, Index locked, Index cand,
                     std::vector<R>& ritz, R scale,
                     std::vector<R>& resid) override {
    perf::RegionScope scope(perf::Region::kResidual);
    ritz_quotients(ws, locked, cand);
    for (Index j = 0; j < cand; ++j) {
      const R q = quot_[std::size_t(j)];
      if (std::isfinite(q)) ritz[std::size_t(locked + j)] = q;
    }
    Base::residual_norms(ws, locked, cand, ritz, scale, resid);
    perf::bump_counter("precision.refine.pairs", double(cand));
  }

  /// Promotion-policy introspection for tests and benches.
  const engine::PromotionPolicy& promotion_policy() const { return policy_; }

 private:
  /// (Re)build the fp32 shadow of H from the operator's pristine local
  /// block, in the same storage (packed on a Hermitian-block rank). Called
  /// at setup, before any diagonal shift is applied.
  void refresh_shadow() {
    const HOp& src = *this->h_;
    if (!h_low_ || h_low_->local_rows() != src.local_rows() ||
        h_low_->local_cols() != src.local_cols()) {
      h_low_.emplace(src.grid(), src.row_map(), src.col_map());
    }
    h_low_->fill_demoted(src);
  }

  /// Fill quot_[0..cand) with the fp64 Rayleigh quotients of the candidate
  /// columns, using the buffers the Residual stage left behind: ws.b holds
  /// H*V in the B layout on every backend; the basis comes from ws.b2 (v1.4)
  /// or the replicated cfull (legacy — indexed by global row through the
  /// column map). Numerators/denominators are summed locally over the
  /// B-layout rows and completed with one 2*cand allreduce over the row
  /// communicator; the quotient of a Hermitian form is real.
  void ritz_quotients(Workspace& ws, Index locked, Index cand) {
    quot_.assign(std::size_t(2 * cand), R(0));
    auto b = ws.b().view();
    if constexpr (std::is_base_of_v<RedundantDlaBackend<HOp, T>, Base>) {
      const auto& cmap = this->h_->col_map();
      for (const auto& run : cmap.runs(this->grid().my_col())) {
        for (Index k = 0; k < run.length; ++k) {
          const Index i = run.local_begin + k;
          const Index g = run.global_begin + k;
          for (Index j = 0; j < cand; ++j) {
            const T v = ws.cfull()(g, locked + j);
            quot_[std::size_t(j)] += real_part(conjugate(v) * b(i, locked + j));
            quot_[std::size_t(cand + j)] += real_part(conjugate(v) * v);
          }
        }
      }
    } else {
      const Index bloc = this->b_rows();
      auto b2 = ws.b2().view();
      for (Index j = 0; j < cand; ++j) {
        R num(0), den(0);
        const T* wj = b.col(locked + j);
        const T* vj = b2.col(locked + j);
        for (Index i = 0; i < bloc; ++i) {
          num += real_part(conjugate(vj[i]) * wj[i]);
          den += real_part(conjugate(vj[i]) * vj[i]);
        }
        quot_[std::size_t(j)] = num;
        quot_[std::size_t(cand + j)] = den;
      }
    }
    coll::checked_all_reduce(this->grid().row_comm(), quot_.data(), 2 * cand);
    for (Index j = 0; j < cand; ++j) {
      const R den = quot_[std::size_t(cand + j)];
      quot_[std::size_t(j)] =
          den > R(0) ? quot_[std::size_t(j)] / den
                     : std::numeric_limits<R>::quiet_NaN();
    }
  }

  Index ne_ = 0;
  std::optional<dist::DistHermitianMatrix<L>> h_low_;  // fp32 shadow of H
  la::Matrix<L> c_low_, b_low_;  // packed low-precision filter panels
  la::Matrix<T> c_hi_, b_hi_;    // packed fp64 panels for promoted columns
  engine::PromotionPolicy policy_;
  std::vector<R> quot_;          // refinement scratch: numerators|denominators
  std::vector<Index> lo_cols_, hi_cols_;
  std::vector<int> lo_degs_, hi_degs_;
};

namespace detail {

template <typename HOp, typename Base, bool kCapable = MixedShadowCapable<HOp>>
struct MixedBackendSelect {
  using type = MixedDlaBackend<HOp, Base>;
};

/// Placeholder for operators that cannot be shadowed (matrix-free, or a
/// scalar with no lower partner): gives the driver's std::optional slot a
/// well-formed type; never constructed at runtime.
template <typename HOp, typename Base>
struct MixedBackendSelect<HOp, Base, false> {
  struct Unavailable {
    explicit Unavailable(HOp&) {}
  };
  using type = Unavailable;
};

}  // namespace detail

template <typename HOp, typename Base>
using MixedBackendFor = typename detail::MixedBackendSelect<HOp, Base>::type;

/// Pick the DLA backend for a solve under the current CHASE_PRECISION
/// policy: the mixed wrapper of `Base` when the policy asks for it and the
/// operator supports shadowing, else the already-constructed plain backend.
template <typename HOp, typename Base, typename T = typename HOp::Scalar>
DlaBackend<T>& select_backend(
    HOp& h, Base& plain, std::optional<MixedBackendFor<HOp, Base>>& mixed) {
  if constexpr (MixedShadowCapable<HOp>) {
    if (precision() == Precision::kMixed) {
      mixed.emplace(h);
      return *mixed;
    }
  }
  (void)h;
  return plain;
}

}  // namespace chase::core
