// Frozen copy of the pre-engine monolithic drivers (the "seed" drivers):
// core::solve() and core::solve_lms() exactly as they were before the layered
// solver engine (DLA backend + staged pipeline) replaced them.
//
// This is an ORACLE, not library code — the same role the naive GEMM triple
// loop plays for the kernel engine. tests/core/test_engine.cpp asserts the
// staged engine reproduces the seed drivers' eigenpairs, iteration counts and
// MatVec totals bit-for-bit. Do not "improve" this file; it is valuable
// precisely because it does not change.
#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/log.hpp"
#include "core/config.hpp"
#include "core/degrees.hpp"
#include "core/filter.hpp"
#include "core/lanczos.hpp"
#include "core/chase.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/multivector.hpp"
#include "la/heevd.hpp"
#include "la/householder.hpp"
#include "la/stedc.hpp"
#include "qr/condest.hpp"
#include "qr/qr_selector.hpp"

namespace chase::seeddrv {

using core::ChaseConfig;
using core::ChaseObserver;
using core::ChaseResult;
using core::IterationStats;
using core::RrSolver;
using la::Index;

namespace detail {

template <typename T, typename R>
void permute_active(la::MatrixView<T> m, Index first,
                    const std::vector<Index>& perm, std::vector<R>& ritz,
                    std::vector<R>& resid, std::vector<int>& degs,
                    la::Matrix<T>& scratch) {
  const Index count = Index(perm.size());
  scratch.resize(m.rows(), count);
  std::vector<R> ritz_old(ritz.begin() + first, ritz.begin() + first + count);
  std::vector<R> res_old(resid.begin() + first, resid.begin() + first + count);
  std::vector<int> deg_old(degs.begin() + first, degs.begin() + first + count);
  for (Index j = 0; j < count; ++j) {
    const Index src = perm[std::size_t(j)];
    std::copy(m.col(first + src), m.col(first + src) + m.rows(),
              scratch.col(j));
    ritz[std::size_t(first + j)] = ritz_old[std::size_t(src)];
    resid[std::size_t(first + j)] = res_old[std::size_t(src)];
    degs[std::size_t(first + j)] = deg_old[std::size_t(src)];
  }
  for (Index j = 0; j < count; ++j) {
    std::copy(scratch.col(j), scratch.col(j) + m.rows(), m.col(first + j));
  }
}

inline void record_lms_roundtrip(std::size_t bytes) {
  if (auto* t = perf::thread_tracker()) {
    t->record_memcpy(bytes, /*to_device=*/false);
    t->record_memcpy(bytes, /*to_device=*/true);
  }
}

}  // namespace detail

/// The pre-engine core::solve() monolith, verbatim.
template <typename HOp, typename T = typename HOp::Scalar>
ChaseResult<T> solve(HOp& h, const ChaseConfig& cfg,
                     ChaseObserver<T>* observer = nullptr,
                     la::ConstMatrixView<T> initial_subspace = {}) {
  using R = RealType<T>;
  using core::lanczos_entry;
  using core::round_up_even;
  const auto& grid = h.grid();
  const auto& rmap = h.row_map();
  const auto& cmap = h.col_map();
  const Index n = h.global_size();
  const Index ne = cfg.subspace();
  CHASE_CHECK_MSG(cfg.nev > 0 && ne <= n, "invalid nev/nex");
  CHASE_CHECK_MSG(cfg.initial_degree >= 2, "invalid initial degree");

  const Index mloc = rmap.local_size(grid.my_row());
  const Index bloc = cmap.local_size(grid.my_col());

  la::Matrix<T> c(mloc, ne), c2(mloc, ne), b(bloc, ne), b2(bloc, ne);
  la::Matrix<T> scratch;

  ChaseResult<T> result;
  if (cfg.use_custom_bounds) {
    CHASE_CHECK_MSG(cfg.custom_mu_1 < cfg.custom_mu_ne &&
                        cfg.custom_mu_ne < cfg.custom_b_sup,
                    "custom bounds must satisfy mu_1 < mu_ne < b_sup");
    result.bounds = {R(cfg.custom_b_sup), R(cfg.custom_mu_1),
                     R(cfg.custom_mu_ne)};
  } else {
    result.bounds = core::lanczos_bounds(h, ne, cfg.lanczos_steps,
                                         cfg.lanczos_vectors, cfg.seed);
  }
  const R b_sup = result.bounds.b_sup;
  R mu_1 = result.bounds.mu_1;
  R mu_ne = result.bounds.mu_ne;
  R center = (b_sup + mu_ne) / R(2);
  R half = (b_sup - mu_ne) / R(2);
  const R scale = std::max(std::abs(b_sup), std::abs(mu_1));
  const R tol = R(cfg.tol);

  Index given = 0;
  if (!initial_subspace.empty()) {
    CHASE_CHECK_MSG(initial_subspace.rows() == mloc &&
                        initial_subspace.cols() <= ne,
                    "initial subspace: expected local C-layout rows and at "
                    "most nev+nex columns");
    given = initial_subspace.cols();
    la::copy(initial_subspace, c.block(0, 0, mloc, given));
  }
  for (const auto& run : rmap.runs(grid.my_row())) {
    for (Index j = given; j < ne; ++j) {
      for (Index k = 0; k < run.length; ++k) {
        c(run.local_begin + k, j) = lanczos_entry<T>(
            cfg.seed, std::uint64_t(1000 + j), run.global_begin + k);
      }
    }
  }

  std::vector<R> ritz(std::size_t(ne), mu_1);
  std::vector<R> resid(std::size_t(ne), R(1));
  std::vector<int> degs(std::size_t(ne), round_up_even(cfg.initial_degree));
  Index locked = 0;
  int nan_recoveries = 0;

  for (int iter = 1; iter <= cfg.max_iterations; ++iter) {
    IterationStats stats;
    stats.iteration = iter;
    stats.locked_before = int(locked);
    const Index act = ne - locked;

    if (iter > 1) {
      mu_1 = *std::min_element(ritz.begin(), ritz.end());
      mu_ne = *std::max_element(ritz.begin(), ritz.end());
      center = (b_sup + mu_ne) / R(2);
      half = (b_sup - mu_ne) / R(2);
      if (!(half > R(0)) || !std::isfinite(half) || !std::isfinite(mu_1)) {
        CHASE_LOG_INFO(
            "damping interval collapsed (b_sup underestimated?); "
            "aborting solve");
        break;
      }
      if (cfg.optimize_degree) {
        core::optimize_degrees(ritz, resid, tol, center, half, int(locked),
                               cfg.max_degree, degs);
      } else {
        std::fill(degs.begin() + locked, degs.end(),
                  round_up_even(cfg.initial_degree));
      }
      std::vector<Index> perm(static_cast<std::size_t>(act));
      std::iota(perm.begin(), perm.end(), Index(0));
      std::stable_sort(perm.begin(), perm.end(), [&](Index x, Index y) {
        return degs[std::size_t(locked + x)] < degs[std::size_t(locked + y)];
      });
      detail::permute_active(c.view(), locked, perm, ritz, resid, degs,
                             scratch);
    }

    std::vector<int> act_degs(degs.begin() + locked, degs.end());
    stats.degrees = act_degs;
    stats.matvecs = core::chebyshev_filter(
        h, c.block(0, locked, mloc, act), b.block(0, locked, bloc, act),
        act_degs, center, half, mu_1);
    result.matvecs += stats.matvecs;

    {
      perf::RegionScope guard_scope(perf::Region::kFilter);
      std::vector<R> col_ok(std::size_t(act), R(1));
      for (Index j = 0; j < act; ++j) {
        for (Index i = 0; i < mloc; ++i) {
          const R mag = abs_value(c(i, locked + j));
          if (!std::isfinite(mag) || mag > R(1e140)) {
            col_ok[std::size_t(j)] = R(0);
            break;
          }
        }
      }
      grid.col_comm().all_reduce(col_ok.data(), act, comm::Reduction::kMin);
      const Index bad = act - Index(std::count(col_ok.begin(), col_ok.end(),
                                               R(1)));
      if (bad == act) {
        CHASE_LOG_INFO("filter diverged (b_sup too small?); aborting solve");
        result.iterations = iter;
        break;
      }
      if (bad > 0) {
        if (nan_recoveries >= 3) {
          CHASE_LOG_INFO(
              "filter output corrupt after repeated re-randomization; "
              "aborting solve");
          result.iterations = iter;
          break;
        }
        for (Index j = 0; j < act; ++j) {
          if (col_ok[std::size_t(j)] == R(1)) continue;
          const auto stream = std::uint64_t(500000 + nan_recoveries * ne +
                                            (locked + j));
          for (const auto& run : rmap.runs(grid.my_row())) {
            for (Index k = 0; k < run.length; ++k) {
              c(run.local_begin + k, locked + j) =
                  lanczos_entry<T>(cfg.seed, stream, run.global_begin + k);
            }
          }
          resid[std::size_t(locked + j)] = R(1);
        }
        ++nan_recoveries;
        perf::bump_counter("filter.nan_recovery", double(bad));
        CHASE_LOG_INFO("filter produced non-finite columns; re-randomized");
        result.stats.push_back(stats);
        result.iterations = iter;
        continue;
      }
    }

    stats.est_cond =
        double(qr::estimate_filtered_cond(ritz, center, half, degs,
                                          int(locked)));
    if (observer != nullptr) {
      observer->after_filter(iter, int(locked), c.view(), stats.est_cond);
    }

    auto qr_report =
        qr::caqr_1d(c.view(), rmap, grid.col_comm(), stats.est_cond, cfg.qr);
    stats.qr_variant = qr_report.selected;
    stats.qr_used = qr_report.used;
    stats.qr_fallback = qr_report.hhqr_fallback;
    stats.qr_potrf_failures = qr_report.potrf_failures;
    if (locked > 0) {
      la::copy(c2.block(0, 0, mloc, locked).as_const(),
               c.block(0, 0, mloc, locked));
    }
    la::copy(c.block(0, locked, mloc, act).as_const(),
             c2.block(0, locked, mloc, act));

    {
      perf::RegionScope rr(perf::Region::kRayleighRitz);
      auto c2_act = c2.block(0, locked, mloc, act);
      auto b2_act = b2.block(0, locked, bloc, act);
      dist::redistribute_c2b<T>(grid, rmap, cmap, c2_act.as_const(), b2_act);
      auto b_act = b.block(0, locked, bloc, act);
      h.apply_c2b(T(1), c.block(0, locked, mloc, act).as_const(), T(0), b_act);

      la::Matrix<T> a_act(act, act);
      la::gemm(T(1), la::Op::kConjTrans, b2_act.as_const(), la::Op::kNoTrans,
               b_act.as_const(), T(0), a_act.view());
      if (auto* t = perf::thread_tracker()) {
        const double z = kIsComplex<T> ? 8.0 : 2.0;
        t->add_flops(perf::FlopClass::kGemm,
                     z * double(bloc) * double(act) * double(act));
      }
      grid.row_comm().all_reduce(a_act.data(), act * act);

      std::vector<R> theta;
      la::Matrix<T> evec_act(act, act);
      if (cfg.rr_solver == RrSolver::kDivideConquer) {
        la::heevd_dc(a_act.view(), theta, evec_act.view());
      } else {
        la::heevd(a_act.view(), theta, evec_act.view());
      }
      if (auto* t = perf::thread_tracker()) {
        const double z = kIsComplex<T> ? 4.0 : 1.0;
        t->add_flops(perf::FlopClass::kSmall,
                     z * 9.0 * double(act) * double(act) * double(act));
      }
      std::copy(theta.begin(), theta.end(), ritz.begin() + locked);

      la::gemm(T(1), c2_act.as_const(), evec_act.cview(), T(0),
               c.block(0, locked, mloc, act));
      if (auto* t = perf::thread_tracker()) {
        const double z = kIsComplex<T> ? 8.0 : 2.0;
        t->add_flops(perf::FlopClass::kGemm,
                     z * double(mloc) * double(act) * double(act));
      }
      la::copy(c.block(0, locked, mloc, act).as_const(), c2_act);
    }

    {
      perf::RegionScope res(perf::Region::kResidual);
      auto c2_act = c2.block(0, locked, mloc, act);
      auto b2_act = b2.block(0, locked, bloc, act);
      dist::redistribute_c2b<T>(grid, rmap, cmap, c2_act.as_const(), b2_act);
      auto b_act = b.block(0, locked, bloc, act);
      h.apply_c2b(T(1), c.block(0, locked, mloc, act).as_const(), T(0), b_act);

      std::vector<R> nrm(std::size_t(act), R(0));
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
      grid.row_comm().all_reduce(nrm.data(), act);
      for (Index j = 0; j < act; ++j) {
        resid[std::size_t(locked + j)] =
            std::sqrt(nrm[std::size_t(j)]) / scale;
      }
    }

    Index new_locked = 0;
    while (locked + new_locked < ne &&
           resid[std::size_t(locked + new_locked)] < tol) {
      ++new_locked;
    }
    locked += new_locked;
    stats.locked_after = int(locked);
    const auto res_begin = resid.begin() + (locked - new_locked);
    if (res_begin != resid.end()) {
      stats.min_residual = double(*std::min_element(res_begin, resid.end()));
      stats.max_residual = double(*std::max_element(res_begin, resid.end()));
    }
    result.stats.push_back(stats);
    result.iterations = iter;
    if (observer != nullptr) observer->after_iteration(stats);

    if (locked >= cfg.nev) {
      result.converged = true;
      break;
    }
  }

  result.eigenvalues.assign(ritz.begin(), ritz.begin() + cfg.nev);
  result.eigenvectors.resize(mloc, cfg.nev);
  la::copy(c.block(0, 0, mloc, cfg.nev).as_const(),
           result.eigenvectors.view());
  return result;
}

/// The pre-engine core::solve_lms() monolith, verbatim.
template <typename HOp, typename T = typename HOp::Scalar>
ChaseResult<T> solve_lms(HOp& h,
                         const ChaseConfig& cfg,
                         ChaseObserver<T>* observer = nullptr) {
  using R = RealType<T>;
  using core::lanczos_entry;
  using core::round_up_even;
  const auto& grid = h.grid();
  const auto& rmap = h.row_map();
  const auto& cmap = h.col_map();
  const Index n = h.global_size();
  const Index ne = cfg.subspace();
  CHASE_CHECK_MSG(cfg.nev > 0 && ne <= n, "invalid nev/nex");

  const Index mloc = rmap.local_size(grid.my_row());
  const Index bloc = cmap.local_size(grid.my_col());

  la::Matrix<T> c(mloc, ne), b(bloc, ne);
  la::Matrix<T> cfull(n, ne), wfull(n, ne);
  la::Matrix<T> a(ne, ne), evec(ne, ne), scratch;

  ChaseResult<T> result;
  result.bounds = core::lanczos_bounds(h, ne, cfg.lanczos_steps,
                                       cfg.lanczos_vectors, cfg.seed);
  const R b_sup = result.bounds.b_sup;
  R mu_1 = result.bounds.mu_1;
  R mu_ne = result.bounds.mu_ne;
  R center = (b_sup + mu_ne) / R(2);
  R half = (b_sup - mu_ne) / R(2);
  const R scale = std::max(std::abs(b_sup), std::abs(mu_1));
  const R tol = R(cfg.tol);

  for (const auto& run : rmap.runs(grid.my_row())) {
    for (Index j = 0; j < ne; ++j) {
      for (Index k = 0; k < run.length; ++k) {
        c(run.local_begin + k, j) = lanczos_entry<T>(
            cfg.seed, std::uint64_t(1000 + j), run.global_begin + k);
      }
    }
  }

  std::vector<R> ritz(std::size_t(ne), mu_1);
  std::vector<R> resid(std::size_t(ne), R(1));
  std::vector<int> degs(std::size_t(ne), round_up_even(cfg.initial_degree));
  Index locked = 0;

  for (int iter = 1; iter <= cfg.max_iterations; ++iter) {
    IterationStats stats;
    stats.iteration = iter;
    stats.locked_before = int(locked);
    const Index act = ne - locked;

    if (iter > 1) {
      mu_1 = *std::min_element(ritz.begin(), ritz.end());
      mu_ne = *std::max_element(ritz.begin(), ritz.end());
      center = (b_sup + mu_ne) / R(2);
      half = (b_sup - mu_ne) / R(2);
      if (cfg.optimize_degree) {
        core::optimize_degrees(ritz, resid, tol, center, half, int(locked),
                               cfg.max_degree, degs);
      } else {
        std::fill(degs.begin() + locked, degs.end(),
                  round_up_even(cfg.initial_degree));
      }
      std::vector<Index> perm(static_cast<std::size_t>(act));
      std::iota(perm.begin(), perm.end(), Index(0));
      std::stable_sort(perm.begin(), perm.end(), [&](Index x, Index y) {
        return degs[std::size_t(locked + x)] < degs[std::size_t(locked + y)];
      });
      detail::permute_active(c.view(), locked, perm, ritz, resid, degs,
                             scratch);
    }

    std::vector<int> act_degs(degs.begin() + locked, degs.end());
    stats.degrees = act_degs;
    stats.matvecs = core::chebyshev_filter(
        h, c.block(0, locked, mloc, act), b.block(0, locked, bloc, act),
        act_degs, center, half, mu_1);
    result.matvecs += stats.matvecs;

    {
      perf::RegionScope guard_scope(perf::Region::kFilter);
      std::vector<R> col_ok(std::size_t(act), R(1));
      for (Index j = 0; j < act; ++j) {
        for (Index i = 0; i < mloc; ++i) {
          const R mag = abs_value(c(i, locked + j));
          if (!std::isfinite(mag) || mag > R(1e140)) {
            col_ok[std::size_t(j)] = R(0);
            break;
          }
        }
      }
      grid.col_comm().all_reduce(col_ok.data(), act, comm::Reduction::kMin);
      if (std::count(col_ok.begin(), col_ok.end(), R(1)) != act) {
        CHASE_LOG_INFO("filter diverged (b_sup too small?); aborting solve");
        result.iterations = iter;
        break;
      }
    }
    stats.est_cond = double(
        qr::estimate_filtered_cond(ritz, center, half, degs, int(locked)));
    if (observer != nullptr) {
      observer->after_filter(iter, int(locked), c.view(), stats.est_cond);
    }

    {
      perf::RegionScope qr_scope(perf::Region::kQr);
      dist::gather_rows(grid.col_comm(), rmap, c.view().as_const(),
                        cfull.view());
      la::householder_orthonormalize(cfull.view());
      if (auto* t = perf::thread_tracker()) {
        const double z = kIsComplex<T> ? 4.0 : 1.0;
        t->add_flops(perf::FlopClass::kPanel,
                     4.0 * z * double(n) * double(ne) * double(ne));
      }
      detail::record_lms_roundtrip(std::size_t(n) * std::size_t(ne) *
                                   sizeof(T));
      if (locked > 0) {
        la::copy(wfull.block(0, 0, n, locked).as_const(),
                 cfull.block(0, 0, n, locked));
      }
      dist::scatter_rows(rmap, grid.my_row(), cfull.view().as_const(),
                         c.view());
    }
    stats.qr_variant = qr::QrVariant::kHouseholder;

    {
      perf::RegionScope rr(perf::Region::kRayleighRitz);
      auto b_act = b.block(0, locked, bloc, act);
      h.apply_c2b(T(1), c.block(0, locked, mloc, act).as_const(), T(0), b_act);
      dist::gather_rows(grid.row_comm(), cmap, b_act.as_const(),
                        wfull.block(0, locked, n, act));

      auto a_act = a.block(0, 0, act, act);
      la::gemm(T(1), la::Op::kConjTrans,
               cfull.block(0, locked, n, act).as_const(), la::Op::kNoTrans,
               wfull.block(0, locked, n, act).as_const(), T(0), a_act);
      if (auto* t = perf::thread_tracker()) {
        const double z = kIsComplex<T> ? 8.0 : 2.0;
        t->add_flops(perf::FlopClass::kPanel,
                     z * double(n) * double(act) * double(act));
      }
      std::vector<R> theta;
      auto evec_act = evec.block(0, 0, act, act);
      la::heevd(a_act, theta, evec_act);
      if (auto* t = perf::thread_tracker()) {
        const double z = kIsComplex<T> ? 4.0 : 1.0;
        t->add_flops(perf::FlopClass::kSmall,
                     z * 9.0 * double(act) * double(act) * double(act));
      }
      std::copy(theta.begin(), theta.end(), ritz.begin() + locked);

      la::gemm(T(1), cfull.block(0, locked, n, act).as_const(),
               evec_act.as_const(), T(0), wfull.block(0, locked, n, act));
      la::copy(wfull.block(0, locked, n, act).as_const(),
               cfull.block(0, locked, n, act));
      if (auto* t = perf::thread_tracker()) {
        const double z = kIsComplex<T> ? 8.0 : 2.0;
        t->add_flops(perf::FlopClass::kPanel,
                     z * double(n) * double(act) * double(act));
      }
      detail::record_lms_roundtrip(std::size_t(n) * std::size_t(act) *
                                   sizeof(T));
      dist::scatter_rows(rmap, grid.my_row(), cfull.view().as_const(),
                         c.view());
    }

    {
      perf::RegionScope res_scope(perf::Region::kResidual);
      auto b_act = b.block(0, locked, bloc, act);
      h.apply_c2b(T(1), c.block(0, locked, mloc, act).as_const(), T(0), b_act);
      dist::gather_rows(grid.row_comm(), cmap, b_act.as_const(),
                        wfull.block(0, locked, n, act));
      detail::record_lms_roundtrip(std::size_t(n) * std::size_t(act) *
                                   sizeof(T));
      for (Index j = 0; j < act; ++j) {
        const R lambda = ritz[std::size_t(locked + j)];
        R acc(0);
        for (Index i = 0; i < n; ++i) {
          const T d = wfull(i, locked + j) - T(lambda) * cfull(i, locked + j);
          acc += real_part(conjugate(d) * d);
        }
        resid[std::size_t(locked + j)] = std::sqrt(acc) / scale;
      }
      if (auto* t = perf::thread_tracker()) {
        t->add_mem_bytes(3.0 * double(n) * double(act) * sizeof(T));
      }
    }

    la::copy(cfull.view().as_const(), wfull.view());

    Index new_locked = 0;
    while (locked + new_locked < ne &&
           resid[std::size_t(locked + new_locked)] < tol) {
      ++new_locked;
    }
    locked += new_locked;
    stats.locked_after = int(locked);
    const auto res_begin = resid.begin() + (locked - new_locked);
    if (res_begin != resid.end()) {
      stats.min_residual = double(*std::min_element(res_begin, resid.end()));
      stats.max_residual = double(*std::max_element(res_begin, resid.end()));
    }
    result.stats.push_back(stats);
    result.iterations = iter;
    if (observer != nullptr) observer->after_iteration(stats);

    if (locked >= cfg.nev) {
      result.converged = true;
      break;
    }
  }

  result.eigenvalues.assign(ritz.begin(), ritz.begin() + cfg.nev);
  result.eigenvectors.resize(mloc, cfg.nev);
  la::copy(c.block(0, 0, mloc, cfg.nev).as_const(),
           result.eigenvectors.view());
  return result;
}

}  // namespace chase::seeddrv
