// Distributed 1D Householder QR — the robust fallback of Algorithm 4 and the
// baseline of the Table 2 comparison.
//
// X is row-distributed over `comm` by `map` (the C layout of ChASE). Each of
// the n reflectors needs one allreduce for the tail norm, one broadcast of
// the pivot element and one allreduce of v^H X over the trailing columns —
// the per-column message pattern that makes Householder QR communication-
// bound at scale, in contrast to the single Gram allreduce of CholeskyQR.
// This mirrors the ScaLAPACK HHQR the paper calls over each column
// communicator (Section 4.3).
#pragma once

#include <vector>

#include "comm/communicator.hpp"
#include "dist/index_map.hpp"
#include "la/householder.hpp"
#include "la/qr.hpp"
#include "la/qr_blocked.hpp"
#include "perf/tracker.hpp"

namespace chase::qr {

using dist::IndexMap;

/// Orthonormalize the distributed tall matrix X in place (Q overwrites X,
/// R is discarded as ChASE does not consume it).
template <typename T>
void hhqr_dist(la::MatrixView<T> x, const IndexMap& map,
               const comm::Communicator& comm) {
  using R = RealType<T>;
  const Index n = x.cols();
  const Index m = map.global_size();
  CHASE_CHECK_MSG(m >= n, "hhqr_dist expects a tall matrix");
  CHASE_CHECK_MSG(x.rows() == map.local_size(comm.rank()),
                  "hhqr_dist: local rows do not match the map");
  if (comm.size() == 1) {
    // Single-rank fallback path: the compact-WY blocked QR (panel +
    // larft/larfb GEMM updates).
    la::householder_orthonormalize_blocked(x);
    return;
  }

  const int me = comm.rank();
  const auto runs = map.runs(me);
  // Global index of each local row, for pivot/tail membership tests.
  std::vector<Index> gidx(static_cast<std::size_t>(x.rows()));
  for (const auto& run : runs) {
    for (Index k = 0; k < run.length; ++k) {
      gidx[std::size_t(run.local_begin + k)] = run.global_begin + k;
    }
  }

  // Reflector tails are accumulated in V (local rows x n); the implicit
  // "1" lives at global row k of reflector k.
  la::Matrix<T> v(x.rows(), n);
  std::vector<T> taus(static_cast<std::size_t>(n));
  std::vector<T> work(static_cast<std::size_t>(n + 1));

  auto apply_reflector = [&](Index k, la::MatrixView<T> cols, T tau,
                             bool conj_tau) {
    // cols := (I - tau v_k v_k^H) cols, restricted to global rows >= k.
    const Index nc = cols.cols();
    if (nc == 0 || tau == T(0)) return;
    std::vector<T>& w = work;
    for (Index j = 0; j < nc; ++j) {
      T acc(0);
      const T* cj = cols.col(j);
      const T* vk = v.col(k);
      for (Index i = 0; i < cols.rows(); ++i) {
        if (gidx[std::size_t(i)] >= k) acc += conjugate(vk[i]) * cj[i];
      }
      w[std::size_t(j)] = acc;
    }
    comm.all_reduce(w.data(), nc);
    const T t = conj_tau ? conjugate(tau) : tau;
    for (Index j = 0; j < nc; ++j) {
      T* cj = cols.col(j);
      const T* vk = v.col(k);
      const T f = t * w[std::size_t(j)];
      for (Index i = 0; i < cols.rows(); ++i) {
        if (gidx[std::size_t(i)] >= k) cj[i] -= f * vk[i];
      }
    }
  };

  for (Index k = 0; k < n; ++k) {
    // Tail norm ||x(k+1:m, k)||^2 and pivot alpha = x(k, k).
    R tail2 = R(0);
    T alpha(0);
    const int owner = map.owner(k);
    for (Index i = 0; i < x.rows(); ++i) {
      const Index g = gidx[std::size_t(i)];
      if (g > k) {
        tail2 += real_part(conjugate(x(i, k)) * x(i, k));
      } else if (g == k) {
        alpha = x(i, k);
      }
    }
    comm.all_reduce(&tail2, 1);
    comm.broadcast(&alpha, 1, owner);

    // Reflector parameters, computed redundantly (deterministic).
    const R xnorm = std::sqrt(tail2);
    const R alphr = real_part(alpha);
    const R alphi = imag_part(alpha);
    T tau(0);
    R beta = alphr;
    if (xnorm != R(0) || alphi != R(0)) {
      const R norm = std::hypot(std::hypot(alphr, alphi), xnorm);
      beta = (alphr >= R(0)) ? -norm : norm;
      if constexpr (kIsComplex<T>) {
        tau = T((beta - alphr) / beta, -alphi / beta);
      } else {
        tau = (beta - alphr) / beta;
      }
    }
    taus[std::size_t(k)] = tau;

    // v_k: 1 at global row k, x / (alpha - beta) below, 0 above.
    const T inv = tau == T(0) ? T(0) : T(1) / (alpha - T(beta));
    for (Index i = 0; i < x.rows(); ++i) {
      const Index g = gidx[std::size_t(i)];
      if (g > k) {
        v(i, k) = x(i, k) * inv;
      } else if (g == k) {
        v(i, k) = T(1);
      } else {
        v(i, k) = T(0);
      }
    }

    // Update the trailing columns with H_k^H (zgeqr2 convention).
    if (k + 1 < n) {
      apply_reflector(k, x.block(0, k + 1, x.rows(), n - k - 1), tau,
                      /*conj_tau=*/true);
    }
  }

  // Form the thin Q in place: X := H_0 ... H_{n-1} * I_{m x n}.
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < x.rows(); ++i) {
      x(i, j) = gidx[std::size_t(i)] == j ? T(1) : T(0);
    }
  }
  for (Index k = n - 1; k >= 0; --k) {
    apply_reflector(k, x.block(0, k, x.rows(), n - k), taus[std::size_t(k)],
                    /*conj_tau=*/false);
  }

  if (auto* t = perf::thread_tracker()) {
    const double z = kIsComplex<T> ? 4.0 : 1.0;
    // geqrf (2mn^2) + ungqr (2mn^2) panel work, split across ranks.
    t->add_flops(perf::FlopClass::kPanel,
                 4.0 * z * double(x.rows()) * double(n) * double(n));
  }
}

}  // namespace chase::qr
