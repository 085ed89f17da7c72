#include "model/chase_model.hpp"

#include <algorithm>
#include <cmath>

#include "coll/engine.hpp"
#include "comm/topology.hpp"
#include "common/check.hpp"

namespace chase::model {

namespace {

using perf::CollKind;
using perf::FlopClass;
using perf::Region;
using perf::Tracker;

/// The modeled grid's communicator topologies, from rank 0's perspective
/// (whose event stream the replay emits). Ranks are laid out row-major
/// (comm::Grid2d: rank = row * npcol + col) and assigned to nodes in blocks
/// of `ranks_per_node`, exactly like a contiguous CHASE_TOPO spec. Rank 0's
/// column communicator holds world ranks {0, npcol, 2*npcol, ...}; its row
/// communicator holds {0 .. npcol-1}.
perf::TopoInfo model_topo(const ChaseModelSetup& s, bool col_comm) {
  const int rpn = s.ranks_per_node;
  if (rpn <= 1) return {};
  std::vector<int> nodes;
  if (col_comm) {
    nodes.reserve(std::size_t(s.nprow));
    for (int r = 0; r < s.nprow; ++r) {
      nodes.push_back((r * s.npcol) / rpn);
    }
  } else {
    nodes.reserve(std::size_t(s.npcol));
    for (int c = 0; c < s.npcol; ++c) nodes.push_back(c / rpn);
  }
  return comm::topo_info_of(nodes, /*inter_bw=*/0.0, /*inter_latency=*/0.0);
}

/// Mirrors comm::Communicator's accounting: one collective event plus, for
/// the STD backend, the two staging copies around it. Self-communicators
/// record nothing (the real collectives early-return). Each call consults
/// the same coll::select the real dispatcher runs, so on a grouped
/// communicator the replay emits the hierarchical per-phase decomposition
/// (coll::hier_phases) instead of the single flat event.
struct ModelComm {
  Tracker& t;
  Backend backend;
  perf::TopoInfo col_topo;  // column communicators (nprow ranks)
  perf::TopoInfo row_topo;  // row communicators (npcol ranks)

  ModelComm(Tracker& tracker, const ChaseModelSetup& s)
      : t(tracker),
        backend(s.backend),
        col_topo(model_topo(s, /*col_comm=*/true)),
        row_topo(model_topo(s, /*col_comm=*/false)) {}

  void collective(CollKind kind, std::size_t bytes, int nranks,
                  const perf::TopoInfo& topo) {
    if (nranks <= 1) return;
    if (coll::select(kind, bytes, nranks, backend, topo) ==
        perf::CollAlgo::kHierAlgo) {
      t.begin_collective();
      coll::account_phases(&t, backend,
                           coll::hier_phases(kind, bytes, nranks, topo));
      return;
    }
    if (backend == Backend::kStdGpu) t.record_memcpy(bytes, false);
    t.begin_collective();
    t.end_collective(kind, bytes, nranks);
    if (backend == Backend::kStdGpu) t.record_memcpy(bytes, true);
  }
  void all_reduce(std::size_t bytes, int nranks,
                  const perf::TopoInfo& topo) {
    collective(CollKind::kAllReduce, bytes, nranks, topo);
  }
  void broadcast(std::size_t bytes, int nranks, const perf::TopoInfo& topo) {
    collective(CollKind::kBroadcast, bytes, nranks, topo);
  }
  /// `local_bytes` is one rank's contribution; the event records the total
  /// gathered payload, and the STD staging is asymmetric (D2H the local
  /// share, H2D the whole gathered buffer) — mirroring
  /// Communicator::all_gather's accounting.
  void all_gather(std::size_t local_bytes, int nranks,
                  const perf::TopoInfo& topo) {
    if (nranks <= 1) return;
    const std::size_t total = std::size_t(nranks) * local_bytes;
    if (coll::select(CollKind::kAllGather, total, nranks, backend, topo) ==
        perf::CollAlgo::kHierAlgo) {
      t.begin_collective();
      coll::account_phases(
          &t, backend,
          coll::hier_phases(CollKind::kAllGather, total, nranks, topo));
      return;
    }
    if (backend == Backend::kStdGpu) t.record_memcpy(local_bytes, false);
    t.begin_collective();
    t.end_collective(CollKind::kAllGather, total, nranks);
    if (backend == Backend::kStdGpu) t.record_memcpy(total, true);
  }
};

struct Sizes {
  Index mloc;  // C-layout rows on rank 0 (row map)
  Index bloc;  // B-layout rows on rank 0 (col map)
  double z1;   // herk/potrf-class flop multiplier (4 complex, 1 real)
  double z2;   // gemm-class flop multiplier (8 complex, 2 real)
};

Sizes sizes_of(const ChaseModelSetup& s) {
  const auto rmap = IndexMap::block(s.n, s.nprow);
  const auto cmap = IndexMap::block(s.n, s.npcol);
  return {rmap.local_size(0), cmap.local_size(0),
          s.complex_scalar ? 4.0 : 1.0, s.complex_scalar ? 8.0 : 2.0};
}

/// One distributed HEMM application on `ncols` columns (matches
/// DistHermitianMatrix::apply_impl): local GEMM flops plus the partial-sum
/// allreduce over the reducing communicator. The local multiply is priced at
/// the model's kGemm rate whether the real rank runs la::gemm or (on
/// diagonal ranks) la::hemm — the two engines sustain the same Gflop/s by
/// construction, and MachineModel::calibrate_gemm can pin that rate to what
/// the engine measured on the build host.
/// `low` replays the apply on the mixed backend's fp32 shadow: same flop
/// count priced at the single-precision rate, allreduce payload halved.
void hemm_apply(const ChaseModelSetup& s, const Sizes& sz, ModelComm& comm,
                Tracker& t, Index ncols, bool c2b, bool low = false) {
  t.add_flops(low ? FlopClass::kGemmSingle : FlopClass::kGemm,
              sz.z2 / 2.0 * 2.0 * double(sz.mloc) * double(sz.bloc) *
                  double(ncols));
  const Index out_rows = c2b ? sz.bloc : sz.mloc;
  const int nranks = c2b ? s.nprow : s.npcol;
  const std::size_t elem_bytes =
      low ? std::size_t(s.scalar_bytes) / 2 : std::size_t(s.scalar_bytes);
  comm.all_reduce(std::size_t(out_rows) * std::size_t(ncols) * elem_bytes,
                  nranks, c2b ? comm.col_topo : comm.row_topo);
}

/// The "B2 <- Bcast(C2)" redistribution on a square grid with equal maps:
/// one full-block broadcast within the column communicator.
void redistribute_c2b(const ChaseModelSetup& s, const Sizes& sz,
                      ModelComm& comm, Index ncols) {
  CHASE_CHECK_MSG(s.nprow == s.npcol,
                  "the replay models square grids (the paper's optimal "
                  "configuration); non-square grids run for real");
  comm.broadcast(std::size_t(sz.bloc) * std::size_t(ncols) *
                     std::size_t(s.scalar_bytes),
                 s.nprow, comm.col_topo);
}

/// One CholeskyQR repetition (matches qr::cholqr_step + the flop accounting
/// of account_cholqr_flops).
void cholqr_rep(const ChaseModelSetup& s, const Sizes& sz, ModelComm& comm,
                Tracker& t) {
  const Index ne = s.subspace();
  // The real cholqr_step reduces only the packed upper triangle of the Gram
  // matrix: ne(ne+1)/2 scalars instead of ne^2.
  comm.all_reduce(std::size_t(ne) * std::size_t(ne + 1) / 2 *
                      std::size_t(s.scalar_bytes),
                  s.nprow, comm.col_topo);
  t.add_flops(FlopClass::kFactor,
              2.0 * sz.z1 * double(sz.mloc) * double(ne) * double(ne));
  t.add_flops(FlopClass::kSmall,
              sz.z1 * double(ne) * double(ne) * double(ne) / 3.0);
}

/// Distributed Householder QR (matches qr::hhqr_dist): per column one tail
/// allreduce, one pivot broadcast and one trailing-update allreduce, then
/// the backward Q accumulation.
void hhqr(const ChaseModelSetup& s, const Sizes& sz, ModelComm& comm,
          Tracker& t) {
  const Index ne = s.subspace();
  for (Index k = 0; k < ne; ++k) {
    comm.all_reduce(std::size_t(s.real_bytes), s.nprow, comm.col_topo);
    comm.broadcast(std::size_t(s.scalar_bytes), s.nprow, comm.col_topo);
    if (k + 1 < ne) {
      comm.all_reduce(std::size_t(ne - k - 1) * std::size_t(s.scalar_bytes),
                      s.nprow, comm.col_topo);
    }
  }
  for (Index k = ne - 1; k >= 0; --k) {
    comm.all_reduce(std::size_t(ne - k) * std::size_t(s.scalar_bytes),
                    s.nprow, comm.col_topo);
  }
  t.add_flops(FlopClass::kPanel,
              4.0 * sz.z1 * double(sz.mloc) * double(ne) * double(ne));
}

/// v1.2 collection: one broadcast per part of the map (matches
/// dist::gather_rows).
void gather(const ChaseModelSetup& s, ModelComm& comm, const IndexMap& map,
            Index ncols, int comm_size, const perf::TopoInfo& topo) {
  if (comm_size <= 1) return;
  for (int part = 0; part < map.parts(); ++part) {
    const Index count = map.local_size(part);
    if (count == 0) continue;
    comm.broadcast(std::size_t(count) * std::size_t(ncols) *
                       std::size_t(s.scalar_bytes),
                   comm_size, topo);
  }
}

void lms_roundtrip(Tracker& t, std::size_t bytes) {
  t.record_memcpy(bytes, false);
  t.record_memcpy(bytes, true);
}

}  // namespace

IterationShape uniform_iteration(Index ne, int degree, qr::QrVariant qr) {
  IterationShape it;
  it.locked = 0;
  it.degrees.assign(std::size_t(ne), degree);
  it.qr = qr;
  return it;
}

std::vector<IterationShape> rescale_history(
    const std::vector<MeasuredIteration>& history, Index ne_small,
    Index ne_big) {
  std::vector<IterationShape> out;
  out.reserve(history.size());
  for (const auto& m : history) {
    IterationShape it;
    const double locked_frac = double(m.locked_before) / double(ne_small);
    it.locked = std::min<Index>(Index(std::lround(locked_frac * double(ne_big))),
                                ne_big - 1);
    const Index act_big = ne_big - it.locked;
    const Index act_small = Index(m.degrees.size());
    CHASE_CHECK(act_small > 0);
    it.degrees.resize(std::size_t(act_big));
    for (Index j = 0; j < act_big; ++j) {
      it.degrees[std::size_t(j)] =
          m.degrees[std::size_t((j * act_small) / act_big)];
    }
    it.qr = m.qr;
    out.push_back(std::move(it));
  }
  return out;
}

void replay_lanczos(const ChaseModelSetup& s, int steps, int nvec,
                    Tracker& t) {
  const auto sz = sizes_of(s);
  ModelComm comm(t, s);
  const Region prev = t.set_region(Region::kLanczos);
  // The nvec runs advance in lockstep as the columns of one block
  // (core/lanczos.hpp), so every reduction carries one scalar per run.
  const std::size_t scalars =
      std::size_t(nvec) * std::size_t(s.scalar_bytes);
  comm.all_reduce(scalars, s.nprow, comm.col_topo);  // start-vector norms
  for (int j = 0; j < steps; ++j) {
    hemm_apply(s, sz, comm, t, nvec, /*c2b=*/true);
    // B -> C redistribution of the block (row communicator).
    comm.broadcast(std::size_t(sz.mloc) * scalars, s.npcol, comm.row_topo);
    comm.all_reduce(scalars, s.nprow, comm.col_topo);  // alphas
    comm.all_reduce(scalars, s.nprow, comm.col_topo);  // betas
  }
  t.set_region(prev);
}

void replay_iteration(const ChaseModelSetup& s, const IterationShape& it,
                      Tracker& t) {
  const auto sz = sizes_of(s);
  ModelComm comm(t, s);
  const Index ne = s.subspace();
  const Index act = Index(it.degrees.size());
  CHASE_CHECK(it.locked + act == ne);
  CHASE_CHECK(std::is_sorted(it.degrees.begin(), it.degrees.end()));

  // ---- Filter ----
  {
    const Region prev = t.set_region(Region::kFilter);
    const int max_deg = it.degrees.empty() ? 0 : it.degrees.back();
    hemm_apply(s, sz, comm, t, act, /*c2b=*/true, s.mixed_filter);  // step 1
    for (int step = 2; step <= max_deg; ++step) {
      const auto first = std::lower_bound(it.degrees.begin(),
                                          it.degrees.end(), step) -
                         it.degrees.begin();
      const Index ncols = act - Index(first);
      if (ncols == 0) break;
      hemm_apply(s, sz, comm, t, ncols, /*c2b=*/step % 2 != 0,
                 s.mixed_filter);
    }
    if (s.mixed_filter) {
      // Demote the active panel into the fp32 shadow before filtering and
      // promote the result back: streaming copies over C-layout rows.
      t.add_mem_bytes(2.0 * double(sz.mloc) * double(act) * 1.5 *
                      double(s.scalar_bytes));
    }
    // Divergence-guard consensus: per-column finiteness flags (one real per
    // active column) reduced over the column communicator each iteration.
    comm.all_reduce(std::size_t(act) * std::size_t(s.real_bytes), s.nprow,
                    comm.col_topo);
    t.set_region(prev);
  }

  // ---- QR ----
  {
    const Region prev = t.set_region(Region::kQr);
    if (s.scheme == Scheme::kLms) {
      // v1.2: collect, redundant Householder QR on the full buffer, copy the
      // result back to the host.
      gather(s, comm, IndexMap::block(s.n, s.nprow), ne, s.nprow,
             comm.col_topo);
      t.add_flops(FlopClass::kPanel,
                  4.0 * sz.z1 * double(s.n) * double(ne) * double(ne));
      lms_roundtrip(t, std::size_t(s.n) * std::size_t(ne) *
                           std::size_t(s.scalar_bytes));
    } else {
      switch (it.qr) {
        case qr::QrVariant::kCholQr1:
          cholqr_rep(s, sz, comm, t);
          break;
        case qr::QrVariant::kCholQr2:
          cholqr_rep(s, sz, comm, t);
          cholqr_rep(s, sz, comm, t);
          break;
        case qr::QrVariant::kShiftedCholQr2:
          // Shifted pass: packed-triangle Gram allreduce + Frobenius-norm
          // allreduce, then CholeskyQR2.
          comm.all_reduce(std::size_t(ne) * std::size_t(ne + 1) / 2 *
                              std::size_t(s.scalar_bytes),
                          s.nprow, comm.col_topo);
          comm.all_reduce(std::size_t(s.real_bytes), s.nprow, comm.col_topo);
          t.add_flops(FlopClass::kFactor, 2.0 * sz.z1 * double(sz.mloc) *
                                              double(ne) * double(ne));
          t.add_flops(FlopClass::kSmall,
                      sz.z1 * double(ne) * double(ne) * double(ne) / 3.0);
          cholqr_rep(s, sz, comm, t);
          cholqr_rep(s, sz, comm, t);
          break;
        case qr::QrVariant::kHouseholder:
          hhqr(s, sz, comm, t);
          break;
        case qr::QrVariant::kTsqr: {
          // Local panel QR + Q formation, one R-factor allgather, the
          // redundant stacked-R factorization, and the combine GEMM
          // (matches qr::tsqr's accounting).
          const Index ne = s.subspace();
          t.add_flops(FlopClass::kPanel, 4.0 * sz.z1 * double(sz.mloc) *
                                             double(ne) * double(ne));
          t.add_flops(FlopClass::kSmall,
                      4.0 * sz.z1 * double(s.nprow) * double(ne) *
                          double(ne) * double(ne));
          if (s.nprow > 1) {
            comm.all_gather(std::size_t(ne) * std::size_t(ne) *
                                std::size_t(s.scalar_bytes),
                            s.nprow, comm.col_topo);
          }
          break;
        }
      }
    }
    t.set_region(prev);
  }

  // ---- Rayleigh-Ritz ----
  {
    const Region prev = t.set_region(Region::kRayleighRitz);
    if (s.scheme == Scheme::kLms) {
      hemm_apply(s, sz, comm, t, act, /*c2b=*/true);
      gather(s, comm, IndexMap::block(s.n, s.npcol), act, s.npcol,
             comm.row_topo);
      // Redundant full-height products (A = C^H W and the back-transform),
      // executed on a single device per rank in v1.2: panel-rated.
      t.add_flops(FlopClass::kPanel,
                  2.0 * sz.z2 * double(s.n) * double(act) * double(act));
      t.add_flops(FlopClass::kSmall,
                  sz.z1 * 9.0 * double(act) * double(act) * double(act));
      lms_roundtrip(t, std::size_t(s.n) * std::size_t(act) *
                           std::size_t(s.scalar_bytes));
    } else {
      redistribute_c2b(s, sz, comm, act);
      hemm_apply(s, sz, comm, t, act, /*c2b=*/true);
      t.add_flops(FlopClass::kGemm,
                  sz.z2 * double(sz.bloc) * double(act) * double(act));
      comm.all_reduce(std::size_t(act) * std::size_t(act) *
                          std::size_t(s.scalar_bytes),
                      s.npcol, comm.row_topo);
      t.add_flops(FlopClass::kSmall,
                  sz.z1 * 9.0 * double(act) * double(act) * double(act));
      t.add_flops(FlopClass::kGemm,
                  sz.z2 * double(sz.mloc) * double(act) * double(act));
    }
    t.set_region(prev);
  }

  // ---- Residuals ----
  {
    const Region prev = t.set_region(Region::kResidual);
    if (s.scheme == Scheme::kLms) {
      hemm_apply(s, sz, comm, t, act, /*c2b=*/true);
      gather(s, comm, IndexMap::block(s.n, s.npcol), act, s.npcol,
             comm.row_topo);
      lms_roundtrip(t, std::size_t(s.n) * std::size_t(act) *
                           std::size_t(s.scalar_bytes));
      t.add_mem_bytes(3.0 * double(s.n) * double(act) *
                      double(s.scalar_bytes));
    } else {
      redistribute_c2b(s, sz, comm, act);
      hemm_apply(s, sz, comm, t, act, /*c2b=*/true);
      t.add_mem_bytes(3.0 * double(sz.bloc) * double(act) *
                      double(s.scalar_bytes));
      comm.all_reduce(std::size_t(act) * std::size_t(s.real_bytes), s.npcol,
                      comm.row_topo);
    }
    t.set_region(prev);
  }
}

perf::KernelCosts model_chase(const perf::MachineModel& m,
                              const ChaseModelSetup& s,
                              const std::vector<IterationShape>& iterations,
                              int lanczos_steps, int lanczos_vectors) {
  perf::Tracker t;
  replay_lanczos(s, lanczos_steps, lanczos_vectors, t);
  for (const auto& it : iterations) {
    replay_iteration(s, it, t);
  }
  t.flush();
  // Extra GPUs per rank (the LMS node configuration) accelerate the
  // GEMM-class local work only.
  perf::MachineModel adjusted = m;
  adjusted.gemm_flops *= double(std::max(s.gpus_per_rank, 1));
  return perf::price_tracker(adjusted, s.backend, t);
}

std::size_t memory_bytes_new(const ChaseModelSetup& s) {
  const auto sz = sizes_of(s);
  const Index ne = s.subspace();
  // Eq. (2): H panel + C/C2 + B/B2 + A.
  std::size_t bytes = std::size_t(s.scalar_bytes) *
                      (std::size_t(sz.mloc) * std::size_t(sz.bloc) +
                       2 * std::size_t(sz.mloc) * std::size_t(ne) +
                       2 * std::size_t(sz.bloc) * std::size_t(ne) +
                       std::size_t(ne) * std::size_t(ne));
  if (s.mixed_filter) {
    // The mixed backend adds the fp32 shadow of H and the packed low
    // panels (half-width), plus the fp64 pack scratch for promoted columns.
    bytes += std::size_t(s.scalar_bytes) / 2 *
             (std::size_t(sz.mloc) * std::size_t(sz.bloc) +
              std::size_t(sz.mloc) * std::size_t(ne) +
              std::size_t(sz.bloc) * std::size_t(ne));
    bytes += std::size_t(s.scalar_bytes) *
             (std::size_t(sz.mloc) * std::size_t(ne) +
              std::size_t(sz.bloc) * std::size_t(ne));
  }
  return bytes;
}

std::size_t memory_bytes_lms(const ChaseModelSetup& s) {
  const auto sz = sizes_of(s);
  const Index ne = s.subspace();
  // v1.2: H panel + distributed C/B + two redundant full N x n_e buffers.
  return std::size_t(s.scalar_bytes) *
         (std::size_t(sz.mloc) * std::size_t(sz.bloc) +
          std::size_t(sz.mloc) * std::size_t(ne) +
          std::size_t(sz.bloc) * std::size_t(ne) +
          2 * std::size_t(s.n) * std::size_t(ne));
}

}  // namespace chase::model
