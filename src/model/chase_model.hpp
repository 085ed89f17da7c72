// Analytic replay of the ChASE event stream at arbitrary cluster scale.
//
// The Figure 2/3 experiments run on up to 900 nodes with matrices up to
// N = 900k — 13 TB of dense data, far beyond this machine. The model below
// walks the exact control flow of the real drivers (core/chase.hpp,
// core/legacy_lms.hpp) and emits the identical sequence of flop counts,
// collectives and staging copies into a perf::Tracker; pricing that stream
// with the MachineModel then produces cluster-scale time estimates whose
// *structure* is the real algorithm's. Fidelity is enforced by tests that
// compare, region by region, the model's event stream against what a real
// small-scale run records.
#pragma once

#include "dist/index_map.hpp"
#include "perf/backend.hpp"
#include "perf/cost_model.hpp"
#include "perf/tracker.hpp"
#include "qr/qr_selector.hpp"

namespace chase::model {

using dist::IndexMap;
using la::Index;
using perf::Backend;

/// Which parallelization scheme is replayed.
enum class Scheme { kNew, kLms };

/// Problem and machine-layout description for the replay.
struct ChaseModelSetup {
  Index n = 0;              // matrix size
  Index nev = 0;
  Index nex = 0;
  bool complex_scalar = true;
  int scalar_bytes = 16;    // sizeof(std::complex<double>)
  int real_bytes = 8;

  /// Replay the CHASE_PRECISION=mixed pipeline: the filter's HEMMs run on
  /// the fp32 shadow of H (priced at the machine's single-precision GEMM
  /// rate, allreduce payloads halved); Lanczos, QR, Rayleigh-Ritz and
  /// residuals stay in working precision, exactly as in the real backend
  /// (core/dla_mixed.hpp). memory_bytes_new grows by the shadow storage.
  bool mixed_filter = false;

  int nprow = 1;            // 2D grid shape
  int npcol = 1;
  Scheme scheme = Scheme::kNew;
  Backend backend = Backend::kNcclGpu;
  /// ChASE(LMS) runs 1 rank per node with 4 GPUs; the extra GPUs accelerate
  /// only the GEMM-class work of that rank (Section 4, configuration note).
  int gpus_per_rank = 1;
  /// Ranks per node of the modeled cluster (row-major grid order, matching
  /// comm::Grid2d and the CHASE_TOPO assignment). <= 1 models a flat layout;
  /// larger values give the row/column communicators the same grouped
  /// TopoInfo the runtime derives, so the replay routes collectives through
  /// coll::select and emits hierarchical per-phase events exactly when the
  /// real dispatcher would.
  int ranks_per_node = 0;

  Index subspace() const { return nev + nex; }
};

/// One outer iteration's shape: how many columns are locked and the
/// (ascending) per-vector filter degrees of the active columns.
struct IterationShape {
  Index locked = 0;
  std::vector<int> degrees;                       // active columns, ascending
  qr::QrVariant qr = qr::QrVariant::kCholQr2;
};

/// Uniform-degree helper (the weak-scaling experiments filter every column
/// with the same degree and run exactly one iteration).
IterationShape uniform_iteration(Index ne, int degree,
                                 qr::QrVariant qr = qr::QrVariant::kCholQr2);

/// Rescale a measured iteration history (locked counts, per-vector degree
/// lists, QR variants) from a real run with subspace ne_small to a replay
/// subspace ne_big: locked fractions are preserved and the degree profile is
/// resampled. This is how the strong-scaling and Table-2 benches transport
/// real convergence behaviour to the paper's problem sizes.
struct MeasuredIteration {
  Index locked_before = 0;
  std::vector<int> degrees;  // active columns, ascending
  qr::QrVariant qr = qr::QrVariant::kCholQr2;
};

std::vector<IterationShape> rescale_history(
    const std::vector<MeasuredIteration>& history, Index ne_small,
    Index ne_big);

/// Emit the event stream of one ChASE iteration into `t`.
void replay_iteration(const ChaseModelSetup& s, const IterationShape& it,
                      perf::Tracker& t);

/// Emit the Lanczos spectral-estimation events: `steps` block applies of
/// `nvec` columns (the runs advance in lockstep).
void replay_lanczos(const ChaseModelSetup& s, int steps, int nvec,
                    perf::Tracker& t);

/// Convenience: replay a full solve (Lanczos + the given iterations) and
/// price it.
perf::KernelCosts model_chase(const perf::MachineModel& m,
                              const ChaseModelSetup& s,
                              const std::vector<IterationShape>& iterations,
                              int lanczos_steps = 25, int lanczos_vectors = 4);

/// Eq. (2): per-rank memory footprint in bytes of the new scheme, and the
/// v1.2 footprint with its two redundant N x n_e buffers.
std::size_t memory_bytes_new(const ChaseModelSetup& s);
std::size_t memory_bytes_lms(const ChaseModelSetup& s);

}  // namespace chase::model
