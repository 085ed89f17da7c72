// Analytic machine description used to price computation, collectives and
// host-device staging at cluster scale.
//
// The constants describe one JUWELS-Booster-like node (Section 4): 4x NVIDIA
// A100-40GB per node, 4x InfiniBand HDR adapters, PCIe gen4 staging, with one
// MPI rank per GPU for the STD/NCCL variants. They are *effective* rates (the
// fraction of peak a well-tuned kernel reaches), not peaks; the calibration
// test in tests/perf checks that the model reproduces the relative behaviour
// of the real small-scale runs, and EXPERIMENTS.md records where absolute
// numbers come from.
#pragma once

#include <cstddef>

namespace chase::perf {

class Tracker;

struct MachineModel {
  // --- per-GPU computation (double precision, effective) ---
  double gemm_flops = 17.0e12;   // large HEMM/GEMM, near-peak tensor FP64
  double panel_flops = 0.5e12;   // BLAS-2-bound Householder panel kernels
  double small_flops = 0.5e12;   // redundant n_e x n_e kernels (EVD, POTRF)
  double factor_flops = 17.0e12; // level-3 factorization (HERK/TRSM/POTRF);
                                 // defaults to the GEMM rate — the blocked
                                 // engine lowers these onto GEMM — and is
                                 // replaced by calibrate_factor()
  double hbm_bw = 1.3e12;        // bytes/s, for BLAS-1 bound residual norms

  // --- single-precision speedup over the double-precision GEMM rate ---
  // On A100-class parts TF32/FP32 tensor throughput is ~2x the FP64 rate
  // (and the halved footprint doubles cache-resident tile sizes on CPUs);
  // replaced by calibrate_single() from measured kernel counters.
  double single_speedup = 2.0;
  /// Effective rate for FlopClass::kGemmSingle work.
  double gemm_flops_single() const { return gemm_flops * single_speedup; }

  // --- host <-> device staging (PCIe gen4 x16) ---
  double pcie_bw = 22.0e9;     // bytes/s
  double pcie_latency = 10e-6; // per transfer

  // --- MPI collectives (binary-tree allreduce / binomial bcast over IB) ---
  double mpi_latency = 6e-6;  // per hop
  double mpi_bw = 21.0e9;     // bytes/s per link (HDR200 effective)

  // --- in-node reduction rate (gamma term of the alpha-beta-gamma model) ---
  // Elementwise combine of received chunks during an allreduce; effectively
  // a streaming BLAS-1 kernel, so it runs well below gemm rates.
  double reduce_bw = 0.4e12;  // bytes/s folded

  // --- NCCL collectives (ring over NVLink intra-node + IB inter-node) ---
  double nccl_latency = 18e-6;       // per step; NCCL has higher setup cost
  double nccl_bw_intra = 200.0e9;    // bytes/s, NVLink ring within one node
  double nccl_bw_inter = 22.0e9;     // bytes/s, ring bottlenecked by HDR IB
  /// Ring bandwidth for a communicator of `nranks` ranks (4 GPUs per node:
  /// larger communicators necessarily cross InfiniBand).
  double nccl_bw(int nranks) const {
    return nranks <= 4 ? nccl_bw_intra : nccl_bw_inter;
  }

  // --- per-link-class alpha-beta terms for the two-level topology model ---
  // When a communicator carries a grouped topology (perf::TopoInfo), the
  // cost model prices each hop by the class of the link it crosses: fast
  // links inside a node group (NVLink / shared memory) vs the slow
  // inter-node class (HDR IB). These default to the NCCL ring rates above;
  // a CHASE_TOPO emulation spec overrides the inter-node terms per TopoInfo.
  double intra_bw = 200.0e9;      // bytes/s across a fast intra-group link
  double inter_bw = 22.0e9;       // bytes/s across a slow cross-group link
  double intra_latency = 18e-6;   // per hop inside the fast group
  double inter_latency = 25e-6;   // per hop crossing groups

  /// Host-staged copy of `bytes` across PCIe.
  double memcpy_seconds(std::size_t bytes) const;

  /// Binary-tree MPI allreduce of `bytes` over `nranks` ranks. Reproduces
  /// the paper's power-of-two artifact: non-power-of-two rank counts pay an
  /// extra reduction round (Section 4.5.1).
  double mpi_allreduce_seconds(std::size_t bytes, int nranks) const;

  /// Binomial-tree MPI broadcast.
  double mpi_broadcast_seconds(std::size_t bytes, int nranks) const;

  /// Ring allgather (`bytes` is the *total* gathered payload, matching the
  /// Tracker's CollectiveEvent convention for kAllGather).
  double mpi_allgather_seconds(std::size_t bytes, int nranks) const;

  /// NCCL ring allreduce: 2 (P-1)/P * bytes of traffic per rank.
  double nccl_allreduce_seconds(std::size_t bytes, int nranks) const;

  /// NCCL ring broadcast.
  double nccl_broadcast_seconds(std::size_t bytes, int nranks) const;

  /// NCCL ring allgather (`bytes` is the total gathered payload).
  double nccl_allgather_seconds(std::size_t bytes, int nranks) const;

  /// Replace the effective GEMM rate with the rate the dense-kernel engine
  /// actually achieved on this host, read from the tracker's
  /// "la.gemm.flops" / "la.gemm.seconds" counters (src/la/gemm.hpp records
  /// them on every tracked call). Ignored when less than `min_seconds` of
  /// kernel time was tracked — tiny samples are all dispatch overhead and
  /// would mis-calibrate the model downward.
  void calibrate_gemm(const Tracker& t, double min_seconds = 1e-3);

  /// Same for the effective factorization rate: sums the flop/second
  /// counters of the level-3 factorization engine ("la.trsm.*", "la.trmm.*",
  /// "la.potrf.*", "la.herk.*", "la.hetrd.*", recorded by the dispatchers in
  /// src/la/trsm.hpp, potrf.hpp, gemm.hpp, heevd.hpp) and replaces
  /// factor_flops with the measured aggregate rate.
  void calibrate_factor(const Tracker& t, double min_seconds = 1e-3);

  /// Calibrate the single-precision speedup from the fp32 kernel counters
  /// ("la.gemm32.flops" / "la.gemm32.seconds", recorded by the same engine
  /// dispatchers when the scalar storage is 4 bytes wide). Requires a
  /// calibrated (or trusted) double rate; the speedup is clamped to >= 1 —
  /// a machine where fp32 runs slower than fp64 is a measurement artifact.
  void calibrate_single(const Tracker& t, double min_seconds = 1e-3);
};

}  // namespace chase::perf
