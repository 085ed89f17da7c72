#include "perf/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace chase::perf {

CostBreakdown sum_costs(const KernelCosts& costs) {
  CostBreakdown total;
  for (const auto& c : costs) total += c;
  return total;
}

double price_collective(const MachineModel& m, Backend backend, CollKind kind,
                        std::size_t bytes, int nranks) {
  const bool nccl = backend == Backend::kNcclGpu;
  switch (kind) {
    case CollKind::kAllReduce:
      return nccl ? m.nccl_allreduce_seconds(bytes, nranks)
                  : m.mpi_allreduce_seconds(bytes, nranks);
    case CollKind::kBroadcast:
      return nccl ? m.nccl_broadcast_seconds(bytes, nranks)
                  : m.mpi_broadcast_seconds(bytes, nranks);
    case CollKind::kAllGather:
    default:
      return nccl ? m.nccl_allgather_seconds(bytes, nranks)
                  : m.mpi_allgather_seconds(bytes, nranks);
  }
}

double coll_algo_seconds(const MachineModel& m, Backend backend, CollKind kind,
                         CollAlgo algo, std::size_t bytes, int nranks,
                         std::size_t chunk_bytes) {
  if (nranks <= 1) return 0;
  const double N = double(bytes);
  const double P = double(nranks);
  const bool nccl = backend == Backend::kNcclGpu;
  const double L = nccl ? m.nccl_latency : m.mpi_latency;
  const double B = nccl ? m.nccl_bw(nranks) : m.mpi_bw;
  const double G = m.reduce_bw;
  const double C =
      std::max(1.0, std::min(N, double(std::max<std::size_t>(1, chunk_bytes))));
  const double k = std::max(1.0, std::ceil(N / C));  // chunks in the pipeline
  const double log2p = std::ceil(std::log2(P));
  switch (algo) {
    case CollAlgo::kNaiveAlgo:
      // Publish-and-sync: two centralized barriers (~P latency each), every
      // rank reads all P published buffers, and an allreduce additionally
      // folds P-1 of them elementwise.
      switch (kind) {
        case CollKind::kAllReduce:
          return 2 * P * L + P * N / B + (P - 1) * N / G;
        case CollKind::kAllGather:
        case CollKind::kBroadcast:
        default:
          return 2 * P * L + N / B;
      }
    case CollAlgo::kRingAlgo:
      if (kind == CollKind::kAllReduce) {
        // Ordered pipelined chain: a chunk traverses 2(P-1) hops (reduce
        // down the chain, distribute around the ring); with k chunks in
        // flight the pipeline drains in 2(P-1)+k-1 hop times. Each hop
        // moves C bytes and on average folds C/2 of them.
        return (2 * (P - 1) + k - 1) * (L + C / B + C / (2 * G));
      }
      // Ring allgather: P-1 steps, each forwarding one rank's share of the
      // total gathered payload N.
      return (P - 1) * (L + N / P / B);
    case CollAlgo::kBinomial:
    default:
      // Chunk-pipelined binomial tree: depth ceil(log2 P), k chunks deep.
      return (log2p + k - 1) * (L + C / B);
  }
}

double coll_algo_seconds(const MachineModel& m, Backend backend, CollKind kind,
                         CollAlgo algo, std::size_t bytes, int nranks,
                         std::size_t chunk_bytes, const TopoInfo& topo) {
  if (nranks <= 1) return 0;
  if (!topo.grouped()) {
    return coll_algo_seconds(m, backend, kind, algo, bytes, nranks,
                             chunk_bytes);
  }
  const double N = double(bytes);
  const double P = double(nranks);
  const double M = double(topo.nodes);
  const double per = double(std::max(1, topo.max_per_node));
  const bool nccl = backend == Backend::kNcclGpu;
  // Link classes: alpha-beta per hop. Intra hops run at the fast-group
  // rate; inter hops at the cross-group rate (the emulated values when the
  // topology carries them, else the machine's calibrated link class).
  const double La = nccl ? m.nccl_latency : m.mpi_latency;
  const double Ba = nccl ? m.intra_bw : m.mpi_bw;
  const double Li = topo.inter_latency > 0 ? topo.inter_latency
                                           : m.inter_latency;
  const double Bi = topo.inter_bw > 0 ? topo.inter_bw : m.inter_bw;
  const double G = m.reduce_bw;
  const double C =
      std::max(1.0, std::min(N, double(std::max<std::size_t>(1, chunk_bytes))));
  const double k = std::max(1.0, std::ceil(N / C));
  const double log2p = std::ceil(std::log2(P));
  const double log2m = std::ceil(std::log2(M));
  const double log2per = std::ceil(std::log2(per));
  switch (algo) {
    case CollAlgo::kNaiveAlgo: {
      // Every rank reads all P published buffers; P-per of them live across
      // the slow links.
      const double reads = per * N / Ba + (P - per) * N / Bi;
      switch (kind) {
        case CollKind::kAllReduce:
          return 2 * P * La + reads + (P - 1) * N / G;
        case CollKind::kAllGather:
        case CollKind::kBroadcast:
        default:
          return 2 * P * La + N * per / P / Ba + N * (P - per) / P / Bi;
      }
    }
    case CollAlgo::kRingAlgo:
      if (kind == CollKind::kAllReduce) {
        // The flat chain's distribute pass walks every link again, so the
        // last rank of each node forwards each chunk across the slow link
        // twice (once reducing, once distributing) — 2k serialized inter
        // sends at the busiest boundary on top of the intra pipeline.
        return (2 * (P - 1) + k - 1) * (La + C / Ba + C / (2 * G)) +
               2 * k * (Li + C / Bi);
      }
      // Ring allgather: each of the P-1 steps forwards one rank's share
      // through the boundary sender's slow link.
      return (P - 1) * (Li + N / P / Bi);
    case CollAlgo::kBinomial:
      // The root's fanout crosses groups up to ceil(log2 M) times per chunk.
      return (log2p + k - 1) * (La + C / Ba) + k * log2m * (Li + C / Bi);
    case CollAlgo::kHierAlgo:
    default:
      switch (kind) {
        case CollKind::kAllReduce:
          // Ordered chain reduce (bitwise-identical fold) + leader-chain
          // distribute + intra binomial fanout: every boundary sender moves
          // each chunk across the slow link exactly once — half the flat
          // ring's inter traffic at the bottleneck.
          return (2 * (P - 1) + k - 1) * (La + C / Ba + C / (2 * G)) +
                 (k + M - 2) * (Li + C / Bi);
        case CollKind::kAllGather:
          // Intra allgather of node blocks, leader ring of the M blocks,
          // intra broadcast of the foreign span.
          return (per - 1) * (La + N / P / Ba) +
                 (M - 1) * (Li + N / M / Bi) + log2per * La +
                 N * (M - 1) / M / Ba;
        case CollKind::kBroadcast:
        default:
          // Leader tree across groups, binomial fanout within each group.
          return (log2m + k - 1) * (Li + C / Bi) +
                 (log2per + k - 1) * (La + C / Ba);
      }
  }
}

double price_compute(const MachineModel& m, const RegionCosts& c) {
  const double fg = c.flops[std::size_t(int(FlopClass::kGemm))];
  const double fgs = c.flops[std::size_t(int(FlopClass::kGemmSingle))];
  const double fp = c.flops[std::size_t(int(FlopClass::kPanel))];
  const double fs = c.flops[std::size_t(int(FlopClass::kSmall))];
  const double ff = c.flops[std::size_t(int(FlopClass::kFactor))];
  return fg / m.gemm_flops + fgs / m.gemm_flops_single() +
         fp / m.panel_flops + fs / m.small_flops + ff / m.factor_flops +
         c.mem_bytes / m.hbm_bw;
}

KernelCosts price_tracker(const MachineModel& m, Backend backend,
                          const Tracker& t) {
  KernelCosts out{};
  for (int r = 0; r < kRegionCount; ++r) {
    out[std::size_t(r)].compute = price_compute(m, t.costs(Region(r)));
  }
  for (const auto& ev : t.collectives()) {
    out[std::size_t(int(ev.region))].comm +=
        price_collective(m, backend, ev.kind, ev.bytes, ev.nranks);
  }
  for (const auto& ev : t.memcpys()) {
    out[std::size_t(int(ev.region))].movement += m.memcpy_seconds(ev.bytes);
  }
  return out;
}

}  // namespace chase::perf
