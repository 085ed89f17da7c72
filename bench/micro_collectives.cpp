// Ablation: collective cost models, plus a wall-clock sweep of the src/coll
// algorithmic engine.
//
// Part 1 prints the modeled MPI-tree vs NCCL-ring costs that drive Figures
// 2/3: the power-of-two dips of the tree allreduce, the staging penalty of
// the STD path, and where NCCL's ring overtakes host-staged MPI (a model
// study — the in-process transport has no wire).
//
// Part 2 *measures* the in-process engine: allreduce wall time per
// CHASE_COLL_ALGO policy x team size x payload x chunk size, emitted to
// results/bench_collectives.json so the algorithm crossover points are
// tracked across PRs. The channel algorithms move O(bytes) per rank versus
// the naive path's O(P * bytes) reads + folds, which is the crossover the
// auto policy's alpha-beta-gamma model predicts.
// Pass --topo <spec> (a CHASE_TOPO grammar spec, e.g. 2x4@inter_mbps=800)
// to run the measured sweep on an emulated two-level topology instead of
// the flat default; the spec is recorded in the JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coll/engine.hpp"
#include "comm/communicator.hpp"
#include "comm/topology.hpp"
#include "perf/cost_model.hpp"
#include "perf/machine.hpp"
#include "tune/measure.hpp"

namespace {

using chase::comm::Communicator;
using chase::comm::Team;
using chase::la::Index;

struct Point {
  const char* collective;
  std::string algo;   // policy + chunk, e.g. "ring/32KiB"
  chase::coll::Algorithm policy;
  std::size_t chunk_bytes;  // 0: irrelevant (naive)
  int ranks;
  std::size_t bytes;
  double seconds_per_op;
};

double time_allreduce(int p, std::size_t bytes, int iters) {
  const Index count = Index(bytes / sizeof(double));
  double per_op = 0;
  Team team(p);
  team.run([&](Communicator& comm) {
    std::vector<double> x(std::size_t(count), double(comm.rank() + 1));
    // Shared warmup+repeat harness (tune::measure): 1 untimed warmup, then
    // `iters` timed ops; every rank runs the same op sequence and rank 0
    // reads the mean per-op time.
    const chase::tune::Measurement m = chase::tune::measure(
        /*warmup=*/1, iters, [&] { comm.all_reduce(x.data(), count); });
    comm.barrier();
    if (comm.rank() == 0) per_op = m.mean;
  });
  return per_op;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace chase::perf;
  MachineModel m;

  std::string topo_spec = "flat";
  std::optional<chase::comm::ScopedTopology> topo_scope;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--topo") == 0 && i + 1 < argc) {
      topo_spec = argv[++i];
      topo_scope.emplace(
          chase::comm::parse_topology("--topo", topo_spec));
    } else {
      std::fprintf(stderr, "usage: %s [--topo <spec>]\n", argv[0]);
      return 2;
    }
  }
  if (topo_scope) {
    std::printf("emulated topology: %s\n\n", topo_spec.c_str());
  }

  std::printf("Collective cost models (A100/HDR machine description)\n\n");

  std::printf("allreduce of 64 MiB payload vs communicator size "
              "(the Fig. 3a power-of-two dips):\n");
  std::printf("%8s %14s %14s %16s\n", "ranks", "MPI tree (ms)",
              "NCCL ring (ms)", "STD = MPI+staging");
  const std::size_t big = std::size_t(64) << 20;
  for (int p : {2, 3, 4, 8, 12, 16, 24, 32, 48, 64, 60, 120}) {
    const double mpi = m.mpi_allreduce_seconds(big, p) * 1e3;
    const double nccl = m.nccl_allreduce_seconds(big, p) * 1e3;
    const double std_total = mpi + 2 * m.memcpy_seconds(big) * 1e3;
    std::printf("%8d %14.2f %14.2f %16.2f\n", p, mpi, nccl, std_total);
  }

  std::printf("\nallreduce crossover vs payload at 16 ranks:\n");
  std::printf("%12s %14s %14s %10s\n", "bytes", "MPI+staging", "NCCL ring",
              "winner");
  for (std::size_t bytes = 1 << 10; bytes <= (std::size_t(256) << 20);
       bytes <<= 4) {
    const double std_total = m.mpi_allreduce_seconds(bytes, 16) +
                             2 * m.memcpy_seconds(bytes);
    const double nccl = m.nccl_allreduce_seconds(bytes, 16);
    std::printf("%12zu %14.6f %14.6f %10s\n", bytes, std_total, nccl,
                nccl < std_total ? "NCCL" : "MPI");
  }

  std::printf("\nbroadcast (the C2 -> B2 redistribution) of 32 MiB:\n");
  std::printf("%8s %14s %14s\n", "ranks", "MPI tree (ms)", "NCCL ring (ms)");
  const std::size_t mid = std::size_t(32) << 20;
  for (int p : {2, 4, 8, 16, 32, 60}) {
    std::printf("%8d %14.2f %14.2f\n", p,
                m.mpi_broadcast_seconds(mid, p) * 1e3,
                m.nccl_broadcast_seconds(mid, p) * 1e3);
  }

  // ---- wall-clock sweep of the src/coll engine ----

  std::printf("\nMeasured in-process allreduce (seconds/op) by "
              "CHASE_COLL_ALGO policy:\n");
  std::printf("%6s %12s %18s %14s\n", "ranks", "bytes", "algo/chunk",
              "sec/op");

  std::vector<Point> points;
  const std::size_t sizes[] = {std::size_t(16) << 10, std::size_t(256) << 10,
                               std::size_t(4) << 20};
  const std::size_t chunks[] = {std::size_t(32) << 10, std::size_t(256) << 10};
  for (const int p : {2, 4, 8}) {
    for (const std::size_t bytes : sizes) {
      const int iters =
          int(std::clamp<std::size_t>((std::size_t(8) << 20) / bytes, 3, 24));
      const std::size_t group_start = points.size();
      {
        chase::coll::ScopedAlgorithm policy(chase::coll::Algorithm::kNaive);
        points.push_back({"allreduce", "naive", chase::coll::Algorithm::kNaive,
                          0, p, bytes, time_allreduce(p, bytes, iters)});
      }
      std::vector<chase::coll::Algorithm> policies = {
          chase::coll::Algorithm::kRing, chase::coll::Algorithm::kTree};
      if (topo_scope) policies.push_back(chase::coll::Algorithm::kHier);
      for (const auto policy_kind : policies) {
        for (const std::size_t chunk : chunks) {
          chase::coll::ScopedAlgorithm policy(policy_kind);
          chase::coll::ScopedChunkBytes chunk_scope(chunk);
          std::string label(chase::coll::algorithm_name(policy_kind));
          label += "/";
          label += std::to_string(chunk >> 10) + "KiB";
          points.push_back({"allreduce", label, policy_kind, chunk, p, bytes,
                            time_allreduce(p, bytes, iters)});
        }
      }
      for (std::size_t i = group_start; i < points.size(); ++i) {
        std::printf("%6d %12zu %18s %14.6f\n", points[i].ranks,
                    points[i].bytes, points[i].algo.c_str(),
                    points[i].seconds_per_op);
      }
    }
  }

  // JSON emission: every point, plus the per-(ranks, bytes) winner and its
  // margin over naive — the acceptance signal tracked across PRs.
  std::filesystem::create_directories("results");
  std::FILE* f = std::fopen("results/bench_collectives.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open results/bench_collectives.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"collective\": \"allreduce\",\n  \"topology\": "
               "\"%s\",\n  \"points\": [\n",
               topo_spec.c_str());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& pt = points[i];
    std::fprintf(f,
                 "    {\"algo\": \"%s\", \"ranks\": %d, \"bytes\": %zu, "
                 "\"chunk_bytes\": %zu, \"seconds_per_op\": %.9f}%s\n",
                 pt.algo.c_str(), pt.ranks, pt.bytes, pt.chunk_bytes,
                 pt.seconds_per_op, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"winners\": [\n");
  bool first = true;
  for (const int p : {2, 4, 8}) {
    for (const std::size_t bytes : sizes) {
      const Point* naive = nullptr;
      const Point* best = nullptr;
      for (const auto& pt : points) {
        if (pt.ranks != p || pt.bytes != bytes) continue;
        if (pt.policy == chase::coll::Algorithm::kNaive) {
          naive = &pt;
        } else if (best == nullptr ||
                   pt.seconds_per_op < best->seconds_per_op) {
          best = &pt;
        }
      }
      if (naive == nullptr || best == nullptr) continue;
      const double speedup = naive->seconds_per_op / best->seconds_per_op;
      std::fprintf(f,
                   "%s    {\"ranks\": %d, \"bytes\": %zu, \"best_algo\": "
                   "\"%s\", \"naive_seconds\": %.9f, \"best_seconds\": %.9f, "
                   "\"speedup_vs_naive\": %.3f}",
                   first ? "" : ",\n", p, bytes, best->algo.c_str(),
                   naive->seconds_per_op, best->seconds_per_op, speedup);
      first = false;
      std::printf("p=%d bytes=%zu: best=%s speedup %.2fx vs naive\n", p,
                  bytes, best->algo.c_str(), speedup);
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote results/bench_collectives.json\n");
  return 0;
}
