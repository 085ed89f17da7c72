#include "perf/machine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <vector>

#include "perf/tracker.hpp"

namespace chase::perf {

namespace {

// The selection model is read per collective-select call from rank threads
// and replaced rarely (profile load / recalibration); published through an
// atomic pointer whose replaced copies are retired, never freed, because a
// rank thread may still be reading one.
struct SelectionSlot {
  std::atomic<const MachineModel*> current{nullptr};
  std::mutex mu;
  std::vector<std::unique_ptr<const MachineModel>> retired;
};

SelectionSlot& selection_slot() {
  static SelectionSlot s;
  return s;
}

int ceil_log2(int p) {
  int r = 0;
  int v = 1;
  while (v < p) {
    v *= 2;
    ++r;
  }
  return r;
}

bool is_pow2(int p) { return p > 0 && (p & (p - 1)) == 0; }

}  // namespace

void MachineModel::calibrate_gemm(const Tracker& t, double min_seconds) {
  const double flops = t.counter("la.gemm.flops");
  const double seconds = t.counter("la.gemm.seconds");
  if (flops > 0 && seconds >= min_seconds) gemm_flops = flops / seconds;
}

void MachineModel::calibrate_factor(const Tracker& t, double min_seconds) {
  static constexpr const char* kFamilies[] = {"la.trsm", "la.trmm", "la.potrf",
                                              "la.herk", "la.hetrd"};
  double flops = 0;
  double seconds = 0;
  for (const char* fam : kFamilies) {
    flops += t.counter(std::string(fam) + ".flops");
    seconds += t.counter(std::string(fam) + ".seconds");
  }
  if (flops > 0 && seconds >= min_seconds) factor_flops = flops / seconds;
}

void MachineModel::calibrate_links(double intra_bytes_per_s,
                                   double inter_bytes_per_s,
                                   double intra_lat_s, double inter_lat_s) {
  if (intra_bytes_per_s > 0) intra_bw = intra_bytes_per_s;
  if (inter_bytes_per_s > 0) inter_bw = inter_bytes_per_s;
  if (intra_lat_s > 0) intra_latency = intra_lat_s;
  if (inter_lat_s > 0) inter_latency = inter_lat_s;
}

void MachineModel::calibrate_single(const Tracker& t, double min_seconds) {
  const double flops = t.counter("la.gemm32.flops");
  const double seconds = t.counter("la.gemm32.seconds");
  if (flops > 0 && seconds >= min_seconds && gemm_flops > 0) {
    single_speedup = std::max(1.0, (flops / seconds) / gemm_flops);
  }
}

void MachineModel::calibrate_from_profile(double gemm, double factor,
                                          double single) {
  if (gemm > 0) gemm_flops = gemm;
  if (factor > 0) factor_flops = factor;
  if (single > 0) single_speedup = std::max(1.0, single);
}

MachineModel selection_model() {
  if (const MachineModel* m =
          selection_slot().current.load(std::memory_order_acquire)) {
    return *m;
  }
  return MachineModel{};
}

void set_selection_model(const MachineModel& m) {
  auto& s = selection_slot();
  std::lock_guard<std::mutex> lock(s.mu);
  auto fresh = std::make_unique<const MachineModel>(m);
  s.current.store(fresh.get(), std::memory_order_release);
  s.retired.push_back(std::move(fresh));
}

void reset_selection_model() {
  auto& s = selection_slot();
  std::lock_guard<std::mutex> lock(s.mu);
  s.current.store(nullptr, std::memory_order_release);
}

double MachineModel::memcpy_seconds(std::size_t bytes) const {
  return pcie_latency + double(bytes) / pcie_bw;
}

double MachineModel::mpi_allreduce_seconds(std::size_t bytes, int nranks) const {
  if (nranks <= 1) return 0;
  // Reduce + broadcast phases over a binary tree: each of the ~2 log2(P)
  // rounds moves the full payload. Non-power-of-two counts pay an extra
  // round to fold the ragged leaves in (the dips of Figure 3a).
  int rounds = 2 * ceil_log2(nranks);
  if (!is_pow2(nranks)) rounds += 2;
  return rounds * (mpi_latency + double(bytes) / mpi_bw);
}

double MachineModel::mpi_broadcast_seconds(std::size_t bytes, int nranks) const {
  if (nranks <= 1) return 0;
  const int rounds = ceil_log2(nranks);
  return rounds * (mpi_latency + double(bytes) / mpi_bw);
}

double MachineModel::mpi_allgather_seconds(std::size_t bytes, int nranks) const {
  if (nranks <= 1) return 0;
  // Ring allgather: P-1 steps, each moving one rank's share of the total
  // gathered payload `bytes`.
  return (nranks - 1) * (mpi_latency + double(bytes) / nranks / mpi_bw);
}

double MachineModel::nccl_allreduce_seconds(std::size_t bytes, int nranks) const {
  if (nranks <= 1) return 0;
  const double traffic = 2.0 * double(nranks - 1) / double(nranks) * double(bytes);
  return 2 * (nranks - 1) * nccl_latency + traffic / nccl_bw(nranks);
}

double MachineModel::nccl_broadcast_seconds(std::size_t bytes, int nranks) const {
  if (nranks <= 1) return 0;
  const double traffic = double(nranks - 1) / double(nranks) * double(bytes);
  return (nranks - 1) * nccl_latency + traffic / nccl_bw(nranks);
}

double MachineModel::nccl_allgather_seconds(std::size_t bytes, int nranks) const {
  if (nranks <= 1) return 0;
  // `bytes` is the total gathered payload; each rank receives all but its
  // own 1/P share over the ring.
  const double traffic =
      double(nranks - 1) / double(nranks) * double(bytes);
  return (nranks - 1) * nccl_latency + traffic / nccl_bw(nranks);
}

}  // namespace chase::perf
