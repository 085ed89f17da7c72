// The solve-start runtime contract: the collective domains resolve
// override > default whatever profile is loaded, CHASE_PROFILE resolution,
// and the no-profile = pre-autotuner bitwise guarantee.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "coll/engine.hpp"
#include "core/precision.hpp"
#include "core/sequential.hpp"
#include "perf/machine.hpp"
#include "perf/tracker.hpp"
#include "tests/testing.hpp"
#include "tune/profile.hpp"
#include "tune/runtime.hpp"

namespace chase::tune {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class RuntimeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("CHASE_PROFILE");
    perf::set_thread_tracker(nullptr);
    reset_runtime_for_testing();
  }
};

// A v1 profile for this machine whose stored tables flip both collective
// domains away from the defaults (tree allreduce, 128 KiB chunks), as the
// tuner wrote them before those tables were retired, plus measured rates.
MachineProfile contrarian_profile() {
  MachineProfile p =
      decode_profile(R"({"schema": "chase.machine_profile", "version": 1,
        "fingerprint": {"host": "x", "cpu": "x", "threads": 1},
        "measurements": [],
        "tables": {
          "coll_algo": [
            {"kind": "allreduce", "msgclass": "small", "algo": "tree"},
            {"kind": "allreduce", "msgclass": "medium", "algo": "tree"},
            {"kind": "allreduce", "msgclass": "large", "algo": "tree"}],
          "chunk_bytes": 131072,
          "rates": {"gemm_flops": 3e9, "factor_flops": 2e9,
                    "single_speedup": 1.5}}})")
          .value();
  p.fingerprint = local_fingerprint();
  return p;
}

TEST_F(RuntimeTest, CollPrecedenceOverrideProfileDefault) {
  // A loaded profile leaves the chain at override > default.
  const coll::Algorithm fallback = coll::algorithm();
  ASSERT_TRUE(install_profile(contrarian_profile()));
  EXPECT_EQ(coll::algorithm(), fallback);
  {
    coll::ScopedAlgorithm pin(coll::Algorithm::kRing);
    EXPECT_EQ(coll::algorithm(), coll::Algorithm::kRing);
  }
  EXPECT_EQ(coll::algorithm(), fallback);
  uninstall_profile();
  EXPECT_EQ(coll::algorithm(), fallback);
}

TEST_F(RuntimeTest, ChunkPrecedenceOverrideProfileDefault) {
  const std::size_t fallback = coll::chunk_bytes();
  ASSERT_TRUE(install_profile(contrarian_profile()));
  EXPECT_EQ(coll::chunk_bytes(), fallback);
  {
    coll::ScopedChunkBytes pin(std::size_t(32) << 10);
    EXPECT_EQ(coll::chunk_bytes(), std::size_t(32) << 10);
  }
  EXPECT_EQ(coll::chunk_bytes(), fallback);
  uninstall_profile();
  EXPECT_EQ(coll::chunk_bytes(), fallback);
}

TEST_F(RuntimeTest, ChaseProfileEnvInstallsAtResolve) {
  const std::string path = temp_path("chase_profile_env.json");
  ASSERT_TRUE(save_profile(contrarian_profile(), path));
  ::setenv("CHASE_PROFILE", path.c_str(), 1);
  reset_runtime_for_testing();
  ensure_profile_from_env();
  EXPECT_DOUBLE_EQ(perf::selection_model().gemm_flops, 3e9);
  // Idempotent: a second resolve does not re-read the env.
  perf::reset_selection_model();
  ensure_profile_from_env();
  EXPECT_EQ(perf::selection_model().gemm_flops,
            perf::MachineModel{}.gemm_flops);
  std::remove(path.c_str());
}

TEST_F(RuntimeTest, RejectedProfileFallsBackToDefaultsAndCounts) {
  const std::string path = temp_path("chase_profile_corrupt.json");
  std::ofstream(path) << "{{{ definitely not a profile";
  ::setenv("CHASE_PROFILE", path.c_str(), 1);
  reset_runtime_for_testing();
  perf::Tracker tracker;
  perf::set_thread_tracker(&tracker);
  ensure_profile_from_env();
  perf::set_thread_tracker(nullptr);
  EXPECT_EQ(tracker.counter("tune.profile.rejected"), 1.0);
  EXPECT_EQ(perf::selection_model().gemm_flops,
            perf::MachineModel{}.gemm_flops);
  // The solver still runs on defaults after a rejected profile.
  const auto h = testing::random_hermitian<double>(64, 11);
  core::ChaseConfig cfg;
  cfg.nev = 8;
  cfg.nex = 4;
  EXPECT_TRUE(core::solve_sequential<double>(h.view(), cfg).converged);
  std::remove(path.c_str());
}

TEST_F(RuntimeTest, ProfileLessSolveMatchesPinnedDefaultsBitwise) {
  // The autotuner contract: a process with no profile and no overrides is
  // bitwise identical to one that explicitly pins the built-in defaults.
  const auto h = testing::random_hermitian<double>(96, 7);
  core::ChaseConfig cfg;
  cfg.nev = 12;
  cfg.nex = 6;

  const auto plain = core::solve_sequential<double>(h.view(), cfg);
  ASSERT_TRUE(plain.converged);

  core::ChaseResult<double> pinned;
  {
    coll::ScopedAlgorithm algo_pin(coll::algorithm());
    core::ScopedPrecision precision_pin(core::precision());
    pinned = core::solve_sequential<double>(h.view(), cfg);
  }
  ASSERT_TRUE(pinned.converged);

  ASSERT_EQ(plain.eigenvalues.size(), pinned.eigenvalues.size());
  for (std::size_t i = 0; i < plain.eigenvalues.size(); ++i) {
    EXPECT_EQ(plain.eigenvalues[i], pinned.eigenvalues[i]) << "i=" << i;
  }
  ASSERT_EQ(plain.eigenvectors.rows(), pinned.eigenvectors.rows());
  ASSERT_EQ(plain.eigenvectors.cols(), pinned.eigenvectors.cols());
  for (la::Index j = 0; j < plain.eigenvectors.cols(); ++j) {
    for (la::Index i = 0; i < plain.eigenvectors.rows(); ++i) {
      EXPECT_EQ(plain.eigenvectors(i, j), pinned.eigenvectors(i, j));
    }
  }
}

}  // namespace
}  // namespace chase::tune
