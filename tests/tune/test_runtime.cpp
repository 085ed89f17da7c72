// The solve-start runtime contract: precedence (override > profile >
// default), provenance counters, CHASE_PROFILE / CHASE_TUNE_REPLAY
// resolution, and the no-profile = pre-autotuner bitwise guarantee.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "coll/engine.hpp"
#include "core/sequential.hpp"
#include "la/factor/policy.hpp"
#include "la/gemm_policy.hpp"
#include "perf/tracker.hpp"
#include "perf/tuned.hpp"
#include "tests/testing.hpp"
#include "tune/profile.hpp"
#include "tune/runtime.hpp"
#include "tune/tuner.hpp"

namespace chase::tune {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class RuntimeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("CHASE_PROFILE");
    ::unsetenv("CHASE_TUNE_REPLAY");
    perf::set_thread_tracker(nullptr);
    reset_runtime_for_testing();
  }
};

// A profile for this machine that flips every domain away from the
// defaults so a tuned decision is distinguishable from a default one.
MachineProfile contrarian_profile() {
  MachineProfile p;
  p.fingerprint = local_fingerprint();
  for (int t = 0; t < perf::kScalarTagCount; ++t) {
    for (int c = 0; c < perf::kNClassCount; ++c) {
      p.tables.gemm_kernel[t][c] = int(la::GemmKernel::kNaive);
    }
  }
  for (int c = 0; c < perf::kNClassCount; ++c) {
    p.tables.factor_kernel[c] = int(la::FactorKernel::kNaive);
  }
  for (int k = 0; k < perf::kCollKindCount; ++k) {
    for (int c = 0; c < perf::kMsgClassCount; ++c) {
      p.tables.coll_algo[k][c] = int(coll::Algorithm::kTree);
    }
  }
  p.tables.chunk_bytes = 128 << 10;
  return p;
}

TEST_F(RuntimeTest, GemmPrecedenceOverrideProfileDefault) {
  const la::GemmKernel fallback = la::gemm_kernel();
  const auto probe = [] {
    return la::gemm_kernel_for(perf::ScalarTag::kF64, 300, 300, 300);
  };
  EXPECT_EQ(probe(), fallback);

  ASSERT_TRUE(install_profile(contrarian_profile()));
  EXPECT_EQ(probe(), la::GemmKernel::kNaive);
  {
    la::ScopedGemmKernel pin(la::GemmKernel::kMicro);
    EXPECT_EQ(probe(), la::GemmKernel::kMicro);  // override beats profile
  }
  EXPECT_EQ(probe(), la::GemmKernel::kNaive);  // guard restored "none"

  uninstall_profile();
  EXPECT_EQ(probe(), fallback);
}

TEST_F(RuntimeTest, FactorPrecedenceOverrideProfileDefault) {
  const la::FactorKernel fallback = la::factor_kernel();
  EXPECT_EQ(la::factor_kernel_for(256), fallback);
  ASSERT_TRUE(install_profile(contrarian_profile()));
  EXPECT_EQ(la::factor_kernel_for(256), la::FactorKernel::kNaive);
  {
    la::ScopedFactorKernel pin(la::FactorKernel::kBlocked);
    EXPECT_EQ(la::factor_kernel_for(256), la::FactorKernel::kBlocked);
  }
  EXPECT_EQ(la::factor_kernel_for(256), la::FactorKernel::kNaive);
  uninstall_profile();
  EXPECT_EQ(la::factor_kernel_for(256), fallback);
}

TEST_F(RuntimeTest, CollPrecedenceOverrideProfileDefault) {
  const coll::Algorithm fallback =
      coll::algorithm_for(perf::CollKind::kAllReduce, 4096);
  ASSERT_TRUE(install_profile(contrarian_profile()));
  EXPECT_EQ(coll::algorithm_for(perf::CollKind::kAllReduce, 4096),
            coll::Algorithm::kTree);
  {
    coll::ScopedAlgorithm pin(coll::Algorithm::kRing);
    EXPECT_EQ(coll::algorithm_for(perf::CollKind::kAllReduce, 4096),
              coll::Algorithm::kRing);
  }
  EXPECT_EQ(coll::algorithm_for(perf::CollKind::kAllReduce, 4096),
            coll::Algorithm::kTree);
  uninstall_profile();
  EXPECT_EQ(coll::algorithm_for(perf::CollKind::kAllReduce, 4096), fallback);
}

TEST_F(RuntimeTest, ChunkPrecedenceOverrideProfileDefault) {
  const std::size_t fallback = coll::chunk_bytes();
  ASSERT_TRUE(install_profile(contrarian_profile()));
  EXPECT_EQ(coll::chunk_bytes(), std::size_t(128) << 10);
  {
    coll::ScopedChunkBytes pin(std::size_t(32) << 10);
    EXPECT_EQ(coll::chunk_bytes(), std::size_t(32) << 10);
  }
  EXPECT_EQ(coll::chunk_bytes(), std::size_t(128) << 10);
  uninstall_profile();
  EXPECT_EQ(coll::chunk_bytes(), fallback);
}

TEST_F(RuntimeTest, ProvenanceCountersNameTheSource) {
  perf::Tracker tracker;
  perf::set_thread_tracker(&tracker);

  record_provenance();  // no profile, no overrides
  EXPECT_EQ(tracker.counter("tune.source.default"), 4.0);
  EXPECT_EQ(tracker.counter("tune.source.profile"), 0.0);
  EXPECT_EQ(tracker.counter("tune.source.env"), 0.0);

  ASSERT_TRUE(install_profile(contrarian_profile()));
  record_provenance();  // every domain now comes from the profile
  EXPECT_EQ(tracker.counter("tune.source.profile"), 4.0);
  EXPECT_EQ(tracker.counter("tune.source.default"), 4.0);

  {
    la::ScopedGemmKernel pin(la::GemmKernel::kMicro);
    record_provenance();  // gemm pinned, the other three still profiled
  }
  EXPECT_EQ(tracker.counter("tune.source.env"), 1.0);
  EXPECT_EQ(tracker.counter("tune.source.profile"), 7.0);
}

TEST_F(RuntimeTest, ChaseProfileEnvInstallsAtResolve) {
  MachineProfile p = contrarian_profile();
  const std::string path = temp_path("chase_profile_env.json");
  ASSERT_TRUE(save_profile(p, path));
  ::setenv("CHASE_PROFILE", path.c_str(), 1);
  reset_runtime_for_testing();
  ensure_profile_from_env();
  const perf::TunedTables* t = perf::tuned_tables();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->factor_kernel[0], int(la::FactorKernel::kNaive));
  // Idempotent: a second resolve does not re-read the env.
  ensure_profile_from_env();
  EXPECT_EQ(perf::tuned_tables(), t);
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
  EXPECT_EQ(perf::tuned_tables(), nullptr);
  // The solver still runs on defaults after a rejected profile.
  const auto h = testing::random_hermitian<double>(64, 11);
  core::ChaseConfig cfg;
  cfg.nev = 8;
  cfg.nex = 4;
  EXPECT_TRUE(core::solve_sequential<double>(h.view(), cfg).converged);
  std::remove(path.c_str());
}

TEST_F(RuntimeTest, ReplayDerivesTablesFromMeasurementLog) {
  // Stored tables say naive everywhere; the measurement log says micro
  // wins small-double GEMM. Replay must trust the log, not the tables.
  MachineProfile p = contrarian_profile();
  p.measurements.push_back({"gemm.d.n96.naive", 1e9, "flop/s"});
  p.measurements.push_back({"gemm.d.n96.micro", 4e9, "flop/s"});
  const std::string path = temp_path("chase_profile_replay.json");
  ASSERT_TRUE(save_profile(p, path));
  ::setenv("CHASE_TUNE_REPLAY", path.c_str(), 1);
  reset_runtime_for_testing();
  ensure_profile_from_env();
  const perf::TunedTables* t = perf::tuned_tables();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->gemm_kernel[int(perf::ScalarTag::kF64)]
                          [int(perf::NClass::kSmall)],
            int(la::GemmKernel::kMicro));
  // Classes the log never measured are unset under replay, even though the
  // stored tables had entries — selections are a pure function of the log.
  EXPECT_EQ(t->factor_kernel[0], -1);
  std::remove(path.c_str());
}

TEST_F(RuntimeTest, ProfileLessSolveMatchesPinnedDefaultsBitwise) {
  // The autotuner contract: a process with no profile and no overrides is
  // bitwise identical to one that explicitly pins the build defaults.
  const auto h = testing::random_hermitian<double>(96, 7);
  core::ChaseConfig cfg;
  cfg.nev = 12;
  cfg.nex = 6;

  const auto plain = core::solve_sequential<double>(h.view(), cfg);
  ASSERT_TRUE(plain.converged);

  core::ChaseResult<double> pinned;
  {
    la::ScopedGemmKernel gemm_pin(la::gemm_kernel());
    la::ScopedFactorKernel factor_pin(la::factor_kernel());
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
