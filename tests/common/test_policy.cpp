// The shared runtime-policy machinery (common/policy.hpp): every enum knob
// rejects junk with a typed ConfigError, every Scoped guard restores the
// exact previous state when guards nest, and rank threads may read the
// slots while the main thread flips them.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/policy.hpp"
#include "coll/abft.hpp"
#include "coll/engine.hpp"
#include "common/env.hpp"
#include "common/policy.hpp"
#include "core/precision.hpp"
#include "la/factor/policy.hpp"
#include "la/gemm_policy.hpp"

namespace chase {
namespace {

// Expects `slot.from_text(junk)` to throw a ConfigError whose message names
// the variable and lists every accepted value.
void expect_rejects(const policy::Slot& slot, const std::string& junk,
                    const std::vector<std::string>& accepted) {
  try {
    slot.from_text(junk);
    ADD_FAILURE() << slot.env_var() << " accepted \"" << junk << "\"";
  } catch (const env::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(slot.env_var()), std::string::npos) << what;
    EXPECT_NE(what.find(junk), std::string::npos) << what;
    for (const std::string& name : accepted) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(PolicyParse, EnumKnobsRejectUnknownValues) {
  expect_rejects(la::gemm_policy, "mikro", {"naive", "micro"});
  expect_rejects(la::gemm_policy, "blocked", {"naive", "micro"});
  expect_rejects(la::factor_policy, "blockd", {"naive", "blocked"});
  expect_rejects(coll::algorithm_policy, "rign",
                 {"naive", "ring", "tree", "hier", "auto"});
  expect_rejects(core::precision_policy, "mixd", {"double", "mixed"});
}

TEST(PolicyParse, EnumKnobsAcceptTheirNames) {
  EXPECT_EQ(la::gemm_policy.from_text("micro"), int(la::GemmKernel::kMicro));
  EXPECT_EQ(la::factor_policy.from_text("naive"),
            int(la::FactorKernel::kNaive));
  EXPECT_EQ(coll::algorithm_policy.from_text("auto"),
            int(coll::Algorithm::kAuto));
  EXPECT_EQ(core::precision_policy.from_text("mixed"),
            int(core::Precision::kMixed));
}

TEST(PolicyParse, IntegerKnobs) {
  EXPECT_EQ(coll::chunk_knob.from_text("4096"), 4096);
  EXPECT_THROW(coll::chunk_knob.from_text("64kb"), env::ConfigError);
  EXPECT_THROW(ckpt::interval_knob.from_text("0"), env::ConfigError);
  EXPECT_EQ(coll::abft_knob.from_text("off"), 0);
  EXPECT_EQ(coll::abft_knob.from_text("1"), 1);
}

TEST(PolicyGuards, NestedGuardsRestoreTheOuterValue) {
  const la::GemmKernel gemm0 = la::gemm_kernel();
  const la::FactorKernel factor0 = la::factor_kernel();
  const coll::Algorithm algo0 = coll::algorithm();
  const std::size_t chunk0 = coll::chunk_bytes();
  const core::Precision prec0 = core::precision();
  const bool abft0 = coll::abft_enabled();
  const int ckpt0 = ckpt::checkpoint_interval();
  {
    la::ScopedGemmKernel gemm(la::GemmKernel::kNaive);
    la::ScopedFactorKernel factor(la::FactorKernel::kNaive);
    coll::ScopedAlgorithm algo(coll::Algorithm::kRing);
    coll::ScopedChunkBytes chunk(4096);
    core::ScopedPrecision prec(core::Precision::kMixed);
    coll::ScopedAbft abft(true);
    ckpt::ScopedCheckpointInterval ckpt(4);
    {
      la::ScopedGemmKernel gemm_in(la::GemmKernel::kMicro);
      la::ScopedFactorKernel factor_in(la::FactorKernel::kBlocked);
      coll::ScopedAlgorithm algo_in(coll::Algorithm::kTree);
      coll::ScopedChunkBytes chunk_in(512);
      core::ScopedPrecision prec_in(core::Precision::kDouble);
      coll::ScopedAbft abft_in(false);
      ckpt::ScopedCheckpointInterval ckpt_in(2);
      EXPECT_EQ(coll::chunk_bytes(), 512u);
      EXPECT_FALSE(coll::abft_enabled());
      EXPECT_EQ(ckpt::checkpoint_interval(), 2);
    }
    EXPECT_EQ(la::gemm_kernel(), la::GemmKernel::kNaive);
    EXPECT_EQ(la::factor_kernel(), la::FactorKernel::kNaive);
    EXPECT_EQ(coll::algorithm(), coll::Algorithm::kRing);
    EXPECT_EQ(coll::chunk_bytes(), 4096u);
    EXPECT_EQ(core::precision(), core::Precision::kMixed);
    EXPECT_TRUE(coll::abft_enabled());
    EXPECT_EQ(ckpt::checkpoint_interval(), 4);
  }
  EXPECT_EQ(la::gemm_kernel(), gemm0);
  EXPECT_EQ(la::factor_kernel(), factor0);
  EXPECT_EQ(coll::algorithm(), algo0);
  EXPECT_EQ(coll::chunk_bytes(), chunk0);
  EXPECT_EQ(core::precision(), prec0);
  EXPECT_EQ(coll::abft_enabled(), abft0);
  EXPECT_EQ(ckpt::checkpoint_interval(), ckpt0);
}

TEST(PolicyGuards, RankThreadsReadWhileGuardsFlip) {
  // The hot-path lookups are relaxed loads of the same slots the guards
  // write; each read must see one of the pinned values.
  const coll::Algorithm algo0 = coll::algorithm();
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto g = la::gemm_kernel_for(perf::ScalarTag::kF64, 64, 64, 64);
        const auto a = coll::algorithm_for(perf::CollKind::kAllReduce, 64);
        const std::size_t c = coll::chunk_bytes();
        EXPECT_TRUE(g == la::GemmKernel::kNaive || g == la::GemmKernel::kMicro);
        EXPECT_TRUE(a == coll::Algorithm::kRing || a == coll::Algorithm::kTree ||
                    a == algo0);
        EXPECT_GT(c, 0u);
        (void)la::factor_kernel_for(256);
        (void)core::precision();
        (void)coll::abft_enabled();
        (void)ckpt::checkpoint_interval();
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    la::ScopedGemmKernel gemm(i % 2 ? la::GemmKernel::kNaive
                                    : la::GemmKernel::kMicro);
    coll::ScopedAlgorithm algo(i % 2 ? coll::Algorithm::kRing
                                     : coll::Algorithm::kTree);
    coll::ScopedChunkBytes chunk(std::size_t(i + 1) * 64);
    core::ScopedPrecision prec(core::Precision::kMixed);
    coll::ScopedAbft abft(i % 2 == 0);
    ckpt::ScopedCheckpointInterval ckpt(i % 3);
    la::ScopedFactorKernel factor(la::FactorKernel::kNaive);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
}

}  // namespace
}  // namespace chase
