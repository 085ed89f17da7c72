// Machine-profile wire format: round-trip, schema/version gating, corrupt
// input rejection, fingerprint gating, and the deterministic derivation of
// dispatch tables from a raw measurement log.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "coll/engine.hpp"
#include "la/factor/policy.hpp"
#include "la/gemm_policy.hpp"
#include "perf/tracker.hpp"
#include "perf/tuned.hpp"
#include "tune/profile.hpp"
#include "tune/tuner.hpp"

namespace chase::tune {
namespace {

MachineProfile sample_profile() {
  MachineProfile p;
  p.fingerprint = local_fingerprint();
  p.measurements.push_back({"gemm.d.n96.naive", 1.5e9, "flop/s"});
  p.measurements.push_back({"gemm.d.n96.micro", 6.25e9, "flop/s"});
  p.measurements.push_back({"coll.allreduce.b16384.p4.ring", 1.25e-5, "s"});
  p.tables.gemm_kernel[int(perf::ScalarTag::kF64)]
                      [int(perf::NClass::kSmall)] =
      int(la::GemmKernel::kMicro);
  p.tables.factor_kernel[int(perf::NClass::kLarge)] =
      int(la::FactorKernel::kBlocked);
  p.tables.coll_algo[int(perf::CollKind::kAllReduce)]
                    [int(perf::MsgClass::kSmallMsg)] =
      int(coll::Algorithm::kRing);
  p.tables.chunk_bytes = 128 << 10;
  p.tables.gemm_flops = 6.25e9;
  p.tables.factor_flops = 3.5e9;
  p.tables.single_speedup = 1.8;
  return p;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class ProfileTest : public ::testing::Test {
 protected:
  void TearDown() override { uninstall_profile(); }
};

TEST_F(ProfileTest, EncodeDecodeRoundTrip) {
  const MachineProfile p = sample_profile();
  const auto back = decode_profile(encode_profile(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->fingerprint.host, p.fingerprint.host);
  EXPECT_EQ(back->fingerprint.cpu, p.fingerprint.cpu);
  EXPECT_EQ(back->fingerprint.threads, p.fingerprint.threads);
  ASSERT_EQ(back->measurements.size(), p.measurements.size());
  EXPECT_EQ(back->measurements[1].name, "gemm.d.n96.micro");
  EXPECT_DOUBLE_EQ(back->measurements[1].value, 6.25e9);
  EXPECT_EQ(back->measurements[1].unit, "flop/s");
  EXPECT_EQ(back->tables.gemm_kernel[int(perf::ScalarTag::kF64)]
                                    [int(perf::NClass::kSmall)],
            int(la::GemmKernel::kMicro));
  EXPECT_EQ(back->tables.factor_kernel[int(perf::NClass::kLarge)],
            int(la::FactorKernel::kBlocked));
  EXPECT_EQ(back->tables.coll_algo[int(perf::CollKind::kAllReduce)]
                                  [int(perf::MsgClass::kSmallMsg)],
            int(coll::Algorithm::kRing));
  EXPECT_EQ(back->tables.chunk_bytes, 128 << 10);
  EXPECT_DOUBLE_EQ(back->tables.gemm_flops, 6.25e9);
  EXPECT_DOUBLE_EQ(back->tables.single_speedup, 1.8);
  // Untouched entries stay unset.
  EXPECT_EQ(back->tables.gemm_kernel[int(perf::ScalarTag::kF32)]
                                    [int(perf::NClass::kSmall)],
            -1);
}

TEST_F(ProfileTest, FileRoundTrip) {
  const std::string path = temp_path("chase_profile_roundtrip.json");
  std::string error;
  ASSERT_TRUE(save_profile(sample_profile(), path, &error)) << error;
  const auto back = load_profile(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->measurements.size(), 3u);
  std::remove(path.c_str());
}

TEST_F(ProfileTest, LoadReportsMissingFile) {
  std::string error;
  EXPECT_FALSE(load_profile(temp_path("chase_profile_nope.json"), &error));
  EXPECT_NE(error.find("cannot read"), std::string::npos);
}

TEST_F(ProfileTest, RejectsVersionBump) {
  std::string text = encode_profile(sample_profile());
  const auto pos = text.find("\"version\": 1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "\"version\": 2");
  std::string error;
  EXPECT_FALSE(decode_profile(text, &error));
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST_F(ProfileTest, RejectsForeignSchema) {
  std::string text = encode_profile(sample_profile());
  const auto pos = text.find(kProfileSchema);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string(kProfileSchema).size(), "other.schema");
  std::string error;
  EXPECT_FALSE(decode_profile(text, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
}

TEST_F(ProfileTest, RejectsTruncatedAndCorruptInput) {
  const std::string text = encode_profile(sample_profile());
  EXPECT_FALSE(decode_profile(text.substr(0, text.size() / 2)));
  EXPECT_FALSE(decode_profile(""));
  EXPECT_FALSE(decode_profile("{{{ not json"));
  EXPECT_FALSE(decode_profile("[1, 2, 3]"));
  EXPECT_FALSE(decode_profile(text + "trailing-junk"));
}

TEST_F(ProfileTest, RejectsIncompleteFingerprint) {
  EXPECT_FALSE(decode_profile(
      R"({"schema": "chase.machine_profile", "version": 1,
          "measurements": [], "tables": {}})"));
  EXPECT_FALSE(decode_profile(
      R"({"schema": "chase.machine_profile", "version": 1,
          "fingerprint": {"host": "", "cpu": "x", "threads": 4},
          "measurements": [], "tables": {}})"));
}

TEST_F(ProfileTest, UnknownEnumNamesLeaveEntriesUntuned) {
  // A profile written by a hypothetical newer build with more kernels must
  // still load here; the unknown entries just stay -1.
  const auto p = decode_profile(
      R"({"schema": "chase.machine_profile", "version": 1,
          "fingerprint": {"host": "h", "cpu": "c", "threads": 4},
          "measurements": [],
          "tables": {"gemm_kernel": [
                       {"type": "d", "nclass": "small", "kernel": "warp9"},
                       {"type": "q", "nclass": "small", "kernel": "micro"},
                       {"type": "d", "nclass": "large", "kernel": "micro"}],
                     "factor_kernel": [
                       {"nclass": "small", "kernel": "gpu"}],
                     "coll_algo": [
                       {"kind": "scan", "msgclass": "small", "algo": "ring"}],
                     "chunk_bytes": 0,
                     "rates": {}}})");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->tables.gemm_kernel[int(perf::ScalarTag::kF64)]
                                 [int(perf::NClass::kSmall)],
            -1);
  EXPECT_EQ(p->tables.gemm_kernel[int(perf::ScalarTag::kF64)]
                                 [int(perf::NClass::kLarge)],
            int(la::GemmKernel::kMicro));
  EXPECT_EQ(p->tables.factor_kernel[int(perf::NClass::kSmall)], -1);
  for (const auto& row : p->tables.coll_algo) {
    for (const int v : row) EXPECT_EQ(v, -1);
  }
}

TEST_F(ProfileTest, RetiredBlockedGemmEntryLoadsUntuned) {
  // Profiles tuned before the `blocked` GEMM kernel was retired still load;
  // a cell that named it falls back to the default, its neighbours keep
  // their winners.
  const auto p = decode_profile(
      R"({"schema": "chase.machine_profile", "version": 1,
          "fingerprint": {"host": "h", "cpu": "c", "threads": 4},
          "measurements": [{"name": "gemm.d.n96.blocked", "value": 3e9}],
          "tables": {"gemm_kernel": [
                       {"type": "d", "nclass": "small", "kernel": "blocked"},
                       {"type": "d", "nclass": "large", "kernel": "micro"}],
                     "factor_kernel": [
                       {"nclass": "small", "kernel": "blocked"}],
                     "chunk_bytes": 0,
                     "rates": {}}})");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->tables.gemm_kernel[int(perf::ScalarTag::kF64)]
                                 [int(perf::NClass::kSmall)],
            -1);
  EXPECT_EQ(p->tables.gemm_kernel[int(perf::ScalarTag::kF64)]
                                 [int(perf::NClass::kLarge)],
            int(la::GemmKernel::kMicro));
  EXPECT_EQ(p->tables.factor_kernel[int(perf::NClass::kSmall)],
            int(la::FactorKernel::kBlocked));
  EXPECT_EQ(derive_selections(p->measurements)
                .gemm_kernel[int(perf::ScalarTag::kF64)]
                            [int(perf::NClass::kSmall)],
            -1);
}

TEST_F(ProfileTest, InstallRejectsForeignFingerprintAndCounts) {
  MachineProfile p = sample_profile();
  p.fingerprint.host = "somewhere-else";
  perf::Tracker tracker;
  perf::set_thread_tracker(&tracker);
  EXPECT_FALSE(install_profile(p));
  perf::set_thread_tracker(nullptr);
  EXPECT_EQ(tracker.counter("tune.profile.rejected"), 1.0);
  EXPECT_EQ(perf::tuned_tables(), nullptr);
}

TEST_F(ProfileTest, InstallPublishesTablesAndUninstallClears) {
  ASSERT_TRUE(install_profile(sample_profile()));
  const perf::TunedTables* t = perf::tuned_tables();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->chunk_bytes, 128 << 10);
  // The selection model picked up the measured machine rates.
  EXPECT_DOUBLE_EQ(perf::selection_model().gemm_flops, 6.25e9);
  uninstall_profile();
  EXPECT_EQ(perf::tuned_tables(), nullptr);
}

TEST_F(ProfileTest, InstallSkipsFingerprintCheckWhenAsked) {
  MachineProfile p = sample_profile();
  p.fingerprint.host = "somewhere-else";
  EXPECT_TRUE(install_profile(p, /*check_fingerprint=*/false));
  EXPECT_NE(perf::tuned_tables(), nullptr);
}

// ---- derive_selections: the deterministic-replay core ----

TEST(DeriveSelections, PicksArgmaxRatesAndArgminSeconds) {
  std::vector<RawMeasurement> log = {
      {"gemm.d.n96.naive", 1e9, "flop/s"},
      {"gemm.d.n96.micro", 4e9, "flop/s"},
      {"gemm.d.n700.micro", 8e9, "flop/s"},
      {"gemm.d.n700.blocked", 3e9, "flop/s"},
      {"factor.n96.naive", 2e9, "flop/s"},
      {"factor.n96.blocked", 1e9, "flop/s"},
      {"coll.allreduce.b16384.p4.naive", 2e-5, "s"},
      {"coll.allreduce.b16384.p4.ring", 1e-5, "s"},
      {"chunk.allreduce.b4194304.c16384", 3e-3, "s"},
      {"chunk.allreduce.b4194304.c65536", 1e-3, "s"},
      {"chunk.allreduce.b4194304.c262144", 2e-3, "s"},
  };
  const perf::TunedTables t = derive_selections(log);
  EXPECT_EQ(t.gemm_kernel[int(perf::ScalarTag::kF64)]
                         [int(perf::NClass::kSmall)],
            int(la::GemmKernel::kMicro));
  EXPECT_EQ(t.gemm_kernel[int(perf::ScalarTag::kF64)]
                         [int(perf::NClass::kLarge)],
            int(la::GemmKernel::kMicro));
  EXPECT_EQ(t.factor_kernel[int(perf::NClass::kSmall)],
            int(la::FactorKernel::kNaive));
  EXPECT_EQ(t.coll_algo[int(perf::CollKind::kAllReduce)]
                       [int(perf::MsgClass::kSmallMsg)],
            int(coll::Algorithm::kRing));
  EXPECT_EQ(t.chunk_bytes, 64 << 10);
  // Unmeasured classes stay unset.
  EXPECT_EQ(t.gemm_kernel[int(perf::ScalarTag::kF64)]
                         [int(perf::NClass::kMedium)],
            -1);
  EXPECT_EQ(t.factor_kernel[int(perf::NClass::kLarge)], -1);
}

TEST(DeriveSelections, FirstMeasuredWinsTies) {
  std::vector<RawMeasurement> log = {
      {"gemm.d.n96.naive", 2e9, "flop/s"},
      {"gemm.d.n96.micro", 2e9, "flop/s"},
  };
  EXPECT_EQ(derive_selections(log)
                .gemm_kernel[int(perf::ScalarTag::kF64)]
                            [int(perf::NClass::kSmall)],
            int(la::GemmKernel::kNaive));
}

TEST(DeriveSelections, IgnoresMalformedNames) {
  std::vector<RawMeasurement> log = {
      {"gemm.d.naive", 1e9, "flop/s"},          // missing size token
      {"gemm.d.nXY.micro", 1e9, "flop/s"},      // non-numeric size
      {"solve.total", 1.0, "s"},                // foreign domain
      {"", 1.0, "s"},
  };
  const perf::TunedTables t = derive_selections(log);
  for (const auto& row : t.gemm_kernel) {
    for (const int v : row) EXPECT_EQ(v, -1);
  }
}

TEST(DeriveSelections, ReplayIsDeterministic) {
  const std::vector<RawMeasurement> log = {
      {"gemm.d.n96.naive", 1e9, "flop/s"},
      {"gemm.d.n96.micro", 4e9, "flop/s"},
      {"factor.n640.blocked", 5e9, "flop/s"},
      {"coll.broadcast.b2097152.p4.tree", 1e-4, "s"},
  };
  const perf::TunedTables a = derive_selections(log);
  const perf::TunedTables b = derive_selections(log);
  for (int t = 0; t < perf::kScalarTagCount; ++t) {
    for (int c = 0; c < perf::kNClassCount; ++c) {
      EXPECT_EQ(a.gemm_kernel[t][c], b.gemm_kernel[t][c]);
    }
  }
  for (int c = 0; c < perf::kNClassCount; ++c) {
    EXPECT_EQ(a.factor_kernel[c], b.factor_kernel[c]);
  }
  for (int k = 0; k < perf::kCollKindCount; ++k) {
    for (int c = 0; c < perf::kMsgClassCount; ++c) {
      EXPECT_EQ(a.coll_algo[k][c], b.coll_algo[k][c]);
    }
  }
  EXPECT_EQ(a.chunk_bytes, b.chunk_bytes);
  EXPECT_EQ(a.coll_algo[int(perf::CollKind::kBroadcast)]
                       [int(perf::MsgClass::kLargeMsg)],
            int(coll::Algorithm::kTree));
}

}  // namespace
}  // namespace chase::tune
