// Machine-profile wire format: round-trip, schema/version gating, corrupt
// input rejection, fingerprint gating, v1 profiles that still carry the
// retired collective and kernel tables, and the deterministic derivation of
// the rates from a raw measurement log.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "coll/engine.hpp"
#include "perf/machine.hpp"
#include "perf/tracker.hpp"
#include "tune/profile.hpp"
#include "tune/tuner.hpp"

namespace chase::tune {
namespace {

MachineProfile sample_profile() {
  MachineProfile p;
  p.fingerprint = local_fingerprint();
  p.measurements.push_back({"gemm.d.n96.naive", 1.5e9, "flop/s"});
  p.measurements.push_back({"gemm.d.n96.micro", 6.25e9, "flop/s"});
  // A v1 log may still carry the retired collective probes; they round-trip
  // as plain log entries.
  p.measurements.push_back({"coll.allreduce.b16384.p4.ring", 1.25e-5, "s"});
  p.rates.gemm_flops = 6.25e9;
  p.rates.factor_flops = 3.5e9;
  p.rates.single_speedup = 1.8;
  return p;
}

/// The built-in selection model's GEMM rate: what selection_model() reads
/// with no profile installed.
double default_gemm_flops() { return perf::MachineModel{}.gemm_flops; }

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
  EXPECT_EQ(back->rates, p.rates);
  // The writer emits the rates table only.
  const std::string text = encode_profile(p);
  EXPECT_NE(text.find("\"rates\""), std::string::npos);
  EXPECT_EQ(text.find("coll_algo"), std::string::npos);
  EXPECT_EQ(text.find("chunk_bytes"), std::string::npos);
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
  // The reader ignores every table but the rates, so cells naming kinds,
  // classes or algorithms this build does not know (and a negative chunk
  // size) neither fail the load nor steer a collective.
  const auto p = decode_profile(
      R"({"schema": "chase.machine_profile", "version": 1,
          "fingerprint": {"host": "h", "cpu": "c", "threads": 4},
          "measurements": [],
          "tables": {"coll_algo": [
                       {"kind": "scan", "msgclass": "small", "algo": "ring"},
                       {"kind": "allreduce", "msgclass": "small",
                        "algo": "warp9"},
                       {"kind": "allreduce", "msgclass": "huge",
                        "algo": "ring"},
                       {"kind": "allreduce", "msgclass": "large",
                        "algo": "tree"}],
                     "chunk_bytes": -1,
                     "rates": {"gemm_flops": 2e9}}})");
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->rates.gemm_flops, 2e9);
  EXPECT_EQ(p->rates.factor_flops, 0.0);
  const coll::Algorithm algo = coll::algorithm();
  const std::size_t chunk = coll::chunk_bytes();
  ASSERT_TRUE(install_profile(*p, /*check_fingerprint=*/false));
  EXPECT_EQ(coll::algorithm(), algo);
  EXPECT_EQ(coll::chunk_bytes(), chunk);
}

TEST_F(ProfileTest, RetiredBlockedGemmEntryLoadsUntuned) {
  // A v1 profile tuned while the GEMM and factorization kernel policies
  // existed — results/machine_profile.json as committed then: its log also
  // probed the naive and the since-retired blocked GEMM kernels, and its
  // tables carry "gemm_kernel" and "factor_kernel" (15 cells) next to the
  // collective tables. It loads unchanged: every table but the rates is
  // unread, and the log re-derives the stored rates.
  const auto p = decode_profile(R"json({
  "schema": "chase.machine_profile",
  "version": 1,
  "fingerprint": {"host": "vm", "cpu": "Intel(R) Xeon(R) Processor @ 2.70GHz", "threads": 1},
  "measurements": [
    {"name": "gemm.f.n64.naive", "value": 2942892104.5836749, "unit": "flop/s"},
    {"name": "gemm.f.n64.blocked", "value": 18953365627.937241, "unit": "flop/s"},
    {"name": "gemm.f.n64.micro", "value": 77317209851.054413, "unit": "flop/s"},
    {"name": "gemm.f.n224.micro", "value": 108681148559.46585, "unit": "flop/s"},
    {"name": "gemm.f.n672.micro", "value": 92358190894.332901, "unit": "flop/s"},
    {"name": "gemm.d.n64.naive", "value": 1721782708.2163393, "unit": "flop/s"},
    {"name": "gemm.d.n64.blocked", "value": 15689259957.506657, "unit": "flop/s"},
    {"name": "gemm.d.n64.micro", "value": 36535749128.919861, "unit": "flop/s"},
    {"name": "gemm.d.n224.blocked", "value": 13416026766.583786, "unit": "flop/s"},
    {"name": "gemm.d.n224.micro", "value": 57304676127.861237, "unit": "flop/s"},
    {"name": "gemm.d.n672.blocked", "value": 12438294038.338369, "unit": "flop/s"},
    {"name": "gemm.d.n672.micro", "value": 49025458098.435913, "unit": "flop/s"},
    {"name": "gemm.c.n64.naive", "value": 6546439831.4343681, "unit": "flop/s"},
    {"name": "gemm.c.n64.blocked", "value": 7721700197.3548555, "unit": "flop/s"},
    {"name": "gemm.c.n64.micro", "value": 76008553513.826965, "unit": "flop/s"},
    {"name": "gemm.c.n224.micro", "value": 109095068752.10054, "unit": "flop/s"},
    {"name": "gemm.c.n672.micro", "value": 100584235162.00435, "unit": "flop/s"},
    {"name": "gemm.z.n64.naive", "value": 6531759429.407917, "unit": "flop/s"},
    {"name": "gemm.z.n64.blocked", "value": 8091582200.5810709, "unit": "flop/s"},
    {"name": "gemm.z.n64.micro", "value": 40362446591.47773, "unit": "flop/s"},
    {"name": "gemm.z.n224.micro", "value": 53238963539.625153, "unit": "flop/s"},
    {"name": "gemm.z.n672.micro", "value": 52317790923.743683, "unit": "flop/s"},
    {"name": "factor.n96.naive", "value": 7267153752.3255672, "unit": "flop/s"},
    {"name": "factor.n96.blocked", "value": 8655870504.7584801, "unit": "flop/s"},
    {"name": "factor.n256.naive", "value": 6504073134.505559, "unit": "flop/s"},
    {"name": "factor.n256.blocked", "value": 13086356399.133802, "unit": "flop/s"},
    {"name": "factor.n640.naive", "value": 4483301583.297987, "unit": "flop/s"},
    {"name": "factor.n640.blocked", "value": 19857894442.70562, "unit": "flop/s"},
    {"name": "coll.allreduce.b16384.p2.naive", "value": 1.9530000000000001e-05, "unit": "s"},
    {"name": "coll.allreduce.b16384.p2.ring", "value": 6.9299999999999997e-06, "unit": "s"},
    {"name": "coll.allreduce.b16384.p2.tree", "value": 1.305e-05, "unit": "s"},
    {"name": "coll.allreduce.b262144.p2.naive", "value": 8.3926999999999998e-05, "unit": "s"},
    {"name": "coll.allreduce.b262144.p2.ring", "value": 6.4166999999999997e-05, "unit": "s"},
    {"name": "coll.allreduce.b262144.p2.tree", "value": 7.8193000000000002e-05, "unit": "s"},
    {"name": "coll.allreduce.b2097152.p2.naive", "value": 0.0013820880000000001, "unit": "s"},
    {"name": "coll.allreduce.b2097152.p2.ring", "value": 0.00084148100000000004, "unit": "s"},
    {"name": "coll.allreduce.b2097152.p2.tree", "value": 0.0010441929999999999, "unit": "s"},
    {"name": "coll.broadcast.b16384.p2.naive", "value": 1.2167999999999999e-05, "unit": "s"},
    {"name": "coll.broadcast.b16384.p2.ring", "value": 5.8470000000000001e-06, "unit": "s"},
    {"name": "coll.broadcast.b16384.p2.tree", "value": 4.2379999999999999e-06, "unit": "s"},
    {"name": "coll.broadcast.b262144.p2.naive", "value": 1.5277999999999998e-05, "unit": "s"},
    {"name": "coll.broadcast.b262144.p2.ring", "value": 2.4638e-05, "unit": "s"},
    {"name": "coll.broadcast.b262144.p2.tree", "value": 2.2259000000000002e-05, "unit": "s"},
    {"name": "coll.broadcast.b2097152.p2.naive", "value": 0.00018836499999999999, "unit": "s"},
    {"name": "coll.broadcast.b2097152.p2.ring", "value": 0.00033854499999999999, "unit": "s"},
    {"name": "coll.broadcast.b2097152.p2.tree", "value": 0.00036047100000000001, "unit": "s"},
    {"name": "coll.allgather.b16384.p2.naive", "value": 9.4700000000000008e-06, "unit": "s"},
    {"name": "coll.allgather.b16384.p2.ring", "value": 6.3060000000000003e-06, "unit": "s"},
    {"name": "coll.allgather.b16384.p2.tree", "value": 4.9520000000000002e-06, "unit": "s"},
    {"name": "coll.allgather.b262144.p2.naive", "value": 2.1667000000000001e-05, "unit": "s"},
    {"name": "coll.allgather.b262144.p2.ring", "value": 2.6990000000000001e-05, "unit": "s"},
    {"name": "coll.allgather.b262144.p2.tree", "value": 4.3534e-05, "unit": "s"},
    {"name": "coll.allgather.b2097152.p2.naive", "value": 0.00035434300000000002, "unit": "s"},
    {"name": "coll.allgather.b2097152.p2.ring", "value": 0.00038207399999999999, "unit": "s"},
    {"name": "coll.allgather.b2097152.p2.tree", "value": 0.0010544459999999999, "unit": "s"},
    {"name": "chunk.allreduce.b2097152.c16384", "value": 0.00081453000000000005, "unit": "s"},
    {"name": "chunk.allreduce.b2097152.c65536", "value": 0.00082246499999999998, "unit": "s"},
    {"name": "chunk.allreduce.b2097152.c262144", "value": 0.00079622799999999995, "unit": "s"}
  ],
  "tables": {
    "gemm_kernel": [
      {"type": "f", "nclass": "small", "kernel": "micro"},
      {"type": "f", "nclass": "medium", "kernel": "micro"},
      {"type": "f", "nclass": "large", "kernel": "micro"},
      {"type": "d", "nclass": "small", "kernel": "micro"},
      {"type": "d", "nclass": "medium", "kernel": "micro"},
      {"type": "d", "nclass": "large", "kernel": "micro"},
      {"type": "c", "nclass": "small", "kernel": "micro"},
      {"type": "c", "nclass": "medium", "kernel": "micro"},
      {"type": "c", "nclass": "large", "kernel": "micro"},
      {"type": "z", "nclass": "small", "kernel": "micro"},
      {"type": "z", "nclass": "medium", "kernel": "micro"},
      {"type": "z", "nclass": "large", "kernel": "micro"}
    ],
    "factor_kernel": [
      {"nclass": "small", "kernel": "blocked"},
      {"nclass": "medium", "kernel": "blocked"},
      {"nclass": "large", "kernel": "blocked"}
    ],
    "coll_algo": [
      {"kind": "allreduce", "msgclass": "small", "algo": "ring"},
      {"kind": "allreduce", "msgclass": "medium", "algo": "ring"},
      {"kind": "allreduce", "msgclass": "large", "algo": "ring"},
      {"kind": "broadcast", "msgclass": "small", "algo": "tree"},
      {"kind": "broadcast", "msgclass": "medium", "algo": "naive"},
      {"kind": "broadcast", "msgclass": "large", "algo": "naive"},
      {"kind": "allgather", "msgclass": "small", "algo": "tree"},
      {"kind": "allgather", "msgclass": "medium", "algo": "naive"},
      {"kind": "allgather", "msgclass": "large", "algo": "naive"}
    ],
    "chunk_bytes": 262144,
    "rates": {"gemm_flops": 49025458098.435913, "factor_flops": 19857894442.70562, "single_speedup": 1.8838822619238198}
  }
})json");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->measurements.size(), 58u);

  EXPECT_DOUBLE_EQ(p->rates.gemm_flops, 49025458098.435913);

  // Replay over its measurement log reproduces the stored rates; the
  // retired kernels' and the collective probes' entries do not disturb them.
  EXPECT_EQ(derive_rates(p->measurements), p->rates);
}

TEST_F(ProfileTest, CommittedV1TablesLeaveCollectiveSelectionAtDefaults) {
  // The table block of the v1 results/machine_profile.json committed before
  // the collective tables were retired: its coll_algo and chunk_bytes cells
  // differ from the built-in defaults (ring allreduce, tree broadcast,
  // 16 KiB chunks). Installed, the profile must leave every collective
  // choice where a profile-less process has it and only recalibrate the
  // selection model.
  const auto p = decode_profile(R"json({
  "schema": "chase.machine_profile",
  "version": 1,
  "fingerprint": {"host": "vm", "cpu": "Intel(R) Xeon(R) Processor", "threads": 4},
  "measurements": [
    {"name": "gemm.f.n672.micro", "value": 59980767932.718796, "unit": "flop/s"},
    {"name": "gemm.d.n672.micro", "value": 28517913274.148834, "unit": "flop/s"},
    {"name": "factor.n640.blocked", "value": 14890513382.718536, "unit": "flop/s"}
  ],
  "tables": {
    "coll_algo": [
      {"kind": "allreduce", "msgclass": "small", "algo": "ring"},
      {"kind": "allreduce", "msgclass": "medium", "algo": "ring"},
      {"kind": "allreduce", "msgclass": "large", "algo": "ring"},
      {"kind": "broadcast", "msgclass": "small", "algo": "tree"},
      {"kind": "broadcast", "msgclass": "medium", "algo": "ring"},
      {"kind": "broadcast", "msgclass": "large", "algo": "naive"},
      {"kind": "allgather", "msgclass": "small", "algo": "ring"},
      {"kind": "allgather", "msgclass": "medium", "algo": "naive"},
      {"kind": "allgather", "msgclass": "large", "algo": "naive"}
    ],
    "chunk_bytes": 16384,
    "rates": {"gemm_flops": 28517913274.148834, "factor_flops": 14890513382.718536, "single_speedup": 2.1032663700219145}
  }
})json");
  ASSERT_TRUE(p.has_value());

  constexpr perf::CollKind kKinds[] = {perf::CollKind::kAllReduce,
                                       perf::CollKind::kBroadcast,
                                       perf::CollKind::kAllGather};
  // One payload per retired size class (boundaries 64 KiB and 1 MiB).
  constexpr std::size_t kBytes[] = {std::size_t(16) << 10,
                                    std::size_t(256) << 10,
                                    std::size_t(4) << 20};
  constexpr int kRanks[] = {2, 4, 8};
  const auto choices = [&] {
    std::vector<perf::CollAlgo> out;
    for (const perf::CollKind kind : kKinds) {
      for (const std::size_t bytes : kBytes) {
        for (const int ranks : kRanks) {
          out.push_back(
              coll::select(kind, bytes, ranks, perf::Backend::kNcclGpu));
        }
      }
    }
    return out;
  };
  const std::vector<perf::CollAlgo> profileless = choices();
  const std::size_t profileless_chunk = coll::chunk_bytes();

  ASSERT_TRUE(install_profile(*p, /*check_fingerprint=*/false));
  EXPECT_EQ(choices(), profileless);
  EXPECT_EQ(coll::chunk_bytes(), profileless_chunk);
  const perf::MachineModel m = perf::selection_model();
  EXPECT_DOUBLE_EQ(m.gemm_flops, 28517913274.148834);
  EXPECT_DOUBLE_EQ(m.factor_flops, 14890513382.718536);
  EXPECT_DOUBLE_EQ(m.single_speedup, 2.1032663700219145);
}

TEST_F(ProfileTest, InstallRejectsForeignFingerprintAndCounts) {
  MachineProfile p = sample_profile();
  p.fingerprint.host = "somewhere-else";
  perf::Tracker tracker;
  perf::set_thread_tracker(&tracker);
  EXPECT_FALSE(install_profile(p));
  perf::set_thread_tracker(nullptr);
  EXPECT_EQ(tracker.counter("tune.profile.rejected"), 1.0);
  EXPECT_EQ(perf::selection_model().gemm_flops, default_gemm_flops());
}

TEST_F(ProfileTest, InstallPublishesTablesAndUninstallClears) {
  ASSERT_TRUE(install_profile(sample_profile()));
  // The selection model picked up the measured machine rates.
  const perf::MachineModel m = perf::selection_model();
  EXPECT_DOUBLE_EQ(m.gemm_flops, 6.25e9);
  EXPECT_DOUBLE_EQ(m.factor_flops, 3.5e9);
  EXPECT_DOUBLE_EQ(m.single_speedup, 1.8);
  uninstall_profile();
  EXPECT_EQ(perf::selection_model().gemm_flops, default_gemm_flops());
}

TEST_F(ProfileTest, InstallSkipsFingerprintCheckWhenAsked) {
  MachineProfile p = sample_profile();
  p.fingerprint.host = "somewhere-else";
  EXPECT_TRUE(install_profile(p, /*check_fingerprint=*/false));
  EXPECT_DOUBLE_EQ(perf::selection_model().gemm_flops, 6.25e9);
}

// ---- derive_rates: the deterministic-replay core ----

TEST(DeriveRates, PicksBestRateAtLargestSize) {
  std::vector<RawMeasurement> log = {
      {"gemm.d.n96.naive", 1e9, "flop/s"},
      {"gemm.d.n96.micro", 4e9, "flop/s"},
      {"gemm.d.n700.micro", 8e9, "flop/s"},
      {"gemm.d.n700.blocked", 3e9, "flop/s"},
      {"gemm.f.n700.micro", 1.6e10, "flop/s"},
      {"gemm.z.n700.micro", 9e9, "flop/s"},
      {"factor.n96.naive", 2e9, "flop/s"},
      {"factor.n96.blocked", 1e9, "flop/s"},
      // Retired collective probes of a v1 log carry no rate.
      {"coll.allreduce.b16384.p4.ring", 1e-5, "s"},
      {"chunk.allreduce.b4194304.c65536", 1e-3, "s"},
  };
  const ProfileRates r = derive_rates(log);
  EXPECT_DOUBLE_EQ(r.gemm_flops, 8e9);
  EXPECT_DOUBLE_EQ(r.single_speedup, 2.0);
  EXPECT_DOUBLE_EQ(r.factor_flops, 2e9);
}

TEST(DeriveRates, IgnoresMalformedNames) {
  std::vector<RawMeasurement> log = {
      {"gemm.d.naive", 1e9, "flop/s"},          // missing size token
      {"gemm.d.nXY.micro", 1e9, "flop/s"},      // non-numeric size
      {"factor.n-3.blocked", 1e9, "flop/s"},    // non-numeric size
      {"solve.total", 1.0, "s"},                // foreign domain
      {"", 1.0, "s"},
  };
  EXPECT_EQ(derive_rates(log), ProfileRates{});
}

TEST(DeriveRates, ReplayIsDeterministic) {
  const std::vector<RawMeasurement> log = {
      {"gemm.d.n96.naive", 1e9, "flop/s"},
      {"gemm.d.n96.micro", 4e9, "flop/s"},
      {"gemm.f.n96.micro", 6e9, "flop/s"},
      {"factor.n640.blocked", 5e9, "flop/s"},
  };
  const ProfileRates a = derive_rates(log);
  EXPECT_EQ(a, derive_rates(log));
  EXPECT_DOUBLE_EQ(a.gemm_flops, 4e9);
  EXPECT_DOUBLE_EQ(a.factor_flops, 5e9);
  EXPECT_DOUBLE_EQ(a.single_speedup, 1.5);
}

}  // namespace
}  // namespace chase::tune
