// Randomized robustness: random router configurations x random workloads
// x random policies, checked against the simulator's global invariants.
// Internal DOZZ_ASSERTs (credit bounds, buffer occupancy, inbound counts)
// act as the oracle; this test exists to drive them through odd corners.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/ckpt/checkpoint.hpp"
#include "src/common/rng.hpp"
#include "src/core/policies.hpp"
#include "src/noc/network.hpp"
#include "src/power/power_model.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/trafficgen/patterns.hpp"

namespace dozz {
namespace {

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, RandomConfigurationHoldsInvariants) {
  Rng rng(0xF022 + static_cast<std::uint64_t>(GetParam()) * 7919);

  // --- Random configuration ---
  const bool torus = rng.next_bool(0.25);
  const bool cmesh = !torus && rng.next_bool(0.3);
  const Topology topo = torus   ? make_torus(4, 4)
                        : cmesh ? make_cmesh(2, 2, 4)
                                : make_mesh(4, 4);
  NocConfig config;
  config.vc_classes = torus ? 2 : 1;
  const int per_class = 1 + static_cast<int>(rng.next_below(2));
  config.vcs_per_port = per_class * config.vc_classes;
  config.buffer_depth_flits = 2 + static_cast<int>(rng.next_below(5));
  config.pipeline_stages = 1 + static_cast<int>(rng.next_below(3));
  config.link_latency_cycles = 1 + static_cast<int>(rng.next_below(2));
  config.routing =
      rng.next_bool(0.5) ? RoutingAlgorithm::kXY : RoutingAlgorithm::kYX;
  config.epoch_cycles = 100 + rng.next_below(400);
  config.t_idle_cycles = 1 + static_cast<int>(rng.next_below(8));
  config.auto_response = rng.next_bool(0.7);
  config.response_size_flits = 1 + static_cast<int>(rng.next_below(6));
  config.response_delay_ns = 1.0 + rng.next_double() * 40.0;

  // --- Random workload ---
  const char* patterns[] = {"uniform", "transpose", "hotspot", "neighbor",
                            "tornado"};
  const Trace trace = generate_synthetic_trace(
      topo, pattern_by_name(patterns[rng.next_below(5)], topo),
      0.001 + rng.next_double() * 0.03, 1500, rng.next_u64());

  // --- Random policy ---
  WeightVector w;
  w.feature_names = EpochFeatures::names();
  w.weights = {rng.next_gaussian() * 0.05, 0.0, 0.0, 0.0,
               0.5 + rng.next_double()};
  const PolicyKind kinds[] = {PolicyKind::kBaseline, PolicyKind::kPowerGate,
                              PolicyKind::kLeadTau, PolicyKind::kDozzNoc,
                              PolicyKind::kMlTurbo};
  const PolicyKind kind = kinds[rng.next_below(5)];
  auto policy = make_policy(kind, topo.num_routers(),
                            policy_uses_ml(kind)
                                ? std::optional<WeightVector>(w)
                                : std::nullopt);

  PowerModel power;
  SimoLdoRegulator regulator;
  Network net(topo, config, *policy, power, regulator);
  net.run_until_drained(trace, 80000 * kBaselinePeriodTicks);
  const NetworkMetrics& m = net.metrics();

  // Global invariants.
  EXPECT_EQ(m.packets_delivered, m.packets_offered)
      << "kind=" << policy_name(kind) << " topo=" << topo.name();
  double fractions = 0.0;
  for (double f : m.state_fractions) fractions += f;
  EXPECT_NEAR(fractions, 1.0, 1e-9);
  EXPECT_GE(m.wall_static_energy_j, m.static_energy_j);
  EXPECT_LE(m.wakeups, m.gatings);
  if (m.packets_delivered > 0) {
    EXPECT_GT(m.packet_latency_ns.min(), 0.0);
    EXPECT_LE(m.network_latency_ns.mean(),
              m.packet_latency_ns.mean() + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 24));

// --- Checkpoint and manifest corruption -----------------------------------
// A corrupted or truncated file must always surface as a CheckpointError
// that names the offending path — never a crash, hang, or silent partial
// restore.

std::vector<unsigned char> read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void write_raw(const std::string& path,
               const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

/// A temp-dir path private to this process. ctest runs each case below as
/// its own process, so under `ctest -j` a shared name would let one case's
/// TearDownTestSuite delete the checkpoint another case is still reading.
std::string process_temp_path(const std::string& name) {
  return ::testing::TempDir() + name + "." + std::to_string(getpid());
}

class CheckpointFuzz : public ::testing::Test {
 protected:
  // One real mid-run checkpoint, shared by every corruption below.
  static void SetUpTestSuite() {
    path_ = new std::string(process_temp_path("fuzz_ckpt.bin"));
    const Topology topo = make_mesh(4, 4);
    NocConfig config;
    config.epoch_cycles = 200;
    const Trace trace = generate_synthetic_trace(
        topo, pattern_by_name("uniform", topo), 0.01, 1200, 0xF5A1);
    auto policy =
        make_policy(PolicyKind::kPowerGate, topo.num_routers(), std::nullopt);
    PowerModel power;
    SimoLdoRegulator regulator;
    Network net(topo, config, *policy, power, regulator);
    net.set_epoch_hook([](Network& n, Tick, std::uint64_t epochs) {
      if (epochs < 1) return true;
      save_checkpoint_file(n, *path_);
      return false;
    });
    net.run_until_drained(trace, 80000 * kBaselinePeriodTicks);
    ASSERT_TRUE(net.interrupted());
    bytes_ = new std::vector<unsigned char>(read_raw(*path_));
    ASSERT_GT(bytes_->size(), 24u);  // framing header + payload
  }

  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    delete bytes_;
  }

  // Writes `bytes` to a scratch path and expects the framing validator to
  // reject it with a CheckpointError that names the file.
  void expect_rejected(const std::vector<unsigned char>& bytes,
                       const std::string& what) {
    const std::string scratch = process_temp_path("fuzz_ckpt_corrupt.bin");
    write_raw(scratch, bytes);
    try {
      read_checkpoint_payload(scratch);
      FAIL() << "accepted corrupt checkpoint: " << what;
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(scratch), std::string::npos)
          << "error does not name the path (" << what << "): " << e.what();
    }
    std::remove(scratch.c_str());
  }

  static std::string* path_;
  static std::vector<unsigned char>* bytes_;
};

std::string* CheckpointFuzz::path_ = nullptr;
std::vector<unsigned char>* CheckpointFuzz::bytes_ = nullptr;

TEST_F(CheckpointFuzz, IntactFileRoundTrips) {
  EXPECT_FALSE(read_checkpoint_payload(*path_).empty());
}

TEST_F(CheckpointFuzz, MissingFileThrowsTypedError) {
  const std::string missing = ::testing::TempDir() + "no_such_ckpt.bin";
  try {
    read_checkpoint_payload(missing);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos);
  }
}

TEST_F(CheckpointFuzz, TruncationAtEveryBoundaryIsRejected) {
  // Header boundaries, plus cuts through the payload: every prefix of a
  // valid checkpoint is an invalid checkpoint.
  const std::size_t cuts[] = {0u,  1u,  7u,  8u,  11u, 12u,
                              19u, 20u, 23u, 24u, bytes_->size() / 2,
                              bytes_->size() - 1};
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, bytes_->size());
    std::vector<unsigned char> clipped(bytes_->begin(),
                                       bytes_->begin() +
                                           static_cast<std::ptrdiff_t>(cut));
    expect_rejected(clipped, "truncated to " + std::to_string(cut));
  }
}

TEST_F(CheckpointFuzz, SingleBitFlipsAreRejectedEverywhere) {
  // Flip one bit anywhere — magic, version, size, CRC or payload — and the
  // loader must refuse. Sampled across the file; the CRC guards the tail.
  Rng rng(0xB17F11B5);
  for (int trial = 0; trial < 48; ++trial) {
    std::vector<unsigned char> mutated = *bytes_;
    const std::size_t byte = trial < 24
                                 ? static_cast<std::size_t>(trial)
                                 : rng.next_below(mutated.size());
    mutated[byte] ^= static_cast<unsigned char>(1u << rng.next_below(8));
    expect_rejected(mutated, "bit flip at byte " + std::to_string(byte));
  }
}

TEST_F(CheckpointFuzz, VersionMismatchNamesTheVersion) {
  std::vector<unsigned char> mutated = *bytes_;
  mutated[8] = 0x7F;  // u32 version little-endian low byte, after the magic
  const std::string scratch = process_temp_path("fuzz_ckpt_version.bin");
  write_raw(scratch, mutated);
  try {
    read_checkpoint_payload(scratch);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
  std::remove(scratch.c_str());
}

TEST_F(CheckpointFuzz, TrailingGarbageIsRejected) {
  std::vector<unsigned char> padded = *bytes_;
  padded.insert(padded.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  expect_rejected(padded, "4 trailing bytes");
}

// --- Manifest corruption ---------------------------------------------------

SweepManifest tiny_manifest() {
  SweepManifest m;
  JobRecord a;
  a.key = "DozzNoC|fft|0.55|policy";
  a.label = "fft/compressed";
  a.status = "done";
  a.attempts = 1;
  a.report_json = "{\"policy\":\"DozzNoC\"}";
  JobRecord b;
  b.key = "Baseline|lu|1|policy";
  b.label = "lu/uncompressed";
  b.status = "running";
  b.attempts = 2;
  b.error = "wall-clock timeout";
  b.checkpoint = "ckpt/job1.ckpt";
  m.jobs = {a, b};
  return m;
}

TEST(ManifestFuzz, TruncatedManifestNamesThePath) {
  const std::string path = ::testing::TempDir() + "fuzz_manifest.json";
  save_manifest_file(tiny_manifest(), path);
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(text.size(), 8u);
  // Cut mid-structure at several depths; each must be a typed failure.
  for (const double frac : {0.2, 0.5, 0.9}) {
    const std::string clipped =
        text.substr(0, static_cast<std::size_t>(
                           static_cast<double>(text.size()) * frac));
    std::ofstream out(path, std::ios::trunc);
    out << clipped;
    out.close();
    try {
      load_manifest_file(path);
      FAIL() << "accepted a manifest truncated to " << clipped.size()
             << " bytes";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(ManifestFuzz, MutatedManifestNeverLoadsSilently) {
  const std::string path = ::testing::TempDir() + "fuzz_manifest_mut.json";
  save_manifest_file(tiny_manifest(), path);
  const std::vector<unsigned char> original = read_raw(path);
  Rng rng(0x4A50);
  int rejected = 0;
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<unsigned char> mutated = original;
    // Structural damage: replace a byte with a brace, quote, or NUL.
    const unsigned char repl[] = {'{', '}', '"', ',', 0, 0xFF};
    mutated[rng.next_below(mutated.size())] = repl[rng.next_below(6)];
    write_raw(path, mutated);
    try {
      const SweepManifest m = load_manifest_file(path);
      // Some mutations only touch free text (a label, an error message) and
      // still parse; those must at least keep the job count.
      EXPECT_EQ(m.jobs.size(), 2u);
    } catch (const CheckpointError& e) {
      ++rejected;
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
  // The mutation space is dominated by structural damage; most trials must
  // land in the typed-rejection path.
  EXPECT_GT(rejected, 16);
  std::remove(path.c_str());
}

TEST(ManifestFuzz, GarbageFileIsRejected) {
  const std::string path = ::testing::TempDir() + "fuzz_manifest_junk.json";
  std::ofstream(path) << "not json at all\n\x01\x02\x03";
  EXPECT_THROW(load_manifest_file(path), CheckpointError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dozz
