// Checkpoint/restore contract: interrupting a run at any epoch boundary,
// serializing the network, restoring into a fresh network and finishing
// must produce a final report bit-identical to the uninterrupted run — for
// every policy kind, under both the product's engine and the linear-scan
// reference kernel (tests/linear_kernel.hpp), with the fault layer armed
// or not, and even across kernels (checkpoint under the linear kernel,
// resume under the indexed one). The resumed run's next checkpoint must
// also equal the uninterrupted run's byte for byte, and the registry's
// extra policies, the oracle, the 41-feature policy and a faulty run pin
// the CRC-32 of their checkpoints. Also covers the file framing, the typed
// validation errors, the sweep manifest, and the supervised batch runner's
// skip/retry/timeout behavior.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/ckpt/checkpoint.hpp"
#include "src/ckpt/serial.hpp"
#include "src/common/error.hpp"
#include "src/core/baselines.hpp"
#include "src/core/policies.hpp"
#include "src/noc/extended_features.hpp"
#include "src/noc/network.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/sim/batch.hpp"
#include "src/sim/registries.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/setup.hpp"
#include "src/trafficgen/patterns.hpp"
#include "tests/linear_kernel.hpp"

namespace dozz {
namespace {

std::optional<WeightVector> weights_for(PolicyKind kind) {
  return policy_uses_ml(kind)
             ? std::optional<WeightVector>(passthrough_weights())
             : std::nullopt;
}

SimSetup small_setup(bool faults_armed) {
  SimSetup setup;
  setup.duration_cycles = 6000;
  setup.run_to_drain = true;
  setup.noc.epoch_cycles = 500;
  setup.noc.collect_epoch_log = true;
  // Armed = fault layer on with all rates zero: the checkpoint then also
  // carries the injector RNG + fault stats sections.
  if (faults_armed) setup.noc.faults.enabled = true;
  return setup;
}

/// The uninterrupted run, on the linear reference kernel when `linear`.
RunOutcome run_uninterrupted(const SimSetup& setup, PolicyKind kind,
                             const Trace& trace, bool linear = false) {
  const int routers = setup.make_topology().num_routers();
  auto policy = make_policy(kind, routers, weights_for(kind));
  return run_simulation_on(linear, setup, *policy, trace);
}

using PolicyFactory = std::function<std::unique_ptr<PowerController>()>;

/// A resumed run's outcome and the checkpoint it resumed from.
struct ResumedRun {
  RunOutcome outcome;
  std::vector<unsigned char> checkpoint;
};

/// Runs until epoch `stop_epoch` (on the linear reference kernel when
/// `save_linear`) and checkpoints in memory there, runs on to the next
/// epoch boundary, checkpoints again and abandons the run. Then restores
/// the first checkpoint into a fresh network and finishes (on the linear
/// kernel when `resume_linear`); at that next boundary the resumed run
/// must write the same bytes as the first run did.
ResumedRun resume_at(const SimSetup& setup, const PolicyFactory& make,
                     const Trace& trace, std::uint64_t stop_epoch,
                     bool save_linear, bool resume_linear) {
  const Topology topo = setup.make_topology();

  CkptWriter w;
  CkptWriter next;
  {
    auto policy = make();
    SimoLdoRegulator regulator;
    const PowerModel power;
    Network net(topo, setup.noc, *policy, power, regulator);
    net.set_epoch_hook([&w, &next, stop_epoch](Network& n, Tick,
                                               std::uint64_t epochs) {
      if (epochs == stop_epoch) n.save_checkpoint(w);
      if (epochs != stop_epoch + 1) return true;
      n.save_checkpoint(next);
      return false;
    });
    drive(net, setup, trace, save_linear);
    EXPECT_TRUE(net.interrupted());
    // Interrupted runs still compile a (partial) report without crashing.
    EXPECT_GT(net.metrics().sim_ticks, 0u);
  }
  EXPECT_FALSE(next.bytes().empty())
      << "run ended before epoch " << stop_epoch + 1;

  auto policy = make();
  SimoLdoRegulator regulator;
  const PowerModel power;
  Network net(topo, setup.noc, *policy, power, regulator);
  const auto& payload = w.bytes();
  CkptReader r(payload.data(), payload.size(), "<memory>");
  net.restore_checkpoint(r);
  r.expect_end();
  EXPECT_TRUE(net.resumed());
  CkptWriter resumed_next;
  net.set_epoch_hook([&resumed_next, stop_epoch](Network& n, Tick,
                                                 std::uint64_t epochs) {
    if (epochs == stop_epoch + 1) n.save_checkpoint(resumed_next);
    return true;
  });
  drive(net, setup, trace, resume_linear);
  EXPECT_FALSE(net.interrupted());
  // Not EXPECT_EQ: a failure would print both checkpoints in full.
  EXPECT_TRUE(resumed_next.bytes() == next.bytes())
      << "the resumed run's checkpoint at epoch " << stop_epoch + 1
      << " differs from the uninterrupted run's ("
      << resumed_next.bytes().size() << " vs " << next.bytes().size()
      << " bytes)";

  ResumedRun resumed;
  resumed.outcome.policy = policy->name();
  resumed.outcome.trace = trace.name();
  resumed.outcome.metrics = net.metrics();
  resumed.outcome.epoch_log = net.epoch_log();
  resumed.outcome.extended_log = net.extended_log();
  resumed.checkpoint = payload;
  return resumed;
}

/// resume_at for a paper policy kind. Returns the resumed run's outcome.
RunOutcome run_interrupted_then_resumed(const SimSetup& setup,
                                        PolicyKind kind, const Trace& trace,
                                        std::uint64_t stop_epoch,
                                        bool save_linear,
                                        bool resume_linear) {
  const int routers = setup.make_topology().num_routers();
  const PolicyFactory make = [kind, routers] {
    return make_policy(kind, routers, weights_for(kind));
  };
  return resume_at(setup, make, trace, stop_epoch, save_linear,
                   resume_linear)
      .outcome;
}

using CkptParam = std::tuple<PolicyKind, bool /*linear*/, bool /*faults*/>;

class CheckpointResumeTest : public ::testing::TestWithParam<CkptParam> {};

TEST_P(CheckpointResumeTest, ResumeIsBitIdentical) {
  const auto [kind, linear, faults] = GetParam();
  const SimSetup setup = small_setup(faults);
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  const RunOutcome full = run_uninterrupted(setup, kind, trace, linear);
  // Two interrupt points: early (mid-warmup) and late (near the drain).
  for (std::uint64_t stop_epoch : {2u, 7u}) {
    const RunOutcome resumed = run_interrupted_then_resumed(
        setup, kind, trace, stop_epoch, linear, linear);
    expect_metrics_identical(full.metrics, resumed.metrics);
    expect_epoch_logs_identical(full.epoch_log, resumed.epoch_log);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CheckpointResumeTest,
    ::testing::Combine(::testing::ValuesIn(all_policy_kinds()),
                       ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<CkptParam>& info) {
      return sanitize(policy_name(std::get<0>(info.param)) +
                      (std::get<1>(info.param) ? "_linear" : "_indexed") +
                      (std::get<2>(info.param) ? "_faults" : ""));
    });

// A checkpoint is kernel-neutral: save under one kernel, resume under the
// other, still bit-identical to the uninterrupted run.
TEST(CheckpointCrossKernel, LinearCheckpointResumesUnderIndexed) {
  for (PolicyKind kind :
       {PolicyKind::kBaseline, PolicyKind::kPowerGate, PolicyKind::kDozzNoc}) {
    const SimSetup setup = small_setup(/*faults_armed=*/false);
    const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
    const RunOutcome full =
        run_uninterrupted(setup, kind, trace, /*linear=*/true);
    const RunOutcome resumed = run_interrupted_then_resumed(
        setup, kind, trace, /*stop_epoch=*/4, /*save_linear=*/true,
        /*resume_linear=*/false);
    expect_metrics_identical(full.metrics, resumed.metrics);
    expect_epoch_logs_identical(full.epoch_log, resumed.epoch_log);
  }
}

// Saving while traffic is dense exercises the wrapped state of the ring
// FIFOs: after ~2000 cycles of sustained pushes and pops the VC, link
// channel and NIC rings have lapped their power-of-two storage, so the
// checkpoint's oldest-first walk starts mid-array. The save must happen
// with packets in flight (non-empty rings being serialized) and the
// resumed run must still be bit-identical to the uninterrupted one.
TEST(CheckpointWrappedRings, MidTrafficSaveRestoresBitIdentically) {
  const SimSetup setup = small_setup(/*faults_armed=*/false);
  const Topology topo = setup.make_topology();
  const Trace trace = generate_synthetic_trace(
      topo, uniform_pattern(topo.num_cores()), /*rate=*/0.10,
      /*cycles=*/4000, /*seed=*/42);
  const PolicyKind kind = PolicyKind::kBaseline;
  const RunOutcome full = run_uninterrupted(setup, kind, trace);

  CkptWriter w;
  std::uint64_t in_flight_at_save = 0;
  {
    auto policy = make_policy(kind, topo.num_routers(), weights_for(kind));
    SimoLdoRegulator regulator;
    const PowerModel power;
    Network net(topo, setup.noc, *policy, power, regulator);
    net.set_epoch_hook([&](Network& n, Tick, std::uint64_t epochs) {
      if (epochs != 4) return true;  // mid-injection epoch boundary
      in_flight_at_save = n.metrics().packets_offered -
                          n.metrics().packets_delivered;
      n.save_checkpoint(w);
      return false;
    });
    drive(net, setup, trace, /*linear=*/false);
    EXPECT_TRUE(net.interrupted());
  }
  ASSERT_GT(in_flight_at_save, 0u)
      << "save point carried no traffic; the test would not exercise "
         "non-empty ring serialization";

  auto policy = make_policy(kind, topo.num_routers(), weights_for(kind));
  SimoLdoRegulator regulator;
  const PowerModel power;
  Network net(topo, setup.noc, *policy, power, regulator);
  const auto& payload = w.bytes();
  CkptReader r(payload.data(), payload.size(), "<memory>");
  net.restore_checkpoint(r);
  r.expect_end();
  drive(net, setup, trace, /*linear=*/false);
  EXPECT_FALSE(net.interrupted());
  expect_metrics_identical(full.metrics, net.metrics());
  expect_epoch_logs_identical(full.epoch_log, net.epoch_log());
}

/// Moves every router between the slowest and the fastest mode at each
/// window boundary: slow after even windows, fast after odd ones.
class FlipModesPolicy final : public PowerController {
 public:
  std::string name() const override { return "flip-modes"; }
  bool gating_enabled() const override { return false; }
  VfMode select_mode(RouterId, const EpochFeatures&) override {
    return slow_ ? kBottomMode : kTopMode;
  }
  bool uses_ml() const override { return false; }
  void on_epoch_begin(std::uint64_t ended_epoch_index) override {
    slow_ = ended_epoch_index % 2 == 0;
  }

 private:
  bool slow_ = false;
};

/// True when some input port has two flits in flight on different VCs
/// that arrive at the same tick.
bool has_in_flight_tie(const Network& net) {
  for (RouterId r = 0; r < net.topology().num_routers(); ++r) {
    for (int port = 0; port < kNumDirections; ++port) {
      const std::vector<TimedFlit> flits = net.router(r).in_flight_flits(port);
      for (std::size_t i = 0; i < flits.size(); ++i)
        for (std::size_t j = i + 1; j < flits.size(); ++j)
          if (flits[i].arrival == flits[j].arrival &&
              flits[i].vc != flits[j].vc)
            return true;
    }
  }
  return false;
}

// A switch to a faster mode shortens an upstream router's link delay. With
// 14-cycle links and 24-cycle windows, a flit sent just before a switch to
// the fastest mode and one sent right after its stall arrive at one port
// at the same tick, on different VCs. The checkpoint must write a port's
// in-flight flits in send order and the restore must rebuild that order:
// each router writes back the bytes it was restored from, and the resumed
// run ends bit-identical to the uninterrupted one.
TEST(CheckpointInFlightTies, EqualArrivalsOnTwoVcsRoundTrip) {
  SimSetup setup;
  setup.duration_cycles = 2000;
  setup.noc.epoch_cycles = 24;
  setup.noc.link_latency_cycles = 14;
  setup.noc.auto_response = false;
  setup.noc.collect_epoch_log = true;
  const Topology topo = setup.make_topology();
  const Trace trace = generate_synthetic_trace(
      topo, uniform_pattern(topo.num_cores()), /*rate=*/0.15,
      /*cycles=*/2000, /*seed=*/7);
  SimoLdoRegulator regulator;
  const PowerModel power;

  FlipModesPolicy full_policy;
  Network full(topo, setup.noc, full_policy, power, regulator);
  full.run(trace, setup.end_tick());

  CkptWriter w;
  std::vector<std::vector<unsigned char>> router_bytes;
  {
    FlipModesPolicy policy;
    Network net(topo, setup.noc, policy, power, regulator);
    net.set_epoch_hook([&](Network& n, Tick, std::uint64_t) {
      if (!has_in_flight_tie(n)) return true;
      n.save_checkpoint(w);
      for (RouterId r = 0; r < topo.num_routers(); ++r) {
        CkptWriter rw;
        n.router(r).save_state(rw);
        router_bytes.push_back(rw.bytes());
      }
      return false;
    });
    net.run(trace, setup.end_tick());
    ASSERT_TRUE(net.interrupted())
        << "no port held two same-tick arrivals at a window boundary";
  }

  FlipModesPolicy policy;
  Network resumed(topo, setup.noc, policy, power, regulator);
  const auto& payload = w.bytes();
  CkptReader r(payload.data(), payload.size(), "<memory>");
  resumed.restore_checkpoint(r);
  r.expect_end();
  for (RouterId id = 0; id < topo.num_routers(); ++id) {
    CkptWriter rw;
    resumed.router(id).save_state(rw);
    EXPECT_EQ(rw.bytes(), router_bytes[static_cast<std::size_t>(id)])
        << "router " << id << " re-saved different bytes";
  }
  resumed.run(trace, setup.end_tick());
  EXPECT_FALSE(resumed.interrupted());
  expect_metrics_identical(full.metrics(), resumed.metrics());
  expect_epoch_logs_identical(full.epoch_log(), resumed.epoch_log());
}

// --- Every checkpointed record round-trips, in a pinned format ---------
// One walk both writes and reads each record, so a change in its field
// order or width still round-trips; only the CRC-32 of a checkpoint,
// pinned beside the golden reports, notices it. Regenerate the pins (only
// when a format change is intended) with:
//   DOZZ_REGEN_GOLDEN=1 ./dozz_tests --gtest_filter='CheckpointRecords*'

/// Resumes from a checkpoint at `stop_epoch`, expects the run to end
/// bit-identical to the uninterrupted one, and checks the checkpoint's
/// CRC-32 against tests/golden/ckpt_<pin>.crc32.
void expect_round_trip_and_pin(const std::string& pin, const SimSetup& setup,
                               const PolicyFactory& make, const Trace& trace,
                               std::uint64_t stop_epoch) {
  auto policy = make();
  const RunOutcome full = run_simulation(setup, *policy, trace);
  const ResumedRun resumed =
      resume_at(setup, make, trace, stop_epoch, false, false);
  expect_metrics_identical(full.metrics, resumed.outcome.metrics);
  expect_epoch_logs_identical(full.epoch_log, resumed.outcome.epoch_log);
  EXPECT_TRUE(full.extended_log == resumed.outcome.extended_log)
      << "extended feature log drifted";

  char crc[9];
  std::snprintf(crc, sizeof crc, "%08x",
                ckpt_crc32(resumed.checkpoint.data(),
                           resumed.checkpoint.size()));
  const std::string path =
      std::string(DOZZ_SOURCE_DIR) + "/tests/golden/ckpt_" + pin + ".crc32";
  if (std::getenv("DOZZ_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << crc << '\n';
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  std::string pinned;
  ASSERT_TRUE(in >> pinned) << "missing pin " << path
                            << " (regenerate with DOZZ_REGEN_GOLDEN=1)";
  EXPECT_EQ(crc, pinned) << "the checkpoint format changed: " << path;
}

PolicyFactory registry_policy(const std::string& name, const SimSetup& setup) {
  PolicyParams params;
  params.num_routers = setup.make_topology().num_routers();
  return [name, params] { return policy_registry().at(name).make(params); };
}

TEST(CheckpointRecords, ReactiveRegistryPolicy) {
  const SimSetup setup = small_setup(/*faults_armed=*/false);
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  expect_round_trip_and_pin("reactive", setup,
                            registry_policy("reactive", setup), trace, 3);
}

TEST(CheckpointRecords, VfiRegistryPolicy) {
  const SimSetup setup = small_setup(/*faults_armed=*/false);
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  expect_round_trip_and_pin("vfi", setup, registry_policy("vfi", setup),
                            trace, 3);
}

TEST(CheckpointRecords, ParkingRegistryPolicy) {
  // Sparse traffic: cores fall silent for whole windows, so routers are
  // mid-count toward parking at the save.
  const SimSetup setup = small_setup(/*faults_armed=*/false);
  const Topology topo = setup.make_topology();
  const Trace trace = generate_synthetic_trace(
      topo, uniform_pattern(topo.num_cores()), /*rate=*/0.001,
      /*cycles=*/6000, /*seed=*/5);
  expect_round_trip_and_pin("parking", setup,
                            registry_policy("parking", setup), trace, 3);
}

TEST(CheckpointRecords, OraclePolicy) {
  const SimSetup setup = small_setup(/*faults_armed=*/false);
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  const int routers = setup.make_topology().num_routers();
  // The trajectory comes from a recording run, as run_oracle bootstraps it.
  ReactiveDvfsPolicy recorder("recorder", /*gating=*/true, /*turbo=*/false,
                              routers);
  const IbuTrajectory trajectory =
      trajectory_from_log(run_simulation(setup, recorder, trace).epoch_log);
  const PolicyFactory make = [trajectory, routers] {
    return std::make_unique<OracleDvfsPolicy>(trajectory, /*gating=*/true,
                                              routers);
  };
  expect_round_trip_and_pin("oracle", setup, make, trace, 3);
}

TEST(CheckpointRecords, ExtendedMlPolicyWithExtendedLog) {
  SimSetup setup = small_setup(/*faults_armed=*/false);
  setup.noc.collect_extended_log = true;
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  const int routers = setup.make_topology().num_routers();
  WeightVector weights;
  weights.feature_names = extended_feature_names(kNumDirections + 1);
  weights.weights.assign(weights.feature_names.size(), 0.0);
  weights.weights[extended_ibu_column()] = 1.0;
  ASSERT_EQ(weights.weights.size(), 41u);
  const PolicyFactory make = [weights, routers] {
    return std::make_unique<ProactiveExtendedMlPolicy>(PolicyKind::kMlTurbo,
                                                       weights, routers);
  };
  expect_round_trip_and_pin("extended_turbo", setup, make, trace, 3);
}

TEST(CheckpointRecords, FaultyRun) {
  SimSetup setup = small_setup(/*faults_armed=*/true);
  setup.noc.faults.link_bit_flip_rate = 2e-3;
  setup.noc.faults.wake_drop_rate = 0.3;
  setup.noc.faults.mode_switch_fail_rate = 0.2;
  setup.noc.faults.droop_rate = 0.02;
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  const int routers = setup.make_topology().num_routers();
  const PolicyFactory make = [routers] {
    return make_policy(PolicyKind::kDozzNoc, routers,
                       weights_for(PolicyKind::kDozzNoc));
  };
  expect_round_trip_and_pin("faults", setup, make, trace, 5);
}

// The file layer (framing + atomic write) round-trips through disk via the
// supervised runner: interrupt with the stop flag, then resume from the
// file, comparing against the uninterrupted run.
TEST(CheckpointFile, ControlledStopAndResumeRoundTripsThroughDisk) {
  const std::string path = ::testing::TempDir() + "dozz_ckpt_roundtrip.ckpt";
  const SimSetup setup = small_setup(/*faults_armed=*/true);
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  const int routers = setup.make_topology().num_routers();

  auto full_policy = make_policy(PolicyKind::kDozzNoc, routers,
                                 weights_for(PolicyKind::kDozzNoc));
  const RunOutcome full = run_simulation(setup, *full_policy, trace);

  std::atomic<bool> stop{true};  // stop at the very first epoch boundary
  RunControl control;
  control.checkpoint_path = path;
  control.stop = &stop;
  auto policy1 = make_policy(PolicyKind::kDozzNoc, routers,
                             weights_for(PolicyKind::kDozzNoc));
  const RunOutcome partial = run_simulation_controlled(
      setup, *policy1, trace, PowerModel(), control);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.checkpoints_written, 1u);

  RunControl resume_control;
  resume_control.checkpoint_path = path;
  resume_control.resume = true;
  auto policy2 = make_policy(PolicyKind::kDozzNoc, routers,
                             weights_for(PolicyKind::kDozzNoc));
  const RunOutcome resumed = run_simulation_controlled(
      setup, *policy2, trace, PowerModel(), resume_control);
  EXPECT_FALSE(resumed.interrupted);
  expect_metrics_identical(full.metrics, resumed.metrics);
  std::remove(path.c_str());
}

// Restoring into a network whose configuration differs from the
// checkpointed one must fail with a typed, descriptive error — never
// silently produce a half-restored network.
TEST(CheckpointValidation, ConfigMismatchThrowsCheckpointError) {
  const SimSetup setup = small_setup(/*faults_armed=*/false);
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  const Topology topo = setup.make_topology();
  const int routers = topo.num_routers();

  CkptWriter w;
  {
    auto policy = make_policy(PolicyKind::kPowerGate, routers, std::nullopt);
    SimoLdoRegulator regulator;
    const PowerModel power;
    Network net(topo, setup.noc, *policy, power, regulator);
    net.set_epoch_hook([&w](Network& n, Tick, std::uint64_t epochs) {
      if (epochs < 2) return true;
      n.save_checkpoint(w);
      return false;
    });
    drive(net, setup, trace, /*linear=*/false);
  }
  const auto& payload = w.bytes();

  auto expect_restore_failure = [&](const NocConfig& config,
                                    PowerController& policy,
                                    const std::string& needle) {
    SimoLdoRegulator regulator;
    const PowerModel power;
    Network net(topo, config, policy, power, regulator);
    CkptReader r(payload.data(), payload.size(), "<memory>");
    try {
      net.restore_checkpoint(r);
      FAIL() << "expected CheckpointError containing \"" << needle << "\"";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  {
    NocConfig bad = setup.noc;
    bad.epoch_cycles = 1000;
    auto policy = make_policy(PolicyKind::kPowerGate, routers, std::nullopt);
    expect_restore_failure(bad, *policy, "epoch length mismatch");
  }
  {
    NocConfig bad = setup.noc;
    bad.buffer_depth_flits += 2;
    auto policy = make_policy(PolicyKind::kPowerGate, routers, std::nullopt);
    expect_restore_failure(bad, *policy, "buffer depth mismatch");
  }
  {
    auto policy = make_policy(PolicyKind::kBaseline, routers, std::nullopt);
    expect_restore_failure(setup.noc, *policy, "policy mismatch");
  }
  {
    NocConfig bad = setup.noc;
    bad.faults.enabled = true;
    auto policy = make_policy(PolicyKind::kPowerGate, routers, std::nullopt);
    expect_restore_failure(bad, *policy, "fault-injection setting mismatch");
  }
}

// Resuming against a different trace (or run horizon) is refused: the
// checkpoint names the trace it was taken against.
TEST(CheckpointValidation, TraceMismatchOnResumeThrows) {
  const std::string path = ::testing::TempDir() + "dozz_ckpt_trace.ckpt";
  const SimSetup setup = small_setup(/*faults_armed=*/false);
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  const int routers = setup.make_topology().num_routers();

  std::atomic<bool> stop{true};
  RunControl control;
  control.checkpoint_path = path;
  control.stop = &stop;
  auto policy1 = make_policy(PolicyKind::kPowerGate, routers, std::nullopt);
  const RunOutcome partial = run_simulation_controlled(
      setup, *policy1, trace, PowerModel(), control);
  ASSERT_TRUE(partial.interrupted);

  RunControl resume_control;
  resume_control.checkpoint_path = path;
  resume_control.resume = true;
  const Trace other =
      make_benchmark_trace(setup, "blackscholes", kCompressedFactor);
  auto policy2 = make_policy(PolicyKind::kPowerGate, routers, std::nullopt);
  try {
    run_simulation_controlled(setup, *policy2, other, PowerModel(),
                              resume_control);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("trace mismatch"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// --- Sweep manifest --------------------------------------------------------

TEST(SweepManifest, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "dozz_manifest.jsonl";
  SweepManifest manifest;
  JobRecord a;
  a.key = "dozznoc|fft|0.25|policy";
  a.label = "fft/compressed";
  a.status = "done";
  a.attempts = 2;
  a.error = "transient \"stall\"\nrecovered";
  a.checkpoint = "ckpts/dozznoc_fft.ckpt";
  a.report_json = "{\"policy\":\"dozznoc\"}";
  manifest.jobs.push_back(a);
  JobRecord b;
  b.key = "baseline|fft|1|policy";
  b.status = "pending";
  manifest.jobs.push_back(b);

  save_manifest_file(manifest, path);
  const SweepManifest loaded = load_manifest_file(path);
  ASSERT_EQ(loaded.jobs.size(), 2u);
  EXPECT_EQ(loaded.jobs[0].key, a.key);
  EXPECT_EQ(loaded.jobs[0].label, a.label);
  EXPECT_EQ(loaded.jobs[0].status, a.status);
  EXPECT_EQ(loaded.jobs[0].attempts, a.attempts);
  EXPECT_EQ(loaded.jobs[0].error, a.error);
  EXPECT_EQ(loaded.jobs[0].checkpoint, a.checkpoint);
  EXPECT_EQ(loaded.jobs[0].report_json, a.report_json);
  EXPECT_EQ(loaded.jobs[1].key, b.key);
  EXPECT_EQ(loaded.jobs[1].status, "pending");
  EXPECT_EQ(loaded.find("baseline|fft|1|policy"), 1);
  EXPECT_EQ(loaded.find("missing"), -1);
  std::remove(path.c_str());
}

// --- Supervised batch ------------------------------------------------------

SimSetup batch_setup() {
  SimSetup setup;
  setup.duration_cycles = 3000;
  setup.run_to_drain = true;
  setup.noc.epoch_cycles = 500;
  return setup;
}

std::vector<BatchJob> two_jobs() {
  std::vector<BatchJob> jobs;
  for (PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kPowerGate}) {
    BatchJob job;
    job.kind = kind;
    job.benchmark = "fft";
    job.compression = kCompressedFactor;
    job.label = "fft/compressed";
    jobs.push_back(job);
  }
  return jobs;
}

TEST(SupervisedBatch, ResumeSkipsDoneJobsAndKeepsReports) {
  const std::string manifest_path =
      ::testing::TempDir() + "dozz_batch_manifest.jsonl";
  const SimSetup setup = batch_setup();
  const std::vector<BatchJob> jobs = two_jobs();

  BatchOptions options;
  options.threads = 2;
  options.manifest_path = manifest_path;
  const BatchResult first = run_batch_supervised(setup, jobs, options);
  EXPECT_EQ(first.completed, 2);
  EXPECT_EQ(first.failed, 0);
  EXPECT_EQ(first.skipped, 0);
  EXPECT_EQ(first.suppressed_exceptions, 0u);
  ASSERT_EQ(first.manifest.jobs.size(), 2u);
  for (const JobRecord& record : first.manifest.jobs) {
    EXPECT_EQ(record.status, "done");
    EXPECT_EQ(record.attempts, 1);
    EXPECT_FALSE(record.report_json.empty());
  }

  options.resume = true;
  const BatchResult second = run_batch_supervised(setup, jobs, options);
  EXPECT_EQ(second.completed, 0);
  EXPECT_EQ(second.skipped, 2);
  ASSERT_EQ(second.manifest.jobs.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(second.manifest.jobs[i].status, "done");
    // The stored report line is reused verbatim — the "same aggregate
    // table" half of the resume contract.
    EXPECT_EQ(second.manifest.jobs[i].report_json,
              first.manifest.jobs[i].report_json);
  }
  std::remove(manifest_path.c_str());
}

TEST(SupervisedBatch, ManifestFromDifferentSweepIsRejected) {
  const std::string manifest_path =
      ::testing::TempDir() + "dozz_batch_mismatch.jsonl";
  const SimSetup setup = batch_setup();

  BatchOptions options;
  options.threads = 1;
  options.manifest_path = manifest_path;
  run_batch_supervised(setup, two_jobs(), options);

  std::vector<BatchJob> other = two_jobs();
  other[1].kind = PolicyKind::kBaseline;
  other[1].reactive_twin = true;
  options.resume = true;
  EXPECT_THROW(run_batch_supervised(setup, other, options), CheckpointError);
  std::remove(manifest_path.c_str());
}

TEST(SupervisedBatch, TimeoutRetriesThenFails) {
  const std::string manifest_path =
      ::testing::TempDir() + "dozz_batch_timeout.jsonl";
  const SimSetup setup = batch_setup();
  std::vector<BatchJob> jobs = two_jobs();
  jobs.resize(1);

  BatchOptions options;
  options.threads = 1;
  options.manifest_path = manifest_path;
  options.job_timeout_s = 1e-9;  // expires at the first epoch boundary
  options.max_retries = 1;
  options.retry_backoff_s = 0.0;
  const BatchResult result = run_batch_supervised(setup, jobs, options);
  EXPECT_EQ(result.completed, 0);
  EXPECT_EQ(result.failed, 1);
  EXPECT_EQ(result.retried, 1);
  ASSERT_EQ(result.manifest.jobs.size(), 1u);
  EXPECT_EQ(result.manifest.jobs[0].status, "failed");
  EXPECT_EQ(result.manifest.jobs[0].attempts, 2);
  EXPECT_NE(result.manifest.jobs[0].error.find("timeout"), std::string::npos)
      << result.manifest.jobs[0].error;
  std::remove(manifest_path.c_str());
}

TEST(SupervisedBatch, PresetStopFlagLeavesJobsPending) {
  const SimSetup setup = batch_setup();
  std::atomic<bool> stop{true};
  BatchOptions options;
  options.threads = 1;
  options.stop = &stop;
  const BatchResult result = run_batch_supervised(setup, two_jobs(), options);
  EXPECT_TRUE(result.stopped);
  EXPECT_EQ(result.completed, 0);
  EXPECT_EQ(result.failed, 0);
  for (const JobRecord& record : result.manifest.jobs)
    EXPECT_NE(record.status, "done");
}

}  // namespace
}  // namespace dozz
