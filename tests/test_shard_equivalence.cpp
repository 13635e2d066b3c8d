// The sharded engine must replay the sequential indexed kernel — and the
// legacy linear kernel, which shares none of the event-lane phase code the
// other two run — bit for bit at every thread count: identical metrics (down to RunningStat
// internals) and identical epoch logs for every eligible configuration,
// in fixed-window and run-to-drain modes, on mesh and torus, and across
// checkpoints taken under one shard count and restored under another.
// Ineligible configurations (gating policies, armed faults) must fall
// back to the sequential engine — also bit-identically, and visibly via
// Network::shards_used() so an equivalence pass can never be a fallback
// in disguise.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "src/ckpt/checkpoint.hpp"
#include "src/core/policies.hpp"
#include "src/sim/registries.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/setup.hpp"

namespace dozz {
namespace {

std::string sanitize(std::string name) {
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

WeightVector passthrough_weights() {
  WeightVector w;
  w.feature_names = EpochFeatures::names();
  w.weights = {0.0, 0.0, 0.0, 0.0, 1.0};
  return w;
}

void expect_stat_identical(const RunningStat& a, const RunningStat& b,
                           const char* label) {
  EXPECT_EQ(a.count(), b.count()) << label;
  EXPECT_EQ(a.mean(), b.mean()) << label;
  EXPECT_EQ(a.variance(), b.variance()) << label;
  EXPECT_EQ(a.min(), b.min()) << label;
  EXPECT_EQ(a.max(), b.max()) << label;
}

void expect_metrics_identical(const NetworkMetrics& a,
                              const NetworkMetrics& b) {
  EXPECT_EQ(a.packets_offered, b.packets_offered);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.requests_delivered, b.requests_delivered);
  EXPECT_EQ(a.responses_delivered, b.responses_delivered);
  expect_stat_identical(a.packet_latency_ns, b.packet_latency_ns,
                        "packet_latency_ns");
  expect_stat_identical(a.network_latency_ns, b.network_latency_ns,
                        "network_latency_ns");
  expect_stat_identical(a.packet_hops, b.packet_hops, "packet_hops");
  EXPECT_EQ(a.sim_ticks, b.sim_ticks);
  EXPECT_EQ(a.static_energy_j, b.static_energy_j);
  EXPECT_EQ(a.dynamic_energy_j, b.dynamic_energy_j);
  EXPECT_EQ(a.ml_energy_j, b.ml_energy_j);
  EXPECT_EQ(a.wall_static_energy_j, b.wall_static_energy_j);
  EXPECT_EQ(a.wall_dynamic_energy_j, b.wall_dynamic_energy_j);
  EXPECT_EQ(a.gatings, b.gatings);
  EXPECT_EQ(a.wakeups, b.wakeups);
  EXPECT_EQ(a.premature_wakeups, b.premature_wakeups);
  EXPECT_EQ(a.mode_switches, b.mode_switches);
  EXPECT_EQ(a.labels_computed, b.labels_computed);
  for (std::size_t i = 0; i < a.state_fractions.size(); ++i)
    EXPECT_EQ(a.state_fractions[i], b.state_fractions[i]) << "state " << i;
  for (std::size_t i = 0; i < a.epoch_mode_counts.size(); ++i)
    EXPECT_EQ(a.epoch_mode_counts[i], b.epoch_mode_counts[i]) << "mode " << i;
  EXPECT_EQ(a.avg_ibu, b.avg_ibu);
  EXPECT_EQ(a.off_time_fraction, b.off_time_fraction);
  EXPECT_EQ(a.latency_p50_ns, b.latency_p50_ns);
  EXPECT_EQ(a.latency_p95_ns, b.latency_p95_ns);
  EXPECT_EQ(a.latency_p99_ns, b.latency_p99_ns);
  EXPECT_EQ(a.faults.flits_corrupted, b.faults.flits_corrupted);
  EXPECT_EQ(a.faults.wakes_dropped, b.faults.wakes_dropped);
  EXPECT_EQ(a.faults.wakes_refused_stuck, b.faults.wakes_refused_stuck);
  EXPECT_EQ(a.faults.wakes_delayed, b.faults.wakes_delayed);
  EXPECT_EQ(a.faults.stuck_gatings, b.faults.stuck_gatings);
  EXPECT_EQ(a.faults.mode_switch_failures, b.faults.mode_switch_failures);
  EXPECT_EQ(a.faults.droops, b.faults.droops);
  EXPECT_EQ(a.faults.packets_corrupted, b.faults.packets_corrupted);
  EXPECT_EQ(a.faults.retransmissions, b.faults.retransmissions);
  EXPECT_EQ(a.faults.packets_lost, b.faults.packets_lost);
  EXPECT_EQ(a.faults.routers_gating_degraded,
            b.faults.routers_gating_degraded);
  EXPECT_EQ(a.faults.routers_pinned_nominal, b.faults.routers_pinned_nominal);
}

void expect_epoch_logs_identical(
    const std::vector<std::vector<EpochFeatures>>& a,
    const std::vector<std::vector<EpochFeatures>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    ASSERT_EQ(a[e].size(), b[e].size()) << "epoch " << e;
    for (std::size_t r = 0; r < a[e].size(); ++r) {
      EXPECT_EQ(a[e][r].bias, b[e][r].bias);
      EXPECT_EQ(a[e][r].reqs_sent, b[e][r].reqs_sent) << e << "/" << r;
      EXPECT_EQ(a[e][r].reqs_received, b[e][r].reqs_received) << e << "/" << r;
      EXPECT_EQ(a[e][r].total_off_kcycles, b[e][r].total_off_kcycles)
          << e << "/" << r;
      EXPECT_EQ(a[e][r].current_ibu, b[e][r].current_ibu) << e << "/" << r;
    }
  }
}

/// Eligible configuration variants: each satisfies the sharded engine's
/// engagement predicate a different way (see Network::plan_shard_count).
enum class Variant {
  kMeshSingleVc,   ///< One VC per port: response ids are VC-inert.
  kMeshNoAutoResp, ///< auto_response off: ids are trace-positional.
  kTorus,          ///< Dateline classes: one injectable VC per class.
};

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kMeshSingleVc: return "mesh_vc1";
    case Variant::kMeshNoAutoResp: return "mesh_noresp";
    case Variant::kTorus: return "torus";
  }
  return "?";
}

SimSetup make_setup(Variant v, bool drain) {
  SimSetup s;
  s.duration_cycles = 3000;
  s.run_to_drain = drain;
  s.noc.epoch_cycles = 500;
  switch (v) {
    case Variant::kMeshSingleVc:
      s.topology = "mesh";
      s.noc.vcs_per_port = 1;
      break;
    case Variant::kMeshNoAutoResp:
      s.topology = "mesh";
      s.noc.auto_response = false;
      break;
    case Variant::kTorus:
      s.topology = "torus";
      break;
  }
  configure_topology(s.topology, /*routing_flag=*/"", &s.noc);
  return s;
}

struct Outcome {
  NetworkMetrics metrics;
  std::vector<std::vector<EpochFeatures>> epoch_log;
  int shards_used = 0;
};

Outcome run_with_shards(const SimSetup& base, PolicyKind kind,
                        const Trace& trace, int shard_threads) {
  SimSetup setup = base;
  setup.noc.shard_threads = shard_threads;
  setup.noc.collect_epoch_log = true;
  const Topology topo = setup.make_topology();
  auto policy = make_policy(kind, topo.num_routers(),
                            policy_uses_ml(kind)
                                ? std::optional<WeightVector>(
                                      passthrough_weights())
                                : std::nullopt);
  PowerModel power;
  SimoLdoRegulator regulator;
  Network net(topo, setup.noc, *policy, power, regulator);
  if (setup.run_to_drain)
    net.run_until_drained(trace, setup.max_drain_tick());
  else
    net.run(trace, setup.end_tick());
  return {net.metrics(), net.epoch_log(), net.shards_used()};
}

/// The expected outcomes a sharded run must match: the legacy linear
/// kernel's run (the independent reference) and the sequential indexed
/// kernel's.
std::vector<Outcome> reference_runs(const SimSetup& setup, PolicyKind kind,
                                    const Trace& trace) {
  SimSetup legacy = setup;
  legacy.noc.legacy_linear_kernel = true;
  std::vector<Outcome> refs;
  refs.push_back(run_with_shards(legacy, kind, trace, 1));
  refs.push_back(run_with_shards(setup, kind, trace, 1));
  for (const Outcome& ref : refs) EXPECT_EQ(ref.shards_used, 1);
  return refs;
}

using ShardParam = std::tuple<PolicyKind, Variant>;

class ShardEquivalenceTest : public ::testing::TestWithParam<ShardParam> {};

// Fixed-window runs at 2, 4 and 8 shards against the sequential engines.
// Both policies here have gating off, so the runs must actually engage:
// a silent fallback would make the comparison pass vacuously, hence the
// shards_used() assertions.
TEST_P(ShardEquivalenceTest, ShardedMatchesSequentialBitForBit) {
  const auto [kind, variant] = GetParam();
  const SimSetup setup = make_setup(variant, /*drain=*/false);
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  const std::vector<Outcome> refs = reference_runs(setup, kind, trace);
  for (int shards : {2, 4, 8}) {
    SCOPED_TRACE(shards);
    const Outcome par = run_with_shards(setup, kind, trace, shards);
    EXPECT_EQ(par.shards_used, shards);
    for (const Outcome& ref : refs) {
      expect_metrics_identical(ref.metrics, par.metrics);
      expect_epoch_logs_identical(ref.epoch_log, par.epoch_log);
    }
  }
}

// Run-to-drain: the parallel phase hands the tail to the sequential
// engine once the trace is exhausted; the stop tick and the drained
// report must come out identical.
TEST_P(ShardEquivalenceTest, ShardedMatchesSequentialRunToDrain) {
  const auto [kind, variant] = GetParam();
  const SimSetup setup = make_setup(variant, /*drain=*/true);
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  const std::vector<Outcome> refs = reference_runs(setup, kind, trace);
  for (int shards : {2, 8}) {
    SCOPED_TRACE(shards);
    const Outcome par = run_with_shards(setup, kind, trace, shards);
    EXPECT_EQ(par.shards_used, shards);
    for (const Outcome& ref : refs) {
      expect_metrics_identical(ref.metrics, par.metrics);
      expect_epoch_logs_identical(ref.epoch_log, par.epoch_log);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EligiblePolicies, ShardEquivalenceTest,
    ::testing::Combine(::testing::Values(PolicyKind::kBaseline,
                                         PolicyKind::kLeadTau),
                       ::testing::Values(Variant::kMeshSingleVc,
                                         Variant::kMeshNoAutoResp,
                                         Variant::kTorus)),
    [](const ::testing::TestParamInfo<ShardParam>& info) {
      return sanitize(policy_name(std::get<0>(info.param)) + "_" +
                      variant_name(std::get<1>(info.param)));
    });

// Gating policies couple shards at zero lookahead, so a sharded request
// must fall back to the sequential engine — visibly, and with a report
// identical to an explicit sequential run.
TEST(ShardFallback, GatingPoliciesFallBackToSequential) {
  const SimSetup setup = make_setup(Variant::kMeshSingleVc, /*drain=*/false);
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  for (PolicyKind kind : {PolicyKind::kPowerGate, PolicyKind::kDozzNoc,
                          PolicyKind::kMlTurbo}) {
    SCOPED_TRACE(policy_name(kind));
    const Outcome seq = run_with_shards(setup, kind, trace, 1);
    const Outcome par = run_with_shards(setup, kind, trace, 4);
    EXPECT_EQ(par.shards_used, 1);
    expect_metrics_identical(seq.metrics, par.metrics);
    expect_epoch_logs_identical(seq.epoch_log, par.epoch_log);
  }
}

// The armed-but-zero-rate fault layer is ineligible too (one global RNG
// stream in event order): sharded request falls back, and since zero
// rates are invisible the report still matches the faults-off run.
TEST(ShardFallback, ArmedFaultsFallBackBitIdentical) {
  const SimSetup setup = make_setup(Variant::kMeshSingleVc, /*drain=*/true);
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  const Outcome off = run_with_shards(setup, PolicyKind::kBaseline, trace, 4);
  EXPECT_EQ(off.shards_used, 4);
  SimSetup armed = setup;
  armed.noc.faults.enabled = true;
  const Outcome on = run_with_shards(armed, PolicyKind::kBaseline, trace, 4);
  EXPECT_EQ(on.shards_used, 1);
  expect_metrics_identical(off.metrics, on.metrics);
  expect_epoch_logs_identical(off.epoch_log, on.epoch_log);
}

// Checkpoints are written in canonical router order and carry no shard
// plan, so a run interrupted under N shards must continue under M shards
// (including M = 1) to the same final report as the uninterrupted
// sequential run.
TEST(ShardCheckpoint, SavedUnderNShardsResumesUnderMShards) {
  const SimSetup base = make_setup(Variant::kMeshSingleVc, /*drain=*/false);
  const Trace trace = make_benchmark_trace(base, "fft", kCompressedFactor);
  const Outcome seq = run_with_shards(base, PolicyKind::kLeadTau, trace, 1);

  const std::string path =
      ::testing::TempDir() + "dozz_shard_xresume.ckpt";
  auto run_resumed = [&](int save_shards, int resume_shards) {
    // First leg: run under `save_shards`, checkpoint and stop at epoch 3.
    SimSetup setup = base;
    setup.noc.shard_threads = save_shards;
    setup.noc.collect_epoch_log = true;
    const Topology topo = setup.make_topology();
    auto policy = make_policy(PolicyKind::kLeadTau, topo.num_routers(),
                              passthrough_weights());
    PowerModel power;
    SimoLdoRegulator regulator;
    Network net(topo, setup.noc, *policy, power, regulator);
    net.set_epoch_hook([&path](Network& n, Tick, std::uint64_t epochs) {
      if (epochs < 3) return true;
      save_checkpoint_file(n, path);
      return false;
    });
    net.run(trace, setup.end_tick());
    EXPECT_TRUE(net.interrupted());
    EXPECT_EQ(net.shards_used(), save_shards);

    // Second leg: restore into a fresh network under `resume_shards`.
    SimSetup setup2 = base;
    setup2.noc.shard_threads = resume_shards;
    setup2.noc.collect_epoch_log = true;
    auto policy2 = make_policy(PolicyKind::kLeadTau, topo.num_routers(),
                               passthrough_weights());
    Network net2(topo, setup2.noc, *policy2, power, regulator);
    restore_checkpoint_file(net2, path);
    net2.run(trace, setup2.end_tick());
    EXPECT_EQ(net2.shards_used(),
              resume_shards > 1 ? resume_shards : 1);
    return Outcome{net2.metrics(), net2.epoch_log(), net2.shards_used()};
  };

  for (const auto [save_shards, resume_shards] :
       {std::pair{3, 1}, std::pair{3, 4}, std::pair{1, 3}}) {
    SCOPED_TRACE(std::to_string(save_shards) + "->" +
                 std::to_string(resume_shards));
    const Outcome resumed = run_resumed(save_shards, resume_shards);
    expect_metrics_identical(seq.metrics, resumed.metrics);
    expect_epoch_logs_identical(seq.epoch_log, resumed.epoch_log);
  }
}

// Thread-sanitizer smoke (the `tsan_shard_smoke` ctest runs exactly this
// suite under -DDOZZ_SANITIZE=thread): a loaded 16x16 mesh under 8
// shards, long enough for windows, epochs and cross-shard traffic to
// interleave on real threads.
TEST(ShardTsan, Loaded16x16MeshUnderEightShards) {
  SimSetup setup;
  setup.topology = "mesh16";
  setup.duration_cycles = 1500;
  setup.noc.epoch_cycles = 500;
  setup.noc.vcs_per_port = 1;
  setup.noc.shard_threads = 8;
  configure_topology(setup.topology, "", &setup.noc);
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  const Outcome par = run_with_shards(setup, PolicyKind::kLeadTau, trace, 8);
  EXPECT_EQ(par.shards_used, 8);
  EXPECT_GT(par.metrics.packets_delivered, 0u);
}

}  // namespace
}  // namespace dozz
