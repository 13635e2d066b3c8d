// The sharded engine must replay the sequential indexed kernel — and the
// linear-scan reference kernel (tests/linear_kernel.hpp), which shares
// none of the event-lane code the other two run — bit for bit at every
// thread count: identical metrics (down to RunningStat internals) and
// identical epoch logs for every eligible configuration,
// in fixed-window and run-to-drain modes, on mesh and torus, and across
// checkpoints taken under one shard count and restored under another. At
// every epoch boundary of a Baseline run the router and NIC records match
// the sequential engine's too, and so do the metrics the hook reads.
// Ineligible configurations (gating policies, armed faults) must fall
// back to the sequential engine — also bit-identically, and visibly via
// Network::shards_used() so an equivalence pass can never be a fallback
// in disguise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "src/ckpt/checkpoint.hpp"
#include "src/core/policies.hpp"
#include "src/sim/registries.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/setup.hpp"
#include "tests/linear_kernel.hpp"

namespace dozz {
namespace {

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

/// One run under `shard_threads`, or on the linear reference kernel when
/// `linear`.
Outcome run_with_shards(const SimSetup& base, PolicyKind kind,
                        const Trace& trace, int shard_threads,
                        bool linear = false) {
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
  drive(net, setup, trace, linear);
  return {net.metrics(), net.epoch_log(), net.shards_used()};
}

/// The expected outcomes a sharded run must match: the linear reference
/// kernel's run (the independent reference) and the sequential indexed
/// kernel's.
std::vector<Outcome> reference_runs(const SimSetup& setup, PolicyKind kind,
                                    const Trace& trace) {
  std::vector<Outcome> refs;
  refs.push_back(run_with_shards(setup, kind, trace, 1, /*linear=*/true));
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

/// Runs `base` under `save_shards` to epoch 3, checkpoints and stops, then
/// restores into a fresh network under `resume_shards` and finishes the
/// run. `most_pending`, when given, receives the most responses any NIC
/// held pending at the save point.
Outcome run_resumed(const SimSetup& base, PolicyKind kind, const Trace& trace,
                    int save_shards, int resume_shards,
                    std::size_t* most_pending = nullptr) {
  const std::string path = ::testing::TempDir() + "dozz_shard_resume_" +
                           sanitize(policy_name(kind)) + "_" +
                           std::to_string(save_shards) + "_" +
                           std::to_string(resume_shards) + ".ckpt";
  SimSetup setup = base;
  setup.noc.collect_epoch_log = true;
  const Topology topo = setup.make_topology();
  PowerModel power;
  SimoLdoRegulator regulator;
  {
    // First leg: run under `save_shards`, checkpoint and stop at epoch 3.
    setup.noc.shard_threads = save_shards;
    auto policy = make_policy(kind, topo.num_routers(), passthrough_weights());
    Network net(topo, setup.noc, *policy, power, regulator);
    net.set_epoch_hook([&](Network& n, Tick, std::uint64_t epochs) {
      if (epochs < 3) return true;
      if (most_pending != nullptr)
        for (RouterId r = 0; r < topo.num_routers(); ++r)
          *most_pending =
              std::max(*most_pending, n.nic(r).pending_response_count());
      save_checkpoint_file(n, path);
      return false;
    });
    net.run(trace, setup.end_tick());
    EXPECT_TRUE(net.interrupted());
    EXPECT_EQ(net.shards_used(), save_shards);
  }
  // Second leg: restore into a fresh network under `resume_shards`.
  setup.noc.shard_threads = resume_shards;
  auto policy = make_policy(kind, topo.num_routers(), passthrough_weights());
  Network net(topo, setup.noc, *policy, power, regulator);
  restore_checkpoint_file(net, path);
  net.run(trace, setup.end_tick());
  EXPECT_EQ(net.shards_used(), resume_shards);
  std::remove(path.c_str());
  return {net.metrics(), net.epoch_log(), net.shards_used()};
}

// Checkpoints are written in canonical router order and carry no shard
// plan, so a run interrupted under N shards must continue under M shards
// (including M = 1) to the same final report as the uninterrupted
// sequential run.
TEST(ShardCheckpoint, SavedUnderNShardsResumesUnderMShards) {
  const SimSetup base = make_setup(Variant::kMeshSingleVc, /*drain=*/false);
  const Trace trace = make_benchmark_trace(base, "fft", kCompressedFactor);
  const Outcome seq = run_with_shards(base, PolicyKind::kLeadTau, trace, 1);
  for (const auto& [save_shards, resume_shards] :
       {std::pair{3, 1}, std::pair{3, 4}, std::pair{1, 3}}) {
    SCOPED_TRACE(std::to_string(save_shards) + "->" +
                 std::to_string(resume_shards));
    const Outcome resumed = run_resumed(base, PolicyKind::kLeadTau, trace,
                                        save_shards, resume_shards);
    expect_metrics_identical(seq.metrics, resumed.metrics);
    expect_epoch_logs_identical(seq.epoch_log, resumed.epoch_log);
  }
}

// The fixed-window cases of ShardedMatchesSequentialBitForBit cannot see
// a lane that loses mature_due's republish of a NIC's next response: each
// response is pushed into its lane when it is scheduled, at ejection, so
// the republish only matters after EventLane::seed(), which publishes
// just each NIC's earliest pending response. A fresh run seeds with
// nothing pending, and a fixed-window sharded run's sequential tail exits
// at once, so no seeded NIC ever holds two pending responses there (only
// the run-to-drain tail seeds mid-traffic). A resume seeds mid-traffic:
// this fixed-window case saves while some NIC holds several pending
// responses and resumes under shards, against both references.
TEST(ShardCheckpoint, FixedWindowResumeSeedsSeveralPendingResponses) {
  const SimSetup base = make_setup(Variant::kMeshSingleVc, /*drain=*/false);
  const Trace trace = make_benchmark_trace(base, "fft", kCompressedFactor);
  const std::vector<Outcome> refs =
      reference_runs(base, PolicyKind::kBaseline, trace);
  for (int resume_shards : {2, 4, 8}) {
    SCOPED_TRACE(resume_shards);
    std::size_t most_pending = 0;
    const Outcome resumed =
        run_resumed(base, PolicyKind::kBaseline, trace, /*save_shards=*/1,
                    resume_shards, &most_pending);
    ASSERT_GE(most_pending, 2u)
        << "no NIC held two pending responses at the save point, so the "
           "resume would not exercise the republish";
    for (const Outcome& ref : refs) {
      expect_metrics_identical(ref.metrics, resumed.metrics);
      expect_epoch_logs_identical(ref.epoch_log, resumed.epoch_log);
    }
  }
}

/// What the epoch hook sees at one boundary: the run metrics and every
/// router's and NIC's checkpoint record (records[2 * id] is router `id`,
/// records[2 * id + 1] its NIC).
struct Boundary {
  NetworkMetrics metrics;
  std::vector<std::vector<unsigned char>> records;
};

/// Every epoch boundary of one Baseline run under `shard_threads`.
std::vector<Boundary> boundaries(const SimSetup& base, const Trace& trace,
                                 int shard_threads, int* shards_used) {
  SimSetup setup = base;
  setup.noc.shard_threads = shard_threads;
  const Topology topo = setup.make_topology();
  auto policy = make_policy(PolicyKind::kBaseline, topo.num_routers());
  PowerModel power;
  SimoLdoRegulator regulator;
  Network net(topo, setup.noc, *policy, power, regulator);
  std::vector<Boundary> seen;
  net.set_epoch_hook([&](Network& n, Tick, std::uint64_t) {
    Boundary& at = seen.emplace_back();
    at.metrics = n.metrics();
    for (RouterId r = 0; r < topo.num_routers(); ++r) {
      CkptWriter rw;
      n.router(r).save_state(rw);
      at.records.push_back(rw.bytes());
      CkptWriter nw;
      n.nic(r).walk_state(nw);
      at.records.push_back(nw.bytes());
    }
    return true;
  });
  drive(net, setup, trace, /*linear=*/false);
  *shards_used = net.shards_used();
  return seen;
}

// An epoch boundary runs on the coordinator as one sequential kernel
// event, so every router and NIC record at every boundary equals the
// sequential engine's, byte for byte. A boundary that stepped its clock
// edges in parallel would leave the receivers of cross-shard flits with
// idle counters the sequential engine never produces: the sender's flit
// would still wait in an outbox while they step. Baseline only: under
// DVFS a slower receiver can carry such an idle_cycles_ lag from inside a
// window across a boundary (DESIGN.md §11).
// The hook also sees the sequential engine's metrics: the lanes' tallies
// are folded before it runs. mesh_vc1 sends responses, so its pending
// counts and ids go through the tallies too; its records are not compared,
// because response ids differ under shards by design.
TEST(ShardBoundary, RecordsMatchSequentialAtEveryBoundary) {
  for (Variant variant : {Variant::kMeshNoAutoResp, Variant::kMeshSingleVc})
    for (bool drain : {false, true}) {
      SCOPED_TRACE(std::string(variant_name(variant)) +
                   (drain ? ", drain" : ", fixed window"));
      SimSetup setup = make_setup(variant, drain);
      setup.noc.epoch_cycles = 100;
      const Trace trace =
          make_benchmark_trace(setup, "fft", kCompressedFactor);
      int used = 0;
      const auto seq = boundaries(setup, trace, 1, &used);
      ASSERT_GT(seq.size(), 20u);
      for (int shards : {2, 4, 8}) {
        SCOPED_TRACE(shards);
        const auto par = boundaries(setup, trace, shards, &used);
        EXPECT_EQ(used, shards);
        ASSERT_EQ(par.size(), seq.size());
        std::size_t differing = 0;
        std::string first;
        for (std::size_t b = 0; b < seq.size(); ++b) {
          SCOPED_TRACE("boundary " + std::to_string(b + 1));
          expect_metrics_identical(seq[b].metrics, par[b].metrics);
          if (variant != Variant::kMeshNoAutoResp) continue;
          for (std::size_t i = 0; i < seq[b].records.size(); ++i)
            if (par[b].records[i] != seq[b].records[i] && differing++ == 0)
              first = "boundary " + std::to_string(b + 1) + ", " +
                      (i % 2 == 0 ? "router " : "NIC ") +
                      std::to_string(i / 2);
        }
        EXPECT_EQ(differing, 0u) << "first difference: " << first;
      }
    }
}

// A boundary that throws does so on the coordinator while the workers
// are parked; the run must raise that exception, not hang or terminate.
TEST(ShardBoundary, ThrowingBoundaryPropagatesFromRun) {
  SimSetup setup = make_setup(Variant::kMeshNoAutoResp, /*drain=*/false);
  setup.noc.shard_threads = 4;
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  const Topology topo = setup.make_topology();
  auto policy = make_policy(PolicyKind::kBaseline, topo.num_routers());
  PowerModel power;
  SimoLdoRegulator regulator;
  Network net(topo, setup.noc, *policy, power, regulator);
  net.set_epoch_hook([](Network&, Tick now, std::uint64_t epochs) {
    if (epochs == 2) throw SimStallError("hook stop at epoch 2", now);
    return true;
  });
  try {
    net.run(trace, setup.end_tick());
    ADD_FAILURE() << "the run finished despite the throwing hook";
  } catch (const SimStallError& e) {
    EXPECT_STREQ(e.what(), "hook stop at epoch 2");
    EXPECT_EQ(e.stall_tick(), 2 * setup.noc.epoch_ticks());
  }
  EXPECT_EQ(net.shards_used(), 4);
}

// Thread-sanitizer smoke (the `tsan_shard_smoke` ctest runs this suite
// and ShardBoundary under -DDOZZ_SANITIZE=thread): a loaded 16x16 mesh
// under 8 shards, long enough for windows, epochs and cross-shard traffic
// to interleave on real threads.
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
