// Tests for the ablation baselines: oracle DVFS, global VFI DVFS, and the
// EDP metric.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/core/baselines.hpp"
#include "src/sim/oracle.hpp"
#include "src/sim/registries.hpp"
#include "src/sim/replicate.hpp"
#include "src/sim/runner.hpp"
#include "src/trafficgen/patterns.hpp"

namespace dozz {
namespace {

EpochFeatures with_ibu(double ibu) {
  EpochFeatures f;
  f.current_ibu = ibu;
  return f;
}

TEST(OraclePolicy, ReadsTheFutureFromTheTrajectory) {
  // Trajectory: window 0 has IBU 0.01 (M3), window 1 has 0.15 (M5),
  // window 2 has 0.30 (M7).
  IbuTrajectory traj = {{0.01, 0.01}, {0.15, 0.15}, {0.30, 0.30}};
  OracleDvfsPolicy oracle(traj, /*gating=*/false, 2);

  // After window 0 ends, the oracle selects for window 1 -> M5.
  oracle.on_epoch_begin(0);
  EXPECT_EQ(oracle.select_mode(0, with_ibu(0.0)), VfMode::kV10);
  // After window 1, selecting for window 2 -> M7.
  oracle.on_epoch_begin(1);
  EXPECT_EQ(oracle.select_mode(1, with_ibu(0.0)), VfMode::kV12);
  // Beyond the trajectory: hold the last value.
  oracle.on_epoch_begin(7);
  EXPECT_EQ(oracle.select_mode(0, with_ibu(0.0)), VfMode::kV12);
}

TEST(OraclePolicy, ValidatesShape) {
  EXPECT_THROW(OracleDvfsPolicy({}, false, 2), PreconditionError);
  EXPECT_THROW(OracleDvfsPolicy({{0.1}}, false, 2), PreconditionError);
}

TEST(OraclePolicy, GatingFlagPropagates) {
  IbuTrajectory traj = {{0.0}};
  EXPECT_TRUE(OracleDvfsPolicy(traj, true, 1).gating_enabled());
  EXPECT_FALSE(OracleDvfsPolicy(traj, false, 1).gating_enabled());
  EXPECT_FALSE(OracleDvfsPolicy(traj, false, 1).uses_ml());
}

TEST(GlobalVfi, FollowsNetworkWideMaxWithOneWindowLag) {
  GlobalDvfsPolicy vfi(/*gating=*/false);
  // First window: nothing recorded yet -> previous max 0 -> M3.
  vfi.on_epoch_begin(0);
  EXPECT_EQ(vfi.select_mode(0, with_ibu(0.30)), VfMode::kV08);
  EXPECT_EQ(vfi.select_mode(1, with_ibu(0.02)), VfMode::kV08);
  // Next window: previous max was 0.30 -> everyone at M7.
  vfi.on_epoch_begin(1);
  EXPECT_EQ(vfi.select_mode(0, with_ibu(0.0)), VfMode::kV12);
  EXPECT_EQ(vfi.select_mode(1, with_ibu(0.0)), VfMode::kV12);
  // And after a quiet window, back down.
  vfi.on_epoch_begin(2);
  EXPECT_EQ(vfi.select_mode(0, with_ibu(0.0)), VfMode::kV08);
}

TEST(Trajectory, ExtractsIbuColumn) {
  std::vector<std::vector<EpochFeatures>> log(2,
                                              std::vector<EpochFeatures>(3));
  log[0][1].current_ibu = 0.5;
  log[1][2].current_ibu = 0.7;
  const IbuTrajectory t = trajectory_from_log(log);
  ASSERT_EQ(t.size(), 2u);
  ASSERT_EQ(t[0].size(), 3u);
  EXPECT_DOUBLE_EQ(t[0][1], 0.5);
  EXPECT_DOUBLE_EQ(t[1][2], 0.7);
}

TEST(OracleRun, EndToEndDeliversAndSaves) {
  SimSetup setup;
  setup.topology = "cmesh";
  configure_topology(setup.topology, "", &setup.noc);
  setup.duration_cycles = 6000;
  setup.noc.epoch_cycles = 250;
  const Trace trace = make_benchmark_trace(setup, "lu");
  const NetworkMetrics base =
      run_policy(setup, PolicyKind::kBaseline, trace).metrics;
  const RunOutcome oracle = run_oracle(setup, trace, /*gating=*/true);
  EXPECT_GT(oracle.metrics.packets_delivered, 0u);
  EXPECT_EQ(oracle.metrics.packets_delivered, oracle.metrics.packets_offered);
  // Perfect future knowledge must save energy vs the always-max baseline.
  EXPECT_LT(oracle.metrics.static_energy_j, base.static_energy_j);
  EXPECT_LT(oracle.metrics.dynamic_energy_j, base.dynamic_energy_j);
  // And never computes ML labels.
  EXPECT_EQ(oracle.metrics.labels_computed, 0u);
}

TEST(Edp, MatchesEnergyTimesDelay) {
  NetworkMetrics m;
  m.sim_ticks = ticks_from_ns(1000.0);  // 1 us
  m.static_energy_j = 2e-6;
  m.dynamic_energy_j = 1e-6;
  m.ml_energy_j = 0.0;
  EXPECT_NEAR(m.energy_delay_product(), 3e-6 * 1e-6, 1e-18);
}

TEST(Edp, SlowerRunWithSameEnergyHasWorseEdp) {
  NetworkMetrics fast;
  fast.sim_ticks = ticks_from_ns(1000.0);
  fast.static_energy_j = 1e-6;
  NetworkMetrics slow = fast;
  slow.sim_ticks = ticks_from_ns(2000.0);
  EXPECT_GT(slow.energy_delay_product(), fast.energy_delay_product());
}


TEST(Replicate, AggregatesAcrossSeeds) {
  SimSetup setup;
  setup.topology = "cmesh";
  configure_topology(setup.topology, "", &setup.noc);
  setup.duration_cycles = 5000;
  setup.noc.epoch_cycles = 250;
  const ReplicatedResult r =
      run_replicated(setup, PolicyKind::kPowerGate, "lu", 1.0, 3);
  EXPECT_EQ(r.seeds, 3);
  EXPECT_EQ(r.static_savings.count(), 3u);
  // Savings are consistently positive across seeds, with spread well below
  // the mean (the metric is stable, not a fluke of one trace).
  EXPECT_GT(r.static_savings.mean(), 0.1);
  EXPECT_LT(r.static_savings.stddev(), r.static_savings.mean());
  EXPECT_GT(r.off_time_fraction.mean(), 0.1);
  EXPECT_THROW(run_replicated(setup, PolicyKind::kPowerGate, "lu", 1.0, 0),
               PreconditionError);
}


TEST(RouterParking, GatesOnlyAfterSilentEpochs) {
  RouterParkingPolicy p(4, /*silent_epochs_required=*/2);
  EXPECT_TRUE(p.gating_enabled());
  EXPECT_FALSE(p.uses_ml());
  EXPECT_FALSE(p.may_gate(0));  // no silent window observed yet

  EpochFeatures quiet;  // zero traffic
  EpochFeatures busy;
  busy.reqs_sent = 3;

  EXPECT_EQ(p.select_mode(0, quiet), kTopMode);
  EXPECT_FALSE(p.may_gate(0));  // one silent window
  p.select_mode(0, quiet);
  EXPECT_TRUE(p.may_gate(0));   // two in a row
  p.select_mode(0, busy);
  EXPECT_FALSE(p.may_gate(0));  // activity resets the counter
  // Router 1's counter is independent.
  EXPECT_FALSE(p.may_gate(1));
}

TEST(RouterParking, EndToEndParksLessAggressivelyThanPg) {
  SimSetup setup;
  setup.topology = "cmesh";
  configure_topology(setup.topology, "", &setup.noc);
  setup.duration_cycles = 8000;
  setup.noc.epoch_cycles = 250;
  const Trace trace = make_benchmark_trace(setup, "lu");
  const NetworkMetrics pg =
      run_policy(setup, PolicyKind::kPowerGate, trace).metrics;
  RouterParkingPolicy parking(16, 2);
  const NetworkMetrics rp = run_simulation(setup, parking, trace).metrics;
  EXPECT_EQ(rp.packets_delivered, rp.packets_offered);
  EXPECT_GT(rp.off_time_fraction, 0.02);
  // The epoch-granular silence requirement forfeits off time vs T-Idle
  // fine-grained gating, but wakes less often per off interval.
  EXPECT_LT(rp.off_time_fraction, pg.off_time_fraction);
  EXPECT_LT(rp.wakeups, pg.wakeups);
}

}  // namespace
}  // namespace dozz
