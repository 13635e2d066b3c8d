// Fault-injection and resilience layer tests: deterministic injection,
// CRC detection + retransmission accounting, graceful policy degradation,
// and the no-progress watchdog. The bit-identity of a disabled/zero-rate
// fault layer is proven separately in test_kernel_equivalence.cpp.
#include <gtest/gtest.h>

#include <cstring>

#include "src/common/error.hpp"
#include "src/core/policies.hpp"
#include "src/faults/crc.hpp"
#include "src/faults/fault_injector.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/setup.hpp"
#include "tests/linear_kernel.hpp"

namespace dozz {
namespace {

// --- CRC primitives ---

TEST(Crc16, KnownAnswer) {
  // CRC-16/CCITT-FALSE check value: crc("123456789") == 0x29B1.
  const char* msg = "123456789";
  EXPECT_EQ(crc16(reinterpret_cast<const std::uint8_t*>(msg),
                  std::strlen(msg)),
            0x29B1);
}

TEST(Crc16, FlitCrcCoversIdentity) {
  Flit a;
  a.packet_id = 42;
  a.src_core = 3;
  a.dst_core = 17;
  a.packet_size_flits = 5;
  a.inject_tick = 123456;
  a.is_head = true;
  const std::uint16_t base = flit_crc(a);

  Flit b = a;
  b.packet_id = 43;
  EXPECT_NE(flit_crc(b), base);
  b = a;
  b.dst_core = 18;
  EXPECT_NE(flit_crc(b), base);
  b = a;
  b.retry = 1;
  EXPECT_NE(flit_crc(b), base);
  b = a;
  b.is_tail = true;
  EXPECT_NE(flit_crc(b), base);
  // Routing-mutable state must NOT feed the CRC (it changes in flight).
  b = a;
  b.hops = 7;
  EXPECT_EQ(flit_crc(b), base);
}

// --- Injector ---

FaultConfig nonzero_config() {
  FaultConfig f;
  f.enabled = true;
  f.link_bit_flip_rate = 0.01;
  f.wake_drop_rate = 0.02;
  f.wake_delay_rate = 0.02;
  f.stuck_gate_rate = 0.01;
  f.mode_switch_fail_rate = 0.01;
  f.droop_rate = 0.01;
  return f;
}

TEST(FaultInjector, FixedSeedReproducesDrawSequence) {
  const SimoLdoRegulator reg;
  const FaultConfig f = nonzero_config();
  FaultInjector a(f, reg);
  FaultInjector b(f, reg);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.corrupt_link_flit(), b.corrupt_link_flit());
    EXPECT_EQ(a.drop_wake(), b.drop_wake());
    EXPECT_EQ(a.wake_extra_ticks(), b.wake_extra_ticks());
    EXPECT_EQ(a.stick_gate(), b.stick_gate());
    EXPECT_EQ(a.fail_mode_switch(), b.fail_mode_switch());
    EXPECT_EQ(a.droop(), b.droop());
  }
  EXPECT_EQ(a.stats().total_injected(), b.stats().total_injected());
}

TEST(FaultInjector, RejectsOutOfRangeRates) {
  const SimoLdoRegulator reg;
  FaultConfig f;
  f.link_bit_flip_rate = 1.5;
  EXPECT_THROW(FaultInjector(f, reg), PreconditionError);
  f = FaultConfig{};
  f.wake_drop_rate = -0.1;
  EXPECT_THROW(FaultInjector(f, reg), PreconditionError);
}

TEST(FaultInjector, BackoffDoublesPerRetry) {
  const SimoLdoRegulator reg;
  FaultConfig f;
  f.retx_backoff_ns = 50.0;
  const FaultInjector inj(f, reg);
  EXPECT_EQ(inj.retx_backoff_ticks(0), ticks_from_ns(50.0));
  EXPECT_EQ(inj.retx_backoff_ticks(1), ticks_from_ns(100.0));
  EXPECT_EQ(inj.retx_backoff_ticks(3), ticks_from_ns(400.0));
}

TEST(FaultInjector, DroopStallCoversRecovery) {
  const SimoLdoRegulator reg;
  FaultConfig f;
  f.droop_depth_v = 0.2;
  const FaultInjector inj(f, reg);
  // Recovering a 200 mV droop takes real time at every operating point.
  for (int m = 0; m < kNumVfModes; ++m)
    EXPECT_GT(inj.droop_stall_ticks(mode_from_index(m)), 0u);
}

// --- Whole-network resilience ---

RunOutcome run_faulty(const FaultConfig& faults, bool linear,
                      int watchdog_epochs = 0) {
  SimSetup setup;
  setup.duration_cycles = 6000;
  setup.run_to_drain = true;
  setup.noc.epoch_cycles = 500;
  setup.noc.faults = faults;
  setup.noc.watchdog_epochs = watchdog_epochs;
  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  auto policy = make_reactive_twin(PolicyKind::kDozzNoc,
                                   setup.make_topology().num_routers());
  return run_simulation_on(linear, setup, *policy, trace);
}

/// Every corrupted packet instance must be retransmitted or declared lost,
/// and the drain invariant must balance: nothing hangs, nothing is
/// silently dropped.
void expect_accounting_closed(const NetworkMetrics& m) {
  const FaultStats& f = m.faults;
  EXPECT_EQ(f.retransmissions + f.packets_lost, f.packets_corrupted);
  EXPECT_EQ(m.packets_delivered + f.packets_corrupted, m.packets_offered);
}

TEST(FaultResilience, CrcRetransmissionClosesAccounting) {
  FaultConfig f;
  f.enabled = true;
  f.link_bit_flip_rate = 0.005;
  const RunOutcome out = run_faulty(f, /*linear=*/false);
  const FaultStats& stats = out.metrics.faults;
  ASSERT_GT(stats.flits_corrupted, 0u) << "rate too low to exercise CRC";
  EXPECT_GT(stats.packets_corrupted, 0u);
  EXPECT_GT(stats.retransmissions, 0u);
  expect_accounting_closed(out.metrics);
}

TEST(FaultResilience, RetryBudgetBoundsLoss) {
  FaultConfig f;
  f.enabled = true;
  f.link_bit_flip_rate = 0.20;  // Brutal: most packets need several tries.
  f.max_retries = 1;
  const RunOutcome out = run_faulty(f, /*linear=*/false);
  const FaultStats& stats = out.metrics.faults;
  EXPECT_GT(stats.packets_lost, 0u);
  // A packet instance may be retried at most max_retries times.
  EXPECT_LE(stats.retransmissions,
            stats.packets_corrupted);
  expect_accounting_closed(out.metrics);
}

TEST(FaultResilience, FixedSeedRunsAreIdentical) {
  const FaultConfig f = nonzero_config();
  const RunOutcome a = run_faulty(f, /*linear=*/false);
  const RunOutcome b = run_faulty(f, /*linear=*/false);
  EXPECT_EQ(a.metrics.packets_delivered, b.metrics.packets_delivered);
  EXPECT_EQ(a.metrics.sim_ticks, b.metrics.sim_ticks);
  EXPECT_EQ(a.metrics.static_energy_j, b.metrics.static_energy_j);
  EXPECT_EQ(a.metrics.dynamic_energy_j, b.metrics.dynamic_energy_j);
  EXPECT_EQ(a.metrics.faults.total_injected(),
            b.metrics.faults.total_injected());
  EXPECT_EQ(a.metrics.faults.retransmissions, b.metrics.faults.retransmissions);
  EXPECT_EQ(a.metrics.faults.packets_lost, b.metrics.faults.packets_lost);
}

TEST(FaultResilience, KernelsStayEquivalentUnderFaults) {
  const FaultConfig f = nonzero_config();
  const RunOutcome linear = run_faulty(f, /*linear=*/true);
  const RunOutcome indexed = run_faulty(f, /*linear=*/false);
  EXPECT_EQ(linear.metrics.packets_delivered,
            indexed.metrics.packets_delivered);
  EXPECT_EQ(linear.metrics.sim_ticks, indexed.metrics.sim_ticks);
  EXPECT_EQ(linear.metrics.flits_delivered, indexed.metrics.flits_delivered);
  EXPECT_EQ(linear.metrics.faults.total_injected(),
            indexed.metrics.faults.total_injected());
  EXPECT_EQ(linear.metrics.faults.packets_corrupted,
            indexed.metrics.faults.packets_corrupted);
  EXPECT_EQ(linear.metrics.faults.retransmissions,
            indexed.metrics.faults.retransmissions);
  expect_accounting_closed(linear.metrics);
  expect_accounting_closed(indexed.metrics);
}

TEST(FaultResilience, RepeatedWakeLossDegradesGating) {
  FaultConfig f;
  f.enabled = true;
  f.wake_drop_rate = 0.9;  // Most wakes lost; retries eventually succeed.
  f.wake_loss_threshold = 3;
  const RunOutcome out = run_faulty(f, /*linear=*/false);
  EXPECT_GT(out.metrics.faults.wakes_dropped, 0u);
  EXPECT_GT(out.metrics.faults.routers_gating_degraded, 0u);
  // Degradation keeps the run healthy: everything still drains.
  EXPECT_EQ(out.metrics.packets_delivered, out.metrics.packets_offered);
}

TEST(FaultResilience, RepeatedRegulatorFaultsPinNominal) {
  FaultConfig f;
  f.enabled = true;
  f.mode_switch_fail_rate = 0.8;
  f.regulator_fault_threshold = 3;
  const RunOutcome out = run_faulty(f, /*linear=*/false);
  EXPECT_GT(out.metrics.faults.mode_switch_failures, 0u);
  EXPECT_GT(out.metrics.faults.routers_pinned_nominal, 0u);
  EXPECT_EQ(out.metrics.packets_delivered, out.metrics.packets_offered);
}

TEST(FaultResilience, DroopsForceNominalAndRecover) {
  FaultConfig f;
  f.enabled = true;
  f.droop_rate = 0.5;
  f.regulator_fault_threshold = 4;
  const RunOutcome out = run_faulty(f, /*linear=*/false);
  EXPECT_GT(out.metrics.faults.droops, 0u);
  EXPECT_EQ(out.metrics.packets_delivered, out.metrics.packets_offered);
}

TEST(FaultResilience, StuckGateRefusesThenRecovers) {
  FaultConfig f;
  f.enabled = true;
  f.stuck_gate_rate = 0.5;
  f.stuck_gate_cycles = 32;
  const RunOutcome out = run_faulty(f, /*linear=*/false);
  EXPECT_GT(out.metrics.faults.stuck_gatings, 0u);
  EXPECT_EQ(out.metrics.packets_delivered, out.metrics.packets_offered);
}

// --- Watchdog ---

TEST(Watchdog, ThrowsTypedErrorOnTotalWakeLoss) {
  FaultConfig f;
  f.enabled = true;
  f.wake_drop_rate = 1.0;     // No gated router ever wakes again...
  f.wake_loss_threshold = 1000000;  // ...and degradation never rescues it.
  try {
    run_faulty(f, /*linear=*/false, /*watchdog_epochs=*/8);
    FAIL() << "expected SimStallError";
  } catch (const SimStallError& e) {
    // The runner prefixes the failing policy and trace for sweep triage.
    EXPECT_NE(std::string(e.what()).find("stalled"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("DozzNoC-reactive"),
              std::string::npos);
    EXPECT_GT(e.stall_tick(), 0u);
  }
}

TEST(Watchdog, DefaultsOnWhenFaultsEnabled) {
  SimSetup setup;
  setup.noc.faults.enabled = true;
  SimoLdoRegulator reg;
  BaselinePolicy policy;
  PowerModel power;
  const Topology topo = setup.make_topology();
  Network net(topo, setup.noc, policy, power, reg);
  EXPECT_EQ(net.watchdog_epochs(), 64);

  setup.noc.watchdog_epochs = -1;  // Explicitly off even with faults.
  Network off(topo, setup.noc, policy, power, reg);
  EXPECT_EQ(off.watchdog_epochs(), 0);

  setup.noc.watchdog_epochs = 7;
  Network on(topo, setup.noc, policy, power, reg);
  EXPECT_EQ(on.watchdog_epochs(), 7);
}

TEST(Watchdog, OffByDefaultWithoutFaults) {
  SimSetup setup;
  SimoLdoRegulator reg;
  BaselinePolicy policy;
  PowerModel power;
  const Topology topo = setup.make_topology();
  Network net(topo, setup.noc, policy, power, reg);
  EXPECT_EQ(net.watchdog_epochs(), 0);
}

// --- Policy degradation API ---

TEST(PowerControllerDegradation, TracksPerRouterState) {
  BaselinePolicy p;
  EXPECT_FALSE(p.gating_degraded(3));
  EXPECT_FALSE(p.pinned_nominal(3));
  p.degrade_gating(3);
  p.pin_nominal(5);
  EXPECT_TRUE(p.gating_degraded(3));
  EXPECT_FALSE(p.gating_degraded(5));
  EXPECT_TRUE(p.pinned_nominal(5));
  EXPECT_EQ(p.degraded_router_count(), 2);
  // Idempotent.
  p.degrade_gating(3);
  EXPECT_EQ(p.degraded_router_count(), 2);
}

TEST(PowerControllerDegradation, PinnedDomainSelectsNominal) {
  ReactiveDvfsPolicy p("test", /*gating=*/true, /*turbo=*/false,
                       /*num_routers=*/16);
  EpochFeatures idle;
  idle.current_ibu = 0.0;  // Fully idle: would normally pick a low mode.
  const VfMode free_mode = p.select_mode(2, idle);
  EXPECT_NE(free_mode, kNominalMode);
  p.pin_nominal(2);
  EXPECT_EQ(p.select_mode(2, idle), kNominalMode);
  // Other routers are unaffected.
  EXPECT_EQ(p.select_mode(3, idle), free_mode);
}

}  // namespace
}  // namespace dozz
