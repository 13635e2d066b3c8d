// End-to-end network tests: delivery, latency, credits, multi-clock
// operation, power-gating mechanics and epoch machinery.
#include <gtest/gtest.h>

#include "src/core/policies.hpp"
#include "src/noc/network.hpp"
#include "src/power/power_model.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/sim/registries.hpp"
#include "src/sim/runner.hpp"
#include "src/topology/topology.hpp"
#include "src/trafficgen/patterns.hpp"
#include "src/trafficgen/trace.hpp"

namespace dozz {
namespace {

struct Fixture {
  Topology topo = make_mesh(4, 4);
  NocConfig config;
  PowerModel power;
  SimoLdoRegulator regulator;

  Fixture() {
    config.auto_response = false;  // unless a test wants the protocol
  }

  NetworkMetrics run(PowerController& policy, const Trace& trace,
                     std::uint64_t cycles) {
    Network net(topo, config, policy, power, regulator);
    net.run(trace, cycles * kBaselinePeriodTicks);
    return net.metrics();
  }
};

Trace single_packet_trace(CoreId src, CoreId dst, double t_ns = 10.0) {
  Trace trace("single");
  trace.add({src, dst, false, t_ns});
  return trace;
}

TEST(Network, DeliversSinglePacket) {
  Fixture f;
  BaselinePolicy policy;
  const auto m = f.run(policy, single_packet_trace(0, 15), 2000);
  EXPECT_EQ(m.packets_offered, 1u);
  EXPECT_EQ(m.packets_delivered, 1u);
  EXPECT_EQ(m.flits_delivered, 1u);
  EXPECT_EQ(m.requests_delivered, 1u);
}

TEST(Network, SinglePacketLatencyIsPlausible) {
  Fixture f;
  BaselinePolicy policy;
  const auto m = f.run(policy, single_packet_trace(0, 15), 2000);
  // 6 hops across a 4x4 mesh diagonal; a handful of cycles per hop at
  // 2.25 GHz (0.444 ns) plus injection: order of 5-30 ns.
  ASSERT_EQ(m.packet_latency_ns.count(), 1u);
  EXPECT_GT(m.packet_latency_ns.mean(), 2.0);
  EXPECT_LT(m.packet_latency_ns.mean(), 40.0);
  EXPECT_DOUBLE_EQ(m.packet_hops.mean(), 7.0);  // 6 links + ejection
}

TEST(Network, DeliversToSameRouterCore) {
  // src and dst attached to the same router (cmesh): local turnaround.
  Topology topo = make_cmesh(2, 2, 4);
  NocConfig config;
  config.auto_response = false;
  PowerModel power;
  SimoLdoRegulator regulator;
  BaselinePolicy policy;
  Network net(topo, config, policy, power, regulator);
  Trace trace("local");
  trace.add({0, 1, false, 5.0});  // cores 0 and 1 share router 0
  net.run(trace, 1000 * kBaselinePeriodTicks);
  EXPECT_EQ(net.metrics().packets_delivered, 1u);
  EXPECT_DOUBLE_EQ(net.metrics().packet_hops.mean(), 1.0);
}

TEST(Network, MultiFlitResponseDelivered) {
  Fixture f;
  f.config.auto_response = true;
  f.config.response_delay_ns = 5.0;
  BaselinePolicy policy;
  const auto m = f.run(policy, single_packet_trace(0, 15), 4000);
  EXPECT_EQ(m.packets_delivered, 2u);
  EXPECT_EQ(m.requests_delivered, 1u);
  EXPECT_EQ(m.responses_delivered, 1u);
  EXPECT_EQ(m.flits_delivered,
            1u + static_cast<unsigned>(f.config.response_size_flits));
}

TEST(Network, AllPacketsDeliveredUnderUniformLoad) {
  Fixture f;
  BaselinePolicy policy;
  const Trace trace = generate_synthetic_trace(
      f.topo, uniform_pattern(f.topo.num_cores()), 0.01, 3000, 99);
  ASSERT_GT(trace.size(), 100u);
  const auto m = f.run(policy, trace, 6000);
  EXPECT_EQ(m.packets_delivered, m.packets_offered);
  EXPECT_EQ(m.packets_offered, trace.size());
}

TEST(Network, ConservationAcrossPolicies) {
  // Gating policies must still deliver every offered packet given enough
  // drain time.
  Fixture f;
  const Trace trace = generate_synthetic_trace(
      f.topo, uniform_pattern(f.topo.num_cores()), 0.005, 3000, 123);
  for (PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kPowerGate}) {
    auto policy = make_policy(kind, f.topo.num_routers());
    const auto m = f.run(*policy, trace, 10000);
    EXPECT_EQ(m.packets_delivered, m.packets_offered) << policy_name(kind);
  }
}

TEST(Network, BaselineNeverGatesOrSwitches) {
  Fixture f;
  BaselinePolicy policy;
  const Trace trace = generate_synthetic_trace(
      f.topo, uniform_pattern(f.topo.num_cores()), 0.01, 2000, 7);
  const auto m = f.run(policy, trace, 4000);
  EXPECT_EQ(m.gatings, 0u);
  EXPECT_EQ(m.wakeups, 0u);
  EXPECT_EQ(m.mode_switches, 0u);
  EXPECT_DOUBLE_EQ(m.state_fractions[0], 0.0);  // never inactive
  EXPECT_DOUBLE_EQ(m.state_fractions[1], 0.0);  // never waking
  // All active time at the top mode.
  EXPECT_NEAR(m.state_fractions[2 + mode_index(kTopMode)], 1.0, 1e-12);
}

TEST(Network, PowerGatePolicyGatesIdleRouters) {
  Fixture f;
  PowerGatePolicy policy;
  // One lonely packet: the rest of the network should spend nearly all
  // its time power-gated.
  const auto m = f.run(policy, single_packet_trace(0, 3), 5000);
  EXPECT_EQ(m.packets_delivered, 1u);
  EXPECT_GT(m.gatings, 0u);
  EXPECT_GT(m.off_time_fraction, 0.8);
}

TEST(Network, PowerGateSavesStaticEnergy) {
  Fixture f;
  const Trace trace = generate_synthetic_trace(
      f.topo, uniform_pattern(f.topo.num_cores()), 0.002, 4000, 55);
  BaselinePolicy base;
  PowerGatePolicy pg;
  const auto mb = f.run(base, trace, 8000);
  Fixture f2;
  const auto mp = f2.run(pg, trace, 8000);
  EXPECT_LT(mp.static_energy_j, mb.static_energy_j * 0.7);
  // Dynamic energy is similar: same flits, same mode.
  EXPECT_NEAR(mp.dynamic_energy_j, mb.dynamic_energy_j,
              mb.dynamic_energy_j * 0.05 + 1e-12);
}

TEST(Network, GatedRoutersWakeAndDeliver) {
  Fixture f;
  PowerGatePolicy policy;
  Trace trace("two-bursts");
  // First packet wakes a path; a long gap lets it gate again; the second
  // packet must still get through.
  trace.add({0, 15, false, 10.0});
  trace.add({0, 15, false, 3000.0});
  const auto m = f.run(policy, trace, 12000);
  EXPECT_EQ(m.packets_delivered, 2u);
  EXPECT_GE(m.wakeups, 2u);
}

// At T-Idle 0 the idle count never holds a router on, so a router whose
// only demand is its own NIC's backlog must not gate: the backlog's one
// secure() at maturation has long expired, and nothing else would wake
// it. With one-flit buffers the backlog outlives that secure window.
TEST(Network, PowerGateDrainsAtZeroIdleThreshold) {
  SimSetup setup;
  setup.duration_cycles = 3000;
  setup.run_to_drain = true;
  setup.noc.t_idle_cycles = 0;
  setup.noc.buffer_depth_flits = 1;
  configure_topology(setup.topology, "", &setup.noc);
  const Trace trace = make_benchmark_trace(setup, "fft", 1.0);
  PowerGatePolicy policy;
  const NetworkMetrics m = run_simulation(setup, policy, trace).metrics;
  EXPECT_GT(m.gatings, 0u);
  EXPECT_GT(m.packets_offered, 0u);
  EXPECT_EQ(m.packets_delivered, m.packets_offered);
}

TEST(Network, StaticEnergyMatchesHandComputationForBaseline) {
  // With no traffic, baseline static energy = R * P_static(M7) * T.
  Fixture f;
  BaselinePolicy policy;
  Trace empty("empty");
  const std::uint64_t cycles = 9000;  // exactly 4 us at 2.25 GHz
  const auto m = f.run(policy, empty, cycles);
  const double seconds = seconds_from_ticks(cycles * kBaselinePeriodTicks);
  PowerModel power;
  const double expected = 16.0 * power.static_power_w(kTopMode) * seconds;
  EXPECT_NEAR(m.static_energy_j, expected, expected * 1e-9);
  EXPECT_DOUBLE_EQ(m.dynamic_energy_j, 0.0);
}

TEST(Network, DynamicEnergyCountsHops) {
  Fixture f;
  BaselinePolicy policy;
  const auto m = f.run(policy, single_packet_trace(0, 3), 3000);
  // Router 0 -> 1 -> 2 -> 3, 3 link hops + 1 ejection = 4 router
  // traversals at the top mode.
  PowerModel power;
  EXPECT_NEAR(m.dynamic_energy_j, 4.0 * power.hop_energy_j(kTopMode), 1e-18);
}

TEST(Network, EpochLogShapeMatchesRoutersAndEpochs) {
  Fixture f;
  f.config.collect_epoch_log = true;
  f.config.epoch_cycles = 500;
  BaselinePolicy policy;
  Network net(f.topo, f.config, policy, f.power, f.regulator);
  net.run(single_packet_trace(0, 15), 5000 * kBaselinePeriodTicks);
  // Epoch boundaries at 500, 1000, ..., 4500 (the boundary at 5000 is not
  // processed because the run ends there).
  EXPECT_EQ(net.epoch_log().size(), 9u);
  for (const auto& row : net.epoch_log())
    EXPECT_EQ(row.size(), static_cast<std::size_t>(f.topo.num_routers()));
}

TEST(Network, EpochFeaturesCountRequests) {
  Fixture f;
  f.config.collect_epoch_log = true;
  f.config.epoch_cycles = 1000;
  BaselinePolicy policy;
  Network net(f.topo, f.config, policy, f.power, f.regulator);
  Trace trace("burst");
  // Three requests from core 5 in the first epoch (epoch = 1000 cycles
  // = 444.4 ns).
  trace.add({5, 10, false, 10.0});
  trace.add({5, 10, false, 20.0});
  trace.add({5, 10, false, 30.0});
  net.run(trace, 3000 * kBaselinePeriodTicks);
  ASSERT_GE(net.epoch_log().size(), 2u);
  EXPECT_DOUBLE_EQ(net.epoch_log()[0][5].reqs_sent, 3.0);
  EXPECT_DOUBLE_EQ(net.epoch_log()[0][10].reqs_received, 3.0);
  // Second epoch: counters were reset.
  EXPECT_DOUBLE_EQ(net.epoch_log()[1][5].reqs_sent, 0.0);
}

TEST(Network, RunTwiceRejected) {
  Fixture f;
  BaselinePolicy policy;
  Network net(f.topo, f.config, policy, f.power, f.regulator);
  Trace empty("empty");
  net.run(empty, 100 * kBaselinePeriodTicks);
  EXPECT_THROW(net.run(empty, 100 * kBaselinePeriodTicks), PreconditionError);
}

TEST(Network, StateFractionsSumToOne) {
  Fixture f;
  PowerGatePolicy policy;
  const Trace trace = generate_synthetic_trace(
      f.topo, uniform_pattern(f.topo.num_cores()), 0.003, 3000, 77);
  const auto m = f.run(policy, trace, 6000);
  double total = 0.0;
  for (double fraction : m.state_fractions) total += fraction;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Network, ThroughputMetricsConsistent) {
  Fixture f;
  BaselinePolicy policy;
  const Trace trace = generate_synthetic_trace(
      f.topo, uniform_pattern(f.topo.num_cores()), 0.01, 3000, 5);
  const auto m = f.run(policy, trace, 6000);
  const double ns = ns_from_ticks(m.sim_ticks);
  EXPECT_NEAR(m.throughput_flits_per_ns(),
              static_cast<double>(m.flits_delivered) / ns, 1e-12);
}


TEST(Network, DrainModeEndsAtLastDelivery) {
  Fixture f;
  BaselinePolicy policy;
  Network net(f.topo, f.config, policy, f.power, f.regulator);
  Trace trace("single");
  trace.add({0, 15, false, 10.0});
  net.run_until_drained(trace, 100000 * kBaselinePeriodTicks);
  const NetworkMetrics& m = net.metrics();
  EXPECT_EQ(m.packets_delivered, 1u);
  // The run ends when the packet lands, not at the horizon.
  EXPECT_LT(ns_from_ticks(m.sim_ticks), 100.0);
  EXPECT_GE(ns_from_ticks(m.sim_ticks), 10.0);
}

TEST(Network, DrainModeEmptyTraceEndsImmediately) {
  Fixture f;
  BaselinePolicy policy;
  Network net(f.topo, f.config, policy, f.power, f.regulator);
  Trace empty("empty");
  net.run_until_drained(empty, 100000 * kBaselinePeriodTicks);
  // Nothing to do: duration collapses to the minimum.
  EXPECT_LE(net.metrics().sim_ticks, 2 * kBaselinePeriodTicks);
  EXPECT_EQ(net.metrics().packets_delivered, 0u);
}

TEST(Network, DrainModeRespectsHorizonCap) {
  // A trace entry far beyond the horizon: the run must stop at the cap
  // without delivering it.
  Fixture f;
  BaselinePolicy policy;
  Network net(f.topo, f.config, policy, f.power, f.regulator);
  Trace trace("late");
  trace.add({0, 3, false, 1e9});  // 1 second out
  net.run_until_drained(trace, 1000 * kBaselinePeriodTicks);
  EXPECT_EQ(net.metrics().packets_delivered, 0u);
  EXPECT_LE(net.metrics().sim_ticks, 1000 * kBaselinePeriodTicks);
}

// A switch to a faster mode shortens a router's link delay, so with long
// links a flit sent after the switch's stall can compute an arrival before
// the flit sent just ahead of it on the same link. Links are FIFO: the
// later flit arrives behind the earlier one, and every packet drains.
TEST(Network, LongLinksStayFifoAcrossSpeedUps) {
  struct Case {
    PolicyKind twin;
    std::uint64_t epoch_cycles;
    int link_latency_cycles;
  };
  const Case cases[] = {{PolicyKind::kLeadTau, 20, 20},
                        {PolicyKind::kLeadTau, 50, 20},
                        {PolicyKind::kDozzNoc, 20, 20},
                        {PolicyKind::kMlTurbo, 20, 14}};
  const Topology topo = make_mesh(8, 8);
  const Trace trace = generate_synthetic_trace(
      topo, uniform_pattern(topo.num_cores()), 0.02, 4000, 1);
  const PowerModel power;
  SimoLdoRegulator regulator;
  for (const Case& c : cases) {
    NocConfig config;
    config.epoch_cycles = c.epoch_cycles;
    config.link_latency_cycles = c.link_latency_cycles;
    auto policy = make_reactive_twin(c.twin, topo.num_routers());
    Network net(topo, config, *policy, power, regulator);
    net.run_until_drained(trace, 1000000 * kBaselinePeriodTicks);
    const NetworkMetrics& m = net.metrics();
    EXPECT_GT(m.mode_switches, 0u) << policy->name();
    EXPECT_GT(m.packets_offered, 0u) << policy->name();
    EXPECT_EQ(m.packets_delivered, m.packets_offered)
        << policy->name() << ", " << c.epoch_cycles << "-cycle epochs, "
        << c.link_latency_cycles << "-cycle links";
  }
}

TEST(Network, RunsAreBitwiseDeterministic) {
  // The whole stack — trace generation, kernel ordering, arbitration,
  // energy integration — must be reproducible run to run; this guards
  // against accidentally introduced nondeterminism (iteration over
  // unordered containers, wall-clock use, uninitialized state).
  auto run_once = [] {
    Fixture f;
    f.config.auto_response = true;
    PowerGatePolicy policy;
    const Trace trace = generate_synthetic_trace(
        f.topo, uniform_pattern(f.topo.num_cores()), 0.008, 2500, 4242);
    return f.run(policy, trace, 6000);
  };
  const NetworkMetrics a = run_once();
  const NetworkMetrics b = run_once();
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.gatings, b.gatings);
  EXPECT_EQ(a.wakeups, b.wakeups);
  EXPECT_DOUBLE_EQ(a.packet_latency_ns.mean(), b.packet_latency_ns.mean());
  EXPECT_DOUBLE_EQ(a.static_energy_j, b.static_energy_j);
  EXPECT_DOUBLE_EQ(a.dynamic_energy_j, b.dynamic_energy_j);
  EXPECT_DOUBLE_EQ(a.off_time_fraction, b.off_time_fraction);
}

}  // namespace
}  // namespace dozz
