// Parameterized property tests sweeping configurations: packet conservation
// and latency sanity for every (policy x traffic pattern x topology)
// combination, routing invariants over all router pairs, and regulator
// matrix properties.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/core/policies.hpp"
#include "src/noc/network.hpp"
#include "src/power/power_model.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/topology/topology.hpp"
#include "src/trafficgen/patterns.hpp"
#include "tests/linear_kernel.hpp"

namespace dozz {
namespace {

// ---------------------------------------------------------------------------
// Conservation: every offered packet is delivered, exactly once, under every
// policy, pattern and topology (given drain headroom).
// ---------------------------------------------------------------------------

using ConservationParam =
    std::tuple<PolicyKind, std::string /*pattern*/, bool /*cmesh*/>;

class ConservationTest : public ::testing::TestWithParam<ConservationParam> {};

TEST_P(ConservationTest, AllOfferedPacketsDeliveredOnce) {
  const auto [kind, pattern_name, cmesh] = GetParam();
  const Topology topo = cmesh ? make_cmesh(2, 2, 4) : make_mesh(4, 4);
  NocConfig config;
  config.auto_response = true;
  config.epoch_cycles = 200;
  PowerModel power;
  SimoLdoRegulator regulator;

  const Trace trace = generate_synthetic_trace(
      topo, pattern_by_name(pattern_name, topo), 0.004, 2500,
      0xC0FFEE ^ static_cast<std::uint64_t>(kind));

  auto policy = make_policy(kind, topo.num_routers(),
                            policy_uses_ml(kind)
                                ? std::optional<WeightVector>(
                                      passthrough_weights())
                                : std::nullopt);
  Network net(topo, config, *policy, power, regulator);
  net.run_until_drained(trace, 40000 * kBaselinePeriodTicks);
  const NetworkMetrics& m = net.metrics();

  // Requests + auto-generated responses all delivered.
  EXPECT_EQ(m.packets_offered, 2 * trace.size());
  EXPECT_EQ(m.packets_delivered, m.packets_offered);
  EXPECT_EQ(m.requests_delivered, trace.size());
  EXPECT_EQ(m.responses_delivered, trace.size());
  // Flit conservation: 1 flit per request, response_size per response.
  EXPECT_EQ(m.flits_delivered,
            trace.size() * (1u + static_cast<unsigned>(
                                      config.response_size_flits)));
  // Latency must be finite and positive for every packet.
  EXPECT_EQ(m.packet_latency_ns.count(), m.packets_delivered);
  EXPECT_GT(m.packet_latency_ns.min(), 0.0);
  // Network latency never exceeds total latency.
  EXPECT_LE(m.network_latency_ns.mean(), m.packet_latency_ns.mean() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesPatternsTopologies, ConservationTest,
    ::testing::Combine(
        ::testing::Values(PolicyKind::kBaseline, PolicyKind::kPowerGate,
                          PolicyKind::kLeadTau, PolicyKind::kDozzNoc,
                          PolicyKind::kMlTurbo),
        ::testing::Values("uniform", "transpose", "hotspot", "neighbor",
                          "tornado"),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<ConservationParam>& info) {
      return sanitize(policy_name(std::get<0>(info.param)) + "_" +
                      std::get<1>(info.param) +
                      (std::get<2>(info.param) ? "_cmesh" : "_mesh"));
    });

// ---------------------------------------------------------------------------
// Energy-accounting invariants hold for every policy.
// ---------------------------------------------------------------------------

class EnergyInvariantTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(EnergyInvariantTest, AccountingIsComplete) {
  const PolicyKind kind = GetParam();
  const Topology topo = make_mesh(4, 4);
  NocConfig config;
  PowerModel power;
  SimoLdoRegulator regulator;
  const Trace trace = generate_synthetic_trace(
      topo, uniform_pattern(topo.num_cores()), 0.005, 3000, 77);

  auto policy = make_policy(kind, topo.num_routers(),
                            policy_uses_ml(kind)
                                ? std::optional<WeightVector>(
                                      passthrough_weights())
                                : std::nullopt);
  Network net(topo, config, *policy, power, regulator);
  const Tick end = 6000 * kBaselinePeriodTicks;
  net.run(trace, end);
  const NetworkMetrics& m = net.metrics();

  // Every router-tick is accounted to exactly one state.
  double fraction_sum = 0.0;
  for (double f : m.state_fractions) fraction_sum += f;
  EXPECT_NEAR(fraction_sum, 1.0, 1e-9) << policy_name(kind);
  for (RouterId r = 0; r < topo.num_routers(); ++r)
    EXPECT_EQ(net.router(r).accountant().accounted_ticks(), end);

  // Wall energy >= router energy (regulator efficiency < 1), bounded by
  // the worst-case chain efficiency.
  EXPECT_GE(m.wall_static_energy_j, m.static_energy_j);
  EXPECT_LE(m.wall_static_energy_j, m.static_energy_j / 0.85 + 1e-12);
  EXPECT_GE(m.wall_dynamic_energy_j, m.dynamic_energy_j);

  // Static energy is bounded by the always-on-at-top-mode envelope.
  const double envelope = topo.num_routers() *
                          power.static_power_w(kTopMode) *
                          seconds_from_ticks(end);
  EXPECT_LE(m.static_energy_j, envelope * (1.0 + 1e-9));

  // ML energy appears exactly when the policy uses ML.
  if (policy_uses_ml(kind)) {
    EXPECT_GT(m.labels_computed, 0u);
    EXPECT_NEAR(m.ml_energy_j,
                static_cast<double>(m.labels_computed) * 7.1e-12, 1e-15);
  } else {
    EXPECT_EQ(m.labels_computed, 0u);
    EXPECT_DOUBLE_EQ(m.ml_energy_j, 0.0);
  }

  // Gating happens iff the policy allows it (this workload has idle gaps).
  if (!policy_uses_gating(kind)) {
    EXPECT_EQ(m.gatings, 0u);
    EXPECT_DOUBLE_EQ(m.off_time_fraction, 0.0);
  }
  // Wakeups never exceed gatings (each off interval ends at most once).
  EXPECT_LE(m.wakeups, m.gatings);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EnergyInvariantTest,
                         ::testing::Values(PolicyKind::kBaseline,
                                           PolicyKind::kPowerGate,
                                           PolicyKind::kLeadTau,
                                           PolicyKind::kDozzNoc,
                                           PolicyKind::kMlTurbo),
                         [](const ::testing::TestParamInfo<PolicyKind>& info) {
                           return sanitize(policy_name(info.param));
                         });

// ---------------------------------------------------------------------------
// Routing properties over every (src, dst) pair of a mesh.
// ---------------------------------------------------------------------------

class RoutingPropertyTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RoutingPropertyTest, XyPathsAreMinimalAndXFirst) {
  const auto [w, h] = GetParam();
  const Topology topo = make_mesh(w, h);
  for (RouterId src = 0; src < topo.num_routers(); ++src) {
    for (RouterId dst = 0; dst < topo.num_routers(); ++dst) {
      RouterId cur = src;
      int hops = 0;
      bool seen_y = false;
      while (cur != dst) {
        const auto dir = topo.route_xy(cur, dst);
        ASSERT_TRUE(dir.has_value());
        const bool is_y =
            *dir == Direction::kNorth || *dir == Direction::kSouth;
        ASSERT_FALSE(seen_y && !is_y) << "Y->X turn (deadlock hazard)";
        seen_y |= is_y;
        cur = *topo.neighbor(cur, *dir);
        ++hops;
      }
      EXPECT_EQ(hops, topo.hop_count(src, dst));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GridSizes, RoutingPropertyTest,
                         ::testing::Values(std::pair{2, 2}, std::pair{3, 5},
                                           std::pair{5, 3}, std::pair{8, 8}),
                         [](const auto& info) {
                           return "grid" + std::to_string(info.param.first) +
                                  "x" + std::to_string(info.param.second);
                         });

// ---------------------------------------------------------------------------
// Regulator matrix properties over all mode pairs.
// ---------------------------------------------------------------------------

TEST(RegulatorProperties, LatencyGrowsWithVoltageDistance) {
  SimoLdoRegulator reg;
  // Within a row, switching further away in voltage never gets cheaper.
  for (VfMode from : all_vf_modes()) {
    for (int up = mode_index(from) + 2; up < kNumVfModes; ++up) {
      EXPECT_GE(reg.switch_latency_ns(from, mode_from_index(up)),
                reg.switch_latency_ns(from, mode_from_index(up - 1)));
    }
    for (int down = mode_index(from) - 2; down >= 0; --down) {
      EXPECT_GE(reg.switch_latency_ns(from, mode_from_index(down)),
                reg.switch_latency_ns(from, mode_from_index(down + 1)));
    }
  }
}

TEST(RegulatorProperties, LatencyIsRoughlySymmetric) {
  // The measured matrix is not exactly symmetric (up-switches charge the
  // LDO, down-switches discharge), but it is close.
  SimoLdoRegulator reg;
  for (VfMode a : all_vf_modes()) {
    for (VfMode b : all_vf_modes()) {
      EXPECT_NEAR(reg.switch_latency_ns(a, b), reg.switch_latency_ns(b, a),
                  0.61);
    }
  }
}

TEST(RegulatorProperties, WakeupAlwaysDominatesSwitching) {
  SimoLdoRegulator reg;
  for (VfMode to : all_vf_modes()) {
    for (VfMode from : all_vf_modes()) {
      if (from == to) continue;
      EXPECT_GT(reg.wakeup_latency_ns(to), reg.switch_latency_ns(from, to));
    }
  }
}

TEST(RegulatorProperties, BreakevenBelowWakeupInTime) {
  // Breakeven (cycles) converted to wall time stays in the same nanosecond
  // regime as the wakeup cost it amortizes.
  SimoLdoRegulator reg;
  for (VfMode m : all_vf_modes()) {
    const double breakeven_ns = ns_from_ticks(reg.breakeven_ticks(m));
    EXPECT_GT(breakeven_ns, 4.0);
    EXPECT_LT(breakeven_ns, 10.0);
  }
}

// ---------------------------------------------------------------------------
// Mode thresholds partition [0, 1] completely (property sweep).
// ---------------------------------------------------------------------------

class ThresholdSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ThresholdSweepTest, EveryUtilizationMapsToExactlyOneMode) {
  const double u = static_cast<double>(GetParam()) / 1000.0;
  const VfMode m = mode_for_utilization(u);
  EXPECT_GE(mode_index(m), 0);
  EXPECT_LT(mode_index(m), kNumVfModes);
  // Cross-check against the explicit breakpoints.
  if (u < 0.05) {
    EXPECT_EQ(m, VfMode::kV08);
  }
  if (u >= 0.25) {
    EXPECT_EQ(m, VfMode::kV12);
  }
}

INSTANTIATE_TEST_SUITE_P(UtilGrid, ThresholdSweepTest,
                         ::testing::Range(0, 1001, 50));

}  // namespace
}  // namespace dozz
