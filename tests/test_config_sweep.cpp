// Configuration-space sweep: packet conservation and sane latency must
// hold for every combination of the router knobs (VCs, buffer depth,
// pipeline depth, link latency, routing algorithm) under a gating policy.
#include <gtest/gtest.h>

#include <tuple>

#include "src/core/policies.hpp"
#include "src/noc/network.hpp"
#include "src/power/power_model.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/trafficgen/patterns.hpp"

namespace dozz {
namespace {

using ConfigParam = std::tuple<int /*vcs*/, int /*depth*/, int /*pipeline*/,
                               int /*link*/, RoutingAlgorithm>;

class ConfigSweepTest : public ::testing::TestWithParam<ConfigParam> {};

TEST_P(ConfigSweepTest, GatedNetworkDrainsCompletely) {
  const auto [vcs, depth, pipeline, link, routing] = GetParam();
  const Topology topo = make_mesh(4, 4);
  NocConfig config;
  config.vcs_per_port = vcs;
  config.buffer_depth_flits = depth;
  config.pipeline_stages = pipeline;
  config.link_latency_cycles = link;
  config.routing = routing;
  config.epoch_cycles = 200;
  PowerModel power;
  SimoLdoRegulator regulator;
  PowerGatePolicy policy;
  Network net(topo, config, policy, power, regulator);

  const Trace trace = generate_synthetic_trace(
      topo, uniform_pattern(topo.num_cores()), 0.006, 2000, 0x5EED);
  net.run_until_drained(trace, 50000 * kBaselinePeriodTicks);
  const NetworkMetrics& m = net.metrics();

  EXPECT_EQ(m.packets_delivered, m.packets_offered);
  EXPECT_GT(m.packet_latency_ns.min(), 0.0);
  // Deeper pipelines / slower links only add bounded per-hop delay.
  EXPECT_LT(m.packet_latency_ns.mean(), 500.0);
  // Energy accounting stays complete under every configuration.
  double fractions = 0.0;
  for (double f : m.state_fractions) fractions += f;
  EXPECT_NEAR(fractions, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, ConfigSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 4),          // VCs
                       ::testing::Values(2, 4),             // depth
                       ::testing::Values(1, 3),             // pipeline
                       ::testing::Values(1, 2),             // link latency
                       ::testing::Values(RoutingAlgorithm::kXY,
                                         RoutingAlgorithm::kYX)),
    [](const ::testing::TestParamInfo<ConfigParam>& info) {
      return "v" + std::to_string(std::get<0>(info.param)) + "d" +
             std::to_string(std::get<1>(info.param)) + "p" +
             std::to_string(std::get<2>(info.param)) + "l" +
             std::to_string(std::get<3>(info.param)) +
             (std::get<4>(info.param) == RoutingAlgorithm::kXY ? "XY" : "YX");
    });

}  // namespace
}  // namespace dozz
