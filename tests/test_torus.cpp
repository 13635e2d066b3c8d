// Torus topology tests: wraparound neighbors, shortest-way routing,
// dateline detection, VC-class deadlock avoidance, and end-to-end delivery
// under adversarial (wrap-heavy) traffic.
#include <gtest/gtest.h>

#include "src/core/policies.hpp"
#include "src/noc/network.hpp"
#include "src/power/power_model.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/topology/routing.hpp"
#include "src/topology/topology.hpp"
#include "src/trafficgen/patterns.hpp"

namespace dozz {
namespace {

TEST(Torus, WraparoundNeighbors) {
  const Topology t = make_torus(4, 4);
  EXPECT_TRUE(t.is_torus());
  EXPECT_EQ(t.name(), "torus4x4");
  // Every router has all four neighbors.
  for (RouterId r = 0; r < t.num_routers(); ++r)
    for (int d = 0; d < kNumDirections; ++d)
      EXPECT_TRUE(t.neighbor(r, static_cast<Direction>(d)).has_value());
  // Corner (0,0): north wraps to (0,3), west wraps to (3,0).
  EXPECT_EQ(t.neighbor(0, Direction::kNorth), t.router_at(0, 3));
  EXPECT_EQ(t.neighbor(0, Direction::kWest), t.router_at(3, 0));
  // The mesh never wraps.
  EXPECT_FALSE(make_mesh(4, 4).is_torus());
  EXPECT_FALSE(make_mesh(4, 4).is_wrap_link(0, Direction::kEast));
}

TEST(Torus, DatelineDetection) {
  const Topology t = make_torus(4, 4);
  EXPECT_TRUE(t.is_wrap_link(t.router_at(3, 1), Direction::kEast));
  EXPECT_TRUE(t.is_wrap_link(t.router_at(0, 1), Direction::kWest));
  EXPECT_TRUE(t.is_wrap_link(t.router_at(2, 0), Direction::kNorth));
  EXPECT_TRUE(t.is_wrap_link(t.router_at(2, 3), Direction::kSouth));
  EXPECT_FALSE(t.is_wrap_link(t.router_at(1, 1), Direction::kEast));
}

TEST(Torus, RoutesTakeTheShorterWay) {
  const Topology t = make_torus(8, 8);
  // (0,0) -> (6,0): 2 hops west around the seam beats 6 hops east.
  EXPECT_EQ(t.route_xy(t.router_at(0, 0), t.router_at(6, 0)),
            Direction::kWest);
  // (0,0) -> (2,0): straight east.
  EXPECT_EQ(t.route_xy(t.router_at(0, 0), t.router_at(2, 0)),
            Direction::kEast);
  // Tie (distance 4 both ways on width 8): resolved positively (east).
  EXPECT_EQ(t.route_xy(t.router_at(0, 0), t.router_at(4, 0)),
            Direction::kEast);
  EXPECT_EQ(t.hop_count(t.router_at(0, 0), t.router_at(6, 0)), 2);
  EXPECT_EQ(t.hop_count(t.router_at(0, 0), t.router_at(7, 7)), 2);
}

TEST(Torus, PathsTerminateWithMinimalHops) {
  const Topology t = make_torus(5, 4);
  for (RouterId src = 0; src < t.num_routers(); ++src) {
    for (RouterId dst = 0; dst < t.num_routers(); ++dst) {
      RouterId cur = src;
      int hops = 0;
      while (cur != dst) {
        const auto dir = t.route_xy(cur, dst);
        ASSERT_TRUE(dir.has_value());
        cur = *t.neighbor(cur, *dir);
        ++hops;
        ASSERT_LE(hops, 5);  // max torus distance here is 2+2
      }
      EXPECT_EQ(hops, t.hop_count(src, dst));
    }
  }
}

TEST(Torus, DiameterIsHalved) {
  // The whole point of the wrap links: the 8x8 torus has diameter 8 where
  // the mesh has 14.
  const Topology torus = make_torus(8, 8);
  const Topology mesh = make_mesh(8, 8);
  int torus_diameter = 0;
  int mesh_diameter = 0;
  for (RouterId a = 0; a < 64; ++a)
    for (RouterId b = 0; b < 64; ++b) {
      torus_diameter = std::max(torus_diameter, torus.hop_count(a, b));
      mesh_diameter = std::max(mesh_diameter, mesh.hop_count(a, b));
    }
  EXPECT_EQ(torus_diameter, 8);
  EXPECT_EQ(mesh_diameter, 14);
}

NocConfig torus_config() {
  NocConfig config;
  config.vc_classes = 2;  // dateline deadlock avoidance
  config.auto_response = false;
  return config;
}

TEST(Torus, RouterRequiresDivisibleVcClasses) {
  const Topology t = make_torus(4, 4);
  NocConfig config = torus_config();
  config.vcs_per_port = 3;  // not divisible by 2
  PowerModel power;
  SimoLdoRegulator regulator;
  MlOverheadModel ml(5);
  const FlatRouteTable routes(t, routing_policy(config.routing));
  EXPECT_THROW(Router(0, t, config, routes, regulator,
                      EnergyAccountant(power, regulator, ml), kTopMode),
               PreconditionError);
}

TEST(Torus, DeliversAcrossTheSeam) {
  const Topology t = make_torus(4, 4);
  NocConfig config = torus_config();
  PowerModel power;
  SimoLdoRegulator regulator;
  BaselinePolicy policy;
  Network net(t, config, policy, power, regulator);
  Trace trace("seam");
  // (0,0) -> (3,0): one hop west across the wrap link.
  trace.add({0, 3, false, 5.0});
  net.run(trace, 2000 * kBaselinePeriodTicks);
  EXPECT_EQ(net.metrics().packets_delivered, 1u);
  EXPECT_DOUBLE_EQ(net.metrics().packet_hops.mean(), 2.0);  // link + eject
}

TEST(Torus, TornadoTrafficDrainsWithoutDeadlock) {
  // Tornado on a torus maximizes wrap-link pressure — the classic
  // deadlock trigger without dateline VCs. Everything must drain.
  const Topology t = make_torus(4, 4);
  NocConfig config = torus_config();
  PowerModel power;
  SimoLdoRegulator regulator;
  BaselinePolicy policy;
  Network net(t, config, policy, power, regulator);
  const Trace trace =
      generate_synthetic_trace(t, tornado_pattern(t), 0.05, 3000, 17);
  ASSERT_GT(trace.size(), 500u);
  net.run_until_drained(trace, 60000 * kBaselinePeriodTicks);
  EXPECT_EQ(net.metrics().packets_delivered, net.metrics().packets_offered);
}

TEST(Torus, UniformTrafficWithGatingDrains) {
  const Topology t = make_torus(4, 4);
  NocConfig config = torus_config();
  config.auto_response = true;
  PowerModel power;
  SimoLdoRegulator regulator;
  PowerGatePolicy policy;
  Network net(t, config, policy, power, regulator);
  const Trace trace = generate_synthetic_trace(
      t, uniform_pattern(t.num_cores()), 0.008, 3000, 23);
  net.run_until_drained(trace, 60000 * kBaselinePeriodTicks);
  EXPECT_EQ(net.metrics().packets_delivered, net.metrics().packets_offered);
  EXPECT_GT(net.metrics().gatings, 0u);
}

TEST(Torus, MeanHopsBeatTheMeshUnderUniformTraffic) {
  PowerModel power;
  SimoLdoRegulator regulator;
  auto mean_hops = [&](const Topology& topo, NocConfig config) {
    config.auto_response = false;
    BaselinePolicy policy;
    Network net(topo, config, policy, power, regulator);
    const Trace trace = generate_synthetic_trace(
        topo, uniform_pattern(topo.num_cores()), 0.01, 2500, 31);
    net.run_until_drained(trace, 40000 * kBaselinePeriodTicks);
    return net.metrics().packet_hops.mean();
  };
  const double torus_hops = mean_hops(make_torus(8, 8), torus_config());
  const double mesh_hops = mean_hops(make_mesh(8, 8), NocConfig{});
  EXPECT_LT(torus_hops, mesh_hops * 0.85);
}

}  // namespace
}  // namespace dozz
