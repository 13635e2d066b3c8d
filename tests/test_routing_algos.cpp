// Tests for the routing-algorithm abstraction: YX correctness, deadlock-
// freedom ordering, minimality, and end-to-end simulation under YX
// (the power-gating scheme only needs a computable next hop, paper
// Sec. III-A).
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

TEST(RoutingAlgos, Names) {
  EXPECT_STREQ(routing_policy(RoutingAlgorithm::kXY).name(), "xy");
  EXPECT_STREQ(routing_policy(RoutingAlgorithm::kYX).name(), "yx");
}

TEST(RoutingAlgos, YxResolvesYFirst) {
  const Topology mesh = make_mesh();
  const RouterId src = mesh.router_at(0, 0);
  const RouterId dst = mesh.router_at(3, 5);
  EXPECT_EQ(mesh.route_yx(src, dst), Direction::kSouth);
  const RouterId mid = mesh.router_at(0, 5);
  EXPECT_EQ(mesh.route_yx(mid, dst), Direction::kEast);
  EXPECT_FALSE(mesh.route_yx(dst, dst).has_value());
}

TEST(RoutingAlgos, DispatchMatchesDirectCalls) {
  const Topology mesh = make_mesh(4, 4);
  const RoutingPolicy& xy = routing_policy(RoutingAlgorithm::kXY);
  const RoutingPolicy& yx = routing_policy(RoutingAlgorithm::kYX);
  for (RouterId s = 0; s < mesh.num_routers(); ++s) {
    for (RouterId d = 0; d < mesh.num_routers(); ++d) {
      EXPECT_EQ(xy.route(mesh, s, d), mesh.route_xy(s, d));
      EXPECT_EQ(yx.route(mesh, s, d), mesh.route_yx(s, d));
    }
  }
}

TEST(RoutingAlgos, YxPathsAreMinimalAndNeverTurnBackToY) {
  const Topology mesh = make_mesh(5, 4);
  for (RouterId src = 0; src < mesh.num_routers(); ++src) {
    for (RouterId dst = 0; dst < mesh.num_routers(); ++dst) {
      RouterId cur = src;
      int hops = 0;
      bool seen_x = false;
      while (cur != dst) {
        const auto dir = mesh.route_yx(cur, dst);
        ASSERT_TRUE(dir.has_value());
        const bool is_x =
            *dir == Direction::kEast || *dir == Direction::kWest;
        ASSERT_FALSE(seen_x && !is_x) << "X->Y turn under YX routing";
        seen_x |= is_x;
        cur = *mesh.neighbor(cur, *dir);
        ++hops;
      }
      EXPECT_EQ(hops, mesh.hop_count(src, dst));  // both DORs are minimal
    }
  }
}

TEST(RoutingAlgos, XyAndYxDisagreeOffDiagonal) {
  const Topology mesh = make_mesh();
  const RouterId src = mesh.router_at(1, 1);
  const RouterId dst = mesh.router_at(4, 6);
  EXPECT_NE(mesh.route_xy(src, dst), mesh.route_yx(src, dst));
  // The next-hop tables honor the algorithm choice.
  const FlatRouteTable xy(mesh, routing_policy(RoutingAlgorithm::kXY));
  const FlatRouteTable yx(mesh, routing_policy(RoutingAlgorithm::kYX));
  EXPECT_NE(xy.next_hop(src, dst), yx.next_hop(src, dst));
}

TEST(RoutingAlgos, NetworkDeliversEverythingUnderYx) {
  const Topology topo = make_mesh(4, 4);
  NocConfig config;
  config.routing = RoutingAlgorithm::kYX;
  PowerModel power;
  SimoLdoRegulator regulator;
  const Trace trace = generate_synthetic_trace(
      topo, transpose_pattern(topo), 0.01, 2500, 88);
  for (PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kPowerGate}) {
    auto policy = make_policy(kind, topo.num_routers());
    Network net(topo, config, *policy, power, regulator);
    net.run_until_drained(trace, 40000 * kBaselinePeriodTicks);
    EXPECT_EQ(net.metrics().packets_delivered, net.metrics().packets_offered)
        << policy_name(kind);
  }
}

TEST(RoutingAlgos, GatingSavingsComparableUnderXyAndYx) {
  // The non-blocking scheme is routing-agnostic as long as the next hop is
  // deterministic: static savings under YX should be in the same ballpark
  // as under XY on symmetric traffic.
  const Topology topo = make_mesh(4, 4);
  PowerModel power;
  SimoLdoRegulator regulator;
  const Trace trace = generate_synthetic_trace(
      topo, uniform_pattern(topo.num_cores()), 0.003, 4000, 99);
  double off[2];
  int i = 0;
  for (RoutingAlgorithm algo :
       {RoutingAlgorithm::kXY, RoutingAlgorithm::kYX}) {
    NocConfig config;
    config.routing = algo;
    PowerGatePolicy policy;
    Network net(topo, config, policy, power, regulator);
    net.run(trace, 8000 * kBaselinePeriodTicks);
    off[i++] = net.metrics().off_time_fraction;
  }
  EXPECT_GT(off[0], 0.1);
  EXPECT_GT(off[1], 0.1);
  EXPECT_NEAR(off[0], off[1], 0.15);
}

}  // namespace
}  // namespace dozz
