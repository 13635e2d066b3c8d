// Unit tests for the network interface: queueing, response scheduling and
// maturation, epoch counters, and the injection path into a router.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/noc/nic.hpp"
#include "src/power/power_model.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/topology/routing.hpp"

namespace dozz {
namespace {

struct NicFixture {
  Topology topo = make_cmesh(2, 2, 4);  // 4 routers, 4 cores each
  NocConfig config;
  FlatRouteTable routes{topo, routing_policy(config.routing)};
  PowerModel power;
  SimoLdoRegulator regulator;
  MlOverheadModel ml{5};
  NetworkInterface nic{0, topo, config};

  PendingPacket request(CoreId src, CoreId dst, Tick when) {
    PendingPacket p;
    p.packet_id = 42;
    p.src_core = src;
    p.dst_core = dst;
    p.is_response = false;
    p.size_flits = 1;
    p.inject_tick = when;
    return p;
  }

  Router make_router() {
    return Router(0, topo, config, routes, regulator,
                  EnergyAccountant(power, regulator, ml), kTopMode);
  }
};

TEST(Nic, EnqueueTracksBacklogAndRequestCount) {
  NicFixture f;
  EXPECT_FALSE(f.nic.has_backlog());
  f.nic.enqueue(f.request(0, 5, 100));
  f.nic.enqueue(f.request(1, 6, 100));
  EXPECT_TRUE(f.nic.has_backlog());
  EXPECT_EQ(f.nic.backlog(), 2u);
  EXPECT_EQ(f.nic.epoch_requests_sent(), 2u);
}

TEST(Nic, RejectsForeignCores) {
  NicFixture f;
  // Core 5 belongs to router 1, not router 0.
  EXPECT_THROW(f.nic.enqueue(f.request(5, 0, 100)), PreconditionError);
}

TEST(Nic, ResponsesMatureInTimeOrder) {
  NicFixture f;
  f.nic.schedule_response(1, /*responder=*/2, /*requester=*/8, 300);
  f.nic.schedule_response(2, /*responder=*/3, /*requester=*/9, 100);
  EXPECT_EQ(f.nic.next_response_tick(), 100u);
  EXPECT_FALSE(f.nic.has_backlog());

  std::vector<CoreId> dsts;
  EXPECT_EQ(f.nic.mature_responses(99, &dsts), 0);
  EXPECT_EQ(f.nic.mature_responses(100, &dsts), 1);
  ASSERT_EQ(dsts.size(), 1u);
  EXPECT_EQ(dsts[0], 9);
  EXPECT_EQ(f.nic.next_response_tick(), 300u);
  EXPECT_EQ(f.nic.mature_responses(1000, &dsts), 1);
  EXPECT_EQ(f.nic.next_response_tick(), kInfTick);
  // Responses do not count as requests sent.
  EXPECT_EQ(f.nic.epoch_requests_sent(), 0u);
  EXPECT_EQ(f.nic.backlog(), 2u);
}

TEST(Nic, EjectionCountsOnlyRequests) {
  NicFixture f;
  Flit tail;
  tail.is_tail = true;
  tail.is_response = false;
  f.nic.on_ejected_packet(tail);
  tail.is_response = true;
  f.nic.on_ejected_packet(tail);
  EXPECT_EQ(f.nic.epoch_requests_received(), 1u);
  Flit body;
  body.is_tail = false;
  EXPECT_THROW(f.nic.on_ejected_packet(body), PreconditionError);
}

TEST(Nic, EpochWindowReset) {
  NicFixture f;
  f.nic.enqueue(f.request(0, 5, 10));
  Flit tail;
  tail.is_tail = true;
  f.nic.on_ejected_packet(tail);
  f.nic.reset_epoch_window();
  EXPECT_EQ(f.nic.epoch_requests_sent(), 0u);
  EXPECT_EQ(f.nic.epoch_requests_received(), 0u);
  // The backlog itself is not part of the window.
  EXPECT_TRUE(f.nic.has_backlog());
}

TEST(Nic, InjectsOneFlitPerSlotPerCycle) {
  NicFixture f;
  Router router = f.make_router();
  // Two packets on different slots (cores 0 and 1), one on the same slot
  // as the first (core 0 again).
  f.nic.enqueue(f.request(0, 5, 10));
  f.nic.enqueue(f.request(0, 6, 10));
  f.nic.enqueue(f.request(1, 7, 10));
  const Tick t = router.period();
  router.account_until(t);
  router.pre_step(t);
  f.nic.inject_into(router, t);
  // Slots 0 and 1 each injected one flit; the second core-0 packet waits.
  EXPECT_EQ(f.nic.backlog(), 1u);
  f.nic.inject_into(router, t + router.period());
  EXPECT_EQ(f.nic.backlog(), 0u);
}

TEST(Nic, DoesNotInjectIntoInactiveRouter) {
  NicFixture f;
  Router router = f.make_router();
  // Run enough idle edges to satisfy T-Idle, then gate the router.
  Tick t = 0;
  for (int i = 0; i < 6; ++i) {
    t = router.next_edge();
    router.account_until(t);
    router.pre_step(t);
    router.post_step(t, false);
    router.advance_clock(t);
  }
  ASSERT_TRUE(router.can_gate(t));
  router.gate_off(t);
  f.nic.enqueue(f.request(0, 5, 10));
  f.nic.inject_into(router, t + 1000);
  EXPECT_EQ(f.nic.backlog(), 1u);  // nothing moved
}

}  // namespace
}  // namespace dozz
