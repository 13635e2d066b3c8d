// Router-level tests: state machine, gating preconditions, wakeup timing,
// DVFS switch penalties and energy accounting at the single-router level.
#include <gtest/gtest.h>

#include "src/noc/router.hpp"
#include "src/power/power_model.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/topology/routing.hpp"
#include "src/topology/topology.hpp"

namespace dozz {
namespace {

/// Minimal environment that records interactions.
class RecordingEnv {
 public:
  bool downstream_can_accept(RouterId) const { return accept; }
  void secure(RouterId r, Tick) { secured.push_back(r); }
  void punch_ahead(RouterId r, RouterId dst, Tick) {
    punches.push_back({r, dst});
  }
  void deliver(RouterId r, int port, int vc, Tick arrival, const Flit& flit) {
    delivered.push_back({r, port, vc, arrival, flit});
  }
  void send_credit(RouterId up, int port, int vc, Tick arrival) {
    credits.push_back({up, port, vc, arrival});
  }
  void eject(RouterId r, const Flit& flit, Tick) {
    ejected.push_back({r, flit});
  }

  struct Delivery {
    RouterId r;
    int port;
    int vc;
    Tick arrival;
    Flit flit;
  };
  struct Credit {
    RouterId up;
    int port;
    int vc;
    Tick arrival;
  };
  bool accept = true;
  std::vector<RouterId> secured;
  std::vector<std::pair<RouterId, RouterId>> punches;
  std::vector<Delivery> delivered;
  std::vector<Credit> credits;
  std::vector<std::pair<RouterId, Flit>> ejected;
};

struct RouterFixture {
  Topology topo = make_mesh(4, 4);
  NocConfig config;
  FlatRouteTable routes{topo, routing_policy(config.routing)};
  PowerModel power;
  SimoLdoRegulator regulator;
  MlOverheadModel ml{5};
  RecordingEnv env;

  Router make(RouterId id = 5, VfMode mode = kTopMode) {
    return Router(id, topo, config, routes, regulator,
                  EnergyAccountant(power, regulator, ml), mode);
  }

  /// Runs one full clock edge.
  void step(Router& r, Tick now, bool nic_backlog = false) {
    r.account_until(now);
    r.pre_step(now);
    r.pipeline_step(now, env);
    r.post_step(now, nic_backlog);
    r.advance_clock(now);
  }

  Flit flit_to(RouterId dst_router, bool head = true, bool tail = true) {
    Flit f;
    f.packet_id = 1;
    f.dst_router = dst_router;
    f.dst_core = dst_router;  // mesh: core == router
    f.is_head = head;
    f.is_tail = tail;
    return f;
  }
};

TEST(Router, StartsActiveAtInitialMode) {
  RouterFixture f;
  Router r = f.make(5, VfMode::kV10);
  EXPECT_EQ(r.state(), RouterState::kActive);
  EXPECT_EQ(r.active_mode(), VfMode::kV10);
  EXPECT_EQ(r.period(), 5000u);
  EXPECT_EQ(r.next_edge(), 5000u);
}

TEST(Router, ForwardsFlitTowardDestination) {
  RouterFixture f;
  Router r = f.make(5);  // router 5 = (1,1)
  // Flit heading to router 7 = (3,1): must leave East toward router 6.
  f.env.delivered.clear();
  Tick t = r.period();
  f.step(r, t);  // nothing yet
  r.receive(static_cast<int>(Direction::kWest), 0, t, f.flit_to(7));
  for (int i = 0; i < 5 && f.env.delivered.empty(); ++i) {
    t = r.next_edge();
    f.step(r, t);
  }
  ASSERT_EQ(f.env.delivered.size(), 1u);
  EXPECT_EQ(f.env.delivered[0].r, 6);  // east neighbor
  EXPECT_EQ(f.env.delivered[0].port,
            static_cast<int>(Direction::kWest));  // arrives on its west port
  EXPECT_EQ(f.env.delivered[0].flit.hops, 1);
  // A credit went back to the west neighbor (router 4), for its east port.
  ASSERT_EQ(f.env.credits.size(), 1u);
  EXPECT_EQ(f.env.credits[0].up, 4);
  EXPECT_EQ(f.env.credits[0].port, static_cast<int>(Direction::kEast));
}

TEST(Router, DeliveredFlitIsInvisibleUntilItsArrivalEdge) {
  RouterFixture f;
  Router r = f.make(5);  // period 4000: edges at 4000, 8000, 12000, ...
  f.step(r, 4000);
  const int west = static_cast<int>(Direction::kWest);
  // One flit lands between two edges, one exactly on an edge.
  r.receive(west, 0, 10000, f.flit_to(7));
  r.receive(west, 1, 16000, f.flit_to(6));
  f.step(r, 8000);
  // Still on the link: no occupancy, nothing routed, but inbound work
  // keeps the router from gating.
  EXPECT_EQ(r.buffered_flits(), 0);
  EXPECT_EQ(r.epoch_occupancy_samples(), 0u);
  EXPECT_TRUE(f.env.secured.empty());
  EXPECT_TRUE(f.env.punches.empty());
  EXPECT_FALSE(r.can_gate(8000));
  ASSERT_EQ(r.in_flight_flits(west).size(), 2u);

  f.step(r, 12000);  // the first edge at or after 10000
  EXPECT_EQ(r.buffered_flits(), 1);
  EXPECT_EQ(r.epoch_occupancy_samples(), 1u);
  EXPECT_TRUE(f.env.delivered.empty());  // eligible one cycle later
  ASSERT_EQ(r.in_flight_flits(west).size(), 1u);
  EXPECT_EQ(r.in_flight_flits(west)[0].vc, 1);

  f.step(r, 16000);  // the second flit arrives on this very edge
  EXPECT_TRUE(r.in_flight_flits(west).empty());
  ASSERT_EQ(f.env.delivered.size(), 1u);  // the first one left
  EXPECT_EQ(f.env.delivered[0].flit.dst_router, 7);
  EXPECT_EQ(r.buffered_flits(), 1);  // the second one is visible
  EXPECT_EQ(r.epoch_occupancy_samples(), 2u);
}

TEST(Router, EjectsAtDestination) {
  RouterFixture f;
  Router r = f.make(5);
  Tick t = r.period();
  r.receive(0, 0, t, f.flit_to(5));
  for (int i = 0; i < 5 && f.env.ejected.empty(); ++i) {
    t = r.next_edge();
    f.step(r, t);
  }
  ASSERT_EQ(f.env.ejected.size(), 1u);
  EXPECT_EQ(f.env.ejected[0].first, 5);
}

TEST(Router, HoldsFlitWhenDownstreamCannotAccept) {
  RouterFixture f;
  f.env.accept = false;
  Router r = f.make(5);
  Tick t = r.period();
  r.receive(0, 0, t, f.flit_to(7));
  for (int i = 0; i < 10; ++i) {
    t = r.next_edge();
    f.step(r, t);
  }
  EXPECT_TRUE(f.env.delivered.empty());
  // But it keeps securing the downstream router it needs.
  EXPECT_FALSE(f.env.secured.empty());
  for (RouterId s : f.env.secured) EXPECT_EQ(s, 6);
  f.env.accept = true;
  for (int i = 0; i < 5 && f.env.delivered.empty(); ++i) {
    t = r.next_edge();
    f.step(r, t);
  }
  EXPECT_EQ(f.env.delivered.size(), 1u);
}

TEST(Router, PunchesTwoHopsAhead) {
  RouterFixture f;
  Router r = f.make(5);
  Tick t = r.period();
  r.receive(0, 0, t, f.flit_to(7));
  for (int i = 0; i < 5 && f.env.punches.empty(); ++i) {
    t = r.next_edge();
    f.step(r, t);
  }
  ASSERT_FALSE(f.env.punches.empty());
  EXPECT_EQ(f.env.punches[0].first, 6);   // the next hop...
  EXPECT_EQ(f.env.punches[0].second, 7);  // ...towards the destination
}

TEST(Router, GatingRequiresTIdleConsecutiveIdleCycles) {
  RouterFixture f;
  f.config.t_idle_cycles = 4;
  Router r = f.make(5);
  Tick t = 0;
  for (int i = 0; i < 3; ++i) {
    t = r.next_edge();
    f.step(r, t);
    EXPECT_FALSE(r.can_gate(t)) << "after " << (i + 1) << " idle cycles";
  }
  t = r.next_edge();
  f.step(r, t);
  EXPECT_TRUE(r.can_gate(t));
}

TEST(Router, NicBacklogBlocksGating) {
  RouterFixture f;
  Router r = f.make(5);
  Tick t = 0;
  for (int i = 0; i < 10; ++i) {
    t = r.next_edge();
    f.step(r, t, /*nic_backlog=*/true);
  }
  EXPECT_FALSE(r.can_gate(t));
}

TEST(Router, SecuredRouterCannotGate) {
  RouterFixture f;
  Router r = f.make(5);
  Tick t = 0;
  for (int i = 0; i < 10; ++i) {
    t = r.next_edge();
    f.step(r, t);
  }
  EXPECT_TRUE(r.can_gate(t));
  r.mark_secured(t);
  EXPECT_FALSE(r.can_gate(t));
  // The secure mark expires after the TTL.
  const Tick later = t + f.config.secure_ttl_ticks + 1;
  EXPECT_FALSE(r.secured(later));
}

TEST(Router, GateOffAndWakeupTiming) {
  RouterFixture f;
  Router r = f.make(5, VfMode::kV12);
  Tick t = 0;
  for (int i = 0; i < 6; ++i) {
    t = r.next_edge();
    f.step(r, t);
  }
  ASSERT_TRUE(r.can_gate(t));
  r.gate_off(t);
  EXPECT_EQ(r.state(), RouterState::kInactive);
  EXPECT_EQ(r.next_edge(), kInfTick);
  EXPECT_EQ(r.gatings(), 1u);

  const Tick wake_at = t + 100 * 9000;  // well past breakeven
  r.request_wake(wake_at);
  EXPECT_EQ(r.state(), RouterState::kWakeup);
  // T-Wakeup for 1.2V: 18 cycles at 2.25 GHz.
  EXPECT_EQ(r.next_edge(), wake_at + 18u * 4000u);
  EXPECT_EQ(r.premature_wakeups(), 0u);

  f.step(r, r.next_edge());
  EXPECT_EQ(r.state(), RouterState::kActive);
  EXPECT_EQ(r.wakeups(), 1u);
}

TEST(Router, PrematureWakeupDetectedViaBreakeven) {
  RouterFixture f;
  Router r = f.make(5, VfMode::kV12);
  Tick t = 0;
  for (int i = 0; i < 6; ++i) {
    t = r.next_edge();
    f.step(r, t);
  }
  r.gate_off(t);
  // Breakeven for 1.2V is 12 cycles = 48000 ticks; wake after only 2 cycles.
  r.request_wake(t + 8000);
  EXPECT_EQ(r.premature_wakeups(), 1u);
}

TEST(Router, WakeRequestIdempotentWhileWaking) {
  RouterFixture f;
  Router r = f.make(5);
  Tick t = 0;
  for (int i = 0; i < 6; ++i) {
    t = r.next_edge();
    f.step(r, t);
  }
  r.gate_off(t);
  r.request_wake(t + 500000);
  const Tick due = r.next_edge();
  r.request_wake(t + 500001);  // second request must not extend the wakeup
  EXPECT_EQ(r.next_edge(), due);
  EXPECT_EQ(r.wakeups(), 1u);
}

TEST(Router, OffTimeAccumulates) {
  RouterFixture f;
  Router r = f.make(5);
  Tick t = 0;
  for (int i = 0; i < 6; ++i) {
    t = r.next_edge();
    f.step(r, t);
  }
  r.gate_off(t);
  EXPECT_EQ(r.total_off_ticks(t + 90000), 90000u);
  r.request_wake(t + 90000);
  EXPECT_EQ(r.total_off_ticks(t + 200000), 90000u);  // stops accruing
}

TEST(Router, ModeSwitchAppliesStallAndNewPeriod) {
  RouterFixture f;
  Router r = f.make(5, VfMode::kV12);
  Tick t = r.next_edge();
  f.step(r, t);
  r.set_active_mode(VfMode::kV08, t);
  EXPECT_EQ(r.active_mode(), VfMode::kV08);
  EXPECT_EQ(r.period(), 9000u);
  EXPECT_EQ(r.mode_switches(), 1u);
  // T-Switch to 0.8V: 7 cycles of the 1 GHz clock.
  EXPECT_TRUE(r.stalled(t + 7u * 9000u - 1));
  EXPECT_FALSE(r.stalled(t + 7u * 9000u));
  // While stalled, no pipeline activity happens.
  r.receive(0, 0, t, f.flit_to(7));
  Tick t2 = r.next_edge();
  f.step(r, t2);
  EXPECT_TRUE(f.env.delivered.empty());
}

TEST(Router, SameModeSwitchIsFree) {
  RouterFixture f;
  Router r = f.make(5, VfMode::kV12);
  const Tick t = r.next_edge();
  r.set_active_mode(VfMode::kV12, t);
  EXPECT_EQ(r.mode_switches(), 0u);
  EXPECT_FALSE(r.stalled(t));
}

TEST(Router, ModeChangeWhileInactiveIsDeferred) {
  RouterFixture f;
  Router r = f.make(5, VfMode::kV12);
  Tick t = 0;
  for (int i = 0; i < 6; ++i) {
    t = r.next_edge();
    f.step(r, t);
  }
  r.gate_off(t);
  r.set_active_mode(VfMode::kV08, t + 1000);
  EXPECT_EQ(r.active_mode(), VfMode::kV08);
  EXPECT_EQ(r.mode_switches(), 0u);  // no switch penalty while gated
  // Wakes into the new mode with its wakeup cost (9 cycles at 1 GHz).
  r.request_wake(t + 200000);
  EXPECT_EQ(r.next_edge(), t + 200000 + 9u * 9000u);
}

TEST(Router, EnergyAccountingSplitsStates) {
  RouterFixture f;
  Router r = f.make(5, VfMode::kV12);
  Tick t = 0;
  for (int i = 0; i < 6; ++i) {
    t = r.next_edge();
    f.step(r, t);
  }
  r.gate_off(t);
  const Tick off_until = t + 900000;
  r.request_wake(off_until);
  f.step(r, r.next_edge());
  r.account_until(off_until + 200000);
  const auto& acc = r.accountant();
  EXPECT_EQ(acc.inactive_ticks(), 900000u);
  EXPECT_EQ(acc.wakeup_ticks(), 18u * 4000u);
  EXPECT_GT(acc.active_ticks(), 0u);
}

TEST(Router, IbuSamplingReflectsOccupancy) {
  RouterFixture f;
  f.env.accept = false;  // trap the flit inside the router
  Router r = f.make(5);
  Tick t = r.period();
  r.receive(0, 0, t, f.flit_to(7));
  // Enough cycles for the ~16-cycle congestion EMA to converge.
  for (int i = 0; i < 200; ++i) {
    t = r.next_edge();
    f.step(r, t);
  }
  // 1 occupied slot out of 5 ports * 2 VCs * 4 flits = 40 slots. The
  // window-mean reflects it exactly; the peak-EMA congestion signal
  // converges to it from below.
  EXPECT_NEAR(r.epoch_mean_ibu(), 1.0 / 40.0, 1e-3);
  EXPECT_NEAR(r.epoch_ibu(), 1.0 / 40.0, 2e-3);
  EXPECT_LE(r.epoch_ibu(), 1.0 / 40.0 + 1e-12);  // EMA never overshoots
  r.reset_epoch_window();
  EXPECT_DOUBLE_EQ(r.epoch_ibu(), 0.0);
  EXPECT_GT(r.lifetime_ibu(), 0.0);
}

TEST(Router, LocalInjectionPath) {
  RouterFixture f;
  Router r = f.make(5);
  const int local = f.topo.local_port(0);
  EXPECT_TRUE(r.local_vc_has_space(local, 0));
  Tick t = r.period();
  Flit flit = f.flit_to(7);
  r.accept_local(local, 0, flit, t);
  for (int i = 0; i < 5 && f.env.delivered.empty(); ++i) {
    t = r.next_edge();
    f.step(r, t);
  }
  EXPECT_EQ(f.env.delivered.size(), 1u);
  // Local input produced no upstream credit.
  EXPECT_TRUE(f.env.credits.empty());
}

}  // namespace
}  // namespace dozz
