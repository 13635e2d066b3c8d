// Unit tests for NoC building blocks: VCs, timed channels and the
// utilization->mode threshold logic.
#include <gtest/gtest.h>

#include "src/noc/channel.hpp"
#include "src/noc/input_buffer.hpp"
#include "src/noc/stats.hpp"

namespace dozz {
namespace {

Flit make_flit(std::uint64_t id, bool head, bool tail) {
  Flit f;
  f.packet_id = id;
  f.is_head = head;
  f.is_tail = tail;
  return f;
}

TEST(VirtualChannel, FifoOrder) {
  VirtualChannel vc(4);
  vc.push(make_flit(1, true, false));
  vc.push(make_flit(1, false, true));
  EXPECT_EQ(vc.occupancy(), 2);
  EXPECT_TRUE(vc.front().is_head);
  const Flit a = vc.pop();
  EXPECT_TRUE(a.is_head);
  EXPECT_TRUE(vc.front().is_tail);
  EXPECT_EQ(vc.free_slots(), 3);
}

TEST(VirtualChannel, FullAndEmpty) {
  VirtualChannel vc(2);
  EXPECT_TRUE(vc.empty());
  vc.push(make_flit(1, true, true));
  vc.push(make_flit(2, true, true));
  EXPECT_TRUE(vc.full());
  EXPECT_EQ(vc.free_slots(), 0);
}

TEST(VirtualChannel, AllocationLifecycle) {
  VirtualChannel vc(4);
  EXPECT_FALSE(vc.allocated());
  vc.allocate(2, 1);
  EXPECT_TRUE(vc.allocated());
  EXPECT_EQ(vc.out_port(), 2);
  EXPECT_EQ(vc.out_vc(), 1);
  vc.release();
  EXPECT_FALSE(vc.allocated());
  EXPECT_EQ(vc.out_port(), -1);
}

TEST(TimedChannel, MaturesByArrivalTime) {
  TimedChannel<TimedFlit> ch;
  ch.push({100, 0, make_flit(1, true, true)});
  ch.push({200, 1, make_flit(2, true, true)});
  EXPECT_FALSE(ch.ready(99));
  EXPECT_TRUE(ch.ready(100));
  const TimedFlit first = ch.pop();
  EXPECT_EQ(first.arrival, 100u);
  EXPECT_FALSE(ch.ready(150));
  EXPECT_TRUE(ch.ready(200));
}

TEST(TimedChannel, CreditEntries) {
  CreditChannel ch;
  ch.push({50, 3, 1});
  ASSERT_TRUE(ch.ready(50));
  const TimedCredit c = ch.pop();
  EXPECT_EQ(c.port, 3);
  EXPECT_EQ(c.vc, 1);
  EXPECT_TRUE(ch.empty());
}

TEST(ModeThresholds, PaperBreakpoints) {
  // <5% -> M3, 5-10% -> M4, 10-20% -> M5, 20-25% -> M6, >25% -> M7.
  EXPECT_EQ(mode_for_utilization(0.0), VfMode::kV08);
  EXPECT_EQ(mode_for_utilization(0.049), VfMode::kV08);
  EXPECT_EQ(mode_for_utilization(0.05), VfMode::kV09);
  EXPECT_EQ(mode_for_utilization(0.099), VfMode::kV09);
  EXPECT_EQ(mode_for_utilization(0.10), VfMode::kV10);
  EXPECT_EQ(mode_for_utilization(0.199), VfMode::kV10);
  EXPECT_EQ(mode_for_utilization(0.20), VfMode::kV11);
  EXPECT_EQ(mode_for_utilization(0.249), VfMode::kV11);
  EXPECT_EQ(mode_for_utilization(0.25), VfMode::kV12);
  EXPECT_EQ(mode_for_utilization(1.0), VfMode::kV12);
}

TEST(ModeThresholds, MonotoneInUtilization) {
  VfMode prev = VfMode::kV08;
  for (double u = 0.0; u <= 1.0; u += 0.001) {
    const VfMode m = mode_for_utilization(u);
    EXPECT_GE(mode_index(m), mode_index(prev));
    prev = m;
  }
}

TEST(EpochFeatures, VectorMatchesNames) {
  EpochFeatures f;
  f.reqs_sent = 3;
  f.reqs_received = 2;
  f.total_off_kcycles = 1.5;
  f.current_ibu = 0.25;
  const auto v = f.to_vector();
  const auto names = EpochFeatures::names();
  ASSERT_EQ(v.size(), names.size());
  ASSERT_EQ(v.size(), 5u);  // paper Table IV: exactly five features
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 3.0);
  EXPECT_DOUBLE_EQ(v[2], 2.0);
  EXPECT_DOUBLE_EQ(v[3], 1.5);
  EXPECT_DOUBLE_EQ(v[4], 0.25);
  EXPECT_EQ(names[0], "bias");
  EXPECT_EQ(names[4], "current_ibu");
}

TEST(NetworkMetrics, DerivedQuantities) {
  NetworkMetrics m;
  m.sim_ticks = ticks_from_ns(1000.0);
  m.flits_delivered = 500;
  m.packets_delivered = 100;
  EXPECT_DOUBLE_EQ(m.throughput_flits_per_ns(), 0.5);
  EXPECT_DOUBLE_EQ(m.throughput_pkts_per_us(), 100.0);
  m.static_energy_j = 54e-9;
  EXPECT_NEAR(m.avg_static_power_w(), 0.054, 1e-12);
}

}  // namespace
}  // namespace dozz
