// Unit tests for the power-of-two ring buffer behind the hot-path FIFOs
// (VC flit queues, link channels, NIC injection queues): FIFO order across
// wraparound, growth while wrapped, reserve sizing, and the oldest-first
// iteration order the checkpoint format serializes with.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/ring_buffer.hpp"
#include "src/noc/channel.hpp"

namespace dozz {
namespace {

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 0u);
}

TEST(RingBuffer, PushPopFifoOrder) {
  RingBuffer<int> ring;
  for (int i = 0; i < 10; ++i) ring.push_back(i);
  EXPECT_EQ(ring.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ring.front(), i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, WrapAroundKeepsOrderWithoutGrowth) {
  // Interleaved push/pop at a small occupancy: the head index must lap the
  // storage many times while capacity stays at the initial power of two.
  RingBuffer<int> ring(4);
  const std::size_t cap = ring.capacity();
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 1000; ++round) {
    ring.push_back(next_push++);
    ring.push_back(next_push++);
    EXPECT_EQ(ring.front(), next_pop);
    ring.pop_front();
    ++next_pop;
    ring.pop_front();
    ++next_pop;
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), cap);
}

TEST(RingBuffer, GrowthWhileWrappedPreservesOrder) {
  // Advance the head past the storage boundary, then push through the
  // full-capacity regrowth; logical order must survive the relocation.
  RingBuffer<int> ring;
  for (int i = 0; i < 4; ++i) ring.push_back(i);  // at min capacity (4)
  ring.pop_front();
  ring.pop_front();
  for (int i = 4; i < 20; ++i) ring.push_back(i);  // wraps, then grows twice
  EXPECT_EQ(ring.size(), 18u);
  for (int i = 2; i < 20; ++i) {
    EXPECT_EQ(ring.front(), i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, ReserveRoundsUpToPowerOfTwoAndNeverShrinks) {
  RingBuffer<int> ring;
  ring.reserve(5);
  EXPECT_EQ(ring.capacity(), 8u);
  ring.reserve(2);
  EXPECT_EQ(ring.capacity(), 8u);
  ring.reserve(9);
  EXPECT_EQ(ring.capacity(), 16u);
}

TEST(RingBuffer, ReservedRingDoesNotRegrow) {
  RingBuffer<int> ring(16);
  const std::size_t cap = ring.capacity();
  for (int i = 0; i < 16; ++i) ring.push_back(i);
  EXPECT_EQ(ring.capacity(), cap);
  EXPECT_EQ(ring.size(), 16u);
}

TEST(RingBuffer, ClearKeepsStorageForReuse) {
  RingBuffer<int> ring;
  for (int i = 0; i < 12; ++i) ring.push_back(i);
  const std::size_t cap = ring.capacity();
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), cap);
  ring.push_back(99);
  EXPECT_EQ(ring.front(), 99);
}

TEST(RingBuffer, IterationIsOldestFirstAfterWrap) {
  // The checkpoint writer walks begin()..end() and expects logical (FIFO)
  // order even when the live entries straddle the storage boundary.
  RingBuffer<int> ring(4);
  for (int i = 0; i < 4; ++i) ring.push_back(i);
  ring.pop_front();
  ring.pop_front();
  ring.push_back(4);
  ring.push_back(5);  // entries 2,3,4,5 now wrap the 4-slot storage
  std::vector<int> seen;
  for (const int v : ring) seen.push_back(v);
  EXPECT_EQ(seen, (std::vector<int>{2, 3, 4, 5}));
}

TEST(RingBuffer, IndexingFrontBackAfterWrap) {
  RingBuffer<int> ring(4);
  for (int i = 0; i < 4; ++i) ring.push_back(i);
  ring.pop_front();
  ring.push_back(4);  // head at slot 1, tail wrapped to slot 0
  EXPECT_EQ(ring.front(), 1);
  EXPECT_EQ(ring.back(), 4);
  for (std::size_t i = 0; i < ring.size(); ++i)
    EXPECT_EQ(ring[i], static_cast<int>(i) + 1);
}

TEST(TimedChannel, FifoWithMaturityAndReserve) {
  TimedChannel<TimedFlit> ch;
  ch.reserve(8);
  for (int i = 0; i < 6; ++i) {
    TimedFlit t;
    t.arrival = static_cast<Tick>(10 * (i + 1));
    t.vc = i;
    ch.push(t);
  }
  EXPECT_FALSE(ch.ready(9));
  EXPECT_TRUE(ch.ready(10));
  EXPECT_EQ(ch.pop().vc, 0);
  EXPECT_FALSE(ch.ready(15));
  // Drain the rest; entries stay in push order.
  int expected = 1;
  while (!ch.empty()) EXPECT_EQ(ch.pop().vc, expected++);
}

}  // namespace
}  // namespace dozz
