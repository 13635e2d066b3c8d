// Virtual-channel input buffering with wormhole allocation state.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/ring_buffer.hpp"
#include "src/common/time.hpp"
#include "src/noc/flit.hpp"

namespace dozz {

/// One virtual channel: a flit FIFO plus the wormhole allocation of the
/// packet currently crossing it.
///
/// The FIFO holds the *visible* flits, which the router has taken in at a
/// clock edge, followed by the *in-flight* tail: flits still crossing the
/// link, delivered here by the upstream router at send time with their
/// arrival tick (receive). mature() makes the tail's due prefix visible.
/// empty(), front(), pop() and occupancy() see only visible flits. Credit
/// flow control bounds visible plus in-flight flits by `depth`, so both
/// rings are sized once here and a push/pop never touches the allocator.
class VirtualChannel {
 public:
  /// Send-side record of an in-flight flit: its arrival tick and its send
  /// sequence number on the input port (orders the port's flits across
  /// VCs when two of them arrive at the same tick).
  struct InFlight {
    Tick arrival = 0;
    std::uint64_t seq = 0;
  };

  explicit VirtualChannel(int depth)
      : depth_(depth),
        queue_(static_cast<std::size_t>(depth)),
        in_flight_(static_cast<std::size_t>(depth)) {
    DOZZ_REQUIRE(depth > 0);
  }

  bool empty() const { return visible_ == 0; }
  /// No room for another flit, visible or in flight.
  bool full() const { return static_cast<int>(queue_.size()) >= depth_; }
  int occupancy() const { return visible_; }
  int depth() const { return depth_; }
  int free_slots() const { return depth_ - static_cast<int>(queue_.size()); }

  /// Appends a visible flit (local injection: no link to cross).
  void push(const Flit& flit) {
    DOZZ_ASSERT(!full());
    DOZZ_ASSERT(in_flight_.empty());
    queue_.push_back(flit);
    ++visible_;
  }

  const Flit& front() const {
    DOZZ_ASSERT(!empty());
    return queue_.front();
  }

  Flit pop() {
    DOZZ_ASSERT(!empty());
    Flit f = queue_.front();
    queue_.pop_front();
    --visible_;
    return f;
  }

  // --- The in-flight tail ---
  /// Appends a flit still on the link, arriving at `arrival`. Arrivals on
  /// one VC never decrease (the caller checks it per input port).
  void receive(Tick arrival, std::uint64_t seq, const Flit& flit) {
    DOZZ_ASSERT(!full());
    queue_.push_back(flit);
    in_flight_.push_back({arrival, seq});
  }

  bool has_in_flight() const { return !in_flight_.empty(); }
  int in_flight() const { return static_cast<int>(in_flight_.size()); }
  /// The `i`-th in-flight flit (oldest first) and its send record.
  const Flit& in_flight_flit(int i) const {
    return queue_[static_cast<std::size_t>(visible_ + i)];
  }
  const InFlight& in_flight_record(int i) const {
    return in_flight_[static_cast<std::size_t>(i)];
  }

  /// Makes every in-flight flit that has arrived by `now` visible, eligible
  /// for switch allocation from `eligible`. Returns how many.
  int mature(Tick now, Tick eligible) {
    int n = 0;
    while (!in_flight_.empty() && in_flight_.front().arrival <= now) {
      queue_[static_cast<std::size_t>(visible_)].eligible_tick = eligible;
      ++visible_;
      in_flight_.pop_front();
      ++n;
    }
    return n;
  }

  // Wormhole allocation for the packet at the front of this VC.
  bool allocated() const { return allocated_; }
  int out_port() const { return out_port_; }
  int out_vc() const { return out_vc_; }

  void allocate(int out_port, int out_vc) {
    DOZZ_ASSERT(!allocated_);
    allocated_ = true;
    out_port_ = out_port;
    out_vc_ = out_vc;
  }

  void release() {
    allocated_ = false;
    out_port_ = -1;
    out_vc_ = -1;
  }

  /// The `i`-th visible flit, head first (checkpoint/restore).
  const Flit& flit(int i) const {
    DOZZ_ASSERT(i < visible_);
    return queue_[static_cast<std::size_t>(i)];
  }
  /// Restores the visible flits and the wormhole allocation in one shot;
  /// drops the in-flight tail (restore re-delivers it).
  void restore(const std::vector<Flit>& flits, bool allocated, int out_port,
               int out_vc) {
    DOZZ_REQUIRE(static_cast<int>(flits.size()) <= depth_);
    queue_.clear();
    in_flight_.clear();
    for (const Flit& f : flits) queue_.push_back(f);
    visible_ = static_cast<int>(flits.size());
    allocated_ = allocated;
    out_port_ = out_port;
    out_vc_ = out_vc;
  }

 private:
  int depth_;
  int visible_ = 0;  ///< Visible flits: the first visible_ entries of queue_.
  RingBuffer<Flit> queue_;
  RingBuffer<InFlight> in_flight_;  ///< One record per in-flight flit.
  bool allocated_ = false;
  int out_port_ = -1;
  int out_vc_ = -1;
};

}  // namespace dozz
