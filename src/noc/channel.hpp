// Timed point-to-point channels carrying credits back between routers in
// different clock domains. Entries mature at an absolute tick and are
// drained by the receiving router at its own clock edges, which is how the
// paper's "hop latency is set by the upstream router's frequency" semantics
// fall out naturally. Flits take the same timing without a channel: they
// wait in the receiving VC's in-flight tail (input_buffer.hpp).
#pragma once

#include "src/common/error.hpp"
#include "src/common/ring_buffer.hpp"
#include "src/common/time.hpp"
#include "src/noc/flit.hpp"

namespace dozz {

/// A flit in flight on a link, destined for input VC `vc` at the receiver
/// (the checkpoint record of a VC's in-flight tail).
struct TimedFlit {
  Tick arrival = 0;
  int vc = 0;
  Flit flit;
};

/// A credit in flight back to the upstream router, for (out_port, vc).
struct TimedCredit {
  Tick arrival = 0;
  int port = 0;
  int vc = 0;
};

/// FIFO of timed entries; arrival times are nondecreasing per channel.
/// Backed by a growable ring: once the channel has seen its high-water
/// occupancy, push/pop no longer allocate.
template <typename Entry>
class TimedChannel {
 public:
  void push(Entry entry) {
    DOZZ_ASSERT(entries_.empty() || entries_.back().arrival <= entry.arrival);
    entries_.push_back(std::move(entry));
  }

  /// True if an entry has matured at or before `now`.
  bool ready(Tick now) const {
    return !entries_.empty() && entries_.front().arrival <= now;
  }

  Entry pop() {
    DOZZ_ASSERT(!entries_.empty());
    Entry e = std::move(entries_.front());
    entries_.pop_front();
    return e;
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Pre-sizes the ring so pushes up to `n` in-flight entries never
  /// allocate. Credit flow control bounds channel occupancy by the
  /// receiver's buffer capacity, so callers can size this exactly.
  void reserve(std::size_t n) { entries_.reserve(n); }

  /// In-flight entries, oldest first (checkpoint/restore).
  const RingBuffer<Entry>& entries() const { return entries_; }
  /// Drops all in-flight entries (checkpoint restore repopulates via push).
  void clear() { entries_.clear(); }

 private:
  RingBuffer<Entry> entries_;
};

using CreditChannel = TimedChannel<TimedCredit>;

}  // namespace dozz
