// The event calendars and the run tally of one contiguous router range
// (DESIGN.md §6, §11).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/noc/event_schedule.hpp"
#include "src/noc/nic.hpp"
#include "src/noc/router.hpp"

namespace dozz {

/// Run counters a lane's phases add to between two Network::fold_tallies.
struct LaneCounts {
  std::uint64_t packets_offered = 0;
  std::uint64_t flits_delivered = 0;
  std::uint64_t requests_delivered = 0;
  std::uint64_t responses_delivered = 0;
  /// Responses and retransmissions scheduled minus those matured. Signed:
  /// a lane can mature what it scheduled before the last fold.
  std::int64_t pending_responses = 0;
  /// How far the lane moved the packet-id watermark (LaneTally::draw_id).
  std::uint64_t packet_ids = 0;
  std::uint64_t kernel_events = 0;
  std::uint64_t edge_steps = 0;

  LaneCounts& operator+=(const LaneCounts& o) {
    packets_offered += o.packets_offered;
    flits_delivered += o.flits_delivered;
    requests_delivered += o.requests_delivered;
    responses_delivered += o.responses_delivered;
    pending_responses += o.pending_responses;
    packet_ids += o.packet_ids;
    kernel_events += o.kernel_events;
    edge_steps += o.edge_steps;
    return *this;
  }
  bool operator==(const LaneCounts&) const = default;
};

/// One delivered packet, as the fold replays it into the order-sensitive
/// statistics (the latency RunningStats and histogram, the hop count).
struct TailEjection {
  Tick now;
  Tick inject_tick;
  Tick enter_tick;
  std::uint16_t hops;
};

/// A lane's counter deltas, tail ejections in event order, and id stream.
struct LaneTally {
  LaneCounts counts;
  std::vector<TailEjection> ejections;
  /// Lane s of n draws ids from the network's watermark + s in steps of n:
  /// no two lanes share an id, and the fold's watermark passes every id
  /// drawn. One lane is the sequential engine's step-1 stream.
  std::uint64_t next_id = 1;
  std::uint64_t id_step = 1;

  std::uint64_t draw_id() {
    const std::uint64_t id = next_id;
    next_id += id_step;
    counts.packet_ids += id_step;
    return id;
  }
  /// True when nothing is booked that a fold has not yet taken.
  bool empty() const { return counts == LaneCounts{} && ejections.empty(); }
};

/// A router range [lo, hi) with its clock-edge calendar, its NIC response
/// heap and its run tally. The sequential indexed kernel runs one lane
/// over every router and the sharded engine one per shard; both drive the
/// same per-event phases over a lane (Network::mature_due, step_due),
/// which book into the tally of the lane that owns the router.
///
/// Entries are (tick, id) with lazy invalidation: an entry is live iff its
/// tick still equals the owner's current next_edge() /
/// next_response_tick(); anything stale is discarded when read.
/// Rescheduling only ever pushes (it never edits), so the live minimum is
/// always present. Clock edges live in a tick-bucketed calendar queue
/// (they cluster on few distinct ticks); the rarer NIC responses use a
/// plain binary min-heap. The calendars are derived state: they are not
/// checkpointed, and seed() rebuilds them from the live routers and NICs.
/// Nor is the tally: checkpoints follow a fold, which empties it.
class EventLane {
 public:
  EventLane(const std::vector<Router>& routers,
            const std::vector<NetworkInterface>& nics, RouterId lo,
            RouterId hi)
      : routers_(&routers), nics_(&nics), lo_(lo), hi_(hi) {
    // An epoch boundary republishes every router's edge while the stale
    // entries for the same tick are still in the bucket (lazy
    // invalidation), so a bucket can briefly hold two entries per router.
    edges_.warm(2 * static_cast<std::size_t>(hi - lo));
    tally_.ejections.reserve(static_cast<std::size_t>(hi - lo));
  }

  RouterId lo() const { return lo_; }
  RouterId hi() const { return hi_; }

  LaneTally& tally() { return tally_; }
  const LaneTally& tally() const { return tally_; }

  /// (Re)publishes router `r`'s next clock edge.
  void push_edge(RouterId r, Tick edge) { edges_.push(edge, r); }
  /// (Re)publishes NIC `n`'s next response maturation tick.
  void push_response(RouterId n, Tick ready) { responses_.push({ready, n}); }

  /// Publishes every owned router's pending edge and every owned NIC's
  /// earliest pending response. One entry at each NIC's current minimum
  /// suffices: maturation republishes after every pop.
  void seed() {
    for (RouterId r = lo_; r < hi_; ++r) {
      const Tick edge = router(r).next_edge();
      if (edge < kInfTick) push_edge(r, edge);
      const Tick ready = nic(r).next_response_tick();
      if (ready < kInfTick) push_response(r, ready);
    }
  }

  /// Earliest live edge or response tick (kInfTick if none).
  Tick next_event() { return std::min(edge_min(), response_min()); }

  /// Pops every response entry due at `now`; returns their NIC ids in
  /// ascending order without duplicates. Entries can still be stale (the
  /// NIC matured them already), so the caller re-checks each NIC.
  const std::vector<RouterId>& take_due_responses(Tick now) {
    due_.clear();
    // Nearly every kernel event has no response due: skip the sort.
    if (responses_.empty() || responses_.top().first > now) return due_;
    while (!responses_.empty() && responses_.top().first <= now) {
      due_.push_back(responses_.top().second);
      responses_.pop();
    }
    std::sort(due_.begin(), due_.end());
    due_.erase(std::unique(due_.begin(), due_.end()), due_.end());
    return due_;
  }

  /// Consumes every edge bucket due at `now`; returns the router ids whose
  /// live edge is due, in ascending order without duplicates, and moves
  /// the wheel window up to `now`. The common case is a single due bucket
  /// already in id order (steps republish in ascending id), so its storage
  /// is stolen instead of copied and only sorted when a wake push actually
  /// broke the order.
  const std::vector<RouterId>& take_due_edges(Tick now) {
    due_.clear();
    while (!edges_.empty() && edges_.front_tick() <= now) {
      const Tick tick = edges_.front_tick();
      auto& bucket = edges_.front_bucket();
      if (due_.empty()) {
        due_.swap(bucket);
        std::size_t live = 0;
        for (const RouterId id : due_)
          if (router(id).next_edge() == tick) due_[live++] = id;
        due_.resize(live);
      } else {
        for (const RouterId id : bucket)
          if (router(id).next_edge() == tick) due_.push_back(id);
      }
      edges_.pop_front();
    }
    // Every due bucket is consumed, so all remaining scheduled ticks are
    // in the future: move the wheel window up to the clock.
    edges_.advance_to(now);
    if (!std::is_sorted(due_.begin(), due_.end()))
      std::sort(due_.begin(), due_.end());
    due_.erase(std::unique(due_.begin(), due_.end()), due_.end());
    return due_;
  }

 private:
  using ScheduledEvent = std::pair<Tick, RouterId>;

  const Router& router(RouterId r) const {
    return (*routers_)[static_cast<std::size_t>(r)];
  }
  const NetworkInterface& nic(RouterId n) const {
    return (*nics_)[static_cast<std::size_t>(n)];
  }

  /// Compacts stale entries out of the front edge bucket(s); returns the
  /// live minimum edge tick (kInfTick if none).
  Tick edge_min() {
    while (!edges_.empty()) {
      const Tick tick = edges_.front_tick();
      // One live entry proves the bucket's tick is the minimum — stop
      // there (take_due_edges re-validates every entry anyway). Every
      // reschedule pushes a fresh entry, so the live minimum is always
      // present; a mismatched entry is a stale leftover. Only a fully
      // stale bucket costs a full scan, and it is discarded on the spot.
      for (const RouterId id : edges_.front_bucket()) {
        const Tick edge = router(id).next_edge();
        if (edge == tick) return tick;
        DOZZ_ASSERT(edge > tick);
      }
      edges_.pop_front();
    }
    return kInfTick;
  }

  /// Pops stale entries off the top; returns the live minimum response
  /// tick (kInfTick if empty).
  Tick response_min() {
    while (!responses_.empty()) {
      const auto [tick, id] = responses_.top();
      const Tick live = nic(id).next_response_tick();
      if (live == tick) return tick;
      DOZZ_ASSERT(live > tick);
      responses_.pop();
    }
    return kInfTick;
  }

  const std::vector<Router>* routers_;
  const std::vector<NetworkInterface>* nics_;
  RouterId lo_;
  RouterId hi_;
  EventSchedule edges_;
  std::priority_queue<ScheduledEvent, std::vector<ScheduledEvent>,
                      std::greater<ScheduledEvent>>
      responses_;
  std::vector<RouterId> due_;  ///< Scratch for the take_due_* lists.
  LaneTally tally_;
};

}  // namespace dozz
