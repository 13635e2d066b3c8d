// The event calendars of one contiguous router range (DESIGN.md §6, §11).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/noc/event_schedule.hpp"
#include "src/noc/nic.hpp"
#include "src/noc/router.hpp"

namespace dozz {

/// A router range [lo, hi) with its clock-edge calendar and its NIC
/// response heap. The sequential indexed kernel runs one lane over every
/// router and the sharded engine one per shard; both drive the same
/// per-event phases over a lane (Network::mature_due, step_due).
///
/// Entries are (tick, id) with lazy invalidation: an entry is live iff its
/// tick still equals the owner's current next_edge() /
/// next_response_tick(); anything stale is discarded when read.
/// Rescheduling only ever pushes (it never edits), so the live minimum is
/// always present. Clock edges live in a tick-bucketed calendar queue
/// (they cluster on few distinct ticks); the rarer NIC responses use a
/// plain binary min-heap. The calendars are derived state: they are not
/// checkpointed, and seed() rebuilds them from the live routers and NICs.
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
  }

  RouterId lo() const { return lo_; }
  RouterId hi() const { return hi_; }

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
};

}  // namespace dozz
