// Per-event simulation phases shared by every kernel: trace injection and
// NIC response maturation (per NIC, and over an event lane for the indexed
// and sharded engines), and the router-environment callbacks that are not
// inline in network.hpp (Power Punch wakeups, ejection with the end-to-end
// CRC check and retransmission scheduling), all booking into the lane
// tallies. Router stepping (phase 4) lives in network.hpp for inlining.
#include "src/common/error.hpp"
#include "src/common/log.hpp"
#include "src/faults/crc.hpp"
#include "src/noc/network.hpp"

namespace dozz {

void Network::wake(RouterId r, Tick now) {
  Router& target = router(r);
  target.request_wake(now);
  if (target.state() != RouterState::kInactive) {
    schedule_edge(r);  // wake moved next_edge off kInfTick
    if (ctx_.observer != nullptr) ctx_.observer->on_wakeup_begin(now, r);
  } else if (ctx_.injector != nullptr) {
    // The wake request was lost (dropped, or refused by a stuck power
    // switch). The caller's secure() pokes retry on every subsequent
    // cycle; once losses pass the threshold, stop gating this router —
    // an unwakeable router is worse than an always-on one.
    if (!ctx_.policy->gating_degraded(r) &&
        target.wake_faults() >= static_cast<std::uint64_t>(
                                    ctx_.config.faults.wake_loss_threshold)) {
      ctx_.policy->degrade_gating(r);
      ++ctx_.injector->stats().routers_gating_degraded;
      DOZZ_LOG_INFO("fault: router " << r << " lost " << target.wake_faults()
                    << " wake requests; gating degraded off");
    }
  }
}

void Network::punch_ahead(RouterId r, RouterId dst, Tick now) {
  if (r == dst) return;
  secure(ctx_.routes.next_hop(r, dst), now);
}

void Network::secure_path(RouterId src, RouterId dst, Tick now) {
  const FlatRouteTable& routes = ctx_.routes;
  RouterId cur = src;
  secure(cur, now);
  while (cur != dst) {
    const RouterId nh = routes.next_hop(cur, dst);
    if (nh == cur)
      throw RoutingError("secure_path stuck: no forward hop from router " +
                         std::to_string(cur) + " on path " +
                         std::to_string(src) + " -> " + std::to_string(dst));
    cur = nh;
    secure(cur, now);
  }
}

void Network::eject(RouterId r, const Flit& flit, Tick now) {
  LaneTally& tally = lane_of(r).tally();
  ++tally.counts.flits_delivered;
  if (ctx_.injector != nullptr) {
    // End-to-end integrity check. A corrupted body flit marks the whole
    // packet instance; the verdict lands on the tail so the packet is
    // accepted or rejected atomically.
    bool corrupted = flit.crc != flit_crc(flit);
    if (corrupted && !flit.is_tail) corrupt_partial_.insert(flit.packet_id);
    if (flit.is_tail) {
      const auto it = corrupt_partial_.find(flit.packet_id);
      if (it != corrupt_partial_.end()) {
        corrupted = true;
        corrupt_partial_.erase(it);
      }
      if (corrupted) {
        handle_corrupt_tail(flit, now);
        return;
      }
    }
  }
  if (!flit.is_tail) return;

  NetworkInterface& sink = nic(r);
  sink.on_ejected_packet(flit);
  if (ctx_.observer != nullptr) ctx_.observer->on_packet_delivered(now, flit);
  if (flit.is_response)
    ++tally.counts.responses_delivered;
  else
    ++tally.counts.requests_delivered;
  tally.ejections.push_back(
      {now, flit.inject_tick, flit.enter_tick, flit.hops});

  if (!flit.is_response && ctx_.config.auto_response) {
    const Tick ready = now + ticks_from_ns(ctx_.config.response_delay_ns);
    sink.schedule_response(tally.draw_id(), flit.dst_core, flit.src_core,
                           ready);
    ++tally.counts.pending_responses;
    lane_of(r).push_response(r, ready);
  }
}

void Network::handle_corrupt_tail(const Flit& tail, Tick now) {
  FaultStats& fs = ctx_.injector->stats();
  ++fs.packets_corrupted;
  if (static_cast<int>(tail.retry) >= ctx_.config.faults.max_retries) {
    ++fs.packets_lost;
    DOZZ_LOG_INFO("fault: packet " << tail.packet_id << " lost after "
                  << static_cast<int>(tail.retry) << " retries");
    return;
  }
  // NIC-level retransmission: the source NI re-sends the whole packet as a
  // fresh instance after an exponential backoff. It shares the response
  // timer queue, so every kernel schedules it like any matured response
  // (maturation counts it as offered; this instance stays terminal, which
  // keeps the drain invariant delivered + corrupted == offered exact).
  const RouterId src = ctx_.topo->router_of_core(tail.src_core);
  EventLane& lane = lane_of(src);
  PendingPacket p;
  p.packet_id = lane.tally().draw_id();
  p.src_core = tail.src_core;
  p.dst_core = tail.dst_core;
  p.is_response = tail.is_response;
  p.size_flits = tail.packet_size_flits;
  p.retry = static_cast<std::uint8_t>(tail.retry + 1);
  const Tick ready =
      now + ctx_.injector->retx_backoff_ticks(static_cast<int>(tail.retry));
  p.inject_tick = ready;
  nic(src).schedule_retransmit(p, ready);
  ++lane.tally().counts.pending_responses;
  lane.push_response(src, ready);
  ++fs.retransmissions;
  DOZZ_LOG_DEBUG("fault: packet " << tail.packet_id
                 << " failed CRC; retransmit attempt "
                 << static_cast<int>(p.retry) << " scheduled");
}

RouterId Network::offer_entry(std::size_t k, Tick now) {
  const TraceEntry& e = running_trace_->entries()[k];
  const RouterId home = ctx_.topo->router_of_core(e.src);
  LaneTally& tally = lane_of(home).tally();
  PendingPacket p;
  if (!ctx_.config.auto_response && ctx_.injector == nullptr) {
    // The trace is the only id consumer: entry k is packet 1 + k, as the
    // sequential stream numbers it, on every engine.
    p.packet_id = 1 + k;
    ++tally.counts.packet_ids;
  } else {
    p.packet_id = tally.draw_id();
  }
  p.src_core = e.src;
  p.dst_core = e.dst;
  p.is_response = e.is_response;
  p.size_flits = static_cast<std::uint16_t>(
      e.is_response ? ctx_.config.response_size_flits
                    : ctx_.config.request_size_flits);
  p.inject_tick = now;
  nics_[static_cast<std::size_t>(home)].enqueue(p);
  ++tally.counts.packets_offered;
  return home;
}

void Network::inject_matured() {
  const auto& entries = running_trace_->entries();
  while (trace_cursor_ < entries.size() &&
         entries[trace_cursor_].inject_tick() <= ctx_.now) {
    const TraceEntry& e = entries[trace_cursor_];
    const RouterId home = offer_entry(trace_cursor_++, ctx_.now);
    if (ctx_.observer != nullptr)
      ctx_.observer->on_packet_offered(ctx_.now, e.src, e.dst, e.is_response);
    if (gating_) {
      // The destination's home router is only needed on the punch path, so
      // compute it lazily rather than per entry.
      if (ctx_.config.lookahead_punch) {
        secure_path(home, ctx_.topo->router_of_core(e.dst), ctx_.now);
      } else {
        secure(home, ctx_.now);
      }
    }
  }
}

void Network::mature_nic(NetworkInterface& n, Tick now) {
  const bool punch_paths = gating_ && ctx_.config.lookahead_punch;
  if (punch_paths) dsts_scratch_.clear();
  const int matured =
      n.mature_responses(now, punch_paths ? &dsts_scratch_ : nullptr);
  LaneCounts& counts = lane_of(n.router()).tally().counts;
  counts.packets_offered += static_cast<std::uint64_t>(matured);
  counts.pending_responses -= matured;
  if (matured > 0 && gating_) {
    if (punch_paths) {
      const Topology& topo = *ctx_.topo;
      const RouterId home = n.router();
      for (CoreId dst : dsts_scratch_)
        secure_path(home, topo.router_of_core(dst), now);
    } else {
      secure(n.router(), now);
    }
  }
}

void Network::mature_due(EventLane& lane, Tick now) {
  for (const RouterId id : lane.take_due_responses(now)) {
    NetworkInterface& n = nics_[static_cast<std::size_t>(id)];
    if (n.next_response_tick() > now) continue;  // stale entry
    mature_nic(n, now);
    if (n.next_response_tick() < kInfTick)
      lane.push_response(id, n.next_response_tick());
  }
}

}  // namespace dozz
