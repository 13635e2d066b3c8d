// The engine loop: the sequential indexed kernel over one event lane, the
// per-event body (run_event) it shares with the sharded engine's epoch
// boundaries, the fold of the lanes' tallies, the lane plan, and run_loop,
// which picks between the two engines. begin_run and finish_run wrap every
// kernel entry point (run_loop here; the linear-scan reference kernel the
// equivalence tests run, tests/linear_kernel.cpp): resume validation, loop
// state and log reservations before the kernel, metrics compilation after
// it. The per-event phases run_event invokes live in phases.cpp and
// epoch_phase.cpp.
#include <algorithm>
#include <utility>

#include "src/ckpt/serial.hpp"
#include "src/common/error.hpp"
#include "src/noc/network.hpp"
#include "src/noc/network_internal.hpp"

namespace dozz {

void Network::begin_run(const Trace& trace, Tick end_tick, bool drain) {
  DOZZ_REQUIRE(!ran_);
  DOZZ_REQUIRE(end_tick > 0);
  ran_ = true;
  run_drain_ = drain;
  run_end_tick_ = end_tick;
  running_trace_ = &trace;

  if (resumed_) {
    // A restored run must continue the exact same workload: the checkpoint
    // records the run parameters and a trace fingerprint; any divergence
    // would silently break the bit-identity contract, so it is an error.
    if (drain != expect_.drain)
      throw CheckpointError(
          "checkpoint resume: drain mode mismatch (checkpoint was " +
          std::string(expect_.drain ? "drained" : "windowed") + ")");
    if (end_tick != expect_.end_tick)
      throw CheckpointError(
          "checkpoint resume: run horizon mismatch (checkpoint had end tick " +
          std::to_string(expect_.end_tick) + ", run has " +
          std::to_string(end_tick) + ")");
    if (trace.size() != expect_.trace_size ||
        internal::trace_fingerprint(trace) != expect_.trace_hash)
      throw CheckpointError(
          "checkpoint resume: trace mismatch (checkpoint was taken against "
          "trace '" +
          expect_.trace_name + "', " + std::to_string(expect_.trace_size) +
          " entries)");
  } else {
    trace_cursor_ = 0;
    next_epoch_ = ctx_.config.epoch_ticks();
    last_event_ = 0;
  }

  // Long runs append one row per epoch; size the logs once up front
  // instead of growing them through repeated reallocation.
  const auto epochs = static_cast<std::size_t>(
      end_tick / ctx_.config.epoch_ticks() + 1);
  if (ctx_.config.collect_epoch_log) epoch_log_.reserve(epochs);
  if (ctx_.config.collect_extended_log) extended_log_.reserve(epochs);
}

void Network::finish_run(Tick last_event) {
  // In drain mode the run's duration is the time of the last event (the
  // final delivery); in window mode it is the fixed horizon. An interrupted
  // run compiles a *partial* report up to the stopping boundary — a resume
  // restores the pre-compile checkpoint, so this accounting is discarded.
  compile_metrics(interrupted_ || run_drain_ ? std::max<Tick>(last_event, 1)
                                             : run_end_tick_);
}

void Network::run_loop(const Trace& trace, Tick end_tick, bool drain) {
  begin_run(trace, end_tick, drain);
  const int shards = plan_shard_count();
  shards_used_ = shards;
  shard_stall_frac_ = 0.0;
  finish_run(shards > 1 ? run_loop_sharded(trace, end_tick, drain, shards)
                        : run_loop_indexed(trace, end_tick, drain));
}

void Network::split_lanes(int shards) {
  for (const EventLane& lane : lanes_) DOZZ_ASSERT(lane.tally().empty());
  const int n = static_cast<int>(routers_.size());
  lane_plan_ = make_shard_plan(n, shards);
  lanes_.clear();
  for (int s = 0; s < shards; ++s) {
    EventLane& lane = lanes_.emplace_back(
        routers_, nics_, lane_plan_.begin(s), lane_plan_.end(s));
    lane.tally().next_id = next_packet_id_ + static_cast<std::uint64_t>(s);
    lane.tally().id_step = static_cast<std::uint64_t>(shards);
  }
}

void Network::fold_tallies() {
  LaneCounts sum;
  for (EventLane& lane : lanes_) sum += std::exchange(lane.tally().counts, {});
  NetworkMetrics& m = ctx_.metrics;
  m.packets_offered += sum.packets_offered;
  m.flits_delivered += sum.flits_delivered;
  m.packets_delivered += sum.requests_delivered + sum.responses_delivered;
  m.requests_delivered += sum.requests_delivered;
  m.responses_delivered += sum.responses_delivered;
  // Modular: a negative delta lowers the count.
  pending_responses_ += static_cast<std::uint64_t>(sum.pending_responses);
  next_packet_id_ += sum.packet_ids;
  kernel_events_ += sum.kernel_events;
  edge_steps_ += sum.edge_steps;

  // Each log is in its lane's event order; stable merges into the first
  // lane's keep equal ticks in lane order. Added in the sequential order,
  // the Welford statistics and the histogram stay bit-identical.
  auto& log = lanes_.front().tally().ejections;
  for (std::size_t s = 1; s < lanes_.size(); ++s) {
    auto& other = lanes_[s].tally().ejections;
    const auto mid = static_cast<std::ptrdiff_t>(log.size());
    log.insert(log.end(), other.begin(), other.end());
    other.clear();
    std::inplace_merge(
        log.begin(), log.begin() + mid, log.end(),
        [](const TailEjection& a, const TailEjection& b) {
          return a.now < b.now;
        });
  }
  for (const TailEjection& e : log) {
    const double latency_ns = ns_from_ticks(e.now - e.inject_tick);
    m.packet_latency_ns.add(latency_ns);
    ctx_.latency_hist.add(latency_ns);
    m.network_latency_ns.add(ns_from_ticks(e.now - e.enter_tick));
    m.packet_hops.add(static_cast<double>(e.hops));
  }
  log.clear();
}

void Network::schedule_edge(RouterId r) {
  const Tick edge = routers_[static_cast<std::size_t>(r)].next_edge();
  if (edge < kInfTick) lane_of(r).push_edge(r, edge);
}

Tick Network::run_loop_indexed(const Trace& trace, Tick end_tick,
                               bool drain) {
  const auto& entries = trace.entries();
  DOZZ_ASSERT(lanes_.size() == 1);
  EventLane& lane = lanes_.front();
  lane.seed();

  while (true) {
    // Drain check without the per-event NIC scan: packets parked in NIC
    // queues or in-network are offered-but-undelivered, so the only state
    // the counters miss is responses scheduled but not yet matured.
    if (drain && trace_cursor_ >= entries.size() && pending_responses_ == 0 &&
        ctx_.metrics.packets_delivered + terminal_failures() ==
            ctx_.metrics.packets_offered)
      break;
    const Tick trace_next = trace_cursor_ < entries.size()
                                ? entries[trace_cursor_].inject_tick()
                                : kInfTick;
    const Tick t =
        std::min(std::min(trace_next, next_epoch_), lane.next_event());
    if (t >= end_tick) break;
    if (!run_event(t)) break;
  }
  return last_event_;
}

bool Network::run_event(Tick t) {
  DOZZ_ASSERT(t >= ctx_.now);
  ctx_.now = t;
  last_event_ = t;
  ++kernel_events_;

  // 1. Matured trace entries become pending packets at their source NI.
  inject_matured();

  // 2. Matured responses, in NIC-id order (lanes are contiguous and
  // ascending).
  for (EventLane& lane : lanes_) mature_due(lane, t);

  // 3. Epoch boundary: feature capture and DVFS mode selection, on exact
  // counts (the watchdog reads them). set_active_mode can pull a slow
  // router's edge *earlier* (new period from now), so process_epoch
  // republishes affected edges before the due-edge collection below.
  const bool at_epoch = t == next_epoch_;
  if (at_epoch) {
    fold_tallies();
    process_epoch(t);
    next_epoch_ += ctx_.config.epoch_ticks();
  }

  // 4. Clock edges due now, in router-id order for determinism.
  for (EventLane& lane : lanes_) step_due(lane, *this, t);
  fold_tallies();

  // Epoch hook, fired only after the boundary iteration completed its
  // clock edges: a checkpoint taken here resumes at the *next* kernel
  // event, so the resumed run re-counts nothing (bit-identity).
  if (at_epoch && ctx_.epoch_hook &&
      !ctx_.epoch_hook(*this, t, epochs_processed_)) {
    interrupted_ = true;
    return false;
  }
  return true;
}

}  // namespace dozz
