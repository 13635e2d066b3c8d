// The sharded engine (DESIGN.md §11): conservative-window parallel
// execution of one simulation, bit-identical to run_loop_indexed.
//
// The router-id space is split into contiguous shards (ShardPlan), each
// owned by one thread and holding one event lane (event_lane.hpp) over
// its routers. A window is the only parallel round: a shard runs the
// sequential kernel's own per-event phases (Network::offer_entry,
// mature_due, step_due) over its lane and trace slice up to a
// conservative horizon. Its router environment (ShardRuntime::Env, a
// RouterEnv the shard's step_due binds at compile time) applies effects
// on its own routers through the Network's callbacks, ejection included,
// and stages every cross-shard effect (flit delivery, credit return,
// Power Punch secure marks) in per-destination outboxes. At the window
// barrier receivers apply the staged traffic, a serial section on the
// coordinator picks the next window, and the round repeats. An epoch
// boundary, the one point where modes change, is not a round: the serial
// section runs it as one sequential kernel event (Network::run_event over
// every lane) while the workers are parked.
//
// Why the windows are exact, not approximate: every cross-shard effect
// carries an arrival tick at least one fastest-mode clock period
// (kBaselinePeriodTicks) after the send — flit hops cost
// link_latency_cycles upstream periods (validate() keeps it at one or
// more), credits one period — so a window of exactly that lookahead can
// never contain an event that depends on in-window remote traffic.
// Applying the staged effects at the barrier therefore leaves every link
// with the same contents, in the same per-link order (each input port's
// flits and each output's credits have exactly one sending router, hence
// one sending shard), as the sequential engine: a delivered flit joins its
// VC's in-flight tail before any tick at which it could mature.
//
// Determinism of the run statistics: the phases book into the tally of
// the lane that owns their router, so a shard thread writes only its own
// lane's; Network::fold_tallies takes them all on the coordinator while
// the workers are parked. Integer deltas add in any order; the
// floating-point statistics are replayed from the ejection logs in (tick,
// lane) order, the sequential (tick, router-id) order, because shards are
// contiguous and ascending in router id.
//
// Eligibility (resolve_shard_threads, Network::plan_shard_count) excludes
// everything that would couple shards below the lookahead or perturb
// report-visible state: power gating (zero-latency wakes, remote state reads),
// fault injection (one global RNG in event order), observers (global
// event order), extended feature capture (in-window arrival counters),
// and packet-id/VC coupling (ids must be trace-positional or VC-inert).
// Ineligible runs silently fall back to the sequential engine.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/spin_barrier.hpp"
#include "src/noc/network.hpp"

namespace dozz {

namespace {

/// Conservative lookahead: the minimum tick distance between a
/// cross-shard send and its earliest visible effect. Credits bound it —
/// a credit sent at `now` arrives at now + period(), and the fastest
/// V/F mode's period is kBaselinePeriodTicks. Flit hops are no sooner:
/// validate() keeps link_latency_cycles at one upstream period or more.
constexpr Tick kLookaheadTicks = kBaselinePeriodTicks;

}  // namespace

struct ShardRuntime {
  /// What the next parallel round executes, published by the serial
  /// section before the barrier release that starts the round.
  enum class Cmd : std::uint8_t {
    kWindow,  ///< Run local events in [w_begin_, w_end_).
    kExit,    ///< Parallel phase over; workers return.
  };

  /// A staged cross-shard effect, applied by the receiving shard after
  /// the window barrier. Arrival ticks are >= the window end by the
  /// lookahead argument above, so deferred application is exact.
  struct Op {
    enum class Kind : std::uint8_t { kDeliver, kCredit, kSecure };
    Kind kind;
    std::uint8_t port = 0;
    std::uint16_t vc = 0;
    RouterId target = 0;
    Tick tick = 0;  ///< Arrival tick (deliver/credit) or secure mark time.
    Flit flit{};    ///< Valid for kDeliver only.
  };

  struct Shard {
    int index = 0;
    EventLane* lane = nullptr;  ///< Owned routers and their calendars.
    /// Global indices of trace entries homed at this shard's routers
    /// (ascending, so the consumed set is always a global prefix).
    std::vector<std::uint32_t> entry_idx;
    std::size_t cursor = 0;  ///< Next unconsumed position in entry_idx.
    Tick last_event = 0;     ///< Last locally processed event tick.
    Tick next_min = kInfTick;  ///< Local next-event tick (at round end).
    std::vector<std::vector<Op>> out;  ///< Outboxes, one per dest shard.
    double wait_seconds = 0.0;         ///< Time parked at barriers.
    std::exception_ptr error;
  };

  /// The per-shard router environment (RouterEnv, router.hpp): effects on
  /// the shard's own routers go through the Network's own callbacks (the
  /// sequential engine's code path), cross-shard effects are staged.
  /// Gating is off for every engaged configuration, so the wake machinery
  /// in Network::secure is dead here and remote state() reads race nothing
  /// (state_ changes only in the serial epoch phase).
  class Env {
   public:
    Env(ShardRuntime& rt, Shard& s)
        : rt_(&rt), s_(&s), lo_(s.lane->lo()), hi_(s.lane->hi()) {}

    bool downstream_can_accept(RouterId r) const {
      return rt_->net_.downstream_can_accept(r);
    }

    void secure(RouterId r, Tick now) {
      if (owns(r))
        rt_->net_.secure(r, now);
      else
        stage({.kind = Op::Kind::kSecure, .target = r, .tick = now});
    }

    void punch_ahead(RouterId r, RouterId dst, Tick now) {
      if (r == dst) return;
      secure(rt_->net_.ctx_.routes.next_hop(r, dst), now);
    }

    void deliver(RouterId r, int port, int vc, Tick arrival,
                 const Flit& flit) {
      if (owns(r))
        rt_->net_.deliver(r, port, vc, arrival, flit);
      else
        stage({.kind = Op::Kind::kDeliver,
               .port = static_cast<std::uint8_t>(port),
               .vc = static_cast<std::uint16_t>(vc), .target = r,
               .tick = arrival, .flit = flit});
    }

    void send_credit(RouterId upstream, int port, int vc, Tick arrival) {
      if (owns(upstream))
        rt_->net_.send_credit(upstream, port, vc, arrival);
      else
        stage({.kind = Op::Kind::kCredit,
               .port = static_cast<std::uint8_t>(port),
               .vc = static_cast<std::uint16_t>(vc), .target = upstream,
               .tick = arrival});
    }

    /// Ejection is at the stepping router, which this shard owns.
    void eject(RouterId r, const Flit& flit, Tick now) {
      rt_->net_.eject(r, flit, now);
    }

   private:
    bool owns(RouterId r) const { return r >= lo_ && r < hi_; }
    void stage(const Op& op) {
      s_->out[static_cast<std::size_t>(
                  rt_->net_.lane_plan_.owner[static_cast<std::size_t>(
                      op.target)])]
          .push_back(op);
    }

    ShardRuntime* rt_;
    Shard* s_;
    RouterId lo_, hi_;  ///< The shard's routers, [lo_, hi_).
  };

  /// Runs one shard per lane of `net` (Network::split_lanes).
  ShardRuntime(Network& net, const Trace& trace, Tick end_tick, bool drain)
      : net_(net),
        trace_(trace),
        end_tick_(end_tick),
        drain_(drain),
        mid_(static_cast<int>(net.lanes_.size())),
        end_(static_cast<int>(net.lanes_.size())) {
    const int num_shards = static_cast<int>(net.lanes_.size());
    const auto& entries = trace.entries();
    DOZZ_REQUIRE(entries.size() <
                 static_cast<std::size_t>(~std::uint32_t{0}));
    // Trace-positional ids (Network::offer_entry), on resume too.
    if (!net.ctx_.config.auto_response)
      DOZZ_ASSERT(net.next_packet_id_ == 1 + net.trace_cursor_);
    last_entry_tick_ = entries.empty() ? 0 : entries.back().inject_tick();

    const Topology& topo = *net.ctx_.topo;
    shards_.resize(static_cast<std::size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      Shard& sh = shards_[static_cast<std::size_t>(s)];
      sh.index = s;
      sh.lane = &net.lanes_[static_cast<std::size_t>(s)];
      sh.lane->seed();
      sh.out.resize(static_cast<std::size_t>(num_shards));
    }
    for (std::uint32_t gi = 0;
         gi < static_cast<std::uint32_t>(entries.size()); ++gi) {
      const RouterId home = topo.router_of_core(entries[gi].src);
      shards_[static_cast<std::size_t>(
                  net.lane_plan_.owner[static_cast<std::size_t>(home)])]
          .entry_idx.push_back(gi);
    }
    resync();  // a resumed run has consumed a prefix of the trace
  }

  /// Drives the whole parallel phase; on return the Network's canonical
  /// loop state (clock, cursor, counters, statistics) is folded and the
  /// caller can continue on the sequential engine.
  void run() {
    decide_next();
    const auto wall_start = std::chrono::steady_clock::now();
    if (cmd_ != Cmd::kExit) {
      std::vector<std::thread> workers;
      workers.reserve(shards_.size() - 1);
      for (std::size_t s = 1; s < shards_.size(); ++s)
        workers.emplace_back([this, s] { worker_loop(shards_[s]); });
      coordinator_loop();
      for (auto& th : workers) th.join();
    }
    wall_seconds_ = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
    if (serial_error_) std::rethrow_exception(serial_error_);
    for (auto& sh : shards_)
      if (sh.error) std::rethrow_exception(sh.error);
    net_.trace_cursor_ = consumed();
    net_.fold_tallies();
    Tick last = net_.last_event_;
    for (const auto& sh : shards_) last = std::max(last, sh.last_event);
    net_.last_event_ = last;
    net_.ctx_.now = std::max(net_.ctx_.now, last);
  }

  /// Mean fraction of the parallel phase's wall time a shard spent
  /// parked at barriers (the coordinator's serial sections count as
  /// worker wait — that is exactly the serialization being measured).
  double stall_fraction() const {
    if (wall_seconds_ <= 0.0 || shards_.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& sh : shards_) sum += sh.wait_seconds;
    const double mean = sum / static_cast<double>(shards_.size());
    return std::min(1.0, mean / wall_seconds_);
  }

  Network& net_;
  const Trace& trace_;
  const Tick end_tick_;
  const bool drain_;
  std::vector<Shard> shards_;
  SpinBarrier mid_;  ///< End of the work phase (outboxes complete).
  SpinBarrier end_;  ///< End of the apply phase; hosts the serial section.

  // Round command, published by the serial section; the barrier release
  // that follows the publish orders it before every worker read.
  Cmd cmd_ = Cmd::kExit;
  Tick w_begin_ = 0;
  Tick w_end_ = 0;

  Tick last_entry_tick_ = 0;
  std::atomic<bool> failed_{false};
  std::exception_ptr serial_error_;
  double wall_seconds_ = 0.0;

 private:
  // --- Thread loops -----------------------------------------------------

  // Workers start only when the first command is a window, and return as
  // soon as one is kExit, so every round they run is a window.
  void worker_loop(Shard& s) {
    while (true) {
      guarded(s, [&] { do_window(s); });
      timed_wait(s, mid_);
      guarded(s, [&] { apply_inbox(s); });
      timed_wait(s, end_);
      if (cmd_ == Cmd::kExit) return;
    }
  }

  void coordinator_loop() {
    Shard& s0 = shards_[0];
    while (true) {
      guarded(s0, [&] { do_window(s0); });
      timed_wait(s0, mid_);
      guarded(s0, [&] { apply_inbox(s0); });
      const auto t0 = std::chrono::steady_clock::now();
      end_.arrive_serial([this] { serial_section(); });
      s0.wait_seconds += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
      if (cmd_ == Cmd::kExit) return;
    }
  }

  /// A shard that throws (assertion, bad_alloc) must still keep the
  /// barrier protocol alive or every other thread deadlocks: record the
  /// error, flag the run, and keep arriving; the serial section sees
  /// the flag and exits the round loop.
  template <typename Fn>
  void guarded(Shard& s, Fn&& fn) {
    if (failed_.load(std::memory_order_relaxed)) return;
    try {
      fn();
    } catch (...) {
      if (!s.error) s.error = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  }

  void timed_wait(Shard& s, SpinBarrier& b) {
    const auto t0 = std::chrono::steady_clock::now();
    b.arrive_and_wait();
    s.wait_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  // --- Parallel round bodies -------------------------------------------

  /// The shard-local event loop over [w_begin_, w_end_): the sequential
  /// kernel's phases 1, 2 and 4 over this shard's lane and trace slice. No
  /// epoch phase (windows end at a boundary, which the serial section
  /// runs).
  void do_window(Shard& s) {
    Env env(*this, s);
    while (true) {
      const Tick t = next_event(s);
      if (t >= w_end_) {
        s.next_min = t;
        break;
      }
      DOZZ_ASSERT(t >= w_begin_);
      s.last_event = t;
      ++s.lane->tally().counts.kernel_events;
      inject_shard(s, t);
      net_.mature_due(*s.lane, t);
      net_.step_due(*s.lane, env, t);
    }
  }

  /// Applies staged ops addressed to this shard, source shards in
  /// ascending order. Per-link arrival order is preserved: each input
  /// port's flits and each output's credits have a single sending router,
  /// hence a single source shard, and each outbox is already in that
  /// shard's local (nondecreasing-time) send order.
  void apply_inbox(Shard& s) {
    for (auto& src : shards_) {
      auto& ops = src.out[static_cast<std::size_t>(s.index)];
      for (const Op& op : ops) {
        switch (op.kind) {
          case Op::Kind::kDeliver:
            net_.deliver(op.target, op.port, op.vc, op.tick, op.flit);
            break;
          case Op::Kind::kCredit:
            net_.send_credit(op.target, op.port, op.vc, op.tick);
            break;
          case Op::Kind::kSecure:
            net_.routers_[static_cast<std::size_t>(op.target)]
                .mark_secured_merge(op.tick);
            break;
        }
      }
      ops.clear();
    }
  }

  // --- Shard-local trace slice ----------------------------------------

  /// Phase 1 over this shard's trace slice: the sequential injection
  /// without its observer and gating hooks (both excluded at engagement).
  void inject_shard(Shard& s, Tick now) {
    const auto& entries = trace_.entries();
    while (s.cursor < s.entry_idx.size()) {
      const std::uint32_t k = s.entry_idx[s.cursor];
      if (entries[k].inject_tick() > now) break;
      ++s.cursor;
      net_.offer_entry(k, now);
    }
  }

  /// The shard's next local event: its next trace entry or lane event.
  Tick next_event(Shard& s) {
    const Tick trace_next =
        s.cursor < s.entry_idx.size()
            ? trace_.entries()[s.entry_idx[s.cursor]].inject_tick()
            : kInfTick;
    return std::min(trace_next, s.lane->next_event());
  }

  /// Re-seeds every shard from the Network's canonical state, after a
  /// resume or an epoch boundary ran events on it: the trace cursor (the
  /// consumed entries are a global prefix and entry_idx is ascending, so a
  /// shard's consumed part is a lower_bound away) and the next local
  /// event.
  void resync() {
    for (auto& sh : shards_) {
      sh.cursor = static_cast<std::size_t>(
          std::lower_bound(sh.entry_idx.begin(), sh.entry_idx.end(),
                           static_cast<std::uint32_t>(net_.trace_cursor_)) -
          sh.entry_idx.begin());
      sh.next_min = next_event(sh);
    }
  }

  /// Trace entries consumed: a global prefix, the Network's trace cursor.
  std::size_t consumed() const {
    std::size_t n = 0;
    for (const auto& sh : shards_) n += sh.cursor;
    return n;
  }

  // --- Serial sections --------------------------------------------------

  /// Runs on the coordinator inside the end-of-round barrier while the
  /// workers are parked: publishes the next command. Never throws — a
  /// thrown error here would skip the command publish and deadlock the
  /// workers — so everything is caught, recorded, and turned into kExit.
  void serial_section() {
    try {
      if (failed_.load(std::memory_order_relaxed)) {
        cmd_ = Cmd::kExit;
        return;
      }
      decide_next();
    } catch (...) {
      serial_error_ = std::current_exception();
      cmd_ = Cmd::kExit;
    }
  }

  /// Picks the next round. Window bounds replicate the sequential
  /// event-time selection: the next event is the minimum of every
  /// shard's local next event and the epoch boundary; the run leaves
  /// the parallel phase when that minimum reaches the horizon (or, in
  /// drain mode, when the trace is exhausted — the sequential tail then
  /// owns the drain-termination check, so the parallel phase can never
  /// run past the tick where the sequential engine would have stopped).
  /// An epoch boundary runs right here as the sequential kernel's own
  /// event, which folds the lanes' tallies before the feature capture and
  /// the watchdog read the run counts; DESIGN.md §11 says what its hook
  /// sees.
  void decide_next() {
    Tick t = 0;
    while (true) {
      t = net_.next_epoch_;
      for (const auto& sh : shards_) t = std::min(t, sh.next_min);
      if (drain_ && consumed() >= trace_.entries().size()) {
        cmd_ = Cmd::kExit;
        return;
      }
      if (t >= end_tick_) {
        cmd_ = Cmd::kExit;
        return;
      }
      if (t < net_.next_epoch_) break;
      net_.trace_cursor_ = consumed();
      const bool go_on = net_.run_event(t);
      resync();
      if (!go_on) {
        cmd_ = Cmd::kExit;
        return;
      }
    }
    w_begin_ = t;
    Tick w_end = std::min(t + kLookaheadTicks,
                          std::min(net_.next_epoch_, end_tick_));
    // Drain mode: never open a window past the final injection — the
    // last packet could complete inside it, and the sequential engine
    // stops at that delivery while a window would keep ticking routers
    // (diverging last_event_ and the per-router edge accounting).
    if (drain_) w_end = std::min(w_end, last_entry_tick_ + 1);
    w_end_ = w_end;
    cmd_ = Cmd::kWindow;
  }
};

Tick Network::run_loop_sharded(const Trace& trace, Tick end_tick, bool drain,
                               int shards) {
  split_lanes(shards);
  ShardRuntime rt(*this, trace, end_tick, drain);
  rt.run();
  shard_stall_frac_ = rt.stall_fraction();
  split_lanes(1);
  if (interrupted_) return last_event_;
  // Finish on the sequential engine: the fixed-horizon case breaks out
  // immediately (every remaining event is at or past end_tick), the
  // drain case runs the in-flight tail to completion with the exact
  // sequential termination check.
  return run_loop_indexed(trace, end_tick, drain);
}

}  // namespace dozz
