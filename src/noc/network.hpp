// The network: routers, links, network interfaces, the multi-clock event
// kernel, the epoch (DVFS window) machinery, and run metrics.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/faults/fault_injector.hpp"
#include "src/noc/event_lane.hpp"
#include "src/noc/extended_features.hpp"
#include "src/noc/nic.hpp"
#include "src/noc/noc_config.hpp"
#include "src/noc/router.hpp"
#include "src/noc/sim_context.hpp"
#include "src/noc/stats.hpp"
#include "src/power/power_model.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/topology/topology.hpp"
#include "src/trafficgen/trace.hpp"

namespace dozz {

/// Observes simulation events as they happen — debugging, tracing, and
/// custom instrumentation without touching the kernel. All callbacks have
/// empty defaults; override what you need.
class EventObserver {
 public:
  virtual ~EventObserver() = default;
  /// A trace-origin packet matured at its source NI. (NI-generated
  /// responses are observable at delivery.)
  virtual void on_packet_offered(Tick /*now*/, CoreId /*src*/, CoreId /*dst*/,
                                 bool /*is_response*/) {}
  virtual void on_packet_delivered(Tick /*now*/, const Flit& /*tail*/) {}
  virtual void on_gate_off(Tick /*now*/, RouterId /*r*/) {}
  virtual void on_wakeup_begin(Tick /*now*/, RouterId /*r*/) {}
  virtual void on_mode_selected(Tick /*now*/, RouterId /*r*/, VfMode /*m*/) {}
  virtual void on_epoch_boundary(Tick /*now*/, std::uint64_t /*index*/) {}
};

/// A complete simulated NoC under one power-management policy.
///
/// Usage:
///   Network net(topo, config, policy, power, regulator);
///   net.run(trace, ticks_from_ns(100000));
///   const NetworkMetrics& m = net.metrics();
///
/// The network is the routers' environment (the RouterEnv callbacks in
/// router.hpp). Its per-flit callbacks and the phase-4 step are defined
/// in this header, so each engine's stepping loop, and the sharded
/// engine's environment, which forwards its own routers' effects to them,
/// bind and inline them.
class Network {
 public:
  Network(const Topology& topo, const NocConfig& config,
          PowerController& policy, const PowerModel& power,
          const SimoLdoRegulator& regulator);

  // The network keeps pointers to the power model and regulator for its
  // whole lifetime; a temporary would dangle after this statement.
  Network(const Topology&, const NocConfig&, PowerController&,
          const PowerModel&&, const SimoLdoRegulator&) = delete;
  Network(const Topology&, const NocConfig&, PowerController&,
          const PowerModel&, const SimoLdoRegulator&&) = delete;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Runs the trace until `end_tick` (exclusive). May be called once.
  void run(const Trace& trace, Tick end_tick);

  /// Runs the trace to completion: until every offered packet (including
  /// generated responses) has been delivered, or `max_ticks` as a safety
  /// net. This is the paper's methodology — a slower power-management
  /// policy takes longer wall time to finish the same work, which is what
  /// its throughput-loss and static-energy numbers measure. May be called
  /// once (instead of run()).
  void run_until_drained(const Trace& trace, Tick max_ticks);

  const NetworkMetrics& metrics() const { return ctx_.metrics; }

  /// Per-epoch, per-router feature log (only populated when
  /// config.collect_epoch_log is set). epoch_log()[e][r].
  const std::vector<std::vector<EpochFeatures>>& epoch_log() const {
    return epoch_log_;
  }

  /// Per-epoch, per-router extended feature vectors (only populated when
  /// config.collect_extended_log is set). extended_log()[e][r][feature];
  /// column names come from extended_feature_names(ports).
  const std::vector<std::vector<std::vector<double>>>& extended_log() const {
    return extended_log_;
  }

  Router& router(RouterId r) {
    DOZZ_REQUIRE(r >= 0 && r < static_cast<RouterId>(routers_.size()));
    return routers_[static_cast<std::size_t>(r)];
  }
  const Router& router(RouterId r) const {
    DOZZ_REQUIRE(r >= 0 && r < static_cast<RouterId>(routers_.size()));
    return routers_[static_cast<std::size_t>(r)];
  }
  NetworkInterface& nic(RouterId r);
  const Topology& topology() const { return *ctx_.topo; }
  Tick now() const { return ctx_.now; }

  /// The shared simulation context threaded through every phase.
  const SimContext& context() const { return ctx_; }

  /// Kernel iterations executed (visits to an event time).
  /// Engine-specific bookkeeping: under the sharded engine this is the sum
  /// of per-shard iteration counts, not the sequential iteration count.
  std::uint64_t kernel_events() const { return kernel_events_; }
  /// Router clock edges actually stepped (plan-independent work measure:
  /// identical across shard counts for the same run).
  std::uint64_t edge_steps() const { return edge_steps_; }

  /// Shards the last run actually executed with: 1 when the sequential
  /// engine ran (default, or silent fallback from an ineligible sharded
  /// request — see NocConfig::shard_threads), else the effective shard
  /// count. Tests assert this to distinguish a genuine parallel run from
  /// a fallback that would make equivalence checks pass vacuously.
  int shards_used() const { return shards_used_; }
  /// Fraction of the parallel phase's wall time the average shard spent
  /// waiting at window barriers (0 when the sequential engine ran).
  double shard_barrier_stall() const { return shard_stall_frac_; }

  /// Installs an event observer (nullptr to remove). The observer must
  /// outlive the run.
  void set_observer(EventObserver* observer) { ctx_.observer = observer; }

  /// The fault injector, or nullptr when the fault layer is disabled.
  const FaultInjector* fault_injector() const { return ctx_.injector.get(); }

  /// Effective no-progress watchdog threshold in epochs (0 = disabled).
  /// Resolved from NocConfig::watchdog_epochs and DOZZ_WATCHDOG_EPOCHS.
  int watchdog_epochs() const { return watchdog_epochs_; }

  // --- Checkpoint/restore (src/ckpt; DESIGN.md §8) ---
  /// Called at the end of every epoch-boundary kernel iteration with the
  /// boundary tick and the number of epochs processed so far. Returning
  /// false stops the run right there: the network stays in a
  /// checkpointable state and metrics are compiled up to the boundary
  /// (a partial report). The hook is where periodic checkpoints and
  /// cooperative interruption (signals, timeouts) live.
  using EpochHook = ::dozz::EpochHook;
  void set_epoch_hook(EpochHook hook) { ctx_.epoch_hook = std::move(hook); }

  /// True when the last run was stopped early by the epoch hook.
  bool interrupted() const { return interrupted_; }
  /// True when this network's state was restored from a checkpoint.
  bool resumed() const { return resumed_; }
  /// Epoch windows processed so far.
  std::uint64_t epochs_processed() const { return epochs_processed_; }

  /// Serializes the complete mutable simulation state. Only valid during
  /// a run (from the epoch hook) or right after an interrupted run, before
  /// metrics compilation would be re-entered; construction-time wiring
  /// (topology, config, policy identity) is written as a validation block.
  void save_checkpoint(CkptWriter& w) const;
  /// Restores state saved by save_checkpoint into a freshly constructed
  /// network (same topology/config/policy). The next run()/
  /// run_until_drained() call continues from the checkpointed epoch and
  /// must be given the same trace, horizon and drain mode (validated, with
  /// typed CheckpointError on mismatch). The continuation is bit-identical
  /// to the uninterrupted run, under any engine.
  void restore_checkpoint(CkptReader& r);

  // --- Router environment (RouterEnv, router.hpp) ---
  bool downstream_can_accept(RouterId r) const {
    return router(r).state() == RouterState::kActive;
  }
  void secure(RouterId r, Tick now) {
    Router& target = router(r);
    target.mark_secured(now);
    if (gating_ && target.state() == RouterState::kInactive) wake(r, now);
  }
  void punch_ahead(RouterId r, RouterId dst, Tick now);
  void deliver(RouterId r, int port, int vc, Tick arrival, const Flit& flit) {
    Router& target = router(r);
    if (ctx_.injector != nullptr) {
      // Link fault: bit flips during this hop's link traversal. The payload
      // is abstract, so the damage lands on the stored CRC — exactly what
      // the end-to-end check at ejection sees either way.
      if (const std::uint16_t mask = ctx_.injector->corrupt_link_flit()) {
        Flit damaged = flit;
        damaged.crc = static_cast<std::uint16_t>(damaged.crc ^ mask);
        target.receive(port, vc, arrival, damaged);
        return;
      }
    }
    target.receive(port, vc, arrival, flit);
  }
  void send_credit(RouterId upstream, int port, int vc, Tick arrival) {
    router(upstream).receive_credit(port, vc, arrival);
  }
  void eject(RouterId r, const Flit& flit, Tick now);

 private:
  /// The checkpoint layout (network_ckpt.cpp): one walk that save_checkpoint
  /// runs over a CkptWriter and restore_checkpoint over a CkptReader.
  template <typename Io>
  void walk_state(Io& io);
  /// Runs the trace on the indexed or the sharded engine, between
  /// begin_run and finish_run.
  void run_loop(const Trace& trace, Tick end_tick, bool drain);
  /// Run set-up shared by every driver: the one-shot guard, the run
  /// parameters, resume validation (or fresh loop state) and the log
  /// reservations.
  void begin_run(const Trace& trace, Tick end_tick, bool drain);
  /// Run wrap-up shared by every driver: compiles the metrics up to
  /// `last_event` (drain mode or an interrupted run) or the run horizon.
  void finish_run(Tick last_event);
  /// The indexed kernel: one event lane over every router supplies the
  /// next event time, and run_event visits only the routers/NICs whose
  /// event is due then. Bit-identical to the linear-scan reference kernel
  /// (tests/linear_kernel.hpp; same router-id-order tie-breaking at equal
  /// ticks). Returns the last event tick.
  Tick run_loop_indexed(const Trace& trace, Tick end_tick, bool drain);
  /// The sharded engine (engine_sharded.cpp, DESIGN.md §11): contiguous
  /// router-id shards, one event lane each, run conservative lookahead
  /// windows on worker threads and exchange boundary flits/credits at
  /// deterministic barriers; every epoch boundary is one run_event on the
  /// coordinator. Bit-identical to run_loop_indexed; once the trace is
  /// exhausted (drain mode) or the parallel phase cannot advance further,
  /// merges canonical state and finishes via run_loop_indexed. Returns the
  /// last event tick.
  Tick run_loop_sharded(const Trace& trace, Tick end_tick, bool drain,
                        int shards);
  /// One kernel event at tick `t` over every lane: matured trace entries
  /// (phase 1), due responses (phase 2), the epoch boundary if `t` is one
  /// (a fold, then process_epoch), due clock edges in router-id order
  /// (phase 4), a fold, then the epoch hook. Returns false when the hook
  /// stopped the run.
  bool run_event(Tick t);
  /// Takes every lane's tally: adds the counter deltas into the run
  /// counters, then replays the ejection logs in (tick, lane) order, the
  /// sequential (tick, router-id) order, into the latency and hop stats.
  void fold_tallies();
  /// Effective shard count for this run: resolve_shard_threads(), which
  /// already rules out what the config alone decides, clamped to the
  /// router count; 1 (sequential fallback) for a gating policy, a policy
  /// that wants extended features, or an observer (see
  /// NocConfig::shard_threads for the eligibility list).
  int plan_shard_count() const;
  void process_epoch(Tick now);
  void compile_metrics(Tick end_tick);
  /// Resilience: a tail flit failed its CRC check — count the instance and
  /// schedule a source-NI retransmission (or declare the packet lost once
  /// the retry budget is exhausted).
  void handle_corrupt_tail(const Flit& tail, Tick now);
  /// Packet instances that terminated without delivery (CRC failures);
  /// the drain invariant is delivered + terminal_failures == offered.
  std::uint64_t terminal_failures() const {
    return ctx_.injector == nullptr ? 0
                                    : ctx_.injector->stats().packets_corrupted;
  }
  /// No-progress watchdog, evaluated at every epoch boundary: throws
  /// SimStallError with a per-router diagnostic dump after
  /// watchdog_epochs_ consecutive epochs with zero flit ejections while
  /// packets are outstanding.
  void check_progress(Tick now);
  /// Power Punch: wakes/pins every router on the XY path src -> dst
  /// (inclusive) so a matured packet does not stall hop-by-hop on wakeups.
  void secure_path(RouterId src, RouterId dst, Tick now);
  /// secure() on a gated router while gating is on: requests the wakeup,
  /// and under faults degrades gating once too many requests are lost.
  void wake(RouterId r, Tick now);

  // --- Per-event phases (phases.cpp; phase 4 inline here) ---
  // Every kernel runs these. They (and eject) book run counts only into
  // the tally of the lane that owns the router, so the sharded engine can
  // run them on shard threads. Their gating and Power Punch hooks read
  // gating_, which is false whenever shards engage.
  /// Phase 1, one trace entry: entry `k` of the running trace becomes a
  /// packet pending at its source NI since `now`. Returns the source
  /// router.
  RouterId offer_entry(std::size_t k, Tick now);
  /// Phase 1 of the sequential kernels: every trace entry matured at the
  /// clock, with observer and Power Punch hooks.
  void inject_matured();
  /// Phase 2, one NIC: moves its responses due at `now` into the injection
  /// queues.
  void mature_nic(NetworkInterface& n, Tick now);
  /// Phase 2 over a lane: every NIC response due at `now`, in NIC-id
  /// order.
  void mature_due(EventLane& lane, Tick now);
  /// Phase 4, one router: account, pre-step, inject, pipeline against
  /// `env`, post-step, gate check, advance clock. Phase 4 is defined here,
  /// in the header, and is a template over the environment, so each
  /// engine's translation unit compiles its hottest loop as one unit.
  template <RouterEnv Env>
  void step_router(RouterId id, Env& env, Tick now) {
    const auto i = static_cast<std::size_t>(id);
    Router& r = routers_[i];
    r.account_until(now);
    r.pre_step(now);
    nics_[i].inject_into(r, now);
    r.pipeline_step(now, env);
    const bool backlog = nics_[i].has_backlog();
    r.post_step(now, backlog);
    // A NIC backlog keeps it on: at T-Idle 0 nothing else would wake it.
    if (gating_ && ctx_.policy->may_gate(id) && !backlog && r.can_gate(now) &&
        (ctx_.injector == nullptr || !ctx_.policy->gating_degraded(id))) {
      r.gate_off(now);
      if (ctx_.observer != nullptr) ctx_.observer->on_gate_off(now, id);
    }
    r.advance_clock(now);
  }
  /// Phase 4 over a lane: every clock edge due at `now`, in router-id
  /// order, republishing each stepped edge. A step never publishes an edge
  /// at `now` (clocks advance by a period, wakeups by a positive penalty),
  /// so the due list is final once collected.
  template <RouterEnv Env>
  void step_due(EventLane& lane, Env& env, Tick now) {
    std::uint64_t steps = 0;
    for (const RouterId id : lane.take_due_edges(now)) {
      const Router& r = routers_[static_cast<std::size_t>(id)];
      if (r.next_edge() > now) continue;  // rescheduled since collection
      step_router(id, env, now);
      ++steps;
      if (r.next_edge() < kInfTick) lane.push_edge(id, r.next_edge());
    }
    lane.tally().counts.edge_steps += steps;
  }

  // --- Event lanes (event_lane.hpp) ---
  /// Replaces the lanes with `shards` contiguous ones (make_shard_plan);
  /// 1 = one lane over every router, the sequential kernel's. The old
  /// lanes' tallies must be folded.
  void split_lanes(int shards);
  EventLane& lane_of(RouterId r) {
    return lanes_[static_cast<std::size_t>(
        lane_plan_.owner[static_cast<std::size_t>(r)])];
  }
  /// (Re)publishes `r`'s current next_edge() into its lane.
  void schedule_edge(RouterId r);

  /// Shared services (config, clock, stats sinks, fault injector, hooks)
  /// threaded through the extracted phase TUs.
  SimContext ctx_;
  /// The policy gates routers (PowerController::gating_enabled(), fixed
  /// for a policy's lifetime): read by secure() and every phase.
  bool gating_ = false;

  std::vector<Router> routers_;
  std::vector<NetworkInterface> nics_;

  std::uint64_t next_packet_id_ = 1;
  std::uint64_t epochs_processed_ = 0;
  bool ran_ = false;

  // --- Checkpoint/restore run state (DESIGN.md §8) ---
  // The kernel loop's progress lives in members (not locals) so a
  // checkpoint taken at an epoch boundary captures it and a restored
  // network continues exactly where the interrupted run stopped.
  std::size_t trace_cursor_ = 0;  ///< Next unmatured trace entry.
  Tick next_epoch_ = 0;           ///< Next epoch-boundary tick.
  Tick last_event_ = 0;           ///< Tick of the last kernel event.
  bool resumed_ = false;          ///< State came from restore_checkpoint.
  bool interrupted_ = false;      ///< Last run stopped by the epoch hook.
  bool run_drain_ = false;        ///< Drain mode of the (current) run.
  Tick run_end_tick_ = 0;         ///< Horizon of the (current) run.
  const Trace* running_trace_ = nullptr;  ///< Set for the duration of a run.
  /// A run's parameters as a checkpoint records them (the trace itself is
  /// not serialized, only its name, size and fingerprint).
  struct RunKey {
    bool drain = false;
    Tick end_tick = 0;
    std::string trace_name;
    std::uint64_t trace_size = 0;
    std::uint64_t trace_hash = 0;
  };
  /// The checkpointed run's parameters, validated when the resumed run
  /// starts.
  RunKey expect_;

  /// Packets with a corrupted non-tail flit already ejected, pending their
  /// tail (the whole instance fails the end-to-end check).
  std::unordered_set<std::uint64_t> corrupt_partial_;
  int watchdog_epochs_ = 0;   ///< 0 = watchdog disabled.
  int stalled_epochs_ = 0;
  std::uint64_t last_progress_flits_ = 0;

  int shards_used_ = 1;
  double shard_stall_frac_ = 0.0;
  /// Which lane owns each router: one lane over every router, except
  /// while run_loop_sharded()'s parallel phase runs one lane per shard.
  ShardPlan lane_plan_;
  std::deque<EventLane> lanes_;  ///< deque: EventLane is not movable.
  std::uint64_t pending_responses_ = 0;  ///< Scheduled but not yet matured.
  std::uint64_t kernel_events_ = 0;
  std::uint64_t edge_steps_ = 0;
  /// mature_nic punch targets. Only filled when gating, which the sharded
  /// engine never runs, so shard threads never share it.
  std::vector<CoreId> dsts_scratch_;

  std::vector<std::vector<EpochFeatures>> epoch_log_;
  std::vector<std::vector<std::vector<double>>> extended_log_;

  /// Reused across epochs so a window boundary allocates nothing unless a
  /// log actually retains the data.
  std::vector<EpochFeatures> epoch_row_scratch_;
  std::vector<std::vector<double>> ext_rows_scratch_;
  std::vector<double> ext_scratch_;
  ExtendedFeatureInputs ext_in_scratch_;

  /// The sharded engine lives in its own TU and drives the same private
  /// phases and state (routers, NICs, lanes) as the sequential kernel.
  friend struct ShardRuntime;
  /// The linear-scan reference kernel the equivalence tests compare every
  /// engine against (tests/linear_kernel.hpp). It is built into the tests
  /// only and drives the same phases between begin_run and finish_run.
  friend struct LinearKernel;

  /// Cumulative-counter snapshots for per-window deltas (extended set).
  struct RouterSnapshot {
    std::uint64_t hops = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t gatings = 0;
    std::uint64_t switches = 0;
    Tick inactive_ticks = 0;
    Tick epoch_start = 0;
    EpochFeatures prev_base;
  };
  std::vector<RouterSnapshot> snapshots_;
};

}  // namespace dozz
