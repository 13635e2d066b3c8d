// Input-buffered virtual-channel wormhole router with a per-router
// voltage/frequency domain and the three DozzNoC operating states
// (inactive, wakeup, active — paper Fig. 2c).
//
// Pipeline model: a flit that arrives at a clock edge becomes eligible one
// local cycle later (buffer write + route compute / VC allocation), then
// competes in switch allocation; traversal of the crossbar plus the
// outgoing link takes one more local cycle. The local clock period is set
// by the router's current V/F mode, so hop latency is governed by the
// upstream router exactly as described in paper §III-A.
//
// Everything a normal clock edge runs is defined in this header, and the
// pipeline step is a template over the environment, so an engine's phase-4
// loop compiles into one inlined unit (DESIGN.md §10).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/time.hpp"
#include "src/noc/channel.hpp"
#include "src/noc/input_buffer.hpp"
#include "src/noc/noc_config.hpp"
#include "src/noc/stats.hpp"
#include "src/power/energy_accountant.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/topology/routing.hpp"
#include "src/topology/topology.hpp"

namespace dozz {

class CkptWriter;
class CkptReader;
class FaultInjector;
struct SimContext;

/// The services a router's pipeline step needs from the network around it.
/// Router::pipeline_step is a template over the environment type, so every
/// callback binds at compile time. Implemented by Network, by the sharded
/// engine's per-shard ShardRuntime::Env, and by the router tests' recorder.
///   downstream_can_accept(r)        `r` may receive flits (it is active)
///   secure(r, now)                  marks `r` as a downstream router: pins
///                                   it on, wakes it if gated
///   punch_ahead(r, dst, now)        Power Punch: secures the router after
///                                   `r` on the path toward `dst`
///   deliver(r, port, vc, arrival, flit)  a flit for `r`'s input
///                                   (`port`, `vc`), arriving at `arrival`
///   send_credit(up, port, vc, arrival)   a credit back to `up` for its
///                                   output (`port`, `vc`)
///   eject(r, flit, now)             a flit reached a local output of `r`
template <typename E>
concept RouterEnv = requires(E& env, const E& cenv, RouterId r, int port,
                             int vc, Tick t, const Flit& flit) {
  { cenv.downstream_can_accept(r) } -> std::convertible_to<bool>;
  env.secure(r, t);
  env.punch_ahead(r, r, t);
  env.deliver(r, port, vc, t, flit);
  env.send_credit(r, port, vc, t);
  env.eject(r, flit, t);
};

/// Operating state (paper Fig. 2c; modes 1 and 2 in the paper's numbering).
enum class RouterState : std::uint8_t { kInactive, kWakeup, kActive };

class Router {
 public:
  /// `routes` must be the next-hop table of `topo` under config.routing.
  Router(RouterId id, const Topology& topo, const NocConfig& config,
         const FlatRouteTable& routes, const SimoLdoRegulator& regulator,
         EnergyAccountant accountant, VfMode initial_mode);

  /// Convenience wiring from the shared simulation context: topology,
  /// config, route table, regulator, accountant models and the policy's
  /// initial mode all come from `ctx`.
  Router(RouterId id, const SimContext& ctx);

  RouterId id() const { return id_; }
  int num_ports() const { return ports_; }

  // --- State, mode and clock ---
  RouterState state() const { return state_; }
  VfMode active_mode() const { return mode_; }
  Tick period() const { return vf_point(mode_).period_ticks; }
  Tick next_edge() const { return next_edge_; }
  bool stalled(Tick now) const { return now < stall_until_; }

  /// Cumulative power-gated time including an in-progress off interval.
  Tick total_off_ticks(Tick now) const;

  // --- Links (written by the environment / upstream routers) ---
  /// A flit sent toward input (`port`, `vc`), arriving at `arrival`, or
  /// behind the port's previous flit if that arrives later (links are
  /// FIFO). It joins that VC's in-flight tail and becomes visible at this
  /// router's first clock edge at or after its arrival.
  void receive(int port, int vc, Tick arrival, const Flit& flit);
  /// A credit returned for output (`port`, `vc`), arriving at `arrival`.
  void receive_credit(int port, int vc, Tick arrival);
  /// The flits still crossing the link into input `port`, in send order,
  /// each with its VC and arrival tick (what a checkpoint records).
  std::vector<TimedFlit> in_flight_flits(int port) const;

  // --- The four phases of one clock edge (driven by the network) ---
  /// Completes wakeup if due; drains matured credits and flits.
  void pre_step(Tick now);
  /// Route compute, VC allocation, securing pokes, switch allocation and
  /// traversal. No-op while power-gated or mid-voltage-switch.
  template <RouterEnv Env>
  void pipeline_step(Tick now, Env& env);
  /// Idle tracking and buffer-occupancy sampling.
  void post_step(Tick now, bool nic_backlog);
  /// Schedules the next clock edge.
  void advance_clock(Tick now);

  // --- Power management commands ---
  /// True when the gating preconditions of paper §III-B hold: T-Idle
  /// consecutive idle cycles, empty buffers, nothing inbound, not secured.
  bool can_gate(Tick now) const;
  /// Gates the router off (supply to 0 V).
  void gate_off(Tick now);
  /// Wake request; starts the wakeup state if gated. Safe to call anytime.
  /// The wakeup always ends after `now` (the penalty is positive), so a
  /// wake never lands a clock edge at the tick being stepped.
  void request_wake(Tick now);
  /// Marks this router as a downstream router until now + secure TTL.
  void mark_secured(Tick now) {
    last_secured_ = now;
    ever_secured_ = true;
    ++ep_secures_;
  }
  /// Barrier-deferred equivalent of mark_secured() for the sharded engine:
  /// secure marks staged by other shards during a lookahead window are
  /// applied out of call order, so the mark merges as a running max — the
  /// same final last_secured_ a time-ordered call sequence leaves behind
  /// (sequential calls are nondecreasing in `now`, making last = max).
  void mark_secured_merge(Tick now) {
    if (now > last_secured_) last_secured_ = now;
    ever_secured_ = true;
    ++ep_secures_;
  }
  bool secured(Tick now) const {
    return ever_secured_ && now - last_secured_ <= config_->secure_ttl_ticks;
  }
  /// Applies a DVFS mode change (T-Switch stall; paper Table III).
  void set_active_mode(VfMode mode, Tick now);

  // --- Fault injection (src/faults; DESIGN.md §7) ---
  /// Installs the network's shared fault injector. nullptr (the default)
  /// keeps every fault hook compiled out of the hot path at runtime.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }
  /// Applies a voltage-droop transient: the domain snaps back to the
  /// nominal V/F point and the pipeline stalls while the LDO recovers.
  void apply_droop(Tick now, Tick recovery_stall);
  /// Wake requests lost to injected faults (drops plus stuck refusals).
  std::uint64_t wake_faults() const { return wake_faults_; }
  /// Regulator faults absorbed (failed switches plus droops).
  std::uint64_t regulator_faults() const { return regulator_faults_; }

  // --- Watchdog diagnostics ---
  int buffered_flits() const { return buffered_flits_; }
  Tick stall_until() const { return stall_until_; }
  Tick wake_done() const { return wake_done_; }

  // --- Injection path (used by the network interface) ---
  /// Space check for the local input (`port`, `vc`).
  bool local_vc_has_space(int port, int vc) const {
    DOZZ_REQUIRE(is_local_port(port) && port < num_ports());
    return !vcs_[static_cast<std::size_t>(slot_index(port, vc))].full();
  }
  /// Pushes a flit into a local input VC; the flit becomes SA-eligible one
  /// local cycle later.
  void accept_local(int port, int vc, Flit flit, Tick now);

  /// Charges one ML label computation to this router (7.1 pJ, paper §III-D).
  void charge_label() { accountant_.add_label(); }

  // --- Statistics ---
  const EnergyAccountant& accountant() const { return accountant_; }
  std::uint64_t gatings() const { return gatings_; }
  std::uint64_t wakeups() const { return wakeups_; }
  std::uint64_t premature_wakeups() const { return premature_wakeups_; }
  std::uint64_t mode_switches() const { return mode_switches_; }
  const std::array<Tick, kNumVfModes>& active_mode_ticks() const {
    return active_mode_ticks_;
  }

  /// Epoch-window buffer utilization accumulators.
  std::uint64_t epoch_occupancy_samples() const { return epoch_occ_; }
  std::uint64_t epoch_capacity_samples() const { return epoch_cap_; }
  /// The congestion signal compared against the "theoretical maximum" in
  /// the paper's mode-selection logic: the peak per-cycle input-buffer
  /// utilization observed during the window (a mean over the whole window
  /// washes out bursts and under-selects voltage).
  double epoch_ibu() const;
  /// Window-average utilization (exposed for diagnostics).
  double epoch_mean_ibu() const;
  void reset_epoch_window();

  /// Fine-grained per-window counters backing the extended (41-feature)
  /// set of the paper's feature-reduction study (Sec. IV-B1).
  struct EpochCounters {
    std::vector<double> port_occ_mean;   ///< Mean occupancy per input port.
    std::vector<double> port_occ_peak;   ///< Peak occupancy per input port.
    std::vector<double> port_arrivals;   ///< Flits drained per input port.
    std::vector<double> port_departures; ///< Flits granted per output port.
    double idle_fraction = 0.0;   ///< Idle edges / edges this window.
    double edges = 0.0;           ///< Clock edges this window.
    double injected = 0.0;        ///< Flits accepted from the local NI.
    double ejected = 0.0;         ///< Flits delivered to the local NI.
    double secures = 0.0;         ///< Times this router was pinned awake.
    double raw_peak_ibu = 0.0;    ///< Unsmoothed single-cycle peak.
  };
  /// Fills `out` with this window's counters, reusing the capacity of its
  /// vectors, so the per-epoch hot path does not allocate.
  void epoch_counters_into(EpochCounters* out) const;

  /// Whole-run average input-buffer utilization.
  double lifetime_ibu() const;

  /// Flushes static-energy accounting up to `now`. Must be called before
  /// reading the accountant at arbitrary times and at end of simulation.
  void account_until(Tick now);

  // --- Checkpoint/restore (src/ckpt; DESIGN.md §8) ---
  /// Saves (Io = CkptWriter) or restores (Io = CkptReader) all mutable
  /// router state in one walk: operating state/mode/clock, buffers,
  /// in-flight flits and credits, energy accounting and every statistics
  /// counter. Construction-time wiring (id, topology, config, regulator,
  /// neighbors, capacities) is rebuilt from the configuration.
  template <typename Io>
  void walk_state(Io& io);
  /// The saving walk, for a const router.
  void save_state(CkptWriter& w) const;

 private:
  struct OutputState {
    std::array<int, kMaxPortVcs> credits{};  ///< Per downstream VC.
    /// Downstream VC allocated to a packet.
    std::array<std::uint8_t, kMaxPortVcs> vc_busy{};
    int last_grant = -1;            ///< Round-robin pointer over (port, vc).
    /// Request bitmask over (input port, vc) slots: bit p*vcs+v is set while
    /// that input VC holds an allocation targeting this output, so switch
    /// allocation probes just the requesters instead of every slot.
    std::uint64_t req_mask = 0;
    /// Credits on their way back from the downstream router.
    CreditChannel returning;
  };

  /// Per-input-port bookkeeping beside the port's VCs.
  struct InputLink {
    int buffered = 0;            ///< Visible flits in the port's VCs.
    std::uint64_t sent = 0;      ///< Send sequence of the next arrival.
    Tick last_arrival = 0;       ///< Arrival tick of the latest flit sent.
  };

  bool is_local_port(int port) const { return port >= kNumDirections; }
  /// Flattened (input port, vc) slot index used by the hot-path bitmasks,
  /// the flat VC array and the switch allocator's round-robin pointer.
  int slot_index(int port, int vc) const { return port * vcs_per_port_ + vc; }
  /// Every slot of input `port`.
  std::uint64_t port_slots(int port) const {
    return port_slot_bits_ << slot_index(port, 0);
  }
  VirtualChannel& vc_at(int slot) {
    return vcs_[static_cast<std::size_t>(slot)];
  }
  /// Appends a flit to a VC's in-flight tail (receive minus the inbound
  /// count, which a checkpoint restores on its own).
  void enqueue_in_flight(int port, int vc, Tick arrival, const Flit& flit);
  void drain_credits(Tick now);
  void drain_flits(Tick now);
  template <RouterEnv Env>
  void route_and_allocate(Tick now, Env& env);
  /// Route compute + VC allocation + securing for one non-empty input VC
  /// (the per-slot body of route_and_allocate).
  template <RouterEnv Env>
  void route_vc(int slot, Tick now, Env& env);
  template <RouterEnv Env>
  void switch_allocate(Tick now, Env& env);
  int compute_output_port(const Flit& flit) const {
    if (flit.dst_router == id_)
      return topo_->local_port(topo_->local_slot_of_core(flit.dst_core));
    const std::uint8_t d = routes_->dir(id_, flit.dst_router);
    DOZZ_ASSERT(d != FlatRouteTable::kEject);
    return static_cast<int>(d);
  }

  RouterId id_;
  const Topology* topo_;
  const NocConfig* config_;
  const FlatRouteTable* routes_;  ///< Next hops under config_->routing.
  const SimoLdoRegulator* regulator_;

  int ports_ = 0;
  int vcs_per_port_ = 0;
  int slots_ = 0;                 ///< ports_ × vcs_per_port_.
  int vcs_per_class_ = 0;         ///< Downstream VCs per dateline class.
  std::uint64_t port_slot_bits_ = 0;  ///< Low vcs_per_port_ bits set.
  /// Slot → (input port, VC), built once: the allocators never divide.
  std::array<std::uint8_t, kMaxRouterSlots> slot_port_{};
  std::array<std::uint8_t, kMaxRouterSlots> slot_vc_{};

  std::array<RouterId, kNumDirections> neighbor_;  ///< -1 at mesh edges.

  std::vector<VirtualChannel> vcs_;   ///< Input VCs, indexed by slot.
  std::vector<InputLink> links_;      ///< Per input port.
  std::vector<OutputState> outputs_;  ///< Per output port.

  RouterState state_ = RouterState::kActive;
  VfMode mode_;
  Tick next_edge_ = 0;
  Tick stall_until_ = 0;
  Tick wake_done_ = 0;
  Tick off_since_ = 0;
  Tick last_secured_ = 0;
  bool ever_secured_ = false;
  int idle_cycles_ = 0;
  std::int64_t inbound_inflight_ = 0;  ///< Flits in all in-flight tails.

  EnergyAccountant accountant_;
  Tick last_account_ = 0;
  std::array<Tick, kNumVfModes> active_mode_ticks_{};

  std::uint64_t gatings_ = 0;
  std::uint64_t wakeups_ = 0;
  std::uint64_t premature_wakeups_ = 0;
  std::uint64_t mode_switches_ = 0;

  FaultInjector* faults_ = nullptr;  ///< Shared injector; nullptr = off.
  Tick stuck_until_ = 0;  ///< Stuck power switch refuses wakes until here.
  std::uint64_t wake_faults_ = 0;
  std::uint64_t regulator_faults_ = 0;

  // Idle fast-path bookkeeping: flits currently buffered in the input VCs
  // and credits queued inbound. When both are zero the drains, the whole
  // pipeline step, and the occupancy sweep are provably no-ops and are
  // skipped (bit-identical by construction).
  int buffered_flits_ = 0;
  std::int64_t pending_credits_ = 0;
  int total_capacity_ = 0;  ///< Sum of input buffer capacities (constant).

  /// Occupancy bitmask over (input port, vc) slots: bit p*vcs+v is set
  /// while that VC holds at least one visible flit, so route_and_allocate
  /// visits only live slots. The slots fit one word (kMaxRouterSlots).
  std::uint64_t occ_mask_ = 0;
  /// Slots whose VC has flits in flight: the flit drain visits only these.
  std::uint64_t in_flight_slots_ = 0;
  /// Output ports with credits on their way back: the credit drain visits
  /// only these.
  std::uint64_t credit_ports_ = 0;

  std::uint64_t epoch_occ_ = 0;
  std::uint64_t epoch_cap_ = 0;
  double epoch_peak_ibu_ = 0.0;
  double util_ema_ = 0.0;  ///< ~16-cycle moving average of utilization.
  std::uint64_t life_occ_ = 0;
  std::uint64_t life_cap_ = 0;

  // Extended per-window instrumentation (reset with the window).
  std::vector<std::uint64_t> ep_port_occ_;
  std::vector<int> ep_port_peak_;
  std::vector<std::uint64_t> ep_port_arrivals_;
  std::vector<std::uint64_t> ep_port_departures_;
  std::uint64_t ep_edges_ = 0;
  std::uint64_t ep_idle_edges_ = 0;
  std::uint64_t ep_injected_ = 0;
  std::uint64_t ep_ejected_ = 0;
  std::uint64_t ep_secures_ = 0;
  double ep_raw_peak_ibu_ = 0.0;
};

// --- The per-edge path ---------------------------------------------------

inline void Router::account_until(Tick now) {
  if (now <= last_account_) return;
  const Tick duration = now - last_account_;
  switch (state_) {
    case RouterState::kInactive:
      accountant_.add_state_time(PowerState::kInactive, mode_, duration);
      break;
    case RouterState::kWakeup:
      accountant_.add_state_time(PowerState::kWakeup, mode_, duration);
      break;
    case RouterState::kActive:
      accountant_.add_state_time(PowerState::kActive, mode_, duration);
      active_mode_ticks_[static_cast<std::size_t>(mode_index(mode_))] +=
          duration;
      break;
  }
  last_account_ = now;
}

inline void Router::enqueue_in_flight(int port, int vc, Tick arrival,
                                      const Flit& flit) {
  InputLink& link = links_[static_cast<std::size_t>(port)];
  // Arrivals on one port never decrease while flits are on its link, so a
  // VC's in-flight tail matures front first.
  DOZZ_ASSERT((in_flight_slots_ & port_slots(port)) == 0 ||
              link.last_arrival <= arrival);
  const int slot = slot_index(port, vc);
  vc_at(slot).receive(arrival, link.sent++, flit);
  link.last_arrival = arrival;
  in_flight_slots_ |= std::uint64_t{1} << slot;
}

inline void Router::receive(int port, int vc, Tick arrival, const Flit& flit) {
  DOZZ_REQUIRE(port >= 0 && port < num_ports());
  DOZZ_REQUIRE(vc >= 0 && vc < vcs_per_port_);
  // A link is FIFO. Once the sender switches to a faster mode, a flit it
  // sends can compute an arrival before that of the flit ahead of it on
  // the link (link_latency_cycles times the period drop can exceed the
  // T-Switch stall); it then arrives right behind that flit.
  const Tick behind = links_[static_cast<std::size_t>(port)].last_arrival;
  enqueue_in_flight(port, vc, std::max(arrival, behind), flit);
  ++inbound_inflight_;
}

inline void Router::receive_credit(int port, int vc, Tick arrival) {
  DOZZ_REQUIRE(port >= 0 && port < num_ports());
  outputs_[static_cast<std::size_t>(port)].returning.push({arrival, port, vc});
  credit_ports_ |= std::uint64_t{1} << port;
  ++pending_credits_;
}

inline void Router::pre_step(Tick now) {
  if (state_ == RouterState::kWakeup && now >= wake_done_) {
    account_until(now);
    state_ = RouterState::kActive;
    idle_cycles_ = 0;
  }
  if (state_ != RouterState::kActive) return;
  if (credit_ports_ != 0) drain_credits(now);
  if (in_flight_slots_ != 0) drain_flits(now);
}

inline void Router::drain_credits(Tick now) {
  for (std::uint64_t m = credit_ports_; m != 0; m &= m - 1) {
    const int p = std::countr_zero(m);
    auto& out = outputs_[static_cast<std::size_t>(p)];
    while (out.returning.ready(now)) {
      const TimedCredit c = out.returning.pop();
      --pending_credits_;
      DOZZ_ASSERT(pending_credits_ >= 0);
      DOZZ_ASSERT(c.port == p);
      DOZZ_ASSERT(c.vc >= 0 && c.vc < vcs_per_port_);
      ++out.credits[static_cast<std::size_t>(c.vc)];
      DOZZ_ASSERT(out.credits[static_cast<std::size_t>(c.vc)] <=
                  config_->buffer_depth_flits);
    }
    if (out.returning.empty()) credit_ports_ &= ~(std::uint64_t{1} << p);
  }
}

inline void Router::drain_flits(Tick now) {
  const Tick eligible =
      now + static_cast<Tick>(config_->pipeline_stages) * period();
  for (std::uint64_t m = in_flight_slots_; m != 0; m &= m - 1) {
    const int slot = std::countr_zero(m);
    VirtualChannel& vc = vc_at(slot);
    const int n = vc.mature(now, eligible);
    if (n == 0) continue;
    const std::uint64_t bit = std::uint64_t{1} << slot;
    occ_mask_ |= bit;
    if (!vc.has_in_flight()) in_flight_slots_ &= ~bit;
    const std::size_t p = slot_port_[static_cast<std::size_t>(slot)];
    links_[p].buffered += n;
    ep_port_arrivals_[p] += static_cast<std::uint64_t>(n);
    buffered_flits_ += n;
    inbound_inflight_ -= n;
    DOZZ_ASSERT(inbound_inflight_ >= 0);
  }
}

template <RouterEnv Env>
void Router::route_and_allocate(Tick now, Env& env) {
  // Visit only the non-empty VCs, in ascending slot order: port-major
  // (p, then v).
  for (std::uint64_t m = occ_mask_; m != 0; m &= m - 1)
    route_vc(std::countr_zero(m), now, env);
}

template <RouterEnv Env>
void Router::route_vc(int slot, Tick now, Env& env) {
  VirtualChannel& vc = vc_at(slot);
  const Flit& front = vc.front();
  if (!vc.allocated()) {
    if (!front.is_head || now < front.eligible_tick) return;
    const int out_port = compute_output_port(front);
    const std::uint64_t bit = std::uint64_t{1} << slot;
    if (is_local_port(out_port)) {
      vc.allocate(out_port, 0);
      outputs_[static_cast<std::size_t>(out_port)].req_mask |= bit;
    } else {
      // VC allocation: claim a free downstream VC on the chosen
      // output, restricted to the packet's dateline class on a torus.
      // The class resets when the packet turns into a new dimension
      // (X and Y channel sets are disjoint resources) and moves to the
      // escape class on the wraparound (dateline) channel itself.
      const int classes = std::max(1, config_->vc_classes);
      int cls = 0;
      if (classes > 1) {
        const int p = slot_port_[static_cast<std::size_t>(slot)];
        const auto out_dir = static_cast<Direction>(out_port);
        int base = 0;
        if (!is_local_port(p) &&
            same_dimension(static_cast<Direction>(p), out_dir))
          base = front.vc_class;
        cls = topo_->is_wrap_link(id_, out_dir) ? 1 : base;
        if (cls >= classes) cls = classes - 1;
      }
      auto& out = outputs_[static_cast<std::size_t>(out_port)];
      int claimed = -1;
      for (int ov = cls * vcs_per_class_; ov < (cls + 1) * vcs_per_class_;
           ++ov) {
        if (!out.vc_busy[static_cast<std::size_t>(ov)]) {
          claimed = ov;
          break;
        }
      }
      if (claimed < 0) return;  // retry next cycle
      out.vc_busy[static_cast<std::size_t>(claimed)] = 1;
      vc.allocate(out_port, claimed);
      out.req_mask |= bit;
      // Power Punch: the moment a packet commits to an output, wake the
      // router after the next one on its path (hides T-Wakeup).
      if (config_->lookahead_punch) {
        const RouterId ds = neighbor_[static_cast<std::size_t>(out_port)];
        DOZZ_ASSERT(ds >= 0);
        env.punch_ahead(ds, front.dst_router, now);
      }
    }
  }
  // Every buffered packet with a network output pins its downstream
  // router on (the "not a downstream router" gating condition).
  if (vc.allocated() && !is_local_port(vc.out_port())) {
    const RouterId ds = neighbor_[static_cast<std::size_t>(vc.out_port())];
    DOZZ_ASSERT(ds >= 0);
    env.secure(ds, now);
  }
}

template <RouterEnv Env>
void Router::switch_allocate(Tick now, Env& env) {
  // Slots on input ports not yet granted this edge (the crossbar serves at
  // most one flit per input port per cycle). Bits at or above `slots_` are
  // never set in any req_mask, so they can stay set here.
  std::uint64_t free_slots = ~std::uint64_t{0};

  for (int out_port = 0; out_port < ports_; ++out_port) {
    auto& out = outputs_[static_cast<std::size_t>(out_port)];
    std::uint64_t cand = out.req_mask & free_slots;
    if (cand == 0) continue;  // nothing requests this output
    const bool local_out = is_local_port(out_port);
    RouterId ds = -1;
    if (!local_out) {
      ds = neighbor_[static_cast<std::size_t>(out_port)];
      if (ds < 0) continue;                         // mesh edge: no link
      if (!env.downstream_can_accept(ds)) continue;  // gated or waking
    }

    // Round-robin over the (input port, vc) slots holding an allocation
    // for this output: bits at or after last_grant+1 first, then wrap to
    // the low bits.
    int granted = -1;
    int start = out.last_grant + 1;
    if (start >= slots_) start = 0;
    while (cand != 0) {
      const std::uint64_t ge = cand >> start;
      const int slot =
          ge != 0 ? start + std::countr_zero(ge) : std::countr_zero(cand);
      const VirtualChannel& vc = vc_at(slot);
      if (!vc.empty() && now >= vc.front().eligible_tick &&
          (local_out ||
           out.credits[static_cast<std::size_t>(vc.out_vc())] > 0)) {
        granted = slot;
        break;
      }
      cand &= ~(std::uint64_t{1} << slot);
    }
    if (granted < 0) continue;

    out.last_grant = granted;
    const int in_port = slot_port_[static_cast<std::size_t>(granted)];
    const int in_vc = slot_vc_[static_cast<std::size_t>(granted)];
    free_slots &= ~port_slots(in_port);
    VirtualChannel& vc = vc_at(granted);
    const int out_vc = vc.out_vc();
    Flit flit = vc.pop();
    --buffered_flits_;
    --links_[static_cast<std::size_t>(in_port)].buffered;
    DOZZ_ASSERT(buffered_flits_ >= 0);
    if (vc.empty()) occ_mask_ &= ~(std::uint64_t{1} << granted);
    if (flit.is_tail) {
      if (!local_out) out.vc_busy[static_cast<std::size_t>(out_vc)] = 0;
      vc.release();
      out.req_mask &= ~(std::uint64_t{1} << granted);
    }

    // Credit back to the upstream router for the slot just freed.
    if (!is_local_port(in_port)) {
      const RouterId up = neighbor_[static_cast<std::size_t>(in_port)];
      DOZZ_ASSERT(up >= 0);
      env.send_credit(up, static_cast<int>(opposite(static_cast<Direction>(
                              in_port))),
                      in_vc, now + period());
    }

    // Crossbar + link traversal energy (Table V is per router+link hop).
    accountant_.add_hop(mode_);
    ++flit.hops;
    ++ep_port_departures_[static_cast<std::size_t>(out_port)];

    if (local_out) {
      ++ep_ejected_;
      env.eject(id_, flit, now);
    } else {
      // The flit now carries the class of the channel it traverses, so the
      // downstream router allocates within the right dateline class.
      if (config_->vc_classes > 1)
        flit.vc_class = static_cast<std::uint8_t>(out_vc / vcs_per_class_);
      --out.credits[static_cast<std::size_t>(out_vc)];
      const Tick arrival =
          now + static_cast<Tick>(config_->link_latency_cycles) * period();
      const int ds_port = static_cast<int>(
          opposite(static_cast<Direction>(out_port)));
      env.deliver(ds, ds_port, out_vc, arrival, flit);
    }
  }
}

template <RouterEnv Env>
void Router::pipeline_step(Tick now, Env& env) {
  if (state_ != RouterState::kActive || stalled(now)) return;
  // With no flits buffered, route_and_allocate skips every VC (empty VCs
  // never allocate or secure) and switch_allocate can grant nothing; its
  // only other touch points are pure const queries (downstream_can_accept).
  if (buffered_flits_ == 0) return;
  route_and_allocate(now, env);
  switch_allocate(now, env);
}

inline void Router::post_step(Tick now, bool nic_backlog) {
  if (state_ != RouterState::kActive) return;
  bool idle = !nic_backlog && inbound_inflight_ == 0;
  // The aggregate occupancy is tracked incrementally (buffered_flits_), so
  // the per-port sweep below only feeds the per-port epoch stats and is
  // skipped outright when nothing is buffered (every per-port occupancy is
  // zero then; the EMA decay below still runs).
  const int occupancy = buffered_flits_;
  const int capacity = total_capacity_;
  if (occupancy != 0) {
    int scanned = 0;
    for (std::size_t p = 0; p < links_.size(); ++p) {
      const int occ = links_[p].buffered;
      scanned += occ;
      ep_port_occ_[p] += static_cast<std::uint64_t>(occ);
      if (occ > ep_port_peak_[p]) ep_port_peak_[p] = occ;
    }
    DOZZ_ASSERT(scanned == occupancy);
  }
  ++ep_edges_;
  if (occupancy > 0) idle = false;
  idle_cycles_ = idle ? idle_cycles_ + 1 : 0;
  if (idle) ++ep_idle_edges_;
  epoch_occ_ += static_cast<std::uint64_t>(occupancy);
  epoch_cap_ += static_cast<std::uint64_t>(capacity);
  if (capacity > 0) {
    const double util =
        static_cast<double>(occupancy) / static_cast<double>(capacity);
    // Smooth over ~16 cycles: the congestion signal is *sustained* buffer
    // pressure, not a single-cycle blip from one passing packet train.
    util_ema_ += (util - util_ema_) / 16.0;
    if (util_ema_ > epoch_peak_ibu_) epoch_peak_ibu_ = util_ema_;
    if (util > ep_raw_peak_ibu_) ep_raw_peak_ibu_ = util;
  }
  life_occ_ += static_cast<std::uint64_t>(occupancy);
  life_cap_ += static_cast<std::uint64_t>(capacity);
  (void)now;
}

inline void Router::advance_clock(Tick now) {
  if (state_ == RouterState::kInactive) {
    next_edge_ = kInfTick;
    return;
  }
  if (state_ == RouterState::kWakeup) {
    next_edge_ = wake_done_;
    return;
  }
  next_edge_ = now + period();
}

inline bool Router::can_gate(Tick now) const {
  if (state_ != RouterState::kActive || stalled(now)) return false;
  if (idle_cycles_ < config_->t_idle_cycles) return false;
  if (inbound_inflight_ != 0) return false;
  if (secured(now)) return false;
  return buffered_flits_ == 0;
}

inline void Router::accept_local(int port, int vc, Flit flit, Tick now) {
  DOZZ_REQUIRE(is_local_port(port) && port < num_ports());
  DOZZ_REQUIRE(state_ == RouterState::kActive);
  const int slot = slot_index(port, vc);
  VirtualChannel& channel = vc_at(slot);
  DOZZ_ASSERT(!channel.full());
  flit.enter_tick = now;
  flit.eligible_tick =
      now + static_cast<Tick>(config_->pipeline_stages) * period();
  ++ep_injected_;
  ++ep_port_arrivals_[static_cast<std::size_t>(port)];
  ++buffered_flits_;
  ++links_[static_cast<std::size_t>(port)].buffered;
  occ_mask_ |= std::uint64_t{1} << slot;
  channel.push(flit);
}

}  // namespace dozz
