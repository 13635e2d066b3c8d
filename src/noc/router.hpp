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
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/time.hpp"
#include "src/noc/channel.hpp"
#include "src/noc/input_buffer.hpp"
#include "src/noc/noc_config.hpp"
#include "src/noc/stats.hpp"
#include "src/power/energy_accountant.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/topology/topology.hpp"

namespace dozz {

class CkptWriter;
class CkptReader;
class FaultInjector;
class FlatRouteTable;
class Router;
struct SimContext;

/// Services a router needs from the surrounding network: downstream state
/// checks, flit/credit delivery, securing (wake) pokes, and ejection.
class RouterEnvironment {
 public:
  virtual ~RouterEnvironment() = default;

  /// True when `r` may receive flits (it is in the active state).
  virtual bool downstream_can_accept(RouterId r) const = 0;

  /// Marks `r` as a downstream router (pins it on / wakes it if gated).
  virtual void secure(RouterId r, Tick now) = 0;

  /// Power Punch-style lookahead: secures the router after `r` on the XY
  /// path toward `dst`.
  virtual void punch_ahead(RouterId r, RouterId dst, Tick now) = 0;

  /// Delivers a flit into `r`'s input `port`, VC `vc`, at `arrival`.
  virtual void deliver(RouterId r, int port, int vc, Tick arrival,
                       const Flit& flit) = 0;

  /// Returns a credit to `upstream` for its output (`port`, `vc`).
  virtual void send_credit(RouterId upstream, int port, int vc,
                           Tick arrival) = 0;

  /// A flit reached a local output port of router `r`.
  virtual void eject(RouterId r, const Flit& flit, Tick now) = 0;
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
  int num_ports() const { return static_cast<int>(inputs_.size()); }

  // --- State, mode and clock ---
  RouterState state() const { return state_; }
  VfMode active_mode() const { return mode_; }
  Tick period() const { return vf_point(mode_).period_ticks; }
  Tick next_edge() const { return next_edge_; }
  bool stalled(Tick now) const { return now < stall_until_; }

  /// Cumulative power-gated time including an in-progress off interval.
  Tick total_off_ticks(Tick now) const;

  // --- Channels (written by the environment / upstream routers) ---
  FlitChannel& flit_in(int port);
  CreditChannel& credit_in(int port);
  void note_inbound() { ++inbound_inflight_; }
  /// Called by the network when it pushes into a credit_in channel; lets
  /// an idle router skip the per-port credit drain scan entirely.
  void note_credit() { ++pending_credits_; }

  // --- The four phases of one clock edge (driven by the network) ---
  /// Completes wakeup if due; drains matured credits and flits.
  void pre_step(Tick now);
  /// Route compute, VC allocation, securing pokes, switch allocation and
  /// traversal. No-op while power-gated or mid-voltage-switch.
  void pipeline_step(Tick now, RouterEnvironment& env);
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
  bool secured(Tick now) const;
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
  bool local_vc_has_space(int port, int vc) const;
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
  EpochCounters epoch_counters() const;
  /// In-place variant for the per-epoch hot path: refills `out`'s vectors
  /// reusing their capacity instead of allocating four fresh ones per call.
  void epoch_counters_into(EpochCounters* out) const;

  /// Whole-run average input-buffer utilization.
  double lifetime_ibu() const;

  /// Flushes static-energy accounting up to `now`. Must be called before
  /// reading the accountant at arbitrary times and at end of simulation.
  void account_until(Tick now);

  // --- Checkpoint/restore (src/ckpt; DESIGN.md §8) ---
  /// Serializes all mutable router state: operating state/mode/clock,
  /// buffers, in-flight channel entries, energy accounting and every
  /// statistics counter. Construction-time wiring (id, topology, config,
  /// regulator, neighbors, capacities) is rebuilt from the configuration.
  void save_state(CkptWriter& w) const;
  void load_state(CkptReader& r);

 private:
  struct OutputState {
    std::vector<int> credits;       ///< Per downstream VC.
    std::vector<char> vc_busy;      ///< Downstream VC allocated to a packet.
    int last_grant = -1;            ///< Round-robin pointer over (port, vc).
    /// Request bitmask over (input port, vc) slots: bit p*vcs+v is set while
    /// that input VC holds an allocation targeting this output, so switch
    /// allocation probes just the requesters instead of every slot.
    std::uint64_t req_mask = 0;
  };

  bool is_local_port(int port) const { return port >= kNumDirections; }
  /// Flattened (input port, vc) slot index used by the hot-path bitmasks
  /// and the switch allocator's round-robin pointer.
  int slot_index(int port, int vc) const {
    return port * config_->vcs_per_port + vc;
  }
  void drain_credits(Tick now);
  void drain_flits(Tick now);
  void route_and_allocate(Tick now, RouterEnvironment& env);
  /// Route compute + VC allocation + securing for one non-empty input VC
  /// (the per-slot body of route_and_allocate).
  void route_vc(int p, int v, Tick now, RouterEnvironment& env);
  void switch_allocate(Tick now, RouterEnvironment& env);
  int compute_output_port(const Flit& flit) const;

  RouterId id_;
  const Topology* topo_;
  const NocConfig* config_;
  const FlatRouteTable* routes_;  ///< Next hops under config_->routing.
  const SimoLdoRegulator* regulator_;

  std::array<RouterId, kNumDirections> neighbor_;  ///< -1 at mesh edges.

  std::vector<InputPort> inputs_;
  std::vector<FlitChannel> flit_in_;
  std::vector<CreditChannel> credit_in_;
  std::vector<OutputState> outputs_;

  RouterState state_ = RouterState::kActive;
  VfMode mode_;
  Tick next_edge_ = 0;
  Tick stall_until_ = 0;
  Tick wake_done_ = 0;
  Tick off_since_ = 0;
  Tick last_secured_ = 0;
  bool ever_secured_ = false;
  int idle_cycles_ = 0;
  std::int64_t inbound_inflight_ = 0;

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
  // and credits queued in the credit_in channels. When both are zero the
  // drain scans, the whole pipeline step, and the occupancy sweep are
  // provably no-ops and are skipped (bit-identical by construction).
  int buffered_flits_ = 0;
  std::int64_t pending_credits_ = 0;
  int total_capacity_ = 0;  ///< Sum of input buffer capacities (constant).

  /// Occupancy bitmask over (input port, vc) slots: bit p*vcs+v is set
  /// while that VC buffers at least one flit, so route_and_allocate visits
  /// only live slots. The slots fit one word (kMaxRouterSlots).
  std::uint64_t occ_mask_ = 0;

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

}  // namespace dozz
