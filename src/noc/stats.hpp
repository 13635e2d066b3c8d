// Per-epoch features (paper Table IV), run metrics, and the power-management
// controller interface the network consults at runtime.
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "src/common/stats.hpp"
#include "src/common/time.hpp"
#include "src/faults/fault_config.hpp"
#include "src/regulator/vf_mode.hpp"
#include "src/topology/topology.hpp"

namespace dozz {

class CkptWriter;
class CkptReader;
/// The direction of a checkpoint walk that runs behind a virtual call
/// (a policy's state): saving into a writer or restoring from a reader.
using CkptIo = std::variant<CkptWriter*, CkptReader*>;

/// The reduced five-feature set of Table IV, captured per router per epoch.
struct EpochFeatures {
  double bias = 1.0;           ///< Feature 1: array of 1s.
  double reqs_sent = 0.0;      ///< Feature 2: requests sent by attached cores.
  double reqs_received = 0.0;  ///< Feature 3: requests received by them.
  double total_off_kcycles = 0.0;  ///< Feature 4: cumulative off time,
                                   ///< in baseline kilo-cycles.
  double current_ibu = 0.0;    ///< Feature 5: epoch-average input-buffer
                               ///< utilization in [0, 1].

  std::vector<double> to_vector() const {
    return {bias, reqs_sent, reqs_received, total_off_kcycles, current_ibu};
  }

  static std::vector<std::string> names() {
    return {"bias", "reqs_sent", "reqs_received", "total_off_kcycles",
            "current_ibu"};
  }
};

/// Maps a (predicted) input-buffer utilization to an active voltage mode
/// using the paper's thresholds (Fig. 3b): <5% -> M3, <10% -> M4,
/// <20% -> M5, <25% -> M6, otherwise M7.
VfMode mode_for_utilization(double ibu);

/// Runtime power-management decisions. Implemented by the policies in
/// src/core (Baseline, PowerGate, LEAD-tau, DozzNoC, ML+TURBO).
class PowerController {
 public:
  virtual ~PowerController() = default;

  /// Human-readable policy name.
  virtual std::string name() const = 0;

  /// Whether routers may be power-gated when idle.
  virtual bool gating_enabled() const = 0;

  /// Per-router gating veto, consulted (in addition to the router's own
  /// idle/secure conditions) when gating_enabled(). Lets policies gate on
  /// coarser evidence, e.g. Router Parking's "only park routers whose
  /// attached cores have been silent for a while".
  virtual bool may_gate(RouterId /*r*/) const { return true; }

  /// Active mode for router `r` for the next epoch, given the features of
  /// the epoch that just ended. Called only for routers currently active.
  virtual VfMode select_mode(RouterId r, const EpochFeatures& features) = 0;

  /// True if mode selection computes an ML label (charged 7.1 pJ each).
  virtual bool uses_ml() const = 0;

  /// Mode all routers start in.
  virtual VfMode initial_mode() const { return kTopMode; }

  /// When true the network builds the extended feature vector (see
  /// noc/extended_features.hpp) each window and calls
  /// select_mode_extended() instead of select_mode().
  virtual bool wants_extended_features() const { return false; }

  /// Extended-feature mode selection; only called when
  /// wants_extended_features() is true.
  virtual VfMode select_mode_extended(RouterId /*r*/,
                                      const std::vector<double>& /*features*/) {
    return kTopMode;
  }

  /// Number of features a label computation multiplies (drives the ML
  /// energy overhead: 7.1 pJ at 5 features, 61.1 pJ at 41).
  virtual int label_feature_count() const {
    return static_cast<int>(EpochFeatures::names().size());
  }

  /// Called once at every window boundary, before the per-router
  /// select_mode calls, with the index of the window that just ended
  /// (0-based). Lets policies keep window-aligned state (oracles, global
  /// coordination baselines).
  virtual void on_epoch_begin(std::uint64_t /*ended_epoch_index*/) {}

  // --- Graceful degradation under faults (DESIGN.md §7) ---
  // The network reports persistent hardware faults here; every policy then
  // honours the downgrade: a wake-lossy router is never gated again, and a
  // fault-ridden V/F domain is pinned to the nominal point. Both sets are
  // empty in fault-free runs, so the fast paths are untouched.

  /// Permanently disables gating for `r` (repeated wake losses observed).
  void degrade_gating(RouterId r);
  /// True when gating has been degraded away for `r`.
  bool gating_degraded(RouterId r) const;
  /// Permanently pins `r`'s domain to the nominal V/F point.
  void pin_nominal(RouterId r);
  /// True when `r` has been pinned to nominal.
  bool pinned_nominal(RouterId r) const;
  /// Routers affected by either downgrade.
  std::size_t degraded_router_count() const;

  // --- Checkpoint/restore (src/ckpt; DESIGN.md §8) ---
  /// Saves or restores, in one walk, the degradation sets plus whatever
  /// epoch-aligned state the concrete policy keeps (walk_extra_state).
  /// Weights and configuration are not captured: a resume must reconstruct
  /// the same policy object before restoring into it.
  void walk_state(CkptIo io);

 protected:
  /// Applies the pin-nominal downgrade to a mode decision. Concrete
  /// policies route their select_mode result through this.
  VfMode resolve_degraded(RouterId r, VfMode selected) const;

  /// The walk over policy-specific mutable state (window counters, oracle
  /// cursors), run for both directions. The default is empty: stateless
  /// policies need nothing.
  virtual void walk_extra_state(CkptIo /*io*/) {}

 private:
  std::set<RouterId> gating_degraded_;
  std::set<RouterId> pinned_nominal_;
};

/// Aggregate results of one simulation run.
struct NetworkMetrics {
  // Traffic.
  std::uint64_t packets_offered = 0;    ///< Matured at NIs (trace + responses).
  std::uint64_t packets_delivered = 0;
  std::uint64_t flits_delivered = 0;
  std::uint64_t requests_delivered = 0;
  std::uint64_t responses_delivered = 0;
  RunningStat packet_latency_ns;   ///< NI-ready to tail ejection (includes
                                   ///< source queueing).
  RunningStat network_latency_ns;  ///< Source-router entry to tail ejection
                                   ///< (the transit latency NoC papers
                                   ///< usually report).
  RunningStat packet_hops;
  Tick sim_ticks = 0;

  // Energy (summed over routers; "wall" includes regulator efficiency).
  double static_energy_j = 0.0;
  double dynamic_energy_j = 0.0;
  double ml_energy_j = 0.0;
  double wall_static_energy_j = 0.0;
  double wall_dynamic_energy_j = 0.0;

  // Power management activity.
  std::uint64_t gatings = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t premature_wakeups = 0;  ///< Off time below T-Breakeven.
  std::uint64_t mode_switches = 0;
  std::uint64_t labels_computed = 0;

  // Time-weighted distribution over states: [inactive, wakeup, M3..M7],
  // as fractions of total router-ticks.
  std::array<double, 2 + kNumVfModes> state_fractions{};

  // Per-epoch selected-mode tallies (Fig. 7).
  std::array<std::uint64_t, kNumVfModes> epoch_mode_counts{};

  double avg_ibu = 0.0;         ///< Network-average input-buffer utilization.
  double off_time_fraction = 0.0;  ///< Average fraction of time gated.

  // Packet-latency tail percentiles (ns), from a 0.5 ns-binned histogram.
  double latency_p50_ns = 0.0;
  double latency_p95_ns = 0.0;
  double latency_p99_ns = 0.0;

  // Fault-injection and resilience counters (all zero when the fault
  // layer is disabled or nothing fired).
  FaultStats faults;

  /// Delivered flit throughput in flits per nanosecond.
  double throughput_flits_per_ns() const {
    const double ns = ns_from_ticks(sim_ticks);
    return ns > 0 ? static_cast<double>(flits_delivered) / ns : 0.0;
  }

  /// Delivered packet throughput in packets per microsecond.
  double throughput_pkts_per_us() const {
    const double us = ns_from_ticks(sim_ticks) * 1e-3;
    return us > 0 ? static_cast<double>(packets_delivered) / us : 0.0;
  }

  /// Average static power draw over the run, in watts.
  double avg_static_power_w() const {
    const double s = seconds_from_ticks(sim_ticks);
    return s > 0 ? static_energy_j / s : 0.0;
  }

  double total_energy_j() const {
    return static_energy_j + dynamic_energy_j + ml_energy_j;
  }

  /// Energy-delay product in joule-seconds: total energy times the time it
  /// took to finish the work (paper Sec. IV-B1 reports EDP parity between
  /// DozzNoC-41 and DozzNoC-5).
  double energy_delay_product() const {
    return total_energy_j() * seconds_from_ticks(sim_ticks);
  }
};

}  // namespace dozz
