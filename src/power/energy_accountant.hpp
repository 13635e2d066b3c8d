// Per-router energy bookkeeping: static energy integrated over time and
// operating state, dynamic energy per flit hop, and ML label overhead.
#pragma once

#include <array>
#include <cstdint>

#include "src/common/time.hpp"
#include "src/power/power_model.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/regulator/vf_mode.hpp"

namespace dozz {

/// Coarse operating state of a router for energy purposes.
enum class PowerState : std::uint8_t {
  kInactive = 0,  ///< Power-gated: no static power.
  kWakeup = 1,    ///< Charging up: full static power of the target mode.
  kActive = 2,    ///< Operating: static power of the current mode.
};

/// Accumulated energy for one router (and its outgoing links).
class EnergyAccountant {
 public:
  EnergyAccountant(const PowerModel& power, const SimoLdoRegulator& regulator,
                   const MlOverheadModel& ml_overhead);

  /// Integrates static energy for `duration` ticks spent in `state` at
  /// `mode` (the target mode during wakeup; ignored when inactive).
  void add_state_time(PowerState state, VfMode mode, Tick duration);

  /// Charges one flit hop (router traversal + outgoing link) at `mode`.
  void add_hop(VfMode mode);

  /// Charges one ML label computation.
  void add_label();

  // --- Energy drawn by the router itself ---
  double static_energy_j() const { return static_j_; }
  double dynamic_energy_j() const { return dynamic_j_; }
  double ml_energy_j() const { return ml_j_; }
  double total_energy_j() const { return static_j_ + dynamic_j_ + ml_j_; }

  // --- Energy drawn from the regulator input ("wall"), i.e. divided by the
  //     SIMO/LDO chain efficiency at the mode in effect ---
  double wall_static_energy_j() const { return wall_static_j_; }
  double wall_dynamic_energy_j() const { return wall_dynamic_j_; }
  double wall_total_energy_j() const {
    return wall_static_j_ + wall_dynamic_j_ + ml_j_;
  }

  std::uint64_t hops() const { return hops_; }
  /// Hop tally per V/F mode (feeds per-component energy breakdowns).
  const std::array<std::uint64_t, kNumVfModes>& hops_per_mode() const {
    return hops_per_mode_;
  }
  std::uint64_t labels() const { return labels_; }
  Tick active_ticks() const { return active_ticks_; }
  Tick wakeup_ticks() const { return wakeup_ticks_; }
  Tick inactive_ticks() const { return inactive_ticks_; }
  Tick accounted_ticks() const {
    return active_ticks_ + wakeup_ticks_ + inactive_ticks_;
  }

  /// Fraction of accounted time spent power-gated.
  double off_fraction() const;

  void merge(const EnergyAccountant& other);
  void reset();

  /// All mutable accumulator state, for checkpoint/restore. The model
  /// pointers are construction-time wiring and stay with the object.
  struct Snapshot {
    double static_j = 0.0;
    double dynamic_j = 0.0;
    double ml_j = 0.0;
    double wall_static_j = 0.0;
    double wall_dynamic_j = 0.0;
    std::uint64_t hops = 0;
    std::array<std::uint64_t, kNumVfModes> hops_per_mode{};
    std::uint64_t labels = 0;
    Tick active_ticks = 0;
    Tick wakeup_ticks = 0;
    Tick inactive_ticks = 0;
  };
  Snapshot snapshot() const {
    return {static_j_,      dynamic_j_,    ml_j_,   wall_static_j_,
            wall_dynamic_j_, hops_,        hops_per_mode_, labels_,
            active_ticks_,  wakeup_ticks_, inactive_ticks_};
  }
  void restore(const Snapshot& s) {
    static_j_ = s.static_j;
    dynamic_j_ = s.dynamic_j;
    ml_j_ = s.ml_j;
    wall_static_j_ = s.wall_static_j;
    wall_dynamic_j_ = s.wall_dynamic_j;
    hops_ = s.hops;
    hops_per_mode_ = s.hops_per_mode;
    labels_ = s.labels;
    active_ticks_ = s.active_ticks;
    wakeup_ticks_ = s.wakeup_ticks;
    inactive_ticks_ = s.inactive_ticks;
  }

 private:
  const PowerModel* power_;
  const SimoLdoRegulator* regulator_;
  const MlOverheadModel* ml_overhead_;

  // Per-mode model values resolved once at construction. add_state_time and
  // add_hop run on every router clock edge, and the regulator efficiency
  // walk (vf_point -> rail_for -> rail_voltage) plus the table lookups
  // dominate their cost; the models are immutable, so the cached values are
  // exactly what the per-call lookups would return.
  std::array<double, kNumVfModes> static_w_{};
  std::array<double, kNumVfModes> hop_j_{};
  std::array<double, kNumVfModes> eff_{};
  double label_j_ = 0.0;

  double static_j_ = 0.0;
  double dynamic_j_ = 0.0;
  double ml_j_ = 0.0;
  double wall_static_j_ = 0.0;
  double wall_dynamic_j_ = 0.0;
  std::uint64_t hops_ = 0;
  std::array<std::uint64_t, kNumVfModes> hops_per_mode_{};
  std::uint64_t labels_ = 0;
  Tick active_ticks_ = 0;
  Tick wakeup_ticks_ = 0;
  Tick inactive_ticks_ = 0;
};

inline void EnergyAccountant::add_state_time(PowerState state, VfMode mode,
                                             Tick duration) {
  if (duration == 0) return;
  const double seconds = seconds_from_ticks(duration);
  switch (state) {
    case PowerState::kInactive:
      inactive_ticks_ += duration;
      return;  // Gated: supply at ground, no leakage.
    case PowerState::kWakeup:
      wakeup_ticks_ += duration;
      break;
    case PowerState::kActive:
      active_ticks_ += duration;
      break;
  }
  const std::size_t mi = static_cast<std::size_t>(mode_index(mode));
  const double joules = static_w_[mi] * seconds;
  static_j_ += joules;
  wall_static_j_ += joules / eff_[mi];
}

inline void EnergyAccountant::add_hop(VfMode mode) {
  ++hops_;
  const std::size_t mi = static_cast<std::size_t>(mode_index(mode));
  ++hops_per_mode_[mi];
  const double joules = hop_j_[mi];
  dynamic_j_ += joules;
  wall_dynamic_j_ += joules / eff_[mi];
}

}  // namespace dozz
