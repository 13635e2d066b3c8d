// The five DVFS voltage/frequency operating points of DozzNoC.
//
// Paper numbering: mode 1 is the inactive (power-gated) state, mode 2 the
// wakeup state, and modes 3-7 the five active V/F pairs
// {0.8V/1GHz, 0.9V/1.5GHz, 1.0V/1.8GHz, 1.1V/2GHz, 1.2V/2.25GHz}.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "src/common/time.hpp"

namespace dozz {

/// Active voltage/frequency mode (paper modes 3..7).
enum class VfMode : std::uint8_t {
  kV08 = 0,  ///< 0.8 V / 1.00 GHz (paper mode 3)
  kV09 = 1,  ///< 0.9 V / 1.50 GHz (paper mode 4)
  kV10 = 2,  ///< 1.0 V / 1.80 GHz (paper mode 5)
  kV11 = 3,  ///< 1.1 V / 2.00 GHz (paper mode 6)
  kV12 = 4,  ///< 1.2 V / 2.25 GHz (paper mode 7)
};

inline constexpr int kNumVfModes = 5;

/// Highest (baseline) mode: 1.2 V / 2.25 GHz.
inline constexpr VfMode kTopMode = VfMode::kV12;

/// Lowest active mode: 0.8 V / 1 GHz.
inline constexpr VfMode kBottomMode = VfMode::kV08;

/// The nominal (fail-safe) operating point. A domain that suffers repeated
/// regulator faults, or is recovering from a voltage droop, is forced back
/// here: the highest V/F pair is the only point guaranteed to meet timing
/// regardless of what the regulator is doing below it.
inline constexpr VfMode kNominalMode = kTopMode;

/// One operating point of the regulator.
struct VfPoint {
  double voltage_v;       ///< Supply voltage in volts.
  double frequency_ghz;   ///< Clock frequency in GHz.
  Tick period_ticks;      ///< Clock period in simulation ticks (1/9000 ns).
};

/// Index 0..4 for dense arrays.
constexpr int mode_index(VfMode mode) { return static_cast<int>(mode); }

namespace detail {
// Periods: 1 GHz -> 9000 ticks, 1.5 GHz -> 6000, 1.8 GHz -> 5000,
// 2 GHz -> 4500, 2.25 GHz -> 4000 (tick = 1/9000 ns).
inline constexpr std::array<VfPoint, kNumVfModes> kVfPoints = {{
    {0.8, 1.00, 9000},
    {0.9, 1.50, 6000},
    {1.0, 1.80, 5000},
    {1.1, 2.00, 4500},
    {1.2, 2.25, 4000},
}};
}  // namespace detail

/// Electrical/timing parameters for a mode.
inline const VfPoint& vf_point(VfMode mode) {
  return detail::kVfPoints[static_cast<std::size_t>(mode_index(mode))];
}

/// All modes in ascending voltage order.
const std::array<VfMode, kNumVfModes>& all_vf_modes();

/// Paper mode number (3..7).
int mode_number(VfMode mode);

/// Inverse of mode_number; requires number in [3, 7].
VfMode mode_from_number(int number);

/// Mode from a dense index 0..4.
VfMode mode_from_index(int index);

/// Short human-readable name, e.g. "M5 (1.0V/1.8GHz)".
std::string mode_name(VfMode mode);

/// Compact label, e.g. "M5".
std::string mode_label(VfMode mode);

}  // namespace dozz
