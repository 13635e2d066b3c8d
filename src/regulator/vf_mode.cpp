#include "src/regulator/vf_mode.hpp"

#include <cstdio>

#include "src/common/error.hpp"

namespace dozz {

namespace {
constexpr std::array<VfMode, kNumVfModes> kAllModes = {
    VfMode::kV08, VfMode::kV09, VfMode::kV10, VfMode::kV11, VfMode::kV12};
}  // namespace

const std::array<VfMode, kNumVfModes>& all_vf_modes() { return kAllModes; }

int mode_number(VfMode mode) { return mode_index(mode) + 3; }

VfMode mode_from_number(int number) {
  DOZZ_REQUIRE(number >= 3 && number <= 7);
  return static_cast<VfMode>(number - 3);
}

VfMode mode_from_index(int index) {
  DOZZ_REQUIRE(index >= 0 && index < kNumVfModes);
  return static_cast<VfMode>(index);
}

std::string mode_name(VfMode mode) {
  const VfPoint& p = vf_point(mode);
  char buf[64];
  std::snprintf(buf, sizeof buf, "M%d (%.1fV/%.2fGHz)", mode_number(mode),
                p.voltage_v, p.frequency_ghz);
  return buf;
}

std::string mode_label(VfMode mode) {
  return "M" + std::to_string(mode_number(mode));
}

}  // namespace dozz
