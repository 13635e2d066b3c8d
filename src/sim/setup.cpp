#include "src/sim/setup.hpp"

#include <cmath>
#include <cstdlib>
#include <string>

#include "src/common/error.hpp"
#include "src/common/parse.hpp"
#include "src/sim/registries.hpp"

namespace dozz {

Topology SimSetup::make_topology() const {
  return topology_registry().at(topology).make();
}

void validate(const SimSetup& setup, double compression,
              const KeyNamer& name) {
  const auto named = [&name](const std::string& key) {
    return name ? name(key) : key;
  };
  validate(setup.noc, setup.make_topology(),
           [&named](const std::string& key) { return named("noc." + key); });
  // max_drain_tick() is 8 * end_tick() and must stay below kInfTick.
  constexpr std::uint64_t kMaxCycles = kInfTick / (8 * kBaselinePeriodTicks);
  if (setup.duration_cycles < 1 || setup.duration_cycles > kMaxCycles)
    throw ConfigError(named("duration_cycles") + " must be between 1 and " +
                      std::to_string(kMaxCycles) + " (got " +
                      std::to_string(setup.duration_cycles) + ")");
  if (!(compression > 0.0) || !std::isfinite(compression))
    throw ConfigError(named("compression") +
                      " must be a positive number (got " +
                      std::to_string(compression) + ")");
}

std::uint64_t quick_divisor() {
  static const std::uint64_t divisor = []() -> std::uint64_t {
    const char* env = std::getenv("DOZZ_QUICK");
    if (env == nullptr) return 1;
    const std::uint64_t v = parse_unsigned(env, "DOZZ_QUICK");
    return v >= 1 ? v : 1;
  }();
  return divisor;
}

std::uint64_t scaled_cycles(std::uint64_t cycles, std::uint64_t min_cycles) {
  const std::uint64_t scaled = cycles / quick_divisor();
  return scaled < min_cycles ? min_cycles : scaled;
}

}  // namespace dozz
