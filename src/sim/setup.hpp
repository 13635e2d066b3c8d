// Experiment setup shared by examples, tests and benches.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/time.hpp"
#include "src/noc/noc_config.hpp"
#include "src/topology/topology.hpp"

namespace dozz {

/// Time-compression factor of the paper's "compressed" trace runs: trace
/// inter-arrival gaps are scaled by 1/4, quadrupling the offered load.
inline constexpr double kCompressedFactor = 0.25;

/// One experiment configuration: topology + simulator parameters + length.
struct SimSetup {
  /// Topology-registry name ("mesh", "cmesh", "torus", ...). Apply its
  /// rules to `noc` with configure_topology() so routing/VC-class defaults
  /// hold (the torus needs torus-xy routing and two VC classes).
  std::string topology = "mesh";
  NocConfig noc;
  std::uint64_t duration_cycles = 60000;  ///< Run window, baseline cycles.
  /// Paper methodology: run each trace to completion, so a slower policy
  /// takes longer wall time (that is what the paper's throughput-loss and
  /// static-energy numbers measure). When false, runs a fixed window.
  bool run_to_drain = false;

  /// Builds the topology named by `topology` from the registry.
  Topology make_topology() const;

  Tick end_tick() const { return duration_cycles * kBaselinePeriodTicks; }

  /// Safety horizon for drain mode: well past any sane completion time.
  Tick max_drain_tick() const { return end_tick() * 8; }
};

/// validate(setup.noc) on the setup's topology plus the run's own
/// parameters: the duration must be at least one cycle and keep the drain
/// horizon inside the tick range, and the trace `compression` factor must
/// be positive and finite. Throws ConfigError naming the key
/// ("noc.epoch_cycles", "duration_cycles", "compression") through `name`.
/// Front ends call it before any trace generation or training.
void validate(const SimSetup& setup, double compression = 1.0,
              const KeyNamer& name = {});

/// Scale factor for bench workloads, settable via the DOZZ_QUICK environment
/// variable (e.g. DOZZ_QUICK=4 divides run lengths by 4 for smoke runs).
/// Returns 1 when unset or 0; throws ConfigError when it is not a
/// non-negative integer.
std::uint64_t quick_divisor();

/// `cycles / quick_divisor()`, floored at `min_cycles`.
std::uint64_t scaled_cycles(std::uint64_t cycles,
                            std::uint64_t min_cycles = 5000);

}  // namespace dozz
