// Test support for the bit-identity suites: the linear-scan reference
// kernel every engine is compared against, and the comparison helpers the
// golden, kernel-equivalence, shard-equivalence and checkpoint suites
// share.
#pragma once

#include <string>
#include <vector>

#include "src/common/stats.hpp"
#include "src/core/policies.hpp"
#include "src/noc/network.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/setup.hpp"

namespace dozz {

/// The pre-indexed event kernel, kept out of the product as the
/// independent reference of the bit-identity contract. Per event it scans
/// every router and NIC for the next event time, then matures every due
/// NIC and steps every due router in id order. It drives the same
/// per-event phases as the product's engines but none of their event-lane
/// scheduling, so a lane defect shows up as a divergence from it. The
/// phases book into the lane tallies, which it folds where run_event
/// does. Like the sharded engine's ShardRuntime, it is a friend of
/// Network.
struct LinearKernel {
  /// Runs `net` like Network::run (drain = false) or
  /// Network::run_until_drained (drain = true), on this kernel.
  static void run(Network& net, const Trace& trace, Tick end_tick,
                  bool drain);

 private:
  /// The event loop. Returns the last event tick.
  static Tick loop(Network& net, const Trace& trace, Tick end_tick,
                   bool drain);
  /// Earliest of `trace_next`, every router's next clock edge and every
  /// NIC's next response.
  static Tick next_event_after(const Network& net, Tick trace_next);
};

/// Runs `net` over `setup`'s horizon, to drain when setup.run_to_drain:
/// on the linear reference kernel when `linear`, else through the
/// product's run entry points (which may shard).
void drive(Network& net, const SimSetup& setup, const Trace& trace,
           bool linear);

/// run_simulation, on the linear reference kernel when `linear`.
RunOutcome run_simulation_on(bool linear, const SimSetup& setup,
                             PowerController& policy, const Trace& trace,
                             bool collect_epoch_log = false,
                             bool collect_extended_log = false);

/// gtest parameter names must be alphanumeric: every other character
/// becomes '_'.
std::string sanitize(std::string name);

/// Ridge weights that predict the next window's IBU as the current one,
/// so the ML policies run without a trained model.
WeightVector passthrough_weights();

/// Bit-for-bit comparisons: every field, down to RunningStat internals and
/// every fault counter, must be equal (not merely close).
void expect_stat_identical(const RunningStat& a, const RunningStat& b,
                           const char* label);
void expect_metrics_identical(const NetworkMetrics& a,
                              const NetworkMetrics& b);
void expect_epoch_logs_identical(
    const std::vector<std::vector<EpochFeatures>>& a,
    const std::vector<std::vector<EpochFeatures>>& b);

}  // namespace dozz
