#include "src/sim/runner.hpp"

#include <chrono>
#include <sstream>

#include "src/ckpt/checkpoint.hpp"
#include "src/common/error.hpp"
#include "src/noc/extended_features.hpp"
#include "src/trafficgen/benchmarks.hpp"

namespace dozz {

RunOutcome run_simulation(const SimSetup& setup, PowerController& policy,
                          const Trace& trace, bool collect_epoch_log,
                          bool collect_extended_log) {
  return run_simulation_controlled(setup, policy, trace, PowerModel(),
                                   RunControl{}, collect_epoch_log,
                                   collect_extended_log);
}

RunOutcome run_simulation_controlled(const SimSetup& setup,
                                     PowerController& policy,
                                     const Trace& trace,
                                     const PowerModel& power,
                                     const RunControl& control,
                                     bool collect_epoch_log,
                                     bool collect_extended_log) {
  // Each run deliberately builds a fresh Network rather than reusing one
  // owned by the setup: a Network is single-shot (run() consumes it), its
  // hot-path scratch (epoch rows, feature vectors, latency histogram) is
  // already reused *within* the run, and sharing it across runs would race
  // when run_batch() executes jobs concurrently on one SimSetup.
  const Topology topo = setup.make_topology();
  NocConfig config = setup.noc;
  if (collect_epoch_log) config.collect_epoch_log = true;
  if (collect_extended_log) config.collect_extended_log = true;

  SimoLdoRegulator regulator;
  Network net(topo, config, policy, power, regulator);

  if (control.resume) {
    DOZZ_REQUIRE(!control.checkpoint_path.empty());
    restore_checkpoint_file(net, control.checkpoint_path);
  }

  std::uint64_t checkpoints_written = 0;
  const bool supervised = control.checkpoint_interval_epochs > 0 ||
                          control.stop != nullptr || control.timeout_s > 0.0;
  if (supervised) {
    const auto start = std::chrono::steady_clock::now();
    net.set_epoch_hook([&control, &checkpoints_written, start](
                           Network& n, Tick now, std::uint64_t epochs) {
      const bool stop_requested = control.stop && control.stop->load();
      bool timed_out = false;
      if (control.timeout_s > 0.0) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        timed_out = elapsed >= control.timeout_s;
      }
      const bool interval_due =
          control.checkpoint_interval_epochs > 0 &&
          epochs % control.checkpoint_interval_epochs == 0;
      // The save happens *before* a timeout throw or stop return, so the
      // file on disk always covers everything the run completed and a
      // supervised retry resumes instead of restarting.
      if (!control.checkpoint_path.empty() &&
          (interval_due || stop_requested || timed_out)) {
        save_checkpoint_file(n, control.checkpoint_path);
        ++checkpoints_written;
      }
      if (timed_out) {
        std::ostringstream msg;
        msg << "wall-clock timeout: run exceeded " << control.timeout_s
            << " s at epoch " << epochs;
        throw SimStallError(msg.str(), now);
      }
      return !stop_requested;
    });
  }

  try {
    if (setup.run_to_drain)
      net.run_until_drained(trace, setup.max_drain_tick());
    else
      net.run(trace, setup.end_tick());
  } catch (const SimStallError& e) {
    // Re-raise with run identity prefixed: a watchdog trip inside a batch
    // sweep must say *which* policy/trace stalled.
    throw SimStallError("policy " + policy.name() + " on trace " +
                            trace.name() + ": " + e.what(),
                        e.stall_tick());
  }

  RunOutcome outcome;
  outcome.policy = policy.name();
  outcome.trace = trace.name();
  outcome.metrics = net.metrics();
  outcome.epoch_log = net.epoch_log();
  outcome.extended_log = net.extended_log();
  outcome.interrupted = net.interrupted();
  outcome.checkpoints_written = checkpoints_written;
  return outcome;
}

RunOutcome run_policy(const SimSetup& setup, PolicyKind kind,
                      const Trace& trace,
                      const std::optional<WeightVector>& weights,
                      bool collect_epoch_log) {
  const int routers = setup.make_topology().num_routers();
  auto policy = make_policy(kind, routers, weights);
  return run_simulation(setup, *policy, trace, collect_epoch_log);
}

Dataset dataset_from_log(
    const std::vector<std::vector<EpochFeatures>>& epoch_log) {
  Dataset data(EpochFeatures::names());
  if (epoch_log.size() < 2) return data;
  for (std::size_t e = 0; e + 1 < epoch_log.size(); ++e) {
    DOZZ_REQUIRE(epoch_log[e].size() == epoch_log[e + 1].size());
    for (std::size_t r = 0; r < epoch_log[e].size(); ++r) {
      data.add(epoch_log[e][r].to_vector(),
               epoch_log[e + 1][r].current_ibu);
    }
  }
  return data;
}

Dataset dataset_from_extended_log(
    const std::vector<std::vector<std::vector<double>>>& extended_log,
    int ports) {
  Dataset data(extended_feature_names(ports));
  if (extended_log.size() < 2) return data;
  const std::size_t ibu = extended_ibu_column();
  for (std::size_t e = 0; e + 1 < extended_log.size(); ++e) {
    DOZZ_REQUIRE(extended_log[e].size() == extended_log[e + 1].size());
    for (std::size_t r = 0; r < extended_log[e].size(); ++r) {
      data.add(extended_log[e][r], extended_log[e + 1][r][ibu]);
    }
  }
  return data;
}

Trace make_benchmark_trace(const SimSetup& setup, const std::string& name,
                           double compression) {
  DOZZ_REQUIRE(compression > 0.0);
  const Topology topo = setup.make_topology();
  // Generate enough uncompressed cycles that the compressed trace still
  // covers the simulated window.
  const auto gen_cycles = static_cast<std::uint64_t>(
      static_cast<double>(setup.duration_cycles) / compression);
  Trace trace =
      generate_benchmark_trace(benchmark_profile(name), topo, gen_cycles);
  if (compression != 1.0) trace = trace.compressed(compression);
  trace.set_name(name);
  return trace;
}

}  // namespace dozz
