// One-call simulation driving: build network, run trace, return metrics,
// and convert epoch feature logs into ML datasets.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/policies.hpp"
#include "src/ml/dataset.hpp"
#include "src/noc/network.hpp"
#include "src/sim/setup.hpp"
#include "src/trafficgen/trace.hpp"

namespace dozz {

/// Result of one run.
struct RunOutcome {
  std::string policy;
  std::string trace;
  NetworkMetrics metrics;
  std::vector<std::vector<EpochFeatures>> epoch_log;  ///< If collected.
  /// Extended (41-feature) log, if collected: [epoch][router][feature].
  std::vector<std::vector<std::vector<double>>> extended_log;
  /// True when the run stopped early at an epoch boundary (stop flag); the
  /// metrics then cover only the completed portion of the run.
  bool interrupted = false;
  /// Checkpoint files written during the run (interval + interrupt saves).
  std::uint64_t checkpoints_written = 0;
};

/// Supervision knobs for run_simulation_controlled. The default-constructed
/// control is an unsupervised run: no checkpoints, no timeout, never
/// interrupted.
struct RunControl {
  /// Save a checkpoint every N processed epochs (0 = never). Requires
  /// `checkpoint_path`.
  std::uint64_t checkpoint_interval_epochs = 0;
  /// Where checkpoints are written (atomically; the file always holds the
  /// latest complete checkpoint).
  std::string checkpoint_path;
  /// Restore `checkpoint_path` into the fresh network before running; the
  /// run then continues from the checkpointed epoch and produces a final
  /// report byte-identical to an uninterrupted run.
  bool resume = false;
  /// Cooperative stop: when set, the run finishes the current epoch, saves
  /// a final checkpoint (if `checkpoint_path` is set) and returns with
  /// `interrupted = true`.
  const std::atomic<bool>* stop = nullptr;
  /// Wall-clock budget for this run in seconds (0 = unlimited). On expiry a
  /// final checkpoint is saved (if `checkpoint_path` is set) and
  /// SimStallError is thrown, so supervised retry resumes instead of
  /// restarting.
  double timeout_s = 0.0;
};

/// Runs `trace` on the setup's topology under `policy` until the setup's
/// end tick. `collect_epoch_log` / `collect_extended_log` override the
/// setup's flags when true.
RunOutcome run_simulation(const SimSetup& setup, PowerController& policy,
                          const Trace& trace, bool collect_epoch_log = false,
                          bool collect_extended_log = false);

/// The same run with a caller-supplied power model (e.g. produced by the
/// analytical DsentRouterModel for a non-reference router geometry) and
/// supervision: periodic checkpointing, cooperative stop,
/// resume-from-checkpoint and a wall-clock timeout (see RunControl).
RunOutcome run_simulation_controlled(const SimSetup& setup,
                                     PowerController& policy,
                                     const Trace& trace,
                                     const PowerModel& power,
                                     const RunControl& control,
                                     bool collect_epoch_log = false,
                                     bool collect_extended_log = false);

/// Convenience: builds the policy for `kind` (with `weights` for ML kinds)
/// and runs it.
RunOutcome run_policy(const SimSetup& setup, PolicyKind kind,
                      const Trace& trace,
                      const std::optional<WeightVector>& weights = std::nullopt,
                      bool collect_epoch_log = false);

/// Converts a per-epoch feature log into a supervised dataset: the label of
/// epoch e's features is epoch e+1's measured input-buffer utilization
/// (the paper's "future input buffer utilization", tacked on at the end of
/// the simulation).
Dataset dataset_from_log(
    const std::vector<std::vector<EpochFeatures>>& epoch_log);

/// Same pairing for the extended log: features of epoch e, labelled with
/// epoch e+1's current_ibu column. `ports` names the columns.
Dataset dataset_from_extended_log(
    const std::vector<std::vector<std::vector<double>>>& extended_log,
    int ports);

/// Generates the named benchmark trace on the setup's topology covering the
/// setup's duration. `compression` scales injection times (use
/// kCompressedFactor for the paper's compressed runs); the generated window
/// is stretched so the compressed trace still spans the whole run.
Trace make_benchmark_trace(const SimSetup& setup, const std::string& name,
                           double compression = 1.0);

}  // namespace dozz
