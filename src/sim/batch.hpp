// Parallel batch execution of independent simulation runs.
//
// A batch is a list of (policy, benchmark, compression) jobs over one
// SimSetup. run_batch() runs every job as one task of a priority-ordered
// thread pool; each task generates its own trace and owns its Network,
// policy instance and regulator — no mutable state is shared between
// concurrent runs, and each run is bit-identical to calling run_policy()
// serially.
//
// run_batch_supervised() layers sweep supervision on top: per-job
// wall-clock timeouts, bounded retry from the job's last checkpoint with
// exponential backoff, cooperative stop, and a persistent JSON-lines
// manifest so a killed sweep can be resumed without re-running finished
// jobs. It can also train the ML models its jobs need in the same pool
// (the training graph, see run_batch_supervised()).
//
// Results come back indexed by submission order regardless of the thread
// count, so callers that print or append in job order are deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/ckpt/checkpoint.hpp"
#include "src/core/policies.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/setup.hpp"
#include "src/sim/training.hpp"

namespace dozz {

/// One simulation run in a batch.
struct BatchJob {
  PolicyKind kind = PolicyKind::kBaseline;
  /// Trained weights for ML policy kinds; ignored otherwise.
  std::optional<WeightVector> weights;
  std::string benchmark;
  double compression = 1.0;
  bool collect_epoch_log = false;
  bool collect_extended_log = false;
  /// Run the policy's reactive twin (training data gathering) instead of
  /// the policy itself. Mutually exclusive with `weights`.
  bool reactive_twin = false;
  /// Display label stamped into the outcome's trace field and the sweep
  /// manifest ("" keeps the generated trace's name).
  std::string label;
};

/// Stable manifest identity of a job:
/// "policy|benchmark|compression|policy-or-twin". Two sweeps over the same
/// job list produce the same keys, which is what lets --resume match a
/// manifest against a regenerated job list.
std::string batch_job_key(const BatchJob& job);

/// The reactive-twin runs that gather a dataset for `kind`: one per
/// (benchmark, compression factor), benchmarks outer, each collecting its
/// epoch log. gather_dataset() and the training graph both run this list.
std::vector<BatchJob> gather_jobs(PolicyKind kind,
                                  const std::vector<std::string>& benchmarks,
                                  const TrainingOptions& options);

/// The dataset of finished gather runs: their epoch-log rows, in job order.
Dataset gathered_dataset(const std::vector<BatchJob>& jobs,
                         const std::vector<RunOutcome>& outcomes);

/// Runs every job and returns outcomes in submission order. `threads == 0`
/// uses default_thread_count() (the DOZZ_THREADS environment variable, or
/// the hardware concurrency). The value is a *total* thread budget: when
/// `setup.noc` enables the sharded single-run engine, the pool width is the
/// budget divided by resolve_shard_threads(setup.noc) (at least 1), so
/// sweep-level and intra-run parallelism together never oversubscribe it.
std::vector<RunOutcome> run_batch(const SimSetup& setup,
                                  const std::vector<BatchJob>& jobs,
                                  unsigned threads = 0);

/// Supervision knobs for run_batch_supervised.
struct BatchOptions {
  /// Total thread budget; 0 = default_thread_count(). Divided by
  /// resolve_shard_threads(setup.noc) to size the worker pool when the
  /// sharded single-run engine is enabled (see run_batch()).
  unsigned threads = 0;
  /// Wall-clock budget per job attempt in seconds (0 = unlimited). Expiry
  /// raises SimStallError inside the job, which the supervisor treats as
  /// retryable.
  double job_timeout_s = 0.0;
  /// Retries per job after a SimStallError (timeout or watchdog stall).
  /// Other exceptions fail the job immediately.
  int max_retries = 0;
  /// Sleep before the first retry; doubles on each further retry.
  double retry_backoff_s = 0.5;
  /// Checkpoint each job every N epochs (0 = only on stop/timeout).
  std::uint64_t checkpoint_interval_epochs = 0;
  /// Directory for per-job checkpoint files ("" disables checkpointing,
  /// which also disables resume-from-checkpoint on retry).
  std::string checkpoint_dir;
  /// Manifest file, atomically rewritten on every job state change (""
  /// disables persistence).
  std::string manifest_path;
  /// Load `manifest_path` and skip jobs already recorded as done; jobs
  /// recorded as running/failed restart from their checkpoint when one
  /// exists.
  bool resume = false;
  /// Cooperative stop: running jobs finish their current epoch and save a
  /// checkpoint; queued jobs stay pending. The manifest then resumes the
  /// sweep.
  const std::atomic<bool>* stop = nullptr;
};

/// Outcome of a supervised sweep.
struct BatchResult {
  /// Per-job outcomes in submission order. Skipped and failed jobs keep a
  /// default-constructed outcome; consult `manifest` for their state.
  std::vector<RunOutcome> outcomes;
  /// Final manifest (also on disk at BatchOptions::manifest_path).
  SweepManifest manifest;
  int completed = 0;  ///< Jobs finished in this invocation.
  int failed = 0;     ///< Jobs that exhausted retries or failed fatally.
  int skipped = 0;    ///< Jobs already done in the resumed manifest.
  int retried = 0;    ///< Retry attempts across all jobs.
  /// ThreadPool::suppressed_exceptions() after the sweep — nonzero means a
  /// worker exception was logged but not propagated; treat as failure.
  std::uint64_t suppressed_exceptions = 0;
  /// True when the stop flag interrupted the sweep.
  bool stopped = false;
  /// Gather runs the training graph finished in this invocation.
  int gathered = 0;
};

/// An ML model whose weights a supervised sweep needs.
struct TrainingRequest {
  PolicyKind kind = PolicyKind::kDozzNoc;
  TrainingOptions options;
};

/// Runs the sweep under supervision (see BatchOptions). Throws
/// CheckpointError when `options.resume` is set and the manifest does not
/// describe this job list.
///
/// `training` makes the call one task graph. Each listed kind (listed
/// once, an ML kind) gives its weights to the sweep's jobs of that kind,
/// which must carry none. The weights come from the weight cache
/// (load_cached_weights) when it has them, and those jobs start at once.
/// Otherwise the kind's gather runs (gather_jobs over the training, then
/// the validation benchmarks) join the same pool; the run that finishes
/// last fits the model (fit_and_tune), writes the cache entry and releases
/// the kind's jobs. Weights and reports equal train_policy_model() followed
/// by this call with the weights filled in. The queue runs gathers before
/// sweep jobs, models in policy-registry order, and compressed runs (about
/// 4x the packets) before uncompressed ones. A gather skipped on stop
/// leaves the kind's jobs pending; a failed gather or fit marks them
/// failed.
BatchResult run_batch_supervised(
    const SimSetup& setup, const std::vector<BatchJob>& jobs,
    const BatchOptions& options,
    const std::vector<TrainingRequest>& training = {});

}  // namespace dozz
