#include "src/sim/batch.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/log.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sim/model_store.hpp"
#include "src/sim/registries.hpp"
#include "src/sim/report.hpp"
#include "src/trafficgen/benchmarks.hpp"
#include "src/trafficgen/trace.hpp"

namespace dozz {

std::string batch_job_key(const BatchJob& job) {
  char compression[32];
  std::snprintf(compression, sizeof compression, "%g", job.compression);
  return policy_name(job.kind) + "|" + job.benchmark + "|" + compression +
         "|" + (job.reactive_twin ? "twin" : "policy");
}

std::vector<BatchJob> gather_jobs(PolicyKind kind,
                                  const std::vector<std::string>& benchmarks,
                                  const TrainingOptions& options) {
  std::vector<BatchJob> jobs;
  for (const auto& name : benchmarks) {
    for (double compression : options.compressions) {
      BatchJob job;
      job.kind = kind;
      job.benchmark = name;
      job.compression = compression;
      job.collect_epoch_log = true;
      job.reactive_twin = true;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

Dataset gathered_dataset(const std::vector<BatchJob>& jobs,
                         const std::vector<RunOutcome>& outcomes) {
  Dataset data(EpochFeatures::names());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    data.append(dataset_from_log(outcomes[i].epoch_log));
    DOZZ_LOG_INFO("gathered " << jobs[i].benchmark << " x"
                              << jobs[i].compression << " -> " << data.size()
                              << " examples");
  }
  return data;
}

namespace {

/// Position of `kind` in the policy registry.
int registry_rank(PolicyKind kind) {
  int rank = 0;
  for (const auto& [name, spec] : policy_registry()) {
    if (spec.kind == kind) break;
    ++rank;
  }
  return rank;
}

/// Queue priority of a job (higher runs sooner). Gathers come before sweep
/// jobs, so each model is fitted, and its sweep jobs released, as early as
/// possible; then models in registry order; then compressed runs, which
/// carry about 4x the packets of uncompressed ones, so the longest runs
/// start early instead of forming the batch's tail.
int job_priority(const BatchJob& job) {
  constexpr int kRanks = 256;
  const int rank = std::min(registry_rank(job.kind), kRanks - 1);
  return (job.reactive_twin ? 2 * kRanks : 0) + 2 * (kRanks - 1 - rank) +
         (job.compression < 1.0 ? 1 : 0);
}

/// Worker count of a batch's pool. The budget (`threads`, DOZZ_THREADS, or
/// the core count) caps *total* parallelism. Each run may itself fan out
/// over the sharded engine's resolve_shard_threads() threads, so the sweep
/// level gets the budget divided by the per-run width: 8 cores with
/// 4-shard runs means 2 concurrent runs, not 8 runs spawning 32 threads.
unsigned pool_width(const SimSetup& setup, unsigned threads) {
  const unsigned budget = threads == 0 ? default_thread_count() : threads;
  const unsigned per_run =
      static_cast<unsigned>(resolve_shard_threads(setup.noc));
  return budget < per_run ? 1 : budget / per_run;
}

void require_valid_jobs(const std::vector<BatchJob>& jobs) {
  for (const BatchJob& job : jobs)
    DOZZ_REQUIRE(!(job.reactive_twin && job.weights.has_value()));
}

std::unique_ptr<PowerController> make_job_policy(const BatchJob& job,
                                                 int routers) {
  return job.reactive_twin ? make_reactive_twin(job.kind, routers)
                           : make_policy(job.kind, routers, job.weights);
}

/// Runs one job unsupervised. Every run generates its own trace:
/// generation is deterministic (seeded from the benchmark name) and takes
/// a few milliseconds, while sharing traces would need a join before the
/// first run and keep every trace resident.
RunOutcome run_job(const SimSetup& setup, const BatchJob& job, int routers) {
  const Trace trace =
      make_benchmark_trace(setup, job.benchmark, job.compression);
  auto policy = make_job_policy(job, routers);
  return run_simulation(setup, *policy, trace, job.collect_epoch_log,
                        job.collect_extended_log);
}

}  // namespace

std::vector<RunOutcome> run_batch(const SimSetup& setup,
                                  const std::vector<BatchJob>& jobs,
                                  unsigned threads) {
  std::vector<RunOutcome> results(jobs.size());
  if (jobs.empty()) return results;
  require_valid_jobs(jobs);
  const int routers = setup.make_topology().num_routers();
  ThreadPool pool(pool_width(setup, threads));
  // One task per job. Everything a task mutates (trace, policy, Network,
  // regulator, its results slot) is task-local; the setup is read shared
  // but never written.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const BatchJob* job = &jobs[i];
    RunOutcome* out = &results[i];
    pool.submit([&setup, routers, job, out] {
      *out = run_job(setup, *job, routers);
    }, job_priority(*job));
  }
  pool.wait_all();
  return results;
}

namespace {

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

/// A job key rendered safe for use as a file name.
std::string key_to_filename(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (char c : key) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-';
    out += safe ? c : '_';
  }
  return out;
}

/// Shared, mutex-guarded sweep state: the manifest plus the counters that
/// tasks on different workers update.
struct SweepState {
  explicit SweepState(const BatchOptions& options) : options(options) {}

  const BatchOptions& options;
  std::mutex mutex;
  SweepManifest manifest;
  int completed = 0;
  int failed = 0;
  int retried = 0;
  int gathered = 0;
  bool stopped = false;

  bool stop_requested() const {
    return options.stop != nullptr && options.stop->load();
  }

  /// Persists the manifest (if configured). Caller holds `mutex`.
  void persist_locked() {
    if (!options.manifest_path.empty())
      save_manifest_file(manifest, options.manifest_path);
  }
};

/// Runs one job under supervision: retry-from-checkpoint on SimStallError
/// (watchdog stall or wall-clock timeout), fail-fast on anything else,
/// manifest updated and persisted on every transition. Never throws — a
/// supervised sweep reports failures through the manifest, not by tearing
/// down the pool.
void run_supervised_job(const SimSetup& setup, const BatchJob& job,
                        int routers, std::size_t index, SweepState* state,
                        RunOutcome* out) {
  const BatchOptions& options = state->options;
  JobRecord* record = &state->manifest.jobs[index];

  // A job recorded as running/failed by a killed sweep resumes from its
  // checkpoint when that file survived; otherwise it restarts.
  bool resume_from_checkpoint = options.resume &&
                                !record->checkpoint.empty() &&
                                file_exists(record->checkpoint);

  std::optional<Trace> trace;  // generated by the first attempt
  double backoff_s = options.retry_backoff_s;
  for (int attempt = 0;; ++attempt) {
    {
      std::unique_lock<std::mutex> lock(state->mutex);
      if (state->stop_requested()) {
        // Never started: stays pending/running so --resume picks it up.
        state->stopped = true;
        return;
      }
      record->status = "running";
      ++record->attempts;
      state->persist_locked();
    }

    RunControl control;
    control.checkpoint_interval_epochs = options.checkpoint_interval_epochs;
    if (!options.checkpoint_dir.empty()) {
      control.checkpoint_path = options.checkpoint_dir + "/" +
                                key_to_filename(record->key) + ".ckpt";
    }
    control.resume =
        resume_from_checkpoint && !control.checkpoint_path.empty();
    control.stop = options.stop;
    control.timeout_s = options.job_timeout_s;

    try {
      if (!trace)
        trace = make_benchmark_trace(setup, job.benchmark, job.compression);
      auto policy = make_job_policy(job, routers);
      RunOutcome outcome = run_simulation_controlled(
          setup, *policy, *trace, PowerModel(), control,
          job.collect_epoch_log, job.collect_extended_log);
      if (!job.label.empty()) outcome.trace = job.label;

      std::unique_lock<std::mutex> lock(state->mutex);
      record->checkpoint = control.checkpoint_path;
      if (outcome.interrupted) {
        // Stop flag: the final checkpoint is on disk and the job stays
        // "running" so --resume continues it mid-run.
        state->stopped = true;
      } else {
        record->status = "done";
        record->error.clear();
        record->report_json = outcome_to_json(outcome);
        ++state->completed;
        *out = std::move(outcome);
      }
      state->persist_locked();
      return;
    } catch (const SimStallError& e) {
      std::unique_lock<std::mutex> lock(state->mutex);
      record->error = e.what();
      record->checkpoint = control.checkpoint_path;
      const bool stop_requested = state->stop_requested();
      if (attempt < options.max_retries && !stop_requested) {
        ++state->retried;
        state->persist_locked();
        lock.unlock();
        if (backoff_s > 0.0)
          std::this_thread::sleep_for(
              std::chrono::duration<double>(backoff_s));
        backoff_s *= 2.0;
        // A timeout save (or the last interval save) lets the retry pick
        // up where the stalled attempt left off.
        resume_from_checkpoint = !control.checkpoint_path.empty() &&
                                 file_exists(control.checkpoint_path);
        continue;
      }
      record->status = "failed";
      ++state->failed;
      if (stop_requested) state->stopped = true;
      state->persist_locked();
      return;
    } catch (const std::exception& e) {
      std::unique_lock<std::mutex> lock(state->mutex);
      record->status = "failed";
      record->error = e.what();
      ++state->failed;
      state->persist_locked();
      return;
    }
  }
}

/// A model the training graph fits: its gather runs and their outcomes
/// (split 0 trains, split 1 validates) and the sweep jobs that wait for it.
struct ModelTraining {
  const TrainingRequest* request = nullptr;
  SimSetup setup;  ///< gather_setup() of the sweep's.
  /// From the cache (nothing to train) or, once it has run, the fit.
  std::optional<WeightVector> weights;
  std::vector<BatchJob> gathers[2];
  std::vector<RunOutcome> outcomes[2];
  std::vector<std::size_t> waiting;  ///< Sweep jobs needing the weights.
  // Guarded by SweepState::mutex.
  std::size_t remaining = 0;  ///< Gather runs not yet finished.
  bool skipped = false;       ///< A gather run was skipped on stop.
  std::string error;          ///< The first gather or fit failure.
};

/// One supervised sweep as a task graph: the pool, and everything its tasks
/// share. The pool is the last member, so its destructor joins the workers
/// before anything they use is destroyed.
class SweepGraph {
 public:
  SweepGraph(const SimSetup& setup, const std::vector<BatchJob>& jobs,
             const std::vector<TrainingRequest>& training, SweepState* state,
             BatchResult* result)
      : setup_(setup),
        jobs_(jobs),
        state_(*state),
        result_(*result),
        routers_(setup.make_topology().num_routers()),
        models_(training.size()),
        pool_(pool_width(setup, state->options.threads)) {
    for (std::size_t m = 0; m < training.size(); ++m) {
      ModelTraining& model = models_[m];
      model.request = &training[m];
      const PolicyKind kind = training[m].kind;
      const TrainingOptions& options = training[m].options;
      model.weights = load_cached_weights(kind, setup, options);
      if (model.weights) continue;
      model.setup = gather_setup(setup, options);
      model.gathers[0] = gather_jobs(kind, training_benchmarks(), options);
      model.gathers[1] = gather_jobs(kind, validation_benchmarks(), options);
      for (int split = 0; split < 2; ++split) {
        model.outcomes[split].resize(model.gathers[split].size());
        model.remaining += model.gathers[split].size();
      }
    }
  }

  /// Queues every gather run and every sweep job not yet done, then waits
  /// for all of them and for the sweep jobs the fits release.
  void run() {
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (state_.manifest.jobs[i].status == "done") {
        ++result_.skipped;
        continue;
      }
      ModelTraining* model = model_of(jobs_[i]);
      (model != nullptr && !model->weights ? model->waiting : ready)
          .push_back(i);
    }
    for (ModelTraining& model : models_)
      for (int split = 0; split < 2; ++split)
        for (std::size_t g = 0; g < model.gathers[split].size(); ++g)
          pool_.submit([this, &model, split, g] { run_gather(model, split, g); },
                       job_priority(model.gathers[split][g]));
    for (std::size_t i : ready) {
      const ModelTraining* model = model_of(jobs_[i]);
      submit_job(i, model != nullptr ? model->weights : std::nullopt);
    }
    pool_.wait_all();
    result_.suppressed_exceptions = pool_.suppressed_exceptions();
  }

 private:
  /// The model whose weights sweep job `job` takes, if it is trained here.
  ModelTraining* model_of(const BatchJob& job) {
    if (job.reactive_twin) return nullptr;
    for (ModelTraining& model : models_)
      if (model.request->kind == job.kind) return &model;
    return nullptr;
  }

  /// Queues sweep job `index`, run with `weights` when they are given.
  void submit_job(std::size_t index,
                  const std::optional<WeightVector>& weights) {
    BatchJob job = jobs_[index];
    if (weights) job.weights = weights;
    const int priority = job_priority(job);
    pool_.submit(
        [this, index, job = std::move(job)] {
          run_supervised_job(setup_, job, routers_, index, &state_,
                             &result_.outcomes[index]);
        },
        priority);
  }

  /// One gather run. A stop request skips it; the last of a model's runs
  /// to finish fits the model.
  void run_gather(ModelTraining& model, int split, std::size_t g) {
    const bool skip = state_.stop_requested();
    std::string error;
    if (!skip) {
      try {
        model.outcomes[split][g] =
            run_job(model.setup, model.gathers[split][g], routers_);
      } catch (const std::exception& e) {
        error = batch_job_key(model.gathers[split][g]) + ": " + e.what();
      }
    }
    {
      std::unique_lock<std::mutex> lock(state_.mutex);
      if (skip) model.skipped = state_.stopped = true;
      else if (error.empty()) ++state_.gathered;
      else if (model.error.empty()) model.error = error;
      if (--model.remaining > 0) return;
    }
    finish_training(model);
  }

  /// Runs once all of `model`'s gathers have: fits the model from their
  /// outcomes in submission order, caches the weights and releases the
  /// sweep jobs waiting for them. A failure fails those jobs; a gather
  /// skipped on stop leaves them pending.
  void finish_training(ModelTraining& model) {
    const TrainingRequest& request = *model.request;
    if (!model.skipped && model.error.empty()) {
      try {
        const TrainedModel trained = fit_and_tune(
            request.kind, gathered_dataset(model.gathers[0], model.outcomes[0]),
            gathered_dataset(model.gathers[1], model.outcomes[1]),
            request.options.lambda_grid);
        store_cached_weights(request.kind, setup_, request.options,
                             trained.weights);
        model.weights = trained.weights;
      } catch (const std::exception& e) {
        model.error = e.what();
      }
    }
    for (auto& outcomes : model.outcomes) outcomes = {};  // free the logs
    if (model.weights) {
      for (std::size_t i : model.waiting) submit_job(i, model.weights);
      return;
    }
    if (model.error.empty()) return;
    std::unique_lock<std::mutex> lock(state_.mutex);
    for (std::size_t i : model.waiting) {
      JobRecord& record = state_.manifest.jobs[i];
      record.status = "failed";
      record.error =
          "training " + policy_name(request.kind) + " failed: " + model.error;
      ++state_.failed;
    }
    state_.persist_locked();
  }

  const SimSetup& setup_;
  const std::vector<BatchJob>& jobs_;
  SweepState& state_;
  BatchResult& result_;
  const int routers_;
  std::vector<ModelTraining> models_;
  ThreadPool pool_;
};

}  // namespace

BatchResult run_batch_supervised(const SimSetup& setup,
                                 const std::vector<BatchJob>& jobs,
                                 const BatchOptions& options,
                                 const std::vector<TrainingRequest>& training) {
  BatchResult result;
  result.outcomes.resize(jobs.size());

  require_valid_jobs(jobs);
  for (std::size_t m = 0; m < training.size(); ++m) {
    const PolicyKind kind = training[m].kind;
    DOZZ_REQUIRE(policy_uses_ml(kind));
    for (std::size_t k = 0; k < m; ++k) DOZZ_REQUIRE(training[k].kind != kind);
    for (const BatchJob& job : jobs)
      DOZZ_REQUIRE(job.reactive_twin || job.kind != kind || !job.weights);
  }

  SweepState state(options);

  // Build the manifest: fresh records, or the resumed file validated
  // against this job list (same jobs, same order — the sweep definition is
  // deterministic, so any mismatch means the manifest belongs to a
  // different sweep).
  if (options.resume && !options.manifest_path.empty() &&
      file_exists(options.manifest_path)) {
    state.manifest = load_manifest_file(options.manifest_path);
    if (state.manifest.jobs.size() != jobs.size())
      throw CheckpointError(
          "manifest " + options.manifest_path + ": describes " +
          std::to_string(state.manifest.jobs.size()) + " jobs, sweep has " +
          std::to_string(jobs.size()));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::string key = batch_job_key(jobs[i]);
      if (state.manifest.jobs[i].key != key)
        throw CheckpointError("manifest " + options.manifest_path + ": job " +
                              std::to_string(i) + " is \"" +
                              state.manifest.jobs[i].key +
                              "\", sweep expects \"" + key + "\"");
    }
  } else {
    state.manifest.jobs.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      JobRecord& record = state.manifest.jobs[i];
      record.key = batch_job_key(jobs[i]);
      record.label = jobs[i].label;
      record.status = "pending";
    }
  }
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    state.persist_locked();
  }
  if (jobs.empty() && training.empty()) {
    result.manifest = state.manifest;
    return result;
  }

  SweepGraph(setup, jobs, training, &state, &result).run();

  result.manifest = state.manifest;
  result.completed = state.completed;
  result.failed = state.failed;
  result.retried = state.retried;
  result.gathered = state.gathered;
  result.stopped = state.stopped;
  return result;
}

}  // namespace dozz
