// The parallel batch runner must be invisible to results: outcomes arrive
// in submission order with content identical to serial run_policy() calls,
// at any thread count, and the training graph of run_batch_supervised()
// trains the same weights as train_policy_model(). Also tests the priority
// pool and the thread budget itself. The BatchDeterminism and ThreadPool
// tests double as the tsan_smoke suite (see tests/CMakeLists.txt): under
// -DDOZZ_SANITIZE=thread they exercise every cross-thread edge the batch
// layer has. The SupervisedBatch tests here join ckpt_smoke.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/sim/batch.hpp"
#include "src/sim/model_store.hpp"
#include "src/sim/registries.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/setup.hpp"

namespace dozz {
namespace {

SimSetup small_setup() {
  SimSetup setup;
  setup.duration_cycles = 5000;
  setup.noc.epoch_cycles = 500;
  return setup;
}

std::vector<BatchJob> sample_jobs() {
  std::vector<BatchJob> jobs;
  for (const char* benchmark : {"blackscholes", "fft"}) {
    for (PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kPowerGate}) {
      BatchJob job;
      job.kind = kind;
      job.benchmark = benchmark;
      job.collect_epoch_log = true;
      jobs.push_back(std::move(job));
    }
  }
  // One compressed run so the batch shares two distinct traces.
  BatchJob compressed;
  compressed.kind = PolicyKind::kPowerGate;
  compressed.benchmark = "fft";
  compressed.compression = kCompressedFactor;
  jobs.push_back(std::move(compressed));
  return jobs;
}

void expect_same_outcome(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics.packets_delivered, b.metrics.packets_delivered);
  EXPECT_EQ(a.metrics.flits_delivered, b.metrics.flits_delivered);
  EXPECT_EQ(a.metrics.sim_ticks, b.metrics.sim_ticks);
  EXPECT_EQ(a.metrics.static_energy_j, b.metrics.static_energy_j);
  EXPECT_EQ(a.metrics.dynamic_energy_j, b.metrics.dynamic_energy_j);
  EXPECT_EQ(a.metrics.gatings, b.metrics.gatings);
  EXPECT_EQ(a.metrics.wakeups, b.metrics.wakeups);
  EXPECT_EQ(a.metrics.packet_latency_ns.mean(),
            b.metrics.packet_latency_ns.mean());
  ASSERT_EQ(a.epoch_log.size(), b.epoch_log.size());
}

TEST(BatchDeterminism, SameResultsAtAnyThreadCount) {
  const SimSetup setup = small_setup();
  const std::vector<BatchJob> jobs = sample_jobs();
  const std::vector<RunOutcome> serial = run_batch(setup, jobs, 1);
  const std::vector<RunOutcome> parallel = run_batch(setup, jobs, 4);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(parallel.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    expect_same_outcome(serial[i], parallel[i]);
}

TEST(BatchDeterminism, MatchesSerialRunPolicy) {
  const SimSetup setup = small_setup();
  const std::vector<BatchJob> jobs = sample_jobs();
  const std::vector<RunOutcome> batch = run_batch(setup, jobs, 4);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Trace trace =
        make_benchmark_trace(setup, jobs[i].benchmark, jobs[i].compression);
    const RunOutcome direct = run_policy(setup, jobs[i].kind, trace,
                                         std::nullopt,
                                         jobs[i].collect_epoch_log);
    expect_same_outcome(direct, batch[i]);
  }
}

TEST(BatchDeterminism, EmptyBatchIsEmpty) {
  EXPECT_TRUE(run_batch(small_setup(), {}, 2).empty());
}

TEST(ThreadPool, RunsEveryTaskOnce) {
  ThreadPool pool(4);
  std::atomic<int> hits{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&hits] { hits.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_all();
  EXPECT_EQ(hits.load(), 100);
  // The pool is reusable after a wait_all barrier.
  for (int i = 0; i < 10; ++i)
    pool.submit([&hits] { hits.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_all();
  EXPECT_EQ(hits.load(), 110);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 20; ++i)
    pool.submit([&completed] {
      completed.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_THROW(pool.wait_all(), std::runtime_error);
  // Remaining tasks still ran to completion.
  EXPECT_EQ(completed.load(), 20);
}

TEST(ThreadPool, HigherPriorityFirstThenSubmissionOrder) {
  ThreadPool pool(1);
  // Hold the only worker until every task is queued.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.submit([released] { released.wait(); }, 100);
  std::vector<int> order;  // written by the one worker only
  const std::pair<int, int> tasks[] = {{1, 0}, {2, 5}, {3, 0}, {4, 5}, {5, -1}};
  for (const auto& [id, priority] : tasks)
    pool.submit([&order, id = id] { order.push_back(id); }, priority);
  release.set_value();
  pool.wait_all();
  EXPECT_EQ(order, (std::vector<int>{2, 4, 1, 3, 5}));
}

TEST(ThreadPool, WaitAllWaitsForTasksSubmittedByTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.submit([&] {
    pool.submit([&] {
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        done.fetch_add(1);
      });
      done.fetch_add(1);
    });
    done.fetch_add(1);
  });
  pool.wait_all();
  EXPECT_EQ(done.load(), 3);
}

TEST(ThreadPool, ThreadBudgetIsCheckedAndCapped) {
  EXPECT_EQ(parse_unsigned("0", "--threads", kMaxThreads), 0u);
  EXPECT_EQ(parse_unsigned("256", "--threads", kMaxThreads), kMaxThreads);
  for (const std::string bad : {"-1", "2x", "257", "100000", "4294967295"}) {
    try {
      parse_unsigned(bad, "--threads", kMaxThreads);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()),
                "--threads must be an integer from 0 to 256 (got " + bad + ")");
    }
  }
  // Throws before it starts a thread.
  EXPECT_THROW(ThreadPool pool(kMaxThreads + 1), ConfigError);
}

/// Sets (or, given nullptr, unsets) an environment variable for a scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    set(value);
  }
  ~ScopedEnv() { set(old_ ? old_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  void set(const char* value) {
    if (value != nullptr) ::setenv(name_.c_str(), value, 1);
    else ::unsetenv(name_.c_str());
  }

 private:
  std::string name_;
  std::optional<std::string> old_;
};

TEST(ThreadPool, DefaultThreadCountHonorsEnv) {
  ScopedEnv env("DOZZ_THREADS", nullptr);
  const unsigned cores = default_thread_count();
  EXPECT_GE(cores, 1u);
  EXPECT_LE(cores, kMaxThreads);
  env.set("3");
  EXPECT_EQ(default_thread_count(), 3u);
  env.set("0");  // 0 = the core count, as --threads 0
  EXPECT_EQ(default_thread_count(), cores);
  for (const char* bad : {"-1", "100000", "four", ""}) {
    env.set(bad);
    try {
      default_thread_count();
      ADD_FAILURE() << "accepted DOZZ_THREADS=" << bad;
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("DOZZ_THREADS must be", 0), 0u)
          << e.what();
    }
  }
}

// --- The training graph of run_batch_supervised ---------------------------

/// Points the weight cache at a fresh, private directory for a scope. The
/// name carries the process id: ctest runs a test both alone and inside
/// the tsan_smoke/ckpt_smoke filters, possibly at the same time.
class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const std::string& name)
      : dir_(::testing::TempDir() + name + "." + std::to_string(getpid())),
        env_("DOZZ_CACHE_DIR", dir_.c_str()) {
    clear();
  }
  ~ScopedCacheDir() { clear(); }
  void clear() { std::filesystem::remove_all(dir_); }

 private:
  std::string dir_;
  ScopedEnv env_;
};

SimSetup graph_setup() {
  SimSetup setup;
  setup.topology = "cmesh";
  configure_topology(setup.topology, "", &setup.noc);
  setup.duration_cycles = 4000;
  setup.noc.epoch_cycles = 250;
  setup.run_to_drain = true;
  return setup;
}

TrainingOptions graph_options() {
  TrainingOptions opts;
  opts.compressions = {kCompressedFactor};
  opts.gather_cycles = 3000;
  return opts;
}

/// 9 gather runs: 6 training and 3 validation benchmarks, one compression.
constexpr int kGraphGathers = 9;

/// Baseline and DozzNoC sweep jobs; DozzNoC runs with `weights`.
std::vector<BatchJob> graph_jobs(const std::optional<WeightVector>& weights) {
  std::vector<BatchJob> jobs;
  for (double compression : {1.0, kCompressedFactor}) {
    for (PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kDozzNoc}) {
      BatchJob job;
      job.kind = kind;
      if (kind == PolicyKind::kDozzNoc) job.weights = weights;
      job.benchmark = "fft";
      job.compression = compression;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::string weights_text(const WeightVector& weights) {
  std::ostringstream out;
  weights.save(out);
  return out.str();
}

const std::vector<TrainingRequest> kTrainDozzNoc = {
    {PolicyKind::kDozzNoc, graph_options()}};

void expect_same_reports(const BatchResult& a, const BatchResult& b) {
  ASSERT_EQ(a.manifest.jobs.size(), b.manifest.jobs.size());
  for (std::size_t i = 0; i < a.manifest.jobs.size(); ++i) {
    EXPECT_EQ(a.manifest.jobs[i].status, "done");
    EXPECT_EQ(a.manifest.jobs[i].report_json, b.manifest.jobs[i].report_json)
        << "job " << i;
  }
}

TEST(BatchDeterminism, TrainingGraphMatchesTrainThenSweep) {
  ScopedCacheDir cache("dozz_graph_determinism_cache");
  const SimSetup setup = graph_setup();
  const TrainedModel reference =
      train_policy_model(PolicyKind::kDozzNoc, setup, graph_options());
  BatchOptions options;
  options.threads = 1;
  const BatchResult sweep =
      run_batch_supervised(setup, graph_jobs(reference.weights), options);
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    cache.clear();
    options.threads = threads;
    const BatchResult graph = run_batch_supervised(
        setup, graph_jobs(std::nullopt), options, kTrainDozzNoc);
    EXPECT_EQ(graph.gathered, kGraphGathers);
    EXPECT_EQ(graph.completed, 4);
    const std::optional<WeightVector> cached = load_cached_weights(
        PolicyKind::kDozzNoc, setup, graph_options());
    ASSERT_TRUE(cached.has_value());
    EXPECT_EQ(weights_text(*cached), weights_text(reference.weights));
    expect_same_reports(graph, sweep);
  }
}

TEST(SupervisedBatch, CacheHitTrainsNothing) {
  ScopedCacheDir cache("dozz_graph_cache_hit");
  const SimSetup setup = graph_setup();
  BatchOptions options;
  options.threads = 2;
  const BatchResult cold = run_batch_supervised(
      setup, graph_jobs(std::nullopt), options, kTrainDozzNoc);
  ASSERT_EQ(cold.gathered, kGraphGathers);
  const BatchResult warm = run_batch_supervised(
      setup, graph_jobs(std::nullopt), options, kTrainDozzNoc);
  EXPECT_EQ(warm.gathered, 0);
  EXPECT_EQ(warm.completed, 4);
  expect_same_reports(warm, cold);
}

TEST(SupervisedBatch, PresetStopFlagSkipsTraining) {
  ScopedCacheDir cache("dozz_graph_stop_cache");
  std::atomic<bool> stop{true};
  BatchOptions options;
  options.threads = 2;
  options.stop = &stop;
  const BatchResult result = run_batch_supervised(
      graph_setup(), graph_jobs(std::nullopt), options, kTrainDozzNoc);
  EXPECT_TRUE(result.stopped);
  EXPECT_EQ(result.gathered, 0);
  EXPECT_EQ(result.completed, 0);
  EXPECT_EQ(result.failed, 0);
  ASSERT_EQ(result.manifest.jobs.size(), 4u);
  for (const JobRecord& record : result.manifest.jobs)
    EXPECT_EQ(record.status, "pending");
  EXPECT_FALSE(load_cached_weights(PolicyKind::kDozzNoc, graph_setup(),
                                   graph_options())
                   .has_value());
}

}  // namespace
}  // namespace dozz
