// Batch sweep: runs every policy over every test benchmark at both load
// regimes and emits one JSON object per run (JSON-lines), ready for
// pandas/jq post-processing. The machine-readable twin of Fig. 8.
//
// The whole paper pipeline is one task graph on the supervised batch
// runner. ML models missing from the weight cache are trained in the same
// pool as the sweep: each model's gather runs are queued at once, the last
// to finish fits the model, caches its weights and releases its sweep
// jobs, while Baseline, PG and cached models run meanwhile. One thread
// budget sizes it all: --threads, else DOZZ_THREADS, else the core count.
// Output order and content are identical at any thread count.
//
//   sweep_all [options] > results.jsonl
//     --topology <name>           (mesh|cmesh|torus; default mesh)
//     --manifest <file>           (persist sweep state; enables --resume)
//     --resume                    (skip jobs the manifest records as done,
//                                  continue interrupted ones)
//     --checkpoint-dir <dir>      (per-job checkpoint files)
//     --checkpoint-interval <n>   (checkpoint every n epochs)
//     --timeout <seconds>         (wall-clock budget per job attempt)
//     --retries <n>               (retries per stalled/timed-out job)
//     --backoff <seconds>         (first retry delay; doubles per retry)
//     --threads <n>               (thread budget, at most 256;
//                                  0 = DOZZ_THREADS or the core count)
//
// SIGINT/SIGTERM stop the sweep gracefully: running jobs finish their
// current epoch and checkpoint, the manifest records where everything
// stood, and the process exits with status 3. Restarting with --resume
// completes the sweep without re-running finished jobs and prints the
// same aggregate table. Exit status 1 signals failed jobs or suppressed
// worker exceptions.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "src/common/parse.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sim/batch.hpp"
#include "src/sim/registries.hpp"
#include "src/sim/report.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/setup.hpp"
#include "src/trafficgen/benchmarks.hpp"

namespace {

std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) { g_stop.store(true); }

[[noreturn]] void usage_and_exit() {
  std::fprintf(stderr,
               "usage: sweep_all [--topology name] [--manifest file] "
               "[--resume]\n"
               "  [--checkpoint-dir dir] [--checkpoint-interval epochs]\n"
               "  [--timeout seconds] [--retries n] [--backoff seconds]\n"
               "  [--threads n]\n");
  std::exit(2);
}

/// Parses the command line; a malformed number throws ConfigError.
dozz::BatchOptions parse(int argc, char** argv, std::string* topology) {
  using namespace dozz;
  BatchOptions batch;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage_and_exit();
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--topology") *topology = need(i);
    else if (a == "--manifest") batch.manifest_path = need(i);
    else if (a == "--resume") batch.resume = true;
    else if (a == "--checkpoint-dir") batch.checkpoint_dir = need(i);
    else if (a == "--checkpoint-interval")
      batch.checkpoint_interval_epochs = parse_unsigned(need(i), a);
    else if (a == "--timeout") batch.job_timeout_s = parse_double(need(i), a, 0.0);
    else if (a == "--retries") batch.max_retries = parse_signed(need(i), a, 0);
    else if (a == "--backoff") batch.retry_backoff_s = parse_double(need(i), a, 0.0);
    else if (a == "--threads")
      batch.threads =
          static_cast<unsigned>(parse_unsigned(need(i), a, kMaxThreads));
    else usage_and_exit();
  }
  if (batch.resume && batch.manifest_path.empty()) {
    std::fprintf(stderr, "error: --resume needs --manifest <file>\n");
    std::exit(2);
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dozz;

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  try {
    std::string topology = "mesh";
    BatchOptions batch = parse(argc, argv, &topology);
    if (batch.threads == 0) batch.threads = default_thread_count();
    batch.stop = &g_stop;

    SimSetup setup;
    setup.topology = topology;
    configure_topology(topology, /*routing_flag=*/"", &setup.noc);
    setup.duration_cycles = scaled_cycles(12000);
    setup.run_to_drain = true;
    // Reject values no run can use before any training.
    validate(setup);

    TrainingOptions opts;
    opts.gather_cycles = setup.duration_cycles;

    // The paper's five models, enumerated from the policy registry in
    // registration order — this order fixes the job list, and therefore
    // the JSON-lines output order. The ML models take their weights from
    // the cache, or are trained inside the sweep's task graph.
    std::vector<PolicyKind> models;
    std::vector<TrainingRequest> training;
    for (const auto& [name, spec] : policy_registry()) {
      if (!spec.paper_model) continue;
      models.push_back(*spec.kind);
      if (spec.uses_ml) {
        std::fprintf(stderr, "training %s...\n",
                     policy_name(*spec.kind).c_str());
        training.push_back({*spec.kind, opts});
      }
    }

    std::vector<BatchJob> jobs;
    for (double compression : {1.0, kCompressedFactor}) {
      for (const auto& name : test_benchmarks()) {
        for (PolicyKind kind : models) {
          BatchJob job;
          job.kind = kind;
          job.benchmark = name;
          job.compression = compression;
          job.label =
              name + (compression == 1.0 ? "/uncompressed" : "/compressed");
          jobs.push_back(std::move(job));
        }
      }
    }

    if (!batch.checkpoint_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(batch.checkpoint_dir, ec);
      if (ec) {
        std::fprintf(stderr, "error: cannot create checkpoint dir %s: %s\n",
                     batch.checkpoint_dir.c_str(), ec.message().c_str());
        return 1;
      }
    }

    const BatchResult result =
        run_batch_supervised(setup, jobs, batch, training);

    // One JSON line per finished job, in sweep order. On --resume the
    // previously-done jobs print their stored report lines, so the
    // aggregate table equals an uninterrupted sweep's.
    for (const JobRecord& record : result.manifest.jobs)
      if (record.status == "done" && !record.report_json.empty())
        std::printf("%s\n", record.report_json.c_str());
    std::fflush(stdout);

    std::fprintf(stderr,
                 "sweep: %d completed, %d skipped, %d failed, %d retried, "
                 "%d training gather runs, "
                 "%llu suppressed worker exceptions%s\n",
                 result.completed, result.skipped, result.failed,
                 result.retried, result.gathered,
                 static_cast<unsigned long long>(result.suppressed_exceptions),
                 result.stopped ? ", stopped by signal" : "");
    for (const JobRecord& record : result.manifest.jobs)
      if (record.status == "failed")
        std::fprintf(stderr, "  failed: %s (%d attempts): %s\n",
                     record.key.c_str(), record.attempts,
                     record.error.c_str());

    if (result.stopped) return 3;
    if (result.failed > 0 || result.suppressed_exceptions > 0) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
