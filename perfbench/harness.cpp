// Benchmark harness: drives the in-process workloads of the repository
// benchmark through the simulator's public API and prints one JSON object
// per line for perfbench/run.py to aggregate and check.
//
//   perfbench_harness dozznoc_mesh16|sharded_mesh32|paper_pipeline
//                     [--seed S] [--seconds T] [--min-reps K] [--trace 0|1]
//                     [--spans FILE]
//   perfbench_harness spawn --stdout FILE -- PROGRAM ARGS
//
// Each workload repeats for about --seconds, at least --min-reps times
// (default 3), and prints one line per repetition. With --trace 1 the
// repetitions run untraced and traced in the order U T T U U T T U ..., so
// a steady drift of the host's speed cancels out of the difference of
// their medians, the tracing overhead. A traced repetition wraps each
// layer call in a span; on the mesh workloads it also times every epoch
// through Network::set_epoch_hook and, on dozznoc_mesh16, counts
// PowerController calls through a forwarding wrapper. paper_pipeline
// repeats the paper pipeline of sweep_all in-process, one layer call at a
// time, and after its repetitions runs every sweep job alone (see
// run_pipeline); it ignores --seed, as sweep_all takes none. Spans are kept
// in memory and written to --spans at exit.
// The spawn subcommand runs a program (sweep_all) the way a user's shell
// would and reports its wall time, the time to its first stderr line
// starting with "training" (sweep_all's set-up is over when the first
// model starts training), and its peak resident set. Forking from this
// small process keeps the child's ru_maxrss free of a large parent's
// resident size.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/policies.hpp"
#include "src/ml/ridge.hpp"
#include "src/ml/scaler.hpp"
#include "src/noc/network.hpp"
#include "src/power/power_model.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/sim/batch.hpp"
#include "src/sim/model_store.hpp"
#include "src/sim/registries.hpp"
#include "src/sim/report.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/setup.hpp"
#include "src/sim/training.hpp"
#include "src/trafficgen/benchmarks.hpp"
#include "src/trafficgen/patterns.hpp"

namespace {

using namespace dozz;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_start = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

/// User plus system CPU seconds of the whole process (all threads); the
/// delta over a call divided by its wall time is the busy-core count.
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// High-water mark of this process's resident set, in MB. VmHWM belongs
/// to the address space exec created; ru_maxrss would also carry the
/// resident size of the parent that forked this process.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// In-memory span log: (name, start, end, parent, run id), written as a
/// JSON array when the harness exits.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int run = 0;
  };

  int begin(std::string name, int run) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now_s(), 0.0,
                      open_.empty() ? -1 : open_.back(), run});
    open_.push_back(id);
    return id;
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_s();
    open_.pop_back();
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    out.precision(9);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << json_escape(s.name)
          << "\",\"start\":" << s.start << ",\"end\":" << s.end
          << ",\"parent\":" << s.parent << ",\"run\":" << s.run << '}'
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times one call: wall and CPU seconds, plus a span when a tracer is set.
class Timed {
 public:
  Timed(Tracer* tracer, const char* name, int run)
      : tracer_(tracer), wall0_(now_s()), cpu0_(cpu_s()) {
    if (tracer_ != nullptr) id_ = tracer_->begin(name, run);
  }
  /// Ends the interval; returns its wall seconds.
  double stop() {
    wall_ = now_s() - wall0_;
    cpu_ = cpu_s() - cpu0_;
    if (tracer_ != nullptr) tracer_->end(id_);
    return wall_;
  }
  double wall() const { return wall_; }
  double busy_cores() const { return wall_ > 0.0 ? cpu_ / wall_ : 0.0; }

 private:
  Tracer* tracer_;
  int id_ = -1;
  double wall0_;
  double cpu0_;
  double wall_ = 0.0;
  double cpu_ = 0.0;
};

/// Forwards every PowerController call to `inner`, counting mode
/// selections (with their time) and gating vetoes. Counters are atomic so
/// the wrapper stays race-free if an engine ever calls it from several
/// shards. The degradation sets of the base class stay empty: the
/// benchmark injects no faults.
class CountingController final : public PowerController {
 public:
  explicit CountingController(PowerController& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  bool gating_enabled() const override { return inner_.gating_enabled(); }
  bool may_gate(RouterId r) const override {
    may_gate_calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.may_gate(r);
  }
  VfMode select_mode(RouterId r, const EpochFeatures& features) override {
    const auto t0 = Clock::now();
    const VfMode mode = inner_.select_mode(r, features);
    select_mode_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count(),
        std::memory_order_relaxed);
    select_mode_calls_.fetch_add(1, std::memory_order_relaxed);
    return mode;
  }
  bool uses_ml() const override { return inner_.uses_ml(); }
  VfMode initial_mode() const override { return inner_.initial_mode(); }
  bool wants_extended_features() const override {
    return inner_.wants_extended_features();
  }
  VfMode select_mode_extended(RouterId r,
                              const std::vector<double>& features) override {
    return inner_.select_mode_extended(r, features);
  }
  int label_feature_count() const override {
    return inner_.label_feature_count();
  }
  void on_epoch_begin(std::uint64_t ended_epoch_index) override {
    inner_.on_epoch_begin(ended_epoch_index);
  }

  std::uint64_t select_mode_calls() const { return select_mode_calls_.load(); }
  double select_mode_s() const { return 1e-9 * static_cast<double>(select_mode_ns_.load()); }
  std::uint64_t may_gate_calls() const { return may_gate_calls_.load(); }

 private:
  PowerController& inner_;
  mutable std::atomic<std::uint64_t> may_gate_calls_{0};
  std::atomic<std::uint64_t> select_mode_calls_{0};
  std::atomic<std::int64_t> select_mode_ns_{0};
};

/// Whether repetition `rep` of a --trace 1 run is traced (see the file
/// comment): U T T U repeated.
bool is_traced_rep(int rep) { return rep % 4 == 1 || rep % 4 == 2; }

/// Minimal single-line JSON object writer.
class JsonLine {
 public:
  JsonLine() { os_.precision(12); }
  JsonLine& num(const char* key, double v) {
    sep(key);
    os_ << v;
    return *this;
  }
  JsonLine& uint(const char* key, std::uint64_t v) {
    sep(key);
    os_ << v;
    return *this;
  }
  JsonLine& str(const char* key, const std::string& v) {
    sep(key);
    os_ << '"' << json_escape(v) << '"';
    return *this;
  }
  JsonLine& nums(const char* key, const std::vector<double>& v) {
    sep(key);
    os_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) os_ << (i ? "," : "") << v[i];
    os_ << ']';
    return *this;
  }
  JsonLine& strs(const char* key, const std::vector<std::string>& v) {
    sep(key);
    os_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i)
      os_ << (i ? "," : "") << '"' << json_escape(v[i]) << '"';
    os_ << ']';
    return *this;
  }
  void print() {
    std::printf("%s}\n", os_.str().c_str());
    std::fflush(stdout);
  }

 private:
  void sep(const char* key) {
    os_ << (first_ ? "{" : ",") << '"' << key << "\":";
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

/// Wall time of each epoch window, from consecutive epoch-hook calls.
struct EpochTimer {
  double last = 0.0;
  std::vector<double> ms;

  void install(Network& net) {
    last = now_s();
    net.set_epoch_hook([this](Network&, Tick, std::uint64_t) {
      const double t = now_s();
      ms.push_back(1e3 * (t - last));
      last = t;
      return true;
    });
  }
};

/// What one Network run reports, host side and simulated side.
struct NetRun {
  double construct_s = 0.0;
  double run_s = 0.0;
  double busy_cores = 0.0;
  std::uint64_t edge_steps = 0;
  std::uint64_t kernel_events = 0;
  std::uint64_t epochs = 0;
  int shards_used = 1;
  double barrier_stall = 0.0;
  std::vector<double> epoch_ms;  ///< Traced runs only.
  std::string report;            ///< outcome_to_json of the run.
};

/// Builds a Network for `setup` and runs `trace` on it, as
/// run_simulation_controlled does, but keeps the engine counters the
/// RunOutcome drops. `label` replaces the trace name in the report, as a
/// sweep job's label does.
NetRun run_network(const SimSetup& setup, PowerController& policy,
                   const Trace& trace, Tracer* tracer, int run,
                   const std::string& label = "") {
  NetRun r;
  const Topology topo = setup.make_topology();
  const PowerModel power;
  const SimoLdoRegulator regulator;
  Timed construct(tracer, "noc.Network", run);
  Network net(topo, setup.noc, policy, power, regulator);
  r.construct_s = construct.stop();

  EpochTimer epochs;
  if (tracer != nullptr) epochs.install(net);
  Timed timed(tracer, setup.run_to_drain ? "noc.run_until_drained" : "noc.run",
              run);
  if (setup.run_to_drain)
    net.run_until_drained(trace, setup.max_drain_tick());
  else
    net.run(trace, setup.end_tick());
  r.run_s = timed.stop();
  r.busy_cores = timed.busy_cores();

  r.edge_steps = net.edge_steps();
  r.kernel_events = net.kernel_events();
  r.epochs = net.epochs_processed();
  r.shards_used = net.shards_used();
  r.barrier_stall = net.shard_barrier_stall();
  r.epoch_ms = std::move(epochs.ms);

  RunOutcome outcome;
  outcome.policy = policy.name();
  outcome.trace = label.empty() ? trace.name() : label;
  outcome.metrics = net.metrics();
  r.report = outcome_to_json(outcome);
  return r;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int min_reps = 3;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness dozznoc_mesh16|sharded_mesh32|"
               "paper_pipeline [--seed n] [--seconds s] [--min-reps n] "
               "[--trace 0|1] [--spans file]\n"
               "       perfbench_harness spawn --stdout file -- program "
               "[args]\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage();
  Args a;
  a.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    if (key == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (key == "--min-reps") a.min_reps = std::atoi(v);
    else if (key == "--trace") a.trace = std::string(v) == "1";
    else if (key == "--spans") a.spans = v;
    else usage();
  }
  return a;
}

/// dozznoc_mesh16: the headline DozzNoC policy, run to drain on an x264
/// trace, with the committed 8x8 weights (features are router-local).
/// sharded_mesh32: Baseline over a fixed window of unsaturated uniform
/// traffic, responses off, so the sharded engine engages.
int run_mesh(const Args& args, Tracer* tracer) {
  const bool mesh16 = args.workload == "dozznoc_mesh16";
  // mesh16 keeps the first 68,000 packets of an x264 trace generated over
  // 40,000 cycles: the seed then moves the work of a run by a few percent
  // instead of the +-25% that x264's long on/off phases give a fixed
  // window. mesh32 runs a fixed window of 12,000 cycles.
  constexpr std::uint64_t kMesh16Cycles = 40000;
  constexpr std::size_t kMesh16Packets = 68000;
  constexpr std::uint64_t kMesh32Cycles = 12000;
  const char* const kMesh16Weights =
      "dozz_cache/weights_DozzNoC_mesh8x8_e500_d12000_c-1-0.25.txt";
  const std::size_t packets = mesh16 ? kMesh16Packets : 0;

  SimSetup setup;
  setup.topology = mesh16 ? "mesh16" : "mesh32";
  configure_topology(setup.topology, /*routing_flag=*/"", &setup.noc);
  setup.noc.shard_threads = 4;
  setup.noc.auto_response = mesh16;
  setup.run_to_drain = mesh16;
  setup.duration_cycles = mesh16 ? kMesh16Cycles : kMesh32Cycles;

  // A repetition starts only if it is likely to end by the deadline, so a
  // run takes about --seconds whatever the length of one repetition.
  const double deadline = now_s() + args.seconds;
  double last_rep_s = 0.0;
  for (int rep = 0; rep < args.min_reps || now_s() + last_rep_s <= deadline;
       ++rep) {
    const double rep_start = now_s();
    const bool traced = args.trace && is_traced_rep(rep);
    Tracer* t = traced ? tracer : nullptr;

    Timed setup_timer(t, "bench.setup", rep);
    Timed trace_timer(t, "trafficgen.trace", rep);
    const Topology topo = setup.make_topology();
    auto generate = [&](std::uint64_t cycles) {
      return mesh16 ? generate_benchmark_trace(benchmark_profile("x264"), topo,
                                               cycles, args.seed)
                    : generate_synthetic_trace(
                          topo, uniform_pattern(topo.num_cores()), 0.02, cycles,
                          args.seed);
    };
    Trace trace = generate(setup.duration_cycles);
    // A seed whose window holds too few packets gets a longer window.
    for (std::uint64_t cycles = 2 * setup.duration_cycles;
         trace.size() < packets && cycles <= 64 * setup.duration_cycles;
         cycles *= 2)
      trace = generate(cycles);
    if (packets > 0 && trace.size() > packets) {
      Trace prefix(trace.name());
      for (std::size_t i = 0; i < packets; ++i) prefix.add(trace[i]);
      trace = std::move(prefix);
    }
    const double trace_s = trace_timer.stop();

    Timed weights_timer(t, "sim.load_weights", rep);
    std::unique_ptr<PowerController> policy =
        mesh16 ? make_policy(PolicyKind::kDozzNoc, topo.num_routers(),
                             WeightVector::load_file(kMesh16Weights))
               : std::make_unique<BaselinePolicy>();
    const double weights_s = weights_timer.stop();

    std::optional<CountingController> counting;
    if (traced && mesh16) counting.emplace(*policy);
    PowerController& controller =
        counting ? static_cast<PowerController&>(*counting) : *policy;

    // Network construction belongs to set-up; run_network times it
    // separately so it can be added here.
    setup_timer.stop();
    const NetRun r = run_network(setup, controller, trace, t, rep);
    const double setup_s = setup_timer.wall() + r.construct_s;

    JsonLine line;
    line.uint("rep", static_cast<std::uint64_t>(rep))
        .uint("traced", traced ? 1 : 0)
        .num("setup_s", setup_s)
        .num("trace_s", trace_s)
        .uint("trace_entries", trace.size())
        .num("weights_s", weights_s)
        .num("construct_s", r.construct_s)
        .num("wall_s", r.run_s)
        .num("busy_cores", r.busy_cores)
        .uint("edge_steps", r.edge_steps)
        .uint("kernel_events", r.kernel_events)
        .uint("epochs", r.epochs)
        .uint("shards_used", static_cast<std::uint64_t>(r.shards_used))
        .num("barrier_stall", r.barrier_stall)
        .num("peak_rss_mb", peak_rss_mb());
    if (traced) {
      line.nums("epoch_ms", r.epoch_ms);
      if (counting) {
        line.uint("select_mode_calls", counting->select_mode_calls())
            .num("select_mode_s", counting->select_mode_s())
            .uint("may_gate_calls", counting->may_gate_calls());
      }
    }
    line.str("report", r.report).print();
    last_rep_s = now_s() - rep_start;
  }
  return 0;
}

/// One in-process run of sweep_all's paper pipeline: what it produced and
/// how long each layer call took.
struct PipelineRun {
  double pipeline_s = 0.0;
  double gather_s = 0.0;
  double gather_cpu_s = 0.0;
  std::uint64_t gather_runs = 0;
  double fit_s = 0.0;
  std::uint64_t rows = 0;
  double sweep_s = 0.0;
  double sweep_busy_cores = 0.0;
  int batch_failed = 0;
  std::vector<BatchJob> jobs;  ///< sweep_all's job list, in its order.
  std::vector<std::string> weight_files, weight_texts, batch_reports;
};

/// The paper pipeline of sweep_all, one layer call at a time, in
/// policy-registry order: for each ML model gather_dataset (train, then
/// validation), StandardScaler::fit/transform, tune_lambda and
/// fold_scaler; then run_batch_supervised over sweep_all's 50 jobs.
PipelineRun pipeline_once(const SimSetup& setup, const TrainingOptions& opts,
                          Tracer* tracer, int run) {
  struct Model {
    PolicyKind kind;
    std::optional<WeightVector> weights;
  };
  std::vector<Model> models;
  PipelineRun p;

  Timed pipeline(tracer, "bench.pipeline", run);
  for (const auto& [name, spec] : policy_registry()) {
    if (!spec.paper_model) continue;
    Model model{*spec.kind, std::nullopt};
    if (spec.uses_ml) {
      Dataset sets[2];
      const std::vector<std::string>* splits[2] = {&training_benchmarks(),
                                                   &validation_benchmarks()};
      for (int s = 0; s < 2; ++s) {
        Timed g(tracer, "training.gather_dataset", run);
        sets[s] = gather_dataset(model.kind, setup, *splits[s], opts);
        p.gather_s += g.stop();
        p.gather_cpu_s += g.busy_cores() * g.wall();
        p.gather_runs += splits[s]->size() * opts.compressions.size();
      }
      Timed fit(tracer, "ml.fit", run);
      const StandardScaler scaler = StandardScaler::fit(sets[0]);
      const Dataset train = scaler.transform(sets[0]);
      const Dataset validation = scaler.transform(sets[1]);
      const TuningResult tuning =
          tune_lambda(train, validation, opts.lambda_grid);
      model.weights = fold_scaler(tuning.best, scaler);
      p.fit_s += fit.stop();
      p.rows += sets[0].size() + sets[1].size();

      std::ostringstream text;
      model.weights->save(text);
      p.weight_files.push_back(
          std::filesystem::path(model_cache_path(model.kind, setup, opts))
              .filename()
              .string());
      p.weight_texts.push_back(text.str());
    }
    models.push_back(std::move(model));
  }

  for (double compression : {1.0, kCompressedFactor}) {
    for (const auto& name : test_benchmarks()) {
      for (const Model& model : models) {
        BatchJob job;
        job.kind = model.kind;
        job.weights = model.weights;
        job.benchmark = name;
        job.compression = compression;
        job.label = name + (compression == 1.0 ? "/uncompressed" : "/compressed");
        p.jobs.push_back(std::move(job));
      }
    }
  }
  BatchOptions batch;
  batch.threads = 4;
  Timed sweep(tracer, "batch.run_batch_supervised", run);
  const BatchResult result = run_batch_supervised(setup, p.jobs, batch);
  p.sweep_s = sweep.stop();
  p.sweep_busy_cores = sweep.busy_cores();
  p.pipeline_s = pipeline.stop();
  p.batch_failed = result.failed;
  for (const RunOutcome& outcome : result.outcomes)
    p.batch_reports.push_back(outcome_to_json(outcome));
  return p;
}

/// The paper pipeline of sweep_all, repeated in-process: untraced and
/// traced repetitions interleave (see pipeline_once), one line each. Then,
/// traced and outside the pipeline figure: make_benchmark_trace once per
/// distinct trace key, and every sweep job alone for per-job times,
/// Network counters and PowerController call counts, on one more line.
int run_pipeline(const Args& args, Tracer* tracer) {
  SimSetup setup;
  setup.topology = "mesh";
  configure_topology(setup.topology, /*routing_flag=*/"", &setup.noc);
  setup.duration_cycles = scaled_cycles(12000);
  setup.run_to_drain = true;
  TrainingOptions opts;
  opts.gather_cycles = setup.duration_cycles;

  std::vector<BatchJob> jobs;
  const double deadline = now_s() + args.seconds;
  double last_rep_s = 0.0;
  int rep = 0;
  for (; rep < args.min_reps || now_s() + last_rep_s <= deadline; ++rep) {
    const bool traced = args.trace && is_traced_rep(rep);
    const PipelineRun p = pipeline_once(setup, opts, traced ? tracer : nullptr, rep);
    last_rep_s = p.pipeline_s;
    jobs = p.jobs;
    JsonLine()
        .uint("rep", static_cast<std::uint64_t>(rep))
        .uint("traced", traced ? 1 : 0)
        .num("pipeline_s", p.pipeline_s)
        .num("gather_s", p.gather_s)
        .num("gather_busy_cores", p.gather_s > 0 ? p.gather_cpu_s / p.gather_s : 0.0)
        .uint("gather_runs", p.gather_runs)
        .num("fit_s", p.fit_s)
        .uint("rows", p.rows)
        .num("sweep_s", p.sweep_s)
        .num("sweep_busy_cores", p.sweep_busy_cores)
        .uint("batch_failed", static_cast<std::uint64_t>(p.batch_failed))
        .strs("weight_files", p.weight_files)
        .strs("weight_texts", p.weight_texts)
        .strs("batch_reports", p.batch_reports)
        .print();
  }

  // One trace per distinct (benchmark, compression) key, as the batch
  // runner's first phase builds them.
  std::map<std::pair<std::string, double>, Trace> traces;
  double trace_s = 0.0;
  std::uint64_t trace_entries = 0;
  for (const BatchJob& job : jobs) {
    const auto key = std::make_pair(job.benchmark, job.compression);
    if (traces.count(key) != 0) continue;
    Timed g(tracer, "trafficgen.make_benchmark_trace", rep);
    Trace trace = make_benchmark_trace(setup, job.benchmark, job.compression);
    trace_s += g.stop();
    trace_entries += trace.size();
    traces.emplace(key, std::move(trace));
  }

  const int routers = setup.make_topology().num_routers();
  std::vector<double> job_s, epoch_ms;
  std::vector<std::string> job_reports;
  double construct_s = 0.0, run_s = 0.0, busy_cpu_s = 0.0;
  std::uint64_t edge_steps = 0, kernel_events = 0, epochs = 0;
  std::uint64_t select_mode_calls = 0, may_gate_calls = 0;
  double select_mode_s = 0.0;
  int shards_used = 1;
  for (const BatchJob& job : jobs) {
    auto policy = make_policy(job.kind, routers, job.weights);
    CountingController counting(*policy);
    const NetRun r =
        run_network(setup, counting, traces.at({job.benchmark, job.compression}),
                    tracer, rep, job.label);
    select_mode_calls += counting.select_mode_calls();
    select_mode_s += counting.select_mode_s();
    may_gate_calls += counting.may_gate_calls();
    job_s.push_back(r.construct_s + r.run_s);
    construct_s += r.construct_s;
    run_s += r.run_s;
    busy_cpu_s += r.busy_cores * r.run_s;
    edge_steps += r.edge_steps;
    kernel_events += r.kernel_events;
    epochs += r.epochs;
    shards_used = std::max(shards_used, r.shards_used);
    epoch_ms.insert(epoch_ms.end(), r.epoch_ms.begin(), r.epoch_ms.end());
    job_reports.push_back(r.report);
  }

  JsonLine()
      .nums("job_s", job_s)
      .num("trace_s", trace_s)
      .uint("trace_entries", trace_entries)
      .num("construct_s", construct_s)
      .num("run_s", run_s)
      .num("busy_cores", run_s > 0 ? busy_cpu_s / run_s : 0.0)
      .uint("edge_steps", edge_steps)
      .uint("kernel_events", kernel_events)
      .uint("epochs", epochs)
      .uint("shards_used", static_cast<std::uint64_t>(shards_used))
      .uint("select_mode_calls", select_mode_calls)
      .num("select_mode_s", select_mode_s)
      .uint("may_gate_calls", may_gate_calls)
      .nums("epoch_ms", epoch_ms)
      .strs("job_reports", job_reports)
      .print();
  return 0;
}

/// The spawn subcommand (see the file comment). The child's stderr is
/// passed through to ours.
int run_spawn(int argc, char** argv) {
  const std::string prefix = "training";
  std::string out_path;
  int i = 2;
  for (; i + 1 < argc && std::string(argv[i]) != "--"; i += 2) {
    if (std::string(argv[i]) == "--stdout") out_path = argv[i + 1];
    else usage();
  }
  if (i >= argc || std::string(argv[i]) != "--" || i + 1 >= argc ||
      out_path.empty())
    usage();
  char** child_argv = argv + i + 1;

  const int out_fd = open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  int err_pipe[2];
  if (out_fd < 0 || pipe(err_pipe) != 0) {
    std::perror("perfbench_harness spawn");
    return 1;
  }
  const double t0 = now_s();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_harness spawn: fork");
    return 1;
  }
  if (pid == 0) {
    dup2(out_fd, STDOUT_FILENO);
    dup2(err_pipe[1], STDERR_FILENO);
    close(out_fd);
    close(err_pipe[0]);
    close(err_pipe[1]);
    execv(child_argv[0], child_argv);
    _exit(127);
  }
  close(out_fd);
  close(err_pipe[1]);

  double first_line_s = -1.0;
  bool at_line_start = true;
  std::string line;
  char buf[4096];
  for (ssize_t n; (n = read(err_pipe[0], buf, sizeof buf)) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (ssize_t k = 0; k < n; ++k) {
      if (at_line_start) line.clear();
      line += buf[k];
      at_line_start = buf[k] == '\n';
      if (first_line_s < 0.0 && line == prefix)
        first_line_s = now_s() - t0;
    }
    if (write(STDERR_FILENO, buf, static_cast<std::size_t>(n)) < 0) {
      // Passing the child's progress through is best effort.
    }
  }
  close(err_pipe[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  const double wall_s = now_s() - t0;
  const int exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                          : 128 + WTERMSIG(status);
  JsonLine()
      .uint("exit", static_cast<std::uint64_t>(exit_code))
      .num("wall_s", wall_s)
      .num("first_line_s", first_line_s)
      .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
      .print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "spawn") return run_spawn(argc, argv);
  const Args args = parse_args(argc, argv);
  Tracer tracer;
  int status = 0;
  try {
    if (args.workload == "dozznoc_mesh16" || args.workload == "sharded_mesh32") {
      status = run_mesh(args, &tracer);
    } else if (args.workload == "paper_pipeline") {
      status = run_pipeline(args, &tracer);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    status = 1;
  }
  tracer.write(args.spans);
  return status;
}
