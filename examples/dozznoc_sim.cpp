// dozznoc_sim — the standalone command-line simulator, the main entry
// point a user of this library drives experiments from.
//
//   dozznoc_sim [options]
//     --topology mesh|cmesh|torus          (default mesh: 8x8, 64 cores)
//     --policy baseline|pg|lead|dozznoc|turbo|reactive|oracle|vfi|parking
//     --benchmark <name>             (one of the 14 built-in generators)
//     --fullsystem <name>            (fs-memheavy|fs-balanced|fs-compute)
//     --trace <file>                 (load a saved trace instead)
//     --compress <factor>            (0.25 = the paper's compressed runs)
//     --cycles <n>                   (trace/run length, baseline cycles)
//     --epoch <n>                    (DVFS window, default 500)
//     --tidle <n>                    (gating threshold, default 4)
//     --vcs <n> --depth <n>          (router buffering)
//     --routing xy|yx|torus-xy       (default: the topology's default;
//                                     torus requires torus-xy)
//     --list-policies                (print the policy registry and exit;
//     --list-topologies               likewise for topologies and
//     --list-traffic                  workloads)
//     --weights <file>               (trained weights for ML policies;
//                                     trained on the fly if omitted)
//     --baseline                     (also run the always-on baseline and
//                                     print a savings comparison)
//     --json                         (emit machine-readable JSON)
//     --fault-link <rate>            (per-hop link bit-flip probability)
//     --fault-wake <rate>            (wake-request drop probability)
//     --fault-reg <rate>             (regulator switch-fail and droop
//                                     probability per opportunity)
//     --fault-seed <n>               (fault injector RNG seed)
//     --watchdog <epochs>            (no-progress watchdog threshold;
//                                     -1 disables, 0 = auto)
//     --checkpoint <file>            (save checkpoints to this file)
//     --checkpoint-interval <n>      (checkpoint every n epochs)
//     --resume                       (restore --checkpoint before running)
//     --timeout <seconds>            (wall-clock budget; expiry saves a
//                                     checkpoint and aborts like a stall)
//     --shard-threads <n>            (parallel single-run engine width,
//                                     DESIGN.md §11; 0 = auto from
//                                     DOZZ_SHARD_THREADS, 1 = sequential;
//                                     reports are bit-identical at any n)
//
// Setting any --fault-* rate enables the fault-injection layer; with all
// rates at zero the simulator is bit-identical to a faults-off build.
//
// SIGINT/SIGTERM are handled gracefully: the current epoch finishes, a
// final checkpoint is saved (when --checkpoint is set), a partial report
// covering the completed epochs is written, and the process exits with
// status 3. Re-running with --resume continues from that checkpoint and
// produces a final report byte-identical to an uninterrupted run.
//
// Example:
//   dozznoc_sim --policy dozznoc --benchmark x264 --compress 0.25 --baseline
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "src/common/error.hpp"
#include "src/common/parse.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sim/config_file.hpp"
#include "src/sim/model_store.hpp"
#include "src/sim/oracle.hpp"
#include "src/sim/registries.hpp"
#include "src/sim/report.hpp"
#include "src/sim/runner.hpp"

namespace {

using namespace dozz;

std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) { g_stop.store(true); }

struct Options {
  std::string topology = "mesh";
  std::string policy = "dozznoc";
  std::string benchmark = "x264";
  std::string fullsystem;
  std::string trace_file;
  std::string weights_file;
  double compress = 1.0;
  std::uint64_t cycles = 16000;
  std::uint64_t epoch = 500;
  int tidle = 4;
  int vcs = 2;
  int depth = 4;
  std::string routing;  ///< empty = the topology's default algorithm.
  bool with_baseline = false;
  bool json = false;
  double fault_link = 0.0;
  double fault_wake = 0.0;
  double fault_reg = 0.0;
  std::uint64_t fault_seed = 0;  ///< 0 = keep FaultConfig's default seed.
  int watchdog = 0;              ///< 0 = auto, -1 = off, >0 = epochs.
  std::string checkpoint_file;
  std::uint64_t checkpoint_interval = 0;
  bool resume = false;
  double timeout_s = 0.0;
  int shard_threads = 0;  ///< 0 = auto (DOZZ_SHARD_THREADS), 1 = sequential.
};

[[noreturn]] void usage_and_exit() {
  std::fprintf(stderr,
               "usage: dozznoc_sim [--topology <name>] [--policy <name>]\n"
               "  [--benchmark <name> | --fullsystem <name> | --trace <file>]\n"
               "  [--compress f] [--cycles n] [--epoch n] [--tidle n]\n"
               "  [--vcs n] [--depth n] [--routing xy|yx|torus-xy]\n"
               "  [--weights file] [--baseline] [--json] [--config file]\n"
               "  [--fault-link rate] [--fault-wake rate] [--fault-reg rate]\n"
               "  [--fault-seed n] [--watchdog epochs]\n"
               "  [--checkpoint file] [--checkpoint-interval epochs]\n"
               "  [--resume] [--timeout seconds] [--shard-threads n]\n"
               "  [--list-policies | --list-topologies | --list-traffic]\n");
  std::exit(2);
}

/// Prints a registry's entries (name + description) and exits; the names
/// come from the same registries the --policy/--topology/--benchmark flags
/// resolve against, so this listing can never go stale.
template <typename Entry>
[[noreturn]] void list_and_exit(const Registry<Entry>& reg) {
  for (const auto& [name, entry] : reg)
    std::printf("%-12s %s\n", name.c_str(), entry.description.c_str());
  std::exit(0);
}

/// The flag a validated SimSetup key is set by, so a bad value is reported
/// under the name the user wrote (config-file keys are the flag names
/// without the dashes).
std::string flag_for_key(const std::string& key) {
  static const std::map<std::string, std::string> flags = {
      {"compression", "--compress"},
      {"duration_cycles", "--cycles"},
      {"noc.epoch_cycles", "--epoch"},
      {"noc.vcs_per_port", "--vcs"},
      {"noc.buffer_depth_flits", "--depth"},
      {"noc.t_idle_cycles", "--tidle"},
  };
  const auto it = flags.find(key);
  return it == flags.end() ? key : it->second;
}

/// Applies a key = value experiment config file (see sim/config_file.hpp);
/// later command-line flags still override.
void apply_config(const std::string& path, Options* opt) {
  const ConfigMap c = load_config_file(path);
  for (const auto& [key, value] : c) {
    if (key == "topology") opt->topology = value;
    else if (key == "policy") opt->policy = value;
    else if (key == "benchmark") opt->benchmark = value;
    else if (key == "fullsystem") opt->fullsystem = value;
    else if (key == "trace") opt->trace_file = value;
    else if (key == "weights") opt->weights_file = value;
    else if (key == "compress") opt->compress = config_get_double(c, key, 1.0);
    else if (key == "cycles") opt->cycles = config_get_u64(c, key, 16000);
    else if (key == "epoch") opt->epoch = config_get_u64(c, key, 500);
    else if (key == "tidle") opt->tidle = config_get_int(c, key, 4);
    else if (key == "vcs") opt->vcs = config_get_int(c, key, 2);
    else if (key == "depth") opt->depth = config_get_int(c, key, 4);
    else if (key == "routing") opt->routing = value;
    else if (key == "baseline") opt->with_baseline = config_get_bool(c, key, false);
    else if (key == "json") opt->json = config_get_bool(c, key, false);
    else if (key == "fault_link") opt->fault_link = config_get_double(c, key, 0.0);
    else if (key == "fault_wake") opt->fault_wake = config_get_double(c, key, 0.0);
    else if (key == "fault_reg") opt->fault_reg = config_get_double(c, key, 0.0);
    else if (key == "fault_seed") opt->fault_seed = config_get_u64(c, key, 0);
    else if (key == "watchdog") opt->watchdog = config_get_int(c, key, 0);
    else if (key == "shard_threads")
      opt->shard_threads =
          config_get_int(c, key, 0, 0, static_cast<int>(kMaxThreads));
    else throw InputError("unknown config key: " + key);
  }
}

Options parse(int argc, char** argv) {
  Options opt;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage_and_exit();
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--config") apply_config(need(i), &opt);
    else if (a == "--topology") opt.topology = need(i);
    else if (a == "--policy") opt.policy = need(i);
    else if (a == "--benchmark") opt.benchmark = need(i);
    else if (a == "--fullsystem") opt.fullsystem = need(i);
    else if (a == "--trace") opt.trace_file = need(i);
    else if (a == "--weights") opt.weights_file = need(i);
    else if (a == "--compress") opt.compress = parse_double(need(i), a);
    else if (a == "--cycles") opt.cycles = parse_unsigned(need(i), a);
    else if (a == "--epoch") opt.epoch = parse_unsigned(need(i), a);
    else if (a == "--tidle") opt.tidle = parse_signed(need(i), a);
    else if (a == "--vcs") opt.vcs = parse_signed(need(i), a);
    else if (a == "--depth") opt.depth = parse_signed(need(i), a);
    else if (a == "--routing") opt.routing = need(i);
    else if (a == "--baseline") opt.with_baseline = true;
    else if (a == "--json") opt.json = true;
    else if (a == "--fault-link") opt.fault_link = parse_double(need(i), a);
    else if (a == "--fault-wake") opt.fault_wake = parse_double(need(i), a);
    else if (a == "--fault-reg") opt.fault_reg = parse_double(need(i), a);
    else if (a == "--fault-seed") opt.fault_seed = parse_unsigned(need(i), a);
    else if (a == "--watchdog") opt.watchdog = parse_signed(need(i), a);
    else if (a == "--checkpoint") opt.checkpoint_file = need(i);
    else if (a == "--checkpoint-interval")
      opt.checkpoint_interval = parse_unsigned(need(i), a);
    else if (a == "--resume") opt.resume = true;
    else if (a == "--timeout") opt.timeout_s = parse_double(need(i), a, 0.0);
    else if (a == "--shard-threads")
      opt.shard_threads =
          parse_signed(need(i), a, 0, static_cast<int>(kMaxThreads));
    else if (a == "--list-policies") list_and_exit(policy_registry());
    else if (a == "--list-topologies") list_and_exit(topology_registry());
    else if (a == "--list-traffic") list_and_exit(traffic_registry());
    else usage_and_exit();
  }
  if ((opt.checkpoint_interval > 0 || opt.resume) &&
      opt.checkpoint_file.empty()) {
    std::fprintf(stderr, "error: --checkpoint-interval and --resume need "
                         "--checkpoint <file>\n");
    std::exit(2);
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  try {
    const Options opt = parse(argc, argv);
    SimSetup setup;
    setup.topology = opt.topology;  // resolved via the topology registry
    setup.duration_cycles = opt.cycles;
    setup.run_to_drain = true;
    setup.noc.epoch_cycles = opt.epoch;
    setup.noc.t_idle_cycles = opt.tidle;
    setup.noc.vcs_per_port = opt.vcs;
    setup.noc.buffer_depth_flits = opt.depth;
    // Applies the topology's routing default / VC-class rules and validates
    // an explicit --routing flag (torus rejects non-wrap-aware algorithms).
    configure_topology(opt.topology, opt.routing, &setup.noc);

    // --- Fault injection (any nonzero rate switches the layer on) ---
    if (opt.fault_link > 0.0 || opt.fault_wake > 0.0 || opt.fault_reg > 0.0) {
      FaultConfig& f = setup.noc.faults;
      f.enabled = true;
      f.link_bit_flip_rate = opt.fault_link;
      f.wake_drop_rate = opt.fault_wake;
      f.mode_switch_fail_rate = opt.fault_reg;
      f.droop_rate = opt.fault_reg;
      if (opt.fault_seed != 0) f.seed = opt.fault_seed;
    }
    setup.noc.watchdog_epochs = opt.watchdog;
    setup.noc.shard_threads = opt.shard_threads;
    // Reject values no run can use before any trace generation or training.
    validate(setup, opt.compress, flag_for_key);

    // --- Workload ---
    Trace trace;
    const Topology topo = setup.make_topology();
    if (!opt.trace_file.empty()) {
      trace = Trace::load_file(opt.trace_file);
      if (opt.compress != 1.0) trace = trace.compressed(opt.compress);
    } else {
      const std::string& workload =
          opt.fullsystem.empty() ? opt.benchmark : opt.fullsystem;
      trace = traffic_registry().at(workload).make(setup, opt.compress);
    }
    if (!opt.json)
      std::printf("workload '%s': %zu packets over %.1f us on %s\n",
                  trace.name().c_str(), trace.size(),
                  trace.duration_ns() * 1e-3, topo.name().c_str());

    // --- Policy ---
    RunControl control;
    control.checkpoint_interval_epochs = opt.checkpoint_interval;
    control.checkpoint_path = opt.checkpoint_file;
    control.resume = opt.resume;
    control.stop = &g_stop;
    control.timeout_s = opt.timeout_s;

    RunOutcome outcome;
    const PolicySpec& spec = policy_registry().at(opt.policy);
    if (spec.two_pass_oracle) {
      // The oracle runs a recording pre-pass plus a replay run; neither is
      // a single resumable network run, so checkpoint knobs don't apply.
      if (!opt.checkpoint_file.empty()) {
        std::fprintf(stderr,
                     "error: --checkpoint is not supported with "
                     "--policy oracle\n");
        return 2;
      }
      outcome = run_oracle(setup, trace, /*gating=*/true);
    } else {
      PolicyParams params;
      params.num_routers = topo.num_routers();
      if (spec.uses_ml) {
        if (!opt.weights_file.empty()) {
          params.weights = WeightVector::load_file(opt.weights_file);
        } else {
          if (!opt.json)
            std::printf("training %s (cached under %s)...\n",
                        policy_name(*spec.kind).c_str(),
                        model_cache_dir().c_str());
          TrainingOptions train_opts;
          train_opts.gather_cycles = std::min<std::uint64_t>(opt.cycles,
                                                             16000);
          params.weights = load_or_train(*spec.kind, setup, train_opts);
        }
      }
      auto policy = spec.make(params);
      outcome = run_simulation_controlled(setup, *policy, trace, PowerModel(),
                                          control);
    }

    // --- Report ---
    if (outcome.interrupted) {
      // Partial report covering the completed epochs; the checkpoint (when
      // --checkpoint is set) lets --resume finish the run later.
      if (opt.json)
        std::printf("%s\n", outcome_to_json(outcome).c_str());
      else
        write_text_report(std::cout, outcome);
      std::fflush(stdout);
      const std::string where =
          opt.checkpoint_file.empty()
              ? std::string()
              : ", checkpoint saved to " + opt.checkpoint_file;
      std::fprintf(stderr,
                   "interrupted by signal: stopped at an epoch boundary%s\n",
                   where.c_str());
      return 3;
    }
    if (opt.with_baseline) {
      const RunOutcome base =
          run_policy(setup, PolicyKind::kBaseline, trace);
      if (opt.json) {
        std::printf("{\"baseline\":%s,\"run\":%s}\n",
                    outcome_to_json(base).c_str(),
                    outcome_to_json(outcome).c_str());
      } else {
        write_comparison_report(std::cout, base, outcome);
      }
    } else if (opt.json) {
      std::printf("%s\n", outcome_to_json(outcome).c_str());
    } else {
      write_text_report(std::cout, outcome);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
