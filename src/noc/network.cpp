// Network construction and the public run entry points. The per-cycle
// machinery lives in sibling TUs: engine.cpp (event kernels), phases.cpp
// (injection / traversal / ejection), epoch_phase.cpp (DVFS windows),
// metrics_phase.cpp (final accounting) and network_ckpt.cpp
// (checkpoint/restore).
#include "src/noc/network.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/parse.hpp"
#include "src/common/thread_pool.hpp"

namespace dozz {

namespace {

/// Resolves the effective watchdog threshold: an explicit config value
/// wins; 0 defers to a positive DOZZ_WATCHDOG_EPOCHS, then to a 64-epoch
/// default when fault injection is on (a faulty run must terminate, never
/// hang); -1 (or any negative) disables. A DOZZ_WATCHDOG_EPOCHS that is not
/// an integer is a ConfigError.
int resolve_watchdog_epochs(const NocConfig& config) {
  if (config.watchdog_epochs > 0) return config.watchdog_epochs;
  if (config.watchdog_epochs < 0) return 0;
  if (const char* env = std::getenv("DOZZ_WATCHDOG_EPOCHS")) {
    const int n = parse_signed(env, "DOZZ_WATCHDOG_EPOCHS");
    if (n > 0) return n;
  }
  return config.faults.enabled ? 64 : 0;
}

}  // namespace

void validate(const NocConfig& config, const Topology& topo,
              const KeyNamer& name) {
  const auto reject = [&name](const std::string& key, const std::string& rule,
                              const std::string& got) {
    throw ConfigError((name ? name(key) : key) + " must be " + rule +
                      " (got " + got + ")");
  };
  // Counts a router or packet needs at least one of.
  const std::pair<const char*, int> counts[] = {
      {"vcs_per_port", config.vcs_per_port},
      {"vc_classes", config.vc_classes},
      {"buffer_depth_flits", config.buffer_depth_flits},
      {"request_size_flits", config.request_size_flits},
      {"response_size_flits", config.response_size_flits},
  };
  for (const auto& [key, value] : counts)
    if (value < 1) reject(key, "at least 1", std::to_string(value));
  if (config.vcs_per_port % config.vc_classes != 0)
    reject("vcs_per_port",
           "a multiple of vc_classes = " + std::to_string(config.vc_classes),
           std::to_string(config.vcs_per_port));
  const int ports = topo.ports_per_router();
  if (config.vcs_per_port > kMaxRouterSlots / ports)
    reject("vcs_per_port",
           "at most " + std::to_string(kMaxRouterSlots / ports) + " with " +
               std::to_string(ports) + " ports per router",
           std::to_string(config.vcs_per_port));
  if (config.epoch_cycles < 1) reject("epoch_cycles", "at least 1", "0");
  // Routers add these multiples of a clock period to unsigned ticks, so a
  // negative value would wrap and silently act as 0. A link also takes at
  // least one cycle: the sharded engine's lookahead window relies on it.
  if (config.link_latency_cycles < 1)
    reject("link_latency_cycles", "at least 1",
           std::to_string(config.link_latency_cycles));
  if (config.pipeline_stages < 0)
    reject("pipeline_stages", "at least 0",
           std::to_string(config.pipeline_stages));
  // Router::can_gate compares it with an idle-cycle count, so a negative
  // threshold would silently act as 0.
  if (config.t_idle_cycles < 0)
    reject("t_idle_cycles", "at least 0", std::to_string(config.t_idle_cycles));
}

int resolve_shard_threads(const NocConfig& config) {
  int shards = config.shard_threads;
  if (shards <= 0) {
    const char* env = std::getenv("DOZZ_SHARD_THREADS");
    shards = env == nullptr ? 1
                            : parse_signed(env, "DOZZ_SHARD_THREADS", 0,
                                           static_cast<int>(kMaxThreads));
  }
  // Eligibility the configuration alone decides (Network::plan_shard_count
  // adds what needs the network): the sharded engine replays the
  // sequential kernel bit for bit only where every cross-shard interaction
  // is deferrable by the lookahead window (DESIGN.md §11). Everything else
  // runs sequentially rather than approximating.
  // Fault injection draws from one global RNG stream in event order.
  if (config.faults.enabled) return 1;
  // Extended feature capture reads per-window idle/secure counters whose
  // exact values depend on in-window arrival visibility.
  if (config.collect_extended_log) return 1;
  // Packet ids must be report-inert (see engine_sharded.cpp): either the
  // NIC's id-keyed VC choice has a single candidate, or (auto_response
  // off) ids are trace-positional and reproduced exactly.
  const int injectable_vcs =
      config.vcs_per_port / std::max(1, config.vc_classes);
  if (config.auto_response && injectable_vcs != 1) return 1;
  return std::max(shards, 1);
}

int Network::plan_shard_count() const {
  int shards = resolve_shard_threads(ctx_.config);
  const int routers = static_cast<int>(routers_.size());
  if (shards > routers) shards = routers;
  if (shards <= 1) return 1;
  // Gating couples shards at zero lookahead: a wake request must take
  // effect at the requesting tick, and gate/wake decisions read remote
  // router state mid-window.
  if (gating_) return 1;
  // Extended feature capture, as in resolve_shard_threads.
  if (ctx_.policy->wants_extended_features()) return 1;
  // Observer callbacks fire in global event order, which shards interleave.
  if (ctx_.observer != nullptr) return 1;
  return shards;
}

Network::Network(const Topology& topo, const NocConfig& config,
                 PowerController& policy, const PowerModel& power,
                 const SimoLdoRegulator& regulator)
    : ctx_(topo, config, policy, power, regulator),
      gating_(policy.gating_enabled()) {
  validate(config, topo);
  const int n = topo.num_routers();
  routers_.reserve(static_cast<std::size_t>(n));
  nics_.reserve(static_cast<std::size_t>(n));
  for (RouterId r = 0; r < n; ++r) {
    routers_.emplace_back(r, ctx_);
    nics_.emplace_back(r, ctx_);
  }
  snapshots_.resize(static_cast<std::size_t>(n));
  split_lanes(1);
  if (ctx_.config.faults.enabled) {
    ctx_.injector =
        std::make_unique<FaultInjector>(ctx_.config.faults, regulator);
    for (auto& r : routers_) r.set_fault_injector(ctx_.injector.get());
  }
  watchdog_epochs_ = resolve_watchdog_epochs(ctx_.config);
}

NetworkInterface& Network::nic(RouterId r) {
  DOZZ_REQUIRE(r >= 0 && r < static_cast<RouterId>(nics_.size()));
  return nics_[static_cast<std::size_t>(r)];
}

void Network::run(const Trace& trace, Tick end_tick) {
  run_loop(trace, end_tick, /*drain=*/false);
}

void Network::run_until_drained(const Trace& trace, Tick max_ticks) {
  run_loop(trace, max_ticks, /*drain=*/true);
}

}  // namespace dozz
