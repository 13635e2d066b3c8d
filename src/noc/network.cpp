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

namespace dozz {

namespace {

/// Resolves the effective watchdog threshold: an explicit config value
/// wins; 0 defers to DOZZ_WATCHDOG_EPOCHS, then to a 64-epoch default when
/// fault injection is on (a faulty run must terminate, never hang); -1 (or
/// any negative) disables.
int resolve_watchdog_epochs(const NocConfig& config) {
  if (config.watchdog_epochs > 0) return config.watchdog_epochs;
  if (config.watchdog_epochs < 0) return 0;
  if (const char* env = std::getenv("DOZZ_WATCHDOG_EPOCHS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return config.faults.enabled ? 64 : 0;
}

}  // namespace

void validate(const NocConfig& config, const KeyNamer& name) {
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
  if (config.epoch_cycles < 1) reject("epoch_cycles", "at least 1", "0");
  // Router::can_gate compares it with an idle-cycle count, so a negative
  // threshold would silently act as 0.
  if (config.t_idle_cycles < 0)
    reject("t_idle_cycles", "at least 0", std::to_string(config.t_idle_cycles));
}

int resolve_shard_threads(const NocConfig& config) {
  if (config.shard_threads > 0) return config.shard_threads;
  if (const char* env = std::getenv("DOZZ_SHARD_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1;
}

int Network::plan_shard_count() const {
  int shards = resolve_shard_threads(ctx_.config);
  const int routers = static_cast<int>(routers_.size());
  if (shards > routers) shards = routers;
  if (shards <= 1) return 1;
  // Eligibility: the sharded engine replays the sequential kernel bit for
  // bit only for configurations where every cross-shard interaction is
  // deferrable by the lookahead window (DESIGN.md §11). Everything else
  // falls back to the sequential engine rather than approximating.
  const NocConfig& c = ctx_.config;
  if (c.legacy_linear_kernel) return 1;
  // Gating couples shards at zero lookahead: a wake request must take
  // effect at the requesting tick, and gate/wake decisions read remote
  // router state mid-window.
  if (ctx_.policy->gating_enabled()) return 1;
  // Extended feature capture reads per-window idle/secure counters whose
  // exact values depend on in-window arrival visibility.
  if (ctx_.policy->wants_extended_features() || c.collect_extended_log)
    return 1;
  // Fault injection draws from one global RNG stream in event order.
  if (c.faults.enabled) return 1;
  // Observer callbacks fire in global event order, which shards interleave.
  if (ctx_.observer != nullptr) return 1;
  // The lookahead window equals the minimum cross-shard latency
  // (one fastest-mode period); zero-latency links would shrink it to zero.
  if (c.link_latency_cycles < 1) return 1;
  // Packet ids must be report-inert (see engine_sharded.cpp): either the
  // NIC's id-keyed VC choice has a single candidate, or (auto_response
  // off) ids are trace-positional and reproduced exactly.
  const int injectable_vcs = c.vcs_per_port / std::max(1, c.vc_classes);
  if (c.auto_response && injectable_vcs != 1) return 1;
  return shards;
}

Network::Network(const Topology& topo, const NocConfig& config,
                 PowerController& policy, const PowerModel& power,
                 const SimoLdoRegulator& regulator)
    : ctx_(topo, config, policy, power, regulator),
      indexed_(!config.legacy_linear_kernel) {
  validate(config);
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
