// SimContext: the one bundle of shared simulation services — configuration,
// clock, stats sinks, power/regulator models, the fault injector and the
// checkpoint hook — threaded through the engine loop and every extracted
// phase (DESIGN.md §9). The Network owns exactly one; phases and extension
// points read and write through it instead of reaching into Network
// internals.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/stats.hpp"
#include "src/common/time.hpp"
#include "src/faults/fault_injector.hpp"
#include "src/noc/noc_config.hpp"
#include "src/noc/stats.hpp"
#include "src/power/power_model.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/topology/routing.hpp"
#include "src/topology/topology.hpp"

namespace dozz {

class EventObserver;
class Network;

/// Epoch-boundary checkpoint/interruption hook (see Network::set_epoch_hook).
using EpochHook = std::function<bool(Network&, Tick, std::uint64_t)>;

/// Shard plan for the intra-run parallel engine (DESIGN.md §11): router
/// ids split into contiguous, balanced, ascending ranges — shard `s` owns
/// [begin(s), end(s)). Contiguity in router-id order is load-bearing: a
/// (tick, shard, within-shard) merge of shard-local event streams then
/// equals the sequential engine's (tick, router-id) order, which is what
/// makes the merged floating-point statistics bit-identical. On the
/// row-major meshes/tori this produces contiguous row tiles, so the only
/// cross-shard links are the row-boundary columns (plus wraparound).
struct ShardPlan {
  /// bounds[s] .. bounds[s+1] delimit shard s; bounds.size() == shards+1.
  std::vector<RouterId> bounds;
  /// owner[r] = shard owning router r (flat lookup for the hot path).
  std::vector<int> owner;

  RouterId begin(int s) const { return bounds[static_cast<std::size_t>(s)]; }
  RouterId end(int s) const {
    return bounds[static_cast<std::size_t>(s) + 1];
  }
};

/// Balanced contiguous split of `num_routers` ids into `shards` ranges
/// (every shard non-empty; requires 1 <= shards <= num_routers).
inline ShardPlan make_shard_plan(int num_routers, int shards) {
  ShardPlan plan;
  plan.bounds.resize(static_cast<std::size_t>(shards) + 1);
  for (int s = 0; s <= shards; ++s)
    plan.bounds[static_cast<std::size_t>(s)] = static_cast<RouterId>(
        static_cast<long long>(s) * num_routers / shards);
  plan.owner.resize(static_cast<std::size_t>(num_routers));
  for (int s = 0; s < shards; ++s)
    for (RouterId r = plan.begin(s); r < plan.end(s); ++r)
      plan.owner[static_cast<std::size_t>(r)] = s;
  return plan;
}

struct SimContext {
  SimContext(const Topology& topo_in, const NocConfig& config_in,
             PowerController& policy_in, const PowerModel& power_in,
             const SimoLdoRegulator& regulator_in)
      : topo(&topo_in), config(config_in), policy(&policy_in),
        power(&power_in), regulator(&regulator_in),
        ml_overhead(policy_in.label_feature_count()),
        routes(topo_in, routing_policy(config_in.routing)) {}

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  // --- Construction-time wiring (immutable for the run) ---
  const Topology* topo;
  NocConfig config;  ///< Owned copy; routers/NICs point into it.
  PowerController* policy;
  const PowerModel* power;
  const SimoLdoRegulator* regulator;
  MlOverheadModel ml_overhead;
  /// Flat R×R next-hop table for config.routing — built once per run and
  /// consulted per flit / per punch hop instead of the virtual policy.
  FlatRouteTable routes;

  /// Non-null only when config.faults.enabled; every hook checks this
  /// pointer so fault-free runs skip the layer entirely. Owns the fault
  /// RNG stream.
  std::unique_ptr<FaultInjector> injector;
  EventObserver* observer = nullptr;
  EpochHook epoch_hook;

  // --- Simulation clock ---
  Tick now = 0;

  // --- Stats sinks ---
  NetworkMetrics metrics;
  Histogram latency_hist{0.0, 4000.0, 8000};  ///< 0.5 ns bins.
};

}  // namespace dozz
