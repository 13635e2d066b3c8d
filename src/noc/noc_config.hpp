// Tunable parameters of the NoC simulator and the power-management runtime.
#pragma once

#include <cstdint>

#include "src/common/error.hpp"
#include "src/common/time.hpp"
#include "src/faults/fault_config.hpp"
#include "src/topology/topology.hpp"

namespace dozz {

/// Simulator configuration. Defaults follow the paper: 128-bit flits,
/// epoch (window) of 500 cycles, T-Idle of 4 cycles.
struct NocConfig {
  // --- Router microarchitecture ---
  int vcs_per_port = 2;          ///< Virtual channels per input port.
  int buffer_depth_flits = 4;    ///< Buffer depth per VC, in flits.
  int link_latency_cycles = 1;   ///< Link traversal, in upstream cycles.
  /// Router pipeline depth: local cycles between a flit's arrival and its
  /// eligibility for switch allocation (buffer write + route compute + VC
  /// allocation stages). 1 models an aggressive two-stage router.
  int pipeline_stages = 1;
  RoutingAlgorithm routing = RoutingAlgorithm::kXY;  ///< Deterministic DOR.
  /// Dateline VC classes: 1 for mesh/cmesh; 2 on a torus, where packets
  /// move to the upper class after crossing a wraparound link (breaks the
  /// intra-dimension channel cycle). vcs_per_port must be divisible.
  int vc_classes = 1;

  // --- Protocol ---
  int request_size_flits = 1;    ///< Control packet (128-bit flit).
  int response_size_flits = 5;   ///< Head + 64-byte payload.
  bool auto_response = true;     ///< NI answers each request with a response.
  double response_delay_ns = 20.0;  ///< Service latency before the response.

  // --- Power management runtime ---
  int t_idle_cycles = 4;           ///< Consecutive idle cycles before gating.
  std::uint64_t epoch_cycles = 500;  ///< DVFS window, in baseline cycles.
  /// How long a secure (wake-punch) mark pins a router on: T-Wakeup
  /// (<= 18 cycles) plus a small margin. Shorter TTLs re-gate distant
  /// routers under the feet of in-flight packets (the in-flight two-hop
  /// punch then re-wakes them — "partially non-blocking"); longer TTLs
  /// forfeit off time on busy paths.
  Tick secure_ttl_ticks = 24 * kBaselinePeriodTicks;
  bool lookahead_punch = true;     ///< Power Punch-style wake signals: on
                                   ///< packet arrival at the NI the whole
                                   ///< XY path is punched awake, and heads
                                   ///< re-punch two hops ahead in flight.

  // --- Instrumentation ---
  bool collect_epoch_log = false;  ///< Record per-epoch per-router features.
  bool collect_extended_log = false;  ///< Record the extended (41-feature)
                                      ///< vectors as well.

  // --- Kernel selection ---
  /// Run the pre-indexed event kernel: a full O(routers + NICs) min-scan
  /// per event and a full router sweep per clock edge. The indexed and
  /// sharded engines (event lanes with lazy invalidation) are bit-identical
  /// to it; it shares none of their lane code, so it stays as the
  /// independent reference the equivalence tests compare them against.
  bool legacy_linear_kernel = false;

  /// Intra-run parallelism: number of shard worker threads for a single
  /// simulation (DESIGN.md §11). Each shard owns a contiguous router-id
  /// range and its own event lane; shards synchronize at
  /// conservative lookahead windows and at epoch boundaries, and results
  /// are bit-identical to the sequential engine at any thread count.
  /// 0 = auto (DOZZ_SHARD_THREADS env var if set, else 1); 1 = sequential
  /// (the default engine). The sharded engine engages
  /// only for configurations it can replay exactly (non-gating policy, no
  /// faults, no observer, no extended-feature capture, indexed kernel,
  /// link_latency_cycles >= 1, and packet-id-inert VC selection); anything
  /// else silently falls back to sequential — see Network::shards_used().
  int shard_threads = 0;

  // --- Fault injection & resilience ---
  /// Fault layer (off by default; src/faults/fault_config.hpp). When
  /// disabled the simulation is bit-identical to a build without the layer.
  FaultConfig faults;
  /// No-progress watchdog: number of consecutive epochs without a single
  /// flit ejection (while packets are outstanding) before the run fails
  /// with SimStallError. 0 = auto (DOZZ_WATCHDOG_EPOCHS env var if set,
  /// else 64 when faults are enabled, else off); -1 = always off.
  int watchdog_epochs = 0;

  /// Epoch length in ticks (epochs are measured on the baseline clock so
  /// that all routers share window boundaries).
  Tick epoch_ticks() const { return epoch_cycles * kBaselinePeriodTicks; }
};

/// Effective shard thread count for `config`: `config.shard_threads` when
/// explicitly positive, else the DOZZ_SHARD_THREADS env var, else 1.
/// Always >= 1. Defined in network.cpp next to the other env resolvers;
/// run_batch()/run_batch_supervised() use it to split the thread budget
/// between sweep-level and intra-run parallelism.
int resolve_shard_threads(const NocConfig& config);

/// Throws ConfigError naming the first key of `config` no simulation can
/// run with: no virtual channels, VC classes that do not divide them, a
/// zero buffer depth or packet size, a zero-cycle epoch, or a negative
/// gating idle threshold. The Network
/// constructor calls it; keys are the field names ("epoch_cycles").
void validate(const NocConfig& config, const KeyNamer& name = {});

}  // namespace dozz
