// Deterministic fault injector: one seeded Rng drawn in opportunity order.
//
// The injector is owned by the Network and shared (by pointer) with its
// routers; every decision site is gated on the pointer being non-null, so a
// disabled configuration never constructs an injector and the hot paths
// stay exactly as fast — and exactly as deterministic — as before the
// fault layer existed. With a fixed FaultConfig::seed the sequence of
// draws, and therefore the full fault schedule, is bit-reproducible; both
// event kernels visit the decision sites in the same order, so fault runs
// stay kernel-equivalent too.
#pragma once

#include <array>
#include <cstdint>

#include "src/common/rng.hpp"
#include "src/common/time.hpp"
#include "src/faults/fault_config.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/regulator/vf_mode.hpp"

namespace dozz {

class FaultInjector {
 public:
  /// `regulator` sizes the droop-recovery stall (see transient.hpp) and
  /// must outlive the injector.
  FaultInjector(const FaultConfig& config, const SimoLdoRegulator& regulator);

  const FaultConfig& config() const { return config_; }
  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

  // --- (a) Link faults (one decision per router-to-router flit hop) ---
  /// Nonzero CRC corruption mask when the hop flips bits, 0 otherwise.
  std::uint16_t corrupt_link_flit();

  // --- (b) Wake faults ---
  /// True when this wake request is lost (the router stays gated).
  bool drop_wake();
  /// Extra wakeup latency for a granted wake request (0 when unaffected).
  Tick wake_extra_ticks();
  /// True when this gate-off leaves the power switch stuck.
  bool stick_gate();
  /// How long a stuck switch refuses wake requests.
  Tick stuck_ticks() const;
  /// Records a wake request refused by a stuck switch.
  void count_stuck_refusal() { ++stats_.wakes_refused_stuck; }

  // --- (c) Regulator faults ---
  /// True when this DVFS mode-switch attempt fails (stall paid, old mode
  /// kept).
  bool fail_mode_switch();
  /// True when this active router suffers a voltage droop this epoch.
  bool droop();
  /// Pipeline stall while the LDO recovers from a droop at `mode` (the
  /// 2%-band settling time of the droop-recovery transient).
  Tick droop_stall_ticks(VfMode mode) const {
    return droop_stall_ticks_[static_cast<std::size_t>(mode_index(mode))];
  }

  // --- Resilience ---
  /// Retransmission backoff for attempt `retry` (0-based): the configured
  /// base delay doubled per prior attempt.
  Tick retx_backoff_ticks(int retry) const;

  // --- Checkpoint/restore (src/ckpt; DESIGN.md §8) ---
  /// The injector's mutable state is the RNG stream position plus the
  /// fault counters; config and derived tick constants are rebuilt from
  /// the (identical) configuration on resume.
  Rng::State rng_state() const { return rng_.state(); }
  void set_rng_state(const Rng::State& state) { rng_.set_state(state); }

 private:
  FaultConfig config_;
  Rng rng_;
  FaultStats stats_;
  Tick stuck_ticks_ = 0;
  Tick wake_delay_ticks_ = 0;
  std::array<Tick, kNumVfModes> droop_stall_ticks_{};
};

}  // namespace dozz
