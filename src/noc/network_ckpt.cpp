// Network checkpoint/restore (DESIGN.md §8). The whole layout is written
// once, as Network::walk_state and the walks it calls: save and restore
// run the same walk over a CkptWriter or a CkptReader (serial.hpp), so
// the save and load orders can never drift apart.
//
// Checkpoints are shard-plan independent (DESIGN.md §11): routers are
// always serialized in canonical router-id order, and the sharded engine
// only checkpoints at epoch barriers, where its state is bit-identical to
// the sequential engine's. `shard_threads` is therefore deliberately
// absent from both the format and the restore validation: a file saved
// under N shards restores under any M, including M = 1.
#include <algorithm>
#include <vector>

#include "src/ckpt/state_io.hpp"
#include "src/common/error.hpp"
#include "src/noc/network.hpp"
#include "src/noc/network_internal.hpp"

namespace dozz {
namespace ckpt {

// The value types only a network checkpoint holds, beside state_io.hpp's.
template <typename Io>
void walk(Io& io, Rec<Io, FaultStats> s) {
  io.u64(s.flits_corrupted);
  io.u64(s.wakes_dropped);
  io.u64(s.wakes_refused_stuck);
  io.u64(s.wakes_delayed);
  io.u64(s.stuck_gatings);
  io.u64(s.mode_switch_failures);
  io.u64(s.droops);
  io.u64(s.packets_corrupted);
  io.u64(s.retransmissions);
  io.u64(s.packets_lost);
  io.u64(s.routers_gating_degraded);
  io.u64(s.routers_pinned_nominal);
}

template <typename Io>
void walk(Io& io, Rec<Io, EpochFeatures> f) {
  io.f64(f.bias);
  io.f64(f.reqs_sent);
  io.f64(f.reqs_received);
  io.f64(f.total_off_kcycles);
  io.f64(f.current_ibu);
}

template <typename Io>
void walk(Io& io, Rec<Io, NetworkMetrics> m) {
  io.u64(m.packets_offered);
  io.u64(m.packets_delivered);
  io.u64(m.flits_delivered);
  io.u64(m.requests_delivered);
  io.u64(m.responses_delivered);
  walk(io, m.packet_latency_ns);
  walk(io, m.network_latency_ns);
  walk(io, m.packet_hops);
  io.u64(m.sim_ticks);
  io.f64(m.static_energy_j);
  io.f64(m.dynamic_energy_j);
  io.f64(m.ml_energy_j);
  io.f64(m.wall_static_energy_j);
  io.f64(m.wall_dynamic_energy_j);
  io.u64(m.gatings);
  io.u64(m.wakeups);
  io.u64(m.premature_wakeups);
  io.u64(m.mode_switches);
  io.u64(m.labels_computed);
  for (auto& f : m.state_fractions) io.f64(f);
  for (auto& c : m.epoch_mode_counts) io.u64(c);
  io.f64(m.avg_ibu);
  io.f64(m.off_time_fraction);
  io.f64(m.latency_p50_ns);
  io.f64(m.latency_p95_ns);
  io.f64(m.latency_p99_ns);
  walk(io, m.faults);
}

}  // namespace ckpt

template <typename Io>
void Network::walk_state(Io& io) {
  io.tag("NET0");

  // --- Validation block: the resuming process must reconstruct an
  // identical simulation before loading mutable state. Nothing about the
  // kernel that wrote it is recorded: every kernel is bit-identical (the
  // tests' linear reference included), so a checkpoint written under one
  // resumes under any other.
  const NocConfig& c = ctx_.config;
  io.check(ctx_.topo->name(), "topology mismatch");
  io.check(ctx_.topo->num_routers(), "router count mismatch");
  io.check(ctx_.topo->concentration(), "concentration mismatch");
  io.check(c.epoch_cycles, "epoch length mismatch");
  io.check(c.vcs_per_port, "VC count mismatch");
  io.check(c.buffer_depth_flits, "buffer depth mismatch");
  io.check(c.vc_classes, "VC class count mismatch");
  io.check(c.request_size_flits, "request size mismatch");
  io.check(c.response_size_flits, "response size mismatch");
  io.check(c.auto_response, "auto-response setting mismatch");
  io.check(static_cast<std::uint8_t>(c.routing), "routing algorithm mismatch");
  io.check(c.lookahead_punch, "lookahead-punch setting mismatch");
  io.check(c.collect_epoch_log, "epoch-log collection setting mismatch");
  io.check(c.collect_extended_log, "extended-log collection setting mismatch");
  io.check(c.faults.enabled, "fault-injection setting mismatch");
  io.check(ctx_.policy->name(), "policy mismatch");

  // --- Kernel run state ---
  io.tag("RUN0");
  io.u64(ctx_.now);
  io.u64(next_packet_id_);
  io.u64(epochs_processed_);
  io.u64(trace_cursor_);
  io.u64(next_epoch_);
  io.u64(last_event_);
  // The run parameters: recorded from the running trace, validated
  // against the resumed run's by begin_run.
  RunKey run;
  if constexpr (!Io::kLoading)
    run = {run_drain_, run_end_tick_, running_trace_->name(),
           running_trace_->size(),
           internal::trace_fingerprint(*running_trace_)};
  io.boolean(run.drain);
  io.u64(run.end_tick);
  io.str(run.trace_name);
  io.u64(run.trace_size);
  io.u64(run.trace_hash);
  if constexpr (Io::kLoading) expect_ = std::move(run);
  io.i32(stalled_epochs_);
  io.u64(last_progress_flits_);
  io.u64(pending_responses_);
  io.u64(kernel_events_);
  io.u64(edge_steps_);

  // Corrupt-partial set, sorted so identical states write identical bytes.
  std::vector<std::uint64_t> ids(corrupt_partial_.begin(),
                                 corrupt_partial_.end());
  std::sort(ids.begin(), ids.end());
  io.seq(ids, [&io](auto& id) { io.u64(id); });
  if constexpr (Io::kLoading) {
    corrupt_partial_.clear();
    corrupt_partial_.insert(ids.begin(), ids.end());
  }

  // --- Cumulative statistics ---
  io.tag("HIST");
  Histogram& hist = ctx_.latency_hist;
  io.check(static_cast<std::uint64_t>(hist.bins()),
           "histogram bin count mismatch");
  std::vector<std::size_t> counts(hist.bins());
  for (std::size_t b = 0; b < counts.size(); ++b)
    counts[b] = hist.bin_count(b);
  std::size_t underflow = hist.underflow();
  std::size_t overflow = hist.overflow();
  std::size_t total = hist.total();
  for (auto& count : counts) io.u64(count);
  io.u64(underflow);
  io.u64(overflow);
  io.u64(total);
  if constexpr (Io::kLoading)
    hist.restore(counts, underflow, overflow, total);

  io.tag("MET0");
  ckpt::walk(io, ctx_.metrics);

  io.tag("LOG0");
  io.seq(epoch_log_, [&io](auto& row) {
    io.seq(row, [&io](auto& f) { ckpt::walk(io, f); });
  });
  io.seq(extended_log_, [&io](auto& row) {
    io.seq(row, [&io](auto& vec) {
      io.seq(vec, [&io](auto& v) { io.f64(v); });
    });
  });

  io.tag("SNAP");
  io.check(static_cast<std::uint32_t>(snapshots_.size()),
           "snapshot count mismatch");
  for (auto& s : snapshots_) {
    io.u64(s.hops);
    io.u64(s.wakeups);
    io.u64(s.gatings);
    io.u64(s.switches);
    io.u64(s.inactive_ticks);
    io.u64(s.epoch_start);
    ckpt::walk(io, s.prev_base);
  }

  // --- Fault injector (RNG stream position + counters) ---
  if (ctx_.injector != nullptr) {
    io.tag("FLT0");
    Rng::State state = ctx_.injector->rng_state();
    for (auto& word : state) io.u64(word);
    if constexpr (Io::kLoading) ctx_.injector->set_rng_state(state);
    ckpt::walk(io, ctx_.injector->stats());
  }

  // --- Policy, NICs, routers ---
  ctx_.policy->walk_state(&io);
  io.tag("NICS");
  for (auto& n : nics_) n.walk_state(io);
  io.tag("RTRS");
  for (auto& r : routers_) r.walk_state(io);
  io.tag("END0");
}

void Network::save_checkpoint(CkptWriter& w) const {
  DOZZ_REQUIRE(running_trace_ != nullptr);  // only meaningful mid-run
  // Lanes are derived state, never written: a checkpoint is taken right
  // after a fold, so every count is already in the fields below.
  for (const EventLane& lane : lanes_) DOZZ_ASSERT(lane.tally().empty());
  // The walk takes the network mutably so one body serves both
  // directions; a CkptWriter only reads the fields it is handed.
  const_cast<Network*>(this)->walk_state(w);
}

void Network::restore_checkpoint(CkptReader& r) {
  DOZZ_REQUIRE(!ran_ && ctx_.now == 0);  // restore only into a fresh network
  walk_state(r);
  split_lanes(1);  // derived state: the lane draws ids on from the watermark
  resumed_ = true;
}

}  // namespace dozz
