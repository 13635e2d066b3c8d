// Network checkpoint/restore (DESIGN.md §8). The per-struct field walks
// are written once as visitor templates: the same visit_* function drives
// both CkptWriter (SaveIo) and CkptReader (LoadIo), so the save and load
// orders can never drift apart.
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

namespace {

struct SaveIo {
  CkptWriter& w;
  void u64(const std::uint64_t& v) { w.u64(v); }
  void f64(const double& v) { w.f64(v); }
  void stat(const RunningStat& s) { ckpt::save_running_stat(w, s); }
};

struct LoadIo {
  CkptReader& r;
  void u64(std::uint64_t& v) { v = r.u64(); }
  void f64(double& v) { v = r.f64(); }
  void stat(RunningStat& s) { ckpt::load_running_stat(r, &s); }
};

template <typename Io, typename Stats>
void visit_fault_stats(Io& io, Stats& s) {
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

template <typename Io, typename Features>
void visit_epoch_features(Io& io, Features& f) {
  io.f64(f.bias);
  io.f64(f.reqs_sent);
  io.f64(f.reqs_received);
  io.f64(f.total_off_kcycles);
  io.f64(f.current_ibu);
}

template <typename Io, typename Metrics>
void visit_metrics(Io& io, Metrics& m) {
  io.u64(m.packets_offered);
  io.u64(m.packets_delivered);
  io.u64(m.flits_delivered);
  io.u64(m.requests_delivered);
  io.u64(m.responses_delivered);
  io.stat(m.packet_latency_ns);
  io.stat(m.network_latency_ns);
  io.stat(m.packet_hops);
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
  visit_fault_stats(io, m.faults);
}

void save_fault_stats(CkptWriter& w, const FaultStats& s) {
  SaveIo io{w};
  visit_fault_stats(io, s);
}

FaultStats load_fault_stats(CkptReader& r) {
  FaultStats s;
  LoadIo io{r};
  visit_fault_stats(io, s);
  return s;
}

void save_epoch_features(CkptWriter& w, const EpochFeatures& f) {
  SaveIo io{w};
  visit_epoch_features(io, f);
}

EpochFeatures load_epoch_features(CkptReader& r) {
  EpochFeatures f;
  LoadIo io{r};
  visit_epoch_features(io, f);
  return f;
}

}  // namespace

void Network::save_checkpoint(CkptWriter& w) const {
  DOZZ_REQUIRE(running_trace_ != nullptr);  // only meaningful mid-run
  w.tag("NET0");

  // --- Validation block: the resuming process must reconstruct an
  // identical simulation before loading mutable state. Nothing about the
  // kernel that wrote it is recorded: every kernel is bit-identical (the
  // tests' linear reference included), so a checkpoint written under one
  // resumes under any other.
  w.str(ctx_.topo->name());
  w.i32(ctx_.topo->num_routers());
  w.i32(ctx_.topo->concentration());
  w.u64(ctx_.config.epoch_cycles);
  w.i32(ctx_.config.vcs_per_port);
  w.i32(ctx_.config.buffer_depth_flits);
  w.i32(ctx_.config.vc_classes);
  w.i32(ctx_.config.request_size_flits);
  w.i32(ctx_.config.response_size_flits);
  w.boolean(ctx_.config.auto_response);
  w.u8(static_cast<std::uint8_t>(ctx_.config.routing));
  w.boolean(ctx_.config.lookahead_punch);
  w.boolean(ctx_.config.collect_epoch_log);
  w.boolean(ctx_.config.collect_extended_log);
  w.boolean(ctx_.config.faults.enabled);
  w.str(ctx_.policy->name());

  // --- Kernel run state ---
  w.tag("RUN0");
  w.u64(ctx_.now);
  w.u64(next_packet_id_);
  w.u64(epochs_processed_);
  w.u64(static_cast<std::uint64_t>(trace_cursor_));
  w.u64(next_epoch_);
  w.u64(last_event_);
  w.boolean(run_drain_);
  w.u64(run_end_tick_);
  w.str(running_trace_->name());
  w.u64(running_trace_->size());
  w.u64(internal::trace_fingerprint(*running_trace_));
  w.i32(stalled_epochs_);
  w.u64(last_progress_flits_);
  w.u64(pending_responses_);
  w.u64(kernel_events_);
  w.u64(edge_steps_);

  // Corrupt-partial set, sorted so identical states write identical bytes.
  {
    std::vector<std::uint64_t> ids(corrupt_partial_.begin(),
                                   corrupt_partial_.end());
    std::sort(ids.begin(), ids.end());
    w.u32(static_cast<std::uint32_t>(ids.size()));
    for (std::uint64_t id : ids) w.u64(id);
  }

  // --- Cumulative statistics ---
  w.tag("HIST");
  w.u64(ctx_.latency_hist.bins());
  for (std::size_t b = 0; b < ctx_.latency_hist.bins(); ++b)
    w.u64(ctx_.latency_hist.bin_count(b));
  w.u64(ctx_.latency_hist.underflow());
  w.u64(ctx_.latency_hist.overflow());
  w.u64(ctx_.latency_hist.total());

  w.tag("MET0");
  {
    SaveIo io{w};
    visit_metrics(io, ctx_.metrics);
  }

  w.tag("LOG0");
  w.u32(static_cast<std::uint32_t>(epoch_log_.size()));
  for (const auto& row : epoch_log_) {
    w.u32(static_cast<std::uint32_t>(row.size()));
    for (const auto& f : row) save_epoch_features(w, f);
  }
  w.u32(static_cast<std::uint32_t>(extended_log_.size()));
  for (const auto& row : extended_log_) {
    w.u32(static_cast<std::uint32_t>(row.size()));
    for (const auto& vec : row) {
      w.u32(static_cast<std::uint32_t>(vec.size()));
      for (double v : vec) w.f64(v);
    }
  }

  w.tag("SNAP");
  w.u32(static_cast<std::uint32_t>(snapshots_.size()));
  for (const auto& s : snapshots_) {
    w.u64(s.hops);
    w.u64(s.wakeups);
    w.u64(s.gatings);
    w.u64(s.switches);
    w.u64(s.inactive_ticks);
    w.u64(s.epoch_start);
    save_epoch_features(w, s.prev_base);
  }

  // --- Fault injector (RNG stream position + counters) ---
  if (ctx_.injector != nullptr) {
    w.tag("FLT0");
    for (std::uint64_t word : ctx_.injector->rng_state()) w.u64(word);
    save_fault_stats(w, ctx_.injector->stats());
  }

  // --- Policy, NICs, routers ---
  ctx_.policy->save_state(w);
  w.tag("NICS");
  for (const auto& n : nics_) n.save_state(w);
  w.tag("RTRS");
  for (const auto& r : routers_) r.save_state(w);
  w.tag("END0");
}

void Network::restore_checkpoint(CkptReader& r) {
  DOZZ_REQUIRE(!ran_ && ctx_.now == 0);  // restore only into a fresh network
  r.expect_tag("NET0");

  // --- Validation block ---
  const std::string topo_name = r.str();
  if (topo_name != ctx_.topo->name())
    r.fail("topology mismatch: checkpoint has '" + topo_name +
           "', network has '" + ctx_.topo->name() + "'");
  if (r.i32() != ctx_.topo->num_routers()) r.fail("router count mismatch");
  if (r.i32() != ctx_.topo->concentration()) r.fail("concentration mismatch");
  if (r.u64() != ctx_.config.epoch_cycles) r.fail("epoch length mismatch");
  if (r.i32() != ctx_.config.vcs_per_port) r.fail("VC count mismatch");
  if (r.i32() != ctx_.config.buffer_depth_flits)
    r.fail("buffer depth mismatch");
  if (r.i32() != ctx_.config.vc_classes) r.fail("VC class count mismatch");
  if (r.i32() != ctx_.config.request_size_flits)
    r.fail("request size mismatch");
  if (r.i32() != ctx_.config.response_size_flits)
    r.fail("response size mismatch");
  if (r.boolean() != ctx_.config.auto_response)
    r.fail("auto-response setting mismatch");
  if (r.u8() != static_cast<std::uint8_t>(ctx_.config.routing))
    r.fail("routing algorithm mismatch");
  if (r.boolean() != ctx_.config.lookahead_punch)
    r.fail("lookahead-punch setting mismatch");
  if (r.boolean() != ctx_.config.collect_epoch_log)
    r.fail("epoch-log collection setting mismatch");
  if (r.boolean() != ctx_.config.collect_extended_log)
    r.fail("extended-log collection setting mismatch");
  if (r.boolean() != ctx_.config.faults.enabled)
    r.fail("fault-injection setting mismatch");
  const std::string policy = r.str();
  if (policy != ctx_.policy->name())
    r.fail("policy mismatch: checkpoint has '" + policy +
           "', network has '" + ctx_.policy->name() + "'");

  // --- Kernel run state ---
  r.expect_tag("RUN0");
  ctx_.now = r.u64();
  next_packet_id_ = r.u64();
  epochs_processed_ = r.u64();
  trace_cursor_ = static_cast<std::size_t>(r.u64());
  next_epoch_ = r.u64();
  last_event_ = r.u64();
  expect_drain_ = r.boolean();
  expect_end_tick_ = r.u64();
  expect_trace_name_ = r.str();
  expect_trace_size_ = r.u64();
  expect_trace_hash_ = r.u64();
  stalled_epochs_ = r.i32();
  last_progress_flits_ = r.u64();
  pending_responses_ = r.u64();
  kernel_events_ = r.u64();
  edge_steps_ = r.u64();

  corrupt_partial_.clear();
  {
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) corrupt_partial_.insert(r.u64());
  }

  // --- Cumulative statistics ---
  r.expect_tag("HIST");
  {
    const std::uint64_t bins = r.u64();
    if (bins != ctx_.latency_hist.bins())
      r.fail("histogram bin count mismatch");
    std::vector<std::size_t> counts(static_cast<std::size_t>(bins));
    for (auto& c : counts) c = static_cast<std::size_t>(r.u64());
    const auto underflow = static_cast<std::size_t>(r.u64());
    const auto overflow = static_cast<std::size_t>(r.u64());
    const auto total = static_cast<std::size_t>(r.u64());
    ctx_.latency_hist.restore(counts, underflow, overflow, total);
  }

  r.expect_tag("MET0");
  {
    LoadIo io{r};
    visit_metrics(io, ctx_.metrics);
  }

  r.expect_tag("LOG0");
  {
    epoch_log_.clear();
    const std::uint32_t rows = r.u32();
    epoch_log_.reserve(rows);
    for (std::uint32_t i = 0; i < rows; ++i) {
      std::vector<EpochFeatures> row;
      const std::uint32_t cols = r.u32();
      row.reserve(cols);
      for (std::uint32_t j = 0; j < cols; ++j)
        row.push_back(load_epoch_features(r));
      epoch_log_.push_back(std::move(row));
    }
    extended_log_.clear();
    const std::uint32_t xrows = r.u32();
    extended_log_.reserve(xrows);
    for (std::uint32_t i = 0; i < xrows; ++i) {
      std::vector<std::vector<double>> row;
      const std::uint32_t cols = r.u32();
      row.reserve(cols);
      for (std::uint32_t j = 0; j < cols; ++j) {
        std::vector<double> vec(r.u32());
        for (auto& v : vec) v = r.f64();
        row.push_back(std::move(vec));
      }
      extended_log_.push_back(std::move(row));
    }
  }

  r.expect_tag("SNAP");
  if (r.u32() != snapshots_.size()) r.fail("snapshot count mismatch");
  for (auto& s : snapshots_) {
    s.hops = r.u64();
    s.wakeups = r.u64();
    s.gatings = r.u64();
    s.switches = r.u64();
    s.inactive_ticks = r.u64();
    s.epoch_start = r.u64();
    s.prev_base = load_epoch_features(r);
  }

  if (ctx_.injector != nullptr) {
    r.expect_tag("FLT0");
    Rng::State state;
    for (auto& word : state) word = r.u64();
    ctx_.injector->set_rng_state(state);
    ctx_.injector->set_stats(load_fault_stats(r));
  }

  ctx_.policy->load_state(r);
  r.expect_tag("NICS");
  for (auto& n : nics_) n.load_state(r);
  r.expect_tag("RTRS");
  for (auto& rt : routers_) rt.load_state(r);
  r.expect_tag("END0");

  resumed_ = true;
}

}  // namespace dozz
