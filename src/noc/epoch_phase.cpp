// The epoch (DVFS window) phase: per-router feature capture, extended
// feature deltas, policy mode selection with fault pre-emption, and the
// no-progress watchdog evaluated at every boundary.
#include <sstream>
#include <string>

#include "src/common/error.hpp"
#include "src/common/log.hpp"
#include "src/noc/extended_features.hpp"
#include "src/noc/network.hpp"

namespace dozz {

namespace {

const char* state_label(RouterState s) {
  switch (s) {
    case RouterState::kInactive: return "inactive";
    case RouterState::kWakeup: return "wakeup";
    case RouterState::kActive: return "active";
  }
  return "?";
}

}  // namespace

void Network::check_progress(Tick now) {
  const std::uint64_t done =
      ctx_.metrics.packets_delivered + terminal_failures();
  const bool progressed =
      ctx_.metrics.flits_delivered != last_progress_flits_;
  last_progress_flits_ = ctx_.metrics.flits_delivered;
  if (progressed ||
      (done == ctx_.metrics.packets_offered && pending_responses_ == 0)) {
    stalled_epochs_ = 0;
    return;
  }
  if (++stalled_epochs_ < watchdog_epochs_) return;

  // Structured per-router diagnostic dump. Emitted unconditionally (the
  // run is about to die with SimStallError; the dump is the post-mortem).
  log_line(LogLevel::kInfo,
           "watchdog: no flit ejected for " +
               std::to_string(stalled_epochs_) + " epochs at tick " +
               std::to_string(now) + "; outstanding packets=" +
               std::to_string(ctx_.metrics.packets_offered - done) +
               " pending_responses=" + std::to_string(pending_responses_));
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    const Router& r = routers_[i];
    const NetworkInterface& n = nics_[i];
    if (r.buffered_flits() == 0 && n.backlog() == 0 &&
        r.state() == RouterState::kActive && !r.stalled(now))
      continue;  // healthy and empty — not part of the story
    std::ostringstream os;
    os << "watchdog: router " << i << " state=" << state_label(r.state())
       << " mode=" << mode_label(r.active_mode())
       << " buffered=" << r.buffered_flits() << " nic_backlog=" << n.backlog()
       << " next_edge=" << r.next_edge() << " stall_until=" << r.stall_until()
       << " wake_done=" << r.wake_done()
       << " wake_faults=" << r.wake_faults()
       << " regulator_faults=" << r.regulator_faults();
    log_line(LogLevel::kInfo, os.str());
  }
  throw SimStallError(
      "simulation stalled: no flit ejected for " +
          std::to_string(stalled_epochs_) + " epochs at tick " +
          std::to_string(now) + " with " +
          std::to_string(ctx_.metrics.packets_offered - done) +
          " packets outstanding (per-router dump on stderr)",
      now);
}

void Network::process_epoch(Tick now) {
  if (watchdog_epochs_ > 0) check_progress(now);
  if (ctx_.observer != nullptr)
    ctx_.observer->on_epoch_boundary(now, epochs_processed_);
  ctx_.policy->on_epoch_begin(epochs_processed_++);
  const bool extended =
      ctx_.config.collect_extended_log ||
      ctx_.policy->wants_extended_features();
  // Build each window's rows in reused scratch so a boundary allocates
  // nothing beyond what a retained log copy inherently needs.
  epoch_row_scratch_.clear();
  ext_rows_scratch_.clear();

  for (std::size_t i = 0; i < routers_.size(); ++i) {
    Router& r = routers_[i];
    NetworkInterface& n = nics_[i];
    RouterSnapshot& snap = snapshots_[i];

    EpochFeatures f;
    f.bias = 1.0;
    f.reqs_sent = static_cast<double>(n.epoch_requests_sent());
    f.reqs_received = static_cast<double>(n.epoch_requests_received());
    f.total_off_kcycles = static_cast<double>(r.total_off_ticks(now)) /
                          (1000.0 * static_cast<double>(kBaselinePeriodTicks));
    f.current_ibu = r.epoch_ibu();
    if (ctx_.config.collect_epoch_log) epoch_row_scratch_.push_back(f);

    if (extended) {
      // Flush static accounting so the per-window off time is current.
      r.account_until(now);
      ExtendedFeatureInputs& in = ext_in_scratch_;
      in.base = f;
      r.epoch_counters_into(&in.counters);
      in.mean_ibu = r.epoch_mean_ibu();
      in.epoch_hops =
          static_cast<double>(r.accountant().hops() - snap.hops);
      in.epoch_wakeups = static_cast<double>(r.wakeups() - snap.wakeups);
      in.epoch_gatings = static_cast<double>(r.gatings() - snap.gatings);
      in.epoch_switches =
          static_cast<double>(r.mode_switches() - snap.switches);
      const Tick window = now - snap.epoch_start;
      in.epoch_off_fraction =
          window == 0
              ? 0.0
              : static_cast<double>(r.total_off_ticks(now) -
                                    snap.inactive_ticks) /
                    static_cast<double>(window);
      in.mode_index_now = static_cast<double>(mode_index(r.active_mode()));
      in.prev_base = snap.prev_base;
      build_extended_features(in, &ext_scratch_);
      if (ctx_.config.collect_extended_log)
        ext_rows_scratch_.push_back(ext_scratch_);

      snap.hops = r.accountant().hops();
      snap.wakeups = r.wakeups();
      snap.gatings = r.gatings();
      snap.switches = r.mode_switches();
      snap.inactive_ticks = r.total_off_ticks(now);
      snap.epoch_start = now;
      snap.prev_base = f;
    }

    if (r.state() == RouterState::kActive) {
      // Fault: a voltage droop pre-empts this window's mode decision — the
      // domain snaps to nominal and stalls while the LDO recovers.
      if (ctx_.injector != nullptr && ctx_.injector->droop()) {
        r.apply_droop(now, ctx_.injector->droop_stall_ticks(r.active_mode()));
      } else {
        const VfMode mode =
            ctx_.policy->wants_extended_features()
                ? ctx_.policy->select_mode_extended(r.id(), ext_scratch_)
                : ctx_.policy->select_mode(r.id(), f);
        if (ctx_.policy->uses_ml()) {
          r.charge_label();
          ++ctx_.metrics.labels_computed;
        }
        ++ctx_.metrics.epoch_mode_counts[static_cast<std::size_t>(
            mode_index(mode))];
        if (ctx_.observer != nullptr)
          ctx_.observer->on_mode_selected(now, r.id(), mode);
        r.set_active_mode(mode, now);
      }
      // A droop or mode change can move this router's next edge (a new,
      // possibly shorter period counts from now); republish it to its lane.
      schedule_edge(r.id());
      // Repeated regulator faults (failed switches, droops) pin the domain
      // to the nominal point: every future select_mode resolves through
      // PowerController::resolve_degraded to kNominalMode.
      if (ctx_.injector != nullptr && !ctx_.policy->pinned_nominal(r.id()) &&
          r.regulator_faults() >=
              static_cast<std::uint64_t>(
                  ctx_.config.faults.regulator_fault_threshold)) {
        ctx_.policy->pin_nominal(r.id());
        ++ctx_.injector->stats().routers_pinned_nominal;
        DOZZ_LOG_INFO("fault: router " << r.id() << " absorbed "
                      << r.regulator_faults()
                      << " regulator faults; pinned to nominal V/F");
      }
    }

    n.reset_epoch_window();
    r.reset_epoch_window();
  }
  if (ctx_.config.collect_epoch_log) epoch_log_.push_back(epoch_row_scratch_);
  if (ctx_.config.collect_extended_log)
    extended_log_.push_back(ext_rows_scratch_);
}

}  // namespace dozz
