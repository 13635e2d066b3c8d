#include "src/noc/router.hpp"

#include <algorithm>
#include <bit>

#include "src/ckpt/state_io.hpp"
#include "src/common/error.hpp"
#include "src/faults/fault_injector.hpp"
#include "src/noc/sim_context.hpp"
#include "src/topology/routing.hpp"

namespace dozz {

Router::Router(RouterId id, const Topology& topo, const NocConfig& config,
               const FlatRouteTable& routes,
               const SimoLdoRegulator& regulator, EnergyAccountant accountant,
               VfMode initial_mode)
    : id_(id), topo_(&topo), config_(&config), routes_(&routes),
      regulator_(&regulator), mode_(initial_mode),
      accountant_(std::move(accountant)) {
  DOZZ_REQUIRE(config.vc_classes >= 1 &&
               config.vcs_per_port % config.vc_classes == 0);
  ports_ = topo.ports_per_router();
  vcs_per_port_ = config.vcs_per_port;
  DOZZ_REQUIRE(ports_ * vcs_per_port_ <= kMaxRouterSlots);
  DOZZ_REQUIRE(vcs_per_port_ <= kMaxPortVcs);
  slots_ = ports_ * vcs_per_port_;
  vcs_per_class_ = vcs_per_port_ / config.vc_classes;
  port_slot_bits_ = (std::uint64_t{1} << vcs_per_port_) - 1;
  vcs_.reserve(static_cast<std::size_t>(slots_));
  for (int s = 0; s < slots_; ++s) {
    vcs_.emplace_back(config.buffer_depth_flits);
    slot_port_[static_cast<std::size_t>(s)] =
        static_cast<std::uint8_t>(s / vcs_per_port_);
    slot_vc_[static_cast<std::size_t>(s)] =
        static_cast<std::uint8_t>(s % vcs_per_port_);
  }
  links_.resize(static_cast<std::size_t>(ports_));
  outputs_.resize(static_cast<std::size_t>(ports_));
  // Credit flow control bounds the credits returning over a link by the
  // downstream port's total buffer capacity, so the credit rings can be
  // sized once here and never regrow.
  const std::size_t inflight = static_cast<std::size_t>(vcs_per_port_) *
                               static_cast<std::size_t>(
                                   config.buffer_depth_flits);
  for (auto& out : outputs_) {
    out.returning.reserve(inflight);
    std::fill_n(out.credits.begin(), vcs_per_port_,
                config.buffer_depth_flits);
  }
  for (int d = 0; d < kNumDirections; ++d) {
    const auto nb = topo.neighbor(id, static_cast<Direction>(d));
    neighbor_[static_cast<std::size_t>(d)] = nb.value_or(-1);
  }
  const auto ports = static_cast<std::size_t>(ports_);
  ep_port_occ_.assign(ports, 0);
  ep_port_peak_.assign(ports, 0);
  ep_port_arrivals_.assign(ports, 0);
  ep_port_departures_.assign(ports, 0);
  total_capacity_ = slots_ * config.buffer_depth_flits;
  next_edge_ = period();
}

Router::Router(RouterId id, const SimContext& ctx)
    : Router(id, *ctx.topo, ctx.config, ctx.routes, *ctx.regulator,
             EnergyAccountant(*ctx.power, *ctx.regulator, ctx.ml_overhead),
             ctx.policy->initial_mode()) {}

Tick Router::total_off_ticks(Tick now) const {
  Tick total = accountant_.inactive_ticks();
  if (state_ == RouterState::kInactive && now > last_account_)
    total += now - last_account_;
  return total;
}

void Router::gate_off(Tick now) {
  DOZZ_REQUIRE(state_ == RouterState::kActive);
  account_until(now);
  state_ = RouterState::kInactive;
  off_since_ = now;
  idle_cycles_ = 0;
  ++gatings_;
  next_edge_ = kInfTick;
  // Fault: the power switch can stick open, refusing wake requests for a
  // window. The wake path retries naturally (secure() pokes every cycle a
  // packet wants through), so a transient stick costs latency, not loss.
  if (faults_ != nullptr && faults_->stick_gate())
    stuck_until_ = now + faults_->stuck_ticks();
}

void Router::request_wake(Tick now) {
  if (state_ != RouterState::kInactive) return;
  if (faults_ != nullptr) {
    if (now < stuck_until_) {
      faults_->count_stuck_refusal();
      ++wake_faults_;
      return;
    }
    if (faults_->drop_wake()) {
      ++wake_faults_;
      return;
    }
  }
  account_until(now);
  if (now - off_since_ < regulator_->breakeven_ticks(mode_))
    ++premature_wakeups_;
  ++wakeups_;
  state_ = RouterState::kWakeup;
  Tick penalty = regulator_->wakeup_penalty_ticks(mode_);
  if (faults_ != nullptr) penalty += faults_->wake_extra_ticks();
  // A zero-length wakeup would land this router's edge at the tick being
  // stepped; the engines' phase-4 sweeps rely on it never doing so.
  DOZZ_REQUIRE(penalty > 0);
  wake_done_ = now + penalty;
  next_edge_ = wake_done_;
}

void Router::set_active_mode(VfMode mode, Tick now) {
  if (state_ == RouterState::kInactive) {
    mode_ = mode;  // applied when the router wakes
    return;
  }
  if (state_ == RouterState::kWakeup || mode == mode_) return;
  account_until(now);
  // Fault: the SIMO/LDO handoff can fail mid-switch. The stall is paid
  // (the regulator did attempt the transition) but the domain stays at its
  // old operating point; the policy sees the fault via regulator_faults().
  if (faults_ != nullptr && faults_->fail_mode_switch()) {
    ++regulator_faults_;
    stall_until_ = now + regulator_->switch_penalty_ticks(mode);
    next_edge_ = now + period();
    return;
  }
  ++mode_switches_;
  stall_until_ = now + regulator_->switch_penalty_ticks(mode);
  mode_ = mode;
  next_edge_ = now + period();
}

void Router::apply_droop(Tick now, Tick recovery_stall) {
  DOZZ_REQUIRE(state_ == RouterState::kActive);
  account_until(now);
  ++regulator_faults_;
  // A droop below the retention margin is only guaranteed recoverable at
  // the nominal point: snap the domain there and stall until the LDO
  // settles (kNominalMode needs no switch stall of its own — the rail mux
  // is already hauling the output up past every lower mode).
  mode_ = kNominalMode;
  if (now + recovery_stall > stall_until_)
    stall_until_ = now + recovery_stall;
  next_edge_ = now + period();
}

double Router::epoch_ibu() const { return epoch_peak_ibu_; }

double Router::epoch_mean_ibu() const {
  return counter_ratio(epoch_occ_, epoch_cap_);
}

void Router::reset_epoch_window() {
  epoch_occ_ = 0;
  epoch_cap_ = 0;
  epoch_peak_ibu_ = 0.0;
  zero_counters(ep_port_occ_, ep_port_peak_, ep_port_arrivals_,
                ep_port_departures_);
  ep_edges_ = 0;
  ep_idle_edges_ = 0;
  ep_injected_ = 0;
  ep_ejected_ = 0;
  ep_secures_ = 0;
  ep_raw_peak_ibu_ = 0.0;
}

void Router::epoch_counters_into(EpochCounters* out) const {
  EpochCounters& c = *out;
  const auto ports = static_cast<std::size_t>(ports_);
  c.port_occ_mean.resize(ports);
  c.port_occ_peak.resize(ports);
  c.port_arrivals.resize(ports);
  c.port_departures.resize(ports);
  for (std::size_t p = 0; p < ports; ++p) {
    c.port_occ_mean[p] = counter_ratio(ep_port_occ_[p], ep_edges_);
    c.port_occ_peak[p] = static_cast<double>(ep_port_peak_[p]);
    c.port_arrivals[p] = static_cast<double>(ep_port_arrivals_[p]);
    c.port_departures[p] = static_cast<double>(ep_port_departures_[p]);
  }
  c.idle_fraction = counter_ratio(ep_idle_edges_, ep_edges_, /*empty=*/1.0);
  c.edges = static_cast<double>(ep_edges_);
  c.injected = static_cast<double>(ep_injected_);
  c.ejected = static_cast<double>(ep_ejected_);
  c.secures = static_cast<double>(ep_secures_);
  c.raw_peak_ibu = ep_raw_peak_ibu_;
}

double Router::lifetime_ibu() const {
  return counter_ratio(life_occ_, life_cap_);
}

std::vector<TimedFlit> Router::in_flight_flits(int port) const {
  DOZZ_REQUIRE(port >= 0 && port < num_ports());
  struct Entry {
    std::uint64_t seq;
    TimedFlit flit;
  };
  std::vector<Entry> entries;
  for (int v = 0; v < vcs_per_port_; ++v) {
    const VirtualChannel& vc = vcs_[static_cast<std::size_t>(
        slot_index(port, v))];
    for (int i = 0; i < vc.in_flight(); ++i)
      entries.push_back({vc.in_flight_record(i).seq,
                         {vc.in_flight_record(i).arrival, v,
                          vc.in_flight_flit(i)}});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  std::vector<TimedFlit> flits;
  flits.reserve(entries.size());
  for (const Entry& e : entries) flits.push_back(e.flit);
  return flits;
}

template <typename Io>
void Router::walk_state(Io& io) {
  io.tag("RTR0");
  auto state = static_cast<std::uint8_t>(state_);
  io.u8(state);
  if constexpr (Io::kLoading) {
    if (state > static_cast<std::uint8_t>(RouterState::kActive))
      io.fail("invalid router state");
    state_ = static_cast<RouterState>(state);
  }
  auto mode = static_cast<std::uint8_t>(mode_);
  io.u8(mode);
  if constexpr (Io::kLoading) {
    if (mode >= kNumVfModes) io.fail("invalid V/F mode");
    mode_ = static_cast<VfMode>(mode);
  }
  io.u64(next_edge_);
  io.u64(stall_until_);
  io.u64(wake_done_);
  io.u64(off_since_);
  io.u64(last_secured_);
  io.boolean(ever_secured_);
  io.i32(idle_cycles_);
  io.i64(inbound_inflight_);

  ckpt::walk(io, accountant_);
  io.u64(last_account_);
  for (Tick& t : active_mode_ticks_) io.u64(t);

  io.u64(gatings_);
  io.u64(wakeups_);
  io.u64(premature_wakeups_);
  io.u64(mode_switches_);

  io.u64(stuck_until_);
  io.u64(wake_faults_);
  io.u64(regulator_faults_);

  io.i32(buffered_flits_);
  io.i64(pending_credits_);

  io.u64(epoch_occ_);
  io.u64(epoch_cap_);
  io.f64(epoch_peak_ibu_);
  io.f64(util_ema_);
  io.u64(life_occ_);
  io.u64(life_cap_);

  const auto port_count = static_cast<std::uint32_t>(ports_);
  const auto vc_count = static_cast<std::uint32_t>(vcs_per_port_);
  io.check(port_count, "per-port counter size mismatch");
  for (std::uint64_t& v : ep_port_occ_) io.u64(v);
  io.check(port_count, "per-port counter size mismatch");
  for (int& v : ep_port_peak_) io.i32(v);
  io.check(port_count, "per-port counter size mismatch");
  for (std::uint64_t& v : ep_port_arrivals_) io.u64(v);
  io.check(port_count, "per-port counter size mismatch");
  for (std::uint64_t& v : ep_port_departures_) io.u64(v);
  io.u64(ep_edges_);
  io.u64(ep_idle_edges_);
  io.u64(ep_injected_);
  io.u64(ep_ejected_);
  io.u64(ep_secures_);
  io.f64(ep_raw_peak_ibu_);

  // Input buffers: per port, per VC, the visible flits plus wormhole
  // allocation. A restore drops each VC's in-flight tail; RCHN re-delivers
  // it.
  io.tag("RBUF");
  io.check(port_count, "input port count mismatch");
  std::vector<Flit> flits;  // one VC's visible flits, reused across VCs
  for (int p = 0; p < ports_; ++p) {
    io.check(vc_count, "VC count mismatch");
    for (int v = 0; v < vcs_per_port_; ++v) {
      VirtualChannel& vc = vc_at(slot_index(p, v));
      flits.clear();
      for (int i = 0; i < vc.occupancy(); ++i) flits.push_back(vc.flit(i));
      bool allocated = vc.allocated();
      int out_port = vc.out_port();
      int out_vc = vc.out_vc();
      io.seq(flits, [&io](auto& f) { ckpt::walk(io, f); });
      io.boolean(allocated);
      io.i32(out_port);
      io.i32(out_vc);
      if constexpr (Io::kLoading)
        vc.restore(flits, allocated, out_port, out_vc);
    }
  }

  // In-flight flits and credits maturing on the links. A restore
  // re-delivers each port's flits in their send order: every VC tail then
  // holds them behind its visible flits, as before the save.
  io.tag("RCHN");
  io.check(port_count, "flit channel count mismatch");
  if constexpr (Io::kLoading) in_flight_slots_ = 0;
  for (int p = 0; p < ports_; ++p) {
    std::vector<TimedFlit> in_flight = in_flight_flits(p);
    if constexpr (Io::kLoading)
      links_[static_cast<std::size_t>(p)] = InputLink{};
    io.seq(in_flight, [&io, this, p](auto& t) {
      ckpt::walk(io, t);
      if constexpr (Io::kLoading) {
        if (t.vc < 0 || t.vc >= vcs_per_port_) io.fail("in-flight flit VC");
        if (vc_at(slot_index(p, t.vc)).full())
          io.fail("in-flight flits overflow their VC");
        enqueue_in_flight(p, t.vc, t.arrival, t.flit);
      }
    });
  }
  io.check(port_count, "credit channel count mismatch");
  if constexpr (Io::kLoading) credit_ports_ = 0;
  std::vector<TimedCredit> credits;  // one output's, reused across outputs
  for (int p = 0; p < ports_; ++p) {
    CreditChannel& returning = outputs_[static_cast<std::size_t>(p)].returning;
    credits.clear();
    for (const TimedCredit& t : returning.entries()) credits.push_back(t);
    io.seq(credits, [&io](auto& t) { ckpt::walk(io, t); });
    if constexpr (Io::kLoading) {
      returning.clear();
      for (const TimedCredit& t : credits) returning.push(t);
      if (!returning.empty()) credit_ports_ |= std::uint64_t{1} << p;
    }
  }

  // Output-side allocation state.
  io.tag("ROUT");
  io.check(port_count, "output port count mismatch");
  for (auto& out : outputs_) {
    io.check(vc_count, "output VC count mismatch");
    for (int v = 0; v < vcs_per_port_; ++v)
      io.i32(out.credits[static_cast<std::size_t>(v)]);
    for (int v = 0; v < vcs_per_port_; ++v)
      io.u8(out.vc_busy[static_cast<std::size_t>(v)]);
    io.i32(out.last_grant);
  }

  // The hot-path bitmasks and per-port counts are derived state: a restore
  // rebuilds them from the restored buffers instead of serializing them
  // (keeps the checkpoint format unchanged).
  if constexpr (Io::kLoading) {
    occ_mask_ = 0;
    for (auto& out : outputs_) out.req_mask = 0;
    for (int s = 0; s < slots_; ++s) {
      const VirtualChannel& vc = vc_at(s);
      const std::uint64_t bit = std::uint64_t{1} << s;
      if (!vc.empty()) occ_mask_ |= bit;
      links_[slot_port_[static_cast<std::size_t>(s)]].buffered +=
          vc.occupancy();
      if (vc.allocated())
        outputs_[static_cast<std::size_t>(vc.out_port())].req_mask |= bit;
    }
  }
}

template void Router::walk_state(CkptWriter& io);
template void Router::walk_state(CkptReader& io);

void Router::save_state(CkptWriter& w) const {
  // The walk takes the router mutably so one body serves both directions;
  // a CkptWriter only reads the fields it is handed.
  const_cast<Router*>(this)->walk_state(w);
}

}  // namespace dozz
