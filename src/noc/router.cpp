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

Router::EpochCounters Router::epoch_counters() const {
  EpochCounters c;
  epoch_counters_into(&c);
  return c;
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

void Router::save_state(CkptWriter& w) const {
  w.tag("RTR0");
  w.u8(static_cast<std::uint8_t>(state_));
  w.u8(static_cast<std::uint8_t>(mode_));
  w.u64(next_edge_);
  w.u64(stall_until_);
  w.u64(wake_done_);
  w.u64(off_since_);
  w.u64(last_secured_);
  w.boolean(ever_secured_);
  w.i32(idle_cycles_);
  w.i64(inbound_inflight_);

  ckpt::save_energy_accountant(w, accountant_);
  w.u64(last_account_);
  for (Tick t : active_mode_ticks_) w.u64(t);

  w.u64(gatings_);
  w.u64(wakeups_);
  w.u64(premature_wakeups_);
  w.u64(mode_switches_);

  w.u64(stuck_until_);
  w.u64(wake_faults_);
  w.u64(regulator_faults_);

  w.i32(buffered_flits_);
  w.i64(pending_credits_);

  w.u64(epoch_occ_);
  w.u64(epoch_cap_);
  w.f64(epoch_peak_ibu_);
  w.f64(util_ema_);
  w.u64(life_occ_);
  w.u64(life_cap_);

  w.u32(static_cast<std::uint32_t>(ep_port_occ_.size()));
  for (std::uint64_t v : ep_port_occ_) w.u64(v);
  w.u32(static_cast<std::uint32_t>(ep_port_peak_.size()));
  for (int v : ep_port_peak_) w.i32(v);
  w.u32(static_cast<std::uint32_t>(ep_port_arrivals_.size()));
  for (std::uint64_t v : ep_port_arrivals_) w.u64(v);
  w.u32(static_cast<std::uint32_t>(ep_port_departures_.size()));
  for (std::uint64_t v : ep_port_departures_) w.u64(v);
  w.u64(ep_edges_);
  w.u64(ep_idle_edges_);
  w.u64(ep_injected_);
  w.u64(ep_ejected_);
  w.u64(ep_secures_);
  w.f64(ep_raw_peak_ibu_);

  // Input buffers: per port, per VC, the visible flits plus wormhole
  // allocation.
  w.tag("RBUF");
  w.u32(static_cast<std::uint32_t>(ports_));
  for (int p = 0; p < ports_; ++p) {
    w.u32(static_cast<std::uint32_t>(vcs_per_port_));
    for (int v = 0; v < vcs_per_port_; ++v) {
      const VirtualChannel& vc = vcs_[static_cast<std::size_t>(
          slot_index(p, v))];
      w.u32(static_cast<std::uint32_t>(vc.occupancy()));
      for (int i = 0; i < vc.occupancy(); ++i) ckpt::save_flit(w, vc.flit(i));
      w.boolean(vc.allocated());
      w.i32(vc.out_port());
      w.i32(vc.out_vc());
    }
  }

  // In-flight flits and credits maturing on the links.
  w.tag("RCHN");
  w.u32(static_cast<std::uint32_t>(ports_));
  for (int p = 0; p < ports_; ++p) {
    const std::vector<TimedFlit> flits = in_flight_flits(p);
    w.u32(static_cast<std::uint32_t>(flits.size()));
    for (const TimedFlit& t : flits) ckpt::save_timed_flit(w, t);
  }
  w.u32(static_cast<std::uint32_t>(ports_));
  for (const auto& out : outputs_) {
    w.u32(static_cast<std::uint32_t>(out.returning.size()));
    for (const TimedCredit& t : out.returning.entries())
      ckpt::save_timed_credit(w, t);
  }

  // Output-side allocation state.
  w.tag("ROUT");
  w.u32(static_cast<std::uint32_t>(ports_));
  for (const auto& out : outputs_) {
    w.u32(static_cast<std::uint32_t>(vcs_per_port_));
    for (int v = 0; v < vcs_per_port_; ++v)
      w.i32(out.credits[static_cast<std::size_t>(v)]);
    for (int v = 0; v < vcs_per_port_; ++v)
      w.u8(out.vc_busy[static_cast<std::size_t>(v)]);
    w.i32(out.last_grant);
  }
}

void Router::load_state(CkptReader& r) {
  r.expect_tag("RTR0");
  const std::uint8_t state = r.u8();
  if (state > static_cast<std::uint8_t>(RouterState::kActive))
    r.fail("invalid router state");
  state_ = static_cast<RouterState>(state);
  const std::uint8_t mode = r.u8();
  if (mode >= kNumVfModes) r.fail("invalid V/F mode");
  mode_ = static_cast<VfMode>(mode);
  next_edge_ = r.u64();
  stall_until_ = r.u64();
  wake_done_ = r.u64();
  off_since_ = r.u64();
  last_secured_ = r.u64();
  ever_secured_ = r.boolean();
  idle_cycles_ = r.i32();
  inbound_inflight_ = r.i64();

  ckpt::load_energy_accountant(r, &accountant_);
  last_account_ = r.u64();
  for (auto& t : active_mode_ticks_) t = r.u64();

  gatings_ = r.u64();
  wakeups_ = r.u64();
  premature_wakeups_ = r.u64();
  mode_switches_ = r.u64();

  stuck_until_ = r.u64();
  wake_faults_ = r.u64();
  regulator_faults_ = r.u64();

  buffered_flits_ = r.i32();
  pending_credits_ = r.i64();

  epoch_occ_ = r.u64();
  epoch_cap_ = r.u64();
  epoch_peak_ibu_ = r.f64();
  util_ema_ = r.f64();
  life_occ_ = r.u64();
  life_cap_ = r.u64();

  const auto load_u64_vec = [&r](std::vector<std::uint64_t>* out) {
    const std::uint32_t n = r.u32();
    if (n != out->size()) r.fail("per-port counter size mismatch");
    for (auto& v : *out) v = r.u64();
  };
  load_u64_vec(&ep_port_occ_);
  {
    const std::uint32_t n = r.u32();
    if (n != ep_port_peak_.size()) r.fail("per-port counter size mismatch");
    for (auto& v : ep_port_peak_) v = r.i32();
  }
  load_u64_vec(&ep_port_arrivals_);
  load_u64_vec(&ep_port_departures_);
  ep_edges_ = r.u64();
  ep_idle_edges_ = r.u64();
  ep_injected_ = r.u64();
  ep_ejected_ = r.u64();
  ep_secures_ = r.u64();
  ep_raw_peak_ibu_ = r.f64();

  r.expect_tag("RBUF");
  if (r.u32() != static_cast<std::uint32_t>(ports_))
    r.fail("input port count mismatch");
  for (int p = 0; p < ports_; ++p) {
    if (r.u32() != static_cast<std::uint32_t>(vcs_per_port_))
      r.fail("VC count mismatch");
    for (int v = 0; v < vcs_per_port_; ++v) {
      const std::uint32_t flits = r.u32();
      std::vector<Flit> queue;
      queue.reserve(flits);
      for (std::uint32_t i = 0; i < flits; ++i)
        queue.push_back(ckpt::load_flit(r));
      const bool allocated = r.boolean();
      const int out_port = r.i32();
      const int out_vc = r.i32();
      vc_at(slot_index(p, v)).restore(queue, allocated, out_port, out_vc);
    }
  }

  // Re-deliver each port's in-flight flits in their send order: every VC
  // tail then holds them behind its visible flits, as before the save.
  r.expect_tag("RCHN");
  if (r.u32() != static_cast<std::uint32_t>(ports_))
    r.fail("flit channel count mismatch");
  in_flight_slots_ = 0;
  for (int p = 0; p < ports_; ++p) {
    links_[static_cast<std::size_t>(p)] = InputLink{};
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const TimedFlit t = ckpt::load_timed_flit(r);
      if (t.vc < 0 || t.vc >= vcs_per_port_) r.fail("in-flight flit VC");
      if (vc_at(slot_index(p, t.vc)).full())
        r.fail("in-flight flits overflow their VC");
      enqueue_in_flight(p, t.vc, t.arrival, t.flit);
    }
  }
  if (r.u32() != static_cast<std::uint32_t>(ports_))
    r.fail("credit channel count mismatch");
  credit_ports_ = 0;
  for (int p = 0; p < ports_; ++p) {
    auto& ch = outputs_[static_cast<std::size_t>(p)].returning;
    ch.clear();
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) ch.push(ckpt::load_timed_credit(r));
    if (!ch.empty()) credit_ports_ |= std::uint64_t{1} << p;
  }

  r.expect_tag("ROUT");
  if (r.u32() != static_cast<std::uint32_t>(ports_))
    r.fail("output port count mismatch");
  for (auto& out : outputs_) {
    if (r.u32() != static_cast<std::uint32_t>(vcs_per_port_))
      r.fail("output VC count mismatch");
    for (int v = 0; v < vcs_per_port_; ++v)
      out.credits[static_cast<std::size_t>(v)] = r.i32();
    for (int v = 0; v < vcs_per_port_; ++v)
      out.vc_busy[static_cast<std::size_t>(v)] = r.u8();
    out.last_grant = r.i32();
  }

  // The hot-path bitmasks and per-port counts are derived state: rebuild
  // them from the restored buffers instead of serializing them (keeps the
  // checkpoint format unchanged).
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

}  // namespace dozz
