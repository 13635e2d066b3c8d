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
  const int ports = topo.ports_per_router();
  DOZZ_REQUIRE(ports * config.vcs_per_port <= kMaxRouterSlots);
  inputs_.reserve(static_cast<std::size_t>(ports));
  flit_in_.resize(static_cast<std::size_t>(ports));
  credit_in_.resize(static_cast<std::size_t>(ports));
  outputs_.resize(static_cast<std::size_t>(ports));
  // Credit flow control bounds a link's in-flight flits (and the credits
  // returning for them) by the receiving port's total buffer capacity, so
  // the channel rings can be sized once here and never regrow.
  const std::size_t inflight = static_cast<std::size_t>(config.vcs_per_port) *
                               static_cast<std::size_t>(
                                   config.buffer_depth_flits);
  for (int p = 0; p < ports; ++p) {
    inputs_.emplace_back(config.vcs_per_port, config.buffer_depth_flits);
    flit_in_[static_cast<std::size_t>(p)].reserve(inflight);
    credit_in_[static_cast<std::size_t>(p)].reserve(inflight);
    auto& out = outputs_[static_cast<std::size_t>(p)];
    out.credits.assign(static_cast<std::size_t>(config.vcs_per_port),
                       config.buffer_depth_flits);
    out.vc_busy.assign(static_cast<std::size_t>(config.vcs_per_port), 0);
  }
  for (int d = 0; d < kNumDirections; ++d) {
    const auto nb = topo.neighbor(id, static_cast<Direction>(d));
    neighbor_[static_cast<std::size_t>(d)] = nb.value_or(-1);
  }
  ep_port_occ_.assign(static_cast<std::size_t>(ports), 0);
  ep_port_peak_.assign(static_cast<std::size_t>(ports), 0);
  ep_port_arrivals_.assign(static_cast<std::size_t>(ports), 0);
  ep_port_departures_.assign(static_cast<std::size_t>(ports), 0);
  for (const auto& in : inputs_) total_capacity_ += in.total_capacity();
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

FlitChannel& Router::flit_in(int port) {
  DOZZ_REQUIRE(port >= 0 && port < num_ports());
  return flit_in_[static_cast<std::size_t>(port)];
}

CreditChannel& Router::credit_in(int port) {
  DOZZ_REQUIRE(port >= 0 && port < num_ports());
  return credit_in_[static_cast<std::size_t>(port)];
}

void Router::account_until(Tick now) {
  if (now <= last_account_) return;
  const Tick duration = now - last_account_;
  switch (state_) {
    case RouterState::kInactive:
      accountant_.add_state_time(PowerState::kInactive, mode_, duration);
      break;
    case RouterState::kWakeup:
      accountant_.add_state_time(PowerState::kWakeup, mode_, duration);
      break;
    case RouterState::kActive:
      accountant_.add_state_time(PowerState::kActive, mode_, duration);
      active_mode_ticks_[static_cast<std::size_t>(mode_index(mode_))] +=
          duration;
      break;
  }
  last_account_ = now;
}

void Router::pre_step(Tick now) {
  if (state_ == RouterState::kWakeup && now >= wake_done_) {
    account_until(now);
    state_ = RouterState::kActive;
    idle_cycles_ = 0;
  }
  if (state_ != RouterState::kActive) return;
  if (pending_credits_ != 0) drain_credits(now);
  if (inbound_inflight_ != 0) drain_flits(now);
}

void Router::drain_credits(Tick now) {
  for (int p = 0; p < num_ports(); ++p) {
    auto& ch = credit_in_[static_cast<std::size_t>(p)];
    while (ch.ready(now)) {
      const TimedCredit c = ch.pop();
      --pending_credits_;
      DOZZ_ASSERT(pending_credits_ >= 0);
      DOZZ_ASSERT(c.port == p);
      auto& out = outputs_[static_cast<std::size_t>(p)];
      DOZZ_ASSERT(c.vc >= 0 && c.vc < static_cast<int>(out.credits.size()));
      ++out.credits[static_cast<std::size_t>(c.vc)];
      DOZZ_ASSERT(out.credits[static_cast<std::size_t>(c.vc)] <=
                  config_->buffer_depth_flits);
    }
  }
}

void Router::drain_flits(Tick now) {
  for (int p = 0; p < num_ports(); ++p) {
    auto& ch = flit_in_[static_cast<std::size_t>(p)];
    while (ch.ready(now)) {
      TimedFlit tf = ch.pop();
      auto& vc = inputs_[static_cast<std::size_t>(p)].vc(tf.vc);
      DOZZ_ASSERT(!vc.full());
      tf.flit.eligible_tick =
          now + static_cast<Tick>(config_->pipeline_stages) * period();
      vc.push(tf.flit);
      occ_mask_ |= std::uint64_t{1} << slot_index(p, tf.vc);
      ++buffered_flits_;
      ++ep_port_arrivals_[static_cast<std::size_t>(p)];
      --inbound_inflight_;
      DOZZ_ASSERT(inbound_inflight_ >= 0);
    }
  }
}

int Router::compute_output_port(const Flit& flit) const {
  if (flit.dst_router == id_)
    return topo_->local_port(topo_->local_slot_of_core(flit.dst_core));
  const std::uint8_t d = routes_->dir(id_, flit.dst_router);
  DOZZ_ASSERT(d != FlatRouteTable::kEject);
  return static_cast<int>(d);
}

void Router::route_and_allocate(Tick now, RouterEnvironment& env) {
  // Visit only the non-empty VCs, in ascending slot order: port-major
  // (p, then v).
  const int vcs = config_->vcs_per_port;
  for (std::uint64_t m = occ_mask_; m != 0; m &= m - 1) {
    const int slot = std::countr_zero(m);
    route_vc(slot / vcs, slot % vcs, now, env);
  }
}

void Router::route_vc(int p, int v, Tick now, RouterEnvironment& env) {
  auto& vc = inputs_[static_cast<std::size_t>(p)].vc(v);
  const Flit& front = vc.front();
  if (!vc.allocated()) {
    if (!front.is_head || now < front.eligible_tick) return;
    const int out_port = compute_output_port(front);
    if (is_local_port(out_port)) {
      vc.allocate(out_port, 0);
      outputs_[static_cast<std::size_t>(out_port)].req_mask |=
          std::uint64_t{1} << slot_index(p, v);
    } else {
      // VC allocation: claim a free downstream VC on the chosen
      // output, restricted to the packet's dateline class on a torus.
      // The class resets when the packet turns into a new dimension
      // (X and Y channel sets are disjoint resources) and moves to the
      // escape class on the wraparound (dateline) channel itself.
      const int classes = std::max(1, config_->vc_classes);
      int cls = 0;
      if (classes > 1) {
        const auto out_dir = static_cast<Direction>(out_port);
        int base = 0;
        if (!is_local_port(p) &&
            same_dimension(static_cast<Direction>(p), out_dir))
          base = front.vc_class;
        cls = topo_->is_wrap_link(id_, out_dir) ? 1 : base;
        if (cls >= classes) cls = classes - 1;
      }
      const int per_class = config_->vcs_per_port / classes;
      auto& out = outputs_[static_cast<std::size_t>(out_port)];
      int claimed = -1;
      for (int ov = cls * per_class; ov < (cls + 1) * per_class; ++ov) {
        if (!out.vc_busy[static_cast<std::size_t>(ov)]) {
          claimed = ov;
          break;
        }
      }
      if (claimed < 0) return;  // retry next cycle
      out.vc_busy[static_cast<std::size_t>(claimed)] = 1;
      vc.allocate(out_port, claimed);
      out.req_mask |= std::uint64_t{1} << slot_index(p, v);
      // Power Punch: the moment a packet commits to an output, wake the
      // router after the next one on its path (hides T-Wakeup).
      if (config_->lookahead_punch) {
        const RouterId ds = neighbor_[static_cast<std::size_t>(out_port)];
        DOZZ_ASSERT(ds >= 0);
        env.punch_ahead(ds, front.dst_router, now);
      }
    }
  }
  // Every buffered packet with a network output pins its downstream
  // router on (the "not a downstream router" gating condition).
  if (vc.allocated() && !is_local_port(vc.out_port())) {
    const RouterId ds = neighbor_[static_cast<std::size_t>(vc.out_port())];
    DOZZ_ASSERT(ds >= 0);
    env.secure(ds, now);
  }
}

void Router::switch_allocate(Tick now, RouterEnvironment& env) {
  const int vcs = config_->vcs_per_port;
  const int slots = num_ports() * vcs;
  // Slots on input ports not yet granted this edge (the crossbar serves at
  // most one flit per input port per cycle). Bits at or above `slots` are
  // never set in any req_mask, so they can stay set here.
  std::uint64_t free_slots = ~std::uint64_t{0};

  for (int out_port = 0; out_port < num_ports(); ++out_port) {
    auto& out = outputs_[static_cast<std::size_t>(out_port)];
    const bool local_out = is_local_port(out_port);
    RouterId ds = -1;
    if (!local_out) {
      ds = neighbor_[static_cast<std::size_t>(out_port)];
      if (ds < 0) continue;                         // mesh edge: no link
      if (!env.downstream_can_accept(ds)) continue;  // gated or waking
    }

    // Round-robin over the (input port, vc) slots holding an allocation
    // for this output: bits at or after last_grant+1 first, then wrap to
    // the low bits.
    int granted = -1;
    std::uint64_t cand = out.req_mask & free_slots;
    const int start = (out.last_grant + 1) % slots;
    while (cand != 0) {
      const std::uint64_t ge = cand >> start;
      const int slot =
          ge != 0 ? start + std::countr_zero(ge) : std::countr_zero(cand);
      auto& vc = inputs_[static_cast<std::size_t>(slot / vcs)].vc(slot % vcs);
      if (!vc.empty() && now >= vc.front().eligible_tick &&
          (local_out ||
           out.credits[static_cast<std::size_t>(vc.out_vc())] > 0)) {
        granted = slot;
        break;
      }
      cand &= ~(std::uint64_t{1} << slot);
    }
    if (granted < 0) continue;

    out.last_grant = granted;
    const int in_port = granted / vcs;
    const int in_vc = granted % vcs;
    free_slots &= ~(((std::uint64_t{1} << vcs) - 1) << (in_port * vcs));
    auto& vc = inputs_[static_cast<std::size_t>(in_port)].vc(in_vc);
    const int out_vc = vc.out_vc();
    Flit flit = vc.pop();
    --buffered_flits_;
    DOZZ_ASSERT(buffered_flits_ >= 0);
    if (vc.empty()) occ_mask_ &= ~(std::uint64_t{1} << granted);
    if (flit.is_tail) {
      if (!local_out) out.vc_busy[static_cast<std::size_t>(out_vc)] = 0;
      vc.release();
      out.req_mask &= ~(std::uint64_t{1} << granted);
    }

    // Credit back to the upstream router for the slot just freed.
    if (!is_local_port(in_port)) {
      const RouterId up = neighbor_[static_cast<std::size_t>(in_port)];
      DOZZ_ASSERT(up >= 0);
      env.send_credit(up, static_cast<int>(opposite(static_cast<Direction>(
                              in_port))),
                      in_vc, now + period());
    }

    // Crossbar + link traversal energy (Table V is per router+link hop).
    accountant_.add_hop(mode_);
    ++flit.hops;
    ++ep_port_departures_[static_cast<std::size_t>(out_port)];

    if (local_out) {
      ++ep_ejected_;
      env.eject(id_, flit, now);
    } else {
      // The flit now carries the class of the channel it traverses, so the
      // downstream router allocates within the right dateline class.
      if (config_->vc_classes > 1) {
        flit.vc_class = static_cast<std::uint8_t>(
            out_vc / (config_->vcs_per_port / config_->vc_classes));
      }
      --out.credits[static_cast<std::size_t>(out_vc)];
      const Tick arrival =
          now + static_cast<Tick>(config_->link_latency_cycles) * period();
      const int ds_port = static_cast<int>(
          opposite(static_cast<Direction>(out_port)));
      env.deliver(ds, ds_port, out_vc, arrival, flit);
    }
  }
}

void Router::pipeline_step(Tick now, RouterEnvironment& env) {
  if (state_ != RouterState::kActive || stalled(now)) return;
  // With no flits buffered, route_and_allocate skips every VC (empty VCs
  // never allocate or secure) and switch_allocate can grant nothing; its
  // only other touch points are pure const queries (downstream_can_accept).
  if (buffered_flits_ == 0) return;
  route_and_allocate(now, env);
  switch_allocate(now, env);
}

void Router::post_step(Tick now, bool nic_backlog) {
  if (state_ != RouterState::kActive) return;
  bool idle = !nic_backlog && inbound_inflight_ == 0;
  // The aggregate occupancy is tracked incrementally (buffered_flits_), so
  // the per-port VC scan below only feeds the per-port epoch stats and is
  // skipped outright when nothing is buffered (every per-port occupancy is
  // zero then; the EMA decay below still runs).
  const int occupancy = buffered_flits_;
  const int capacity = total_capacity_;
  if (occupancy != 0) {
    int scanned = 0;
    for (std::size_t p = 0; p < inputs_.size(); ++p) {
      const int occ = inputs_[p].total_occupancy();
      scanned += occ;
      ep_port_occ_[p] += static_cast<std::uint64_t>(occ);
      if (occ > ep_port_peak_[p]) ep_port_peak_[p] = occ;
    }
    DOZZ_ASSERT(scanned == occupancy);
  }
  ++ep_edges_;
  if (occupancy > 0) idle = false;
  idle_cycles_ = idle ? idle_cycles_ + 1 : 0;
  if (idle) ++ep_idle_edges_;
  epoch_occ_ += static_cast<std::uint64_t>(occupancy);
  epoch_cap_ += static_cast<std::uint64_t>(capacity);
  if (capacity > 0) {
    const double util =
        static_cast<double>(occupancy) / static_cast<double>(capacity);
    // Smooth over ~16 cycles: the congestion signal is *sustained* buffer
    // pressure, not a single-cycle blip from one passing packet train.
    util_ema_ += (util - util_ema_) / 16.0;
    if (util_ema_ > epoch_peak_ibu_) epoch_peak_ibu_ = util_ema_;
    if (util > ep_raw_peak_ibu_) ep_raw_peak_ibu_ = util;
  }
  life_occ_ += static_cast<std::uint64_t>(occupancy);
  life_cap_ += static_cast<std::uint64_t>(capacity);
  (void)now;
}

void Router::advance_clock(Tick now) {
  if (state_ == RouterState::kInactive) {
    next_edge_ = kInfTick;
    return;
  }
  if (state_ == RouterState::kWakeup) {
    next_edge_ = wake_done_;
    return;
  }
  next_edge_ = now + period();
}

bool Router::can_gate(Tick now) const {
  if (state_ != RouterState::kActive || stalled(now)) return false;
  if (idle_cycles_ < config_->t_idle_cycles) return false;
  if (inbound_inflight_ != 0) return false;
  if (secured(now)) return false;
  return buffered_flits_ == 0;
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
  wake_done_ = now + penalty;
  next_edge_ = wake_done_;
}

bool Router::secured(Tick now) const {
  return ever_secured_ && now - last_secured_ <= config_->secure_ttl_ticks;
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

bool Router::local_vc_has_space(int port, int vc) const {
  DOZZ_REQUIRE(is_local_port(port) && port < num_ports());
  return !inputs_[static_cast<std::size_t>(port)].vc(vc).full();
}

void Router::accept_local(int port, int vc, Flit flit, Tick now) {
  DOZZ_REQUIRE(is_local_port(port) && port < num_ports());
  DOZZ_REQUIRE(state_ == RouterState::kActive);
  auto& channel = inputs_[static_cast<std::size_t>(port)].vc(vc);
  DOZZ_ASSERT(!channel.full());
  flit.enter_tick = now;
  flit.eligible_tick =
      now + static_cast<Tick>(config_->pipeline_stages) * period();
  ++ep_injected_;
  ++ep_port_arrivals_[static_cast<std::size_t>(port)];
  ++buffered_flits_;
  occ_mask_ |= std::uint64_t{1} << slot_index(port, vc);
  channel.push(flit);
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
  const std::size_t ports = inputs_.size();
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

  // Input buffers: per port, per VC, the flit FIFO plus wormhole allocation.
  w.tag("RBUF");
  w.u32(static_cast<std::uint32_t>(inputs_.size()));
  for (const auto& port : inputs_) {
    w.u32(static_cast<std::uint32_t>(port.num_vcs()));
    for (int v = 0; v < port.num_vcs(); ++v) {
      const VirtualChannel& vc = port.vc(v);
      w.u32(static_cast<std::uint32_t>(vc.flits().size()));
      for (const Flit& f : vc.flits()) ckpt::save_flit(w, f);
      w.boolean(vc.allocated());
      w.i32(vc.out_port());
      w.i32(vc.out_vc());
    }
  }

  // In-flight channel entries (flits and credits maturing on the links).
  w.tag("RCHN");
  w.u32(static_cast<std::uint32_t>(flit_in_.size()));
  for (const auto& ch : flit_in_) {
    w.u32(static_cast<std::uint32_t>(ch.entries().size()));
    for (const TimedFlit& t : ch.entries()) ckpt::save_timed_flit(w, t);
  }
  w.u32(static_cast<std::uint32_t>(credit_in_.size()));
  for (const auto& ch : credit_in_) {
    w.u32(static_cast<std::uint32_t>(ch.entries().size()));
    for (const TimedCredit& t : ch.entries()) ckpt::save_timed_credit(w, t);
  }

  // Output-side allocation state.
  w.tag("ROUT");
  w.u32(static_cast<std::uint32_t>(outputs_.size()));
  for (const auto& out : outputs_) {
    w.u32(static_cast<std::uint32_t>(out.credits.size()));
    for (int c : out.credits) w.i32(c);
    for (char b : out.vc_busy) w.u8(static_cast<std::uint8_t>(b));
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
  if (r.u32() != inputs_.size()) r.fail("input port count mismatch");
  for (auto& port : inputs_) {
    if (r.u32() != static_cast<std::uint32_t>(port.num_vcs()))
      r.fail("VC count mismatch");
    for (int v = 0; v < port.num_vcs(); ++v) {
      const std::uint32_t flits = r.u32();
      std::vector<Flit> queue;
      queue.reserve(flits);
      for (std::uint32_t i = 0; i < flits; ++i)
        queue.push_back(ckpt::load_flit(r));
      const bool allocated = r.boolean();
      const int out_port = r.i32();
      const int out_vc = r.i32();
      port.vc(v).restore(queue, allocated, out_port, out_vc);
    }
  }

  r.expect_tag("RCHN");
  if (r.u32() != flit_in_.size()) r.fail("flit channel count mismatch");
  for (auto& ch : flit_in_) {
    ch.clear();
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) ch.push(ckpt::load_timed_flit(r));
  }
  if (r.u32() != credit_in_.size()) r.fail("credit channel count mismatch");
  for (auto& ch : credit_in_) {
    ch.clear();
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) ch.push(ckpt::load_timed_credit(r));
  }

  r.expect_tag("ROUT");
  if (r.u32() != outputs_.size()) r.fail("output port count mismatch");
  for (auto& out : outputs_) {
    if (r.u32() != out.credits.size()) r.fail("output VC count mismatch");
    for (auto& c : out.credits) c = r.i32();
    for (auto& b : out.vc_busy) b = static_cast<char>(r.u8());
    out.last_grant = r.i32();
  }

  // The hot-path bitmasks are derived state: rebuild them from the
  // restored buffers instead of serializing them (keeps the checkpoint
  // format unchanged).
  occ_mask_ = 0;
  for (auto& out : outputs_) out.req_mask = 0;
  for (int p = 0; p < num_ports(); ++p) {
    for (int v = 0; v < config_->vcs_per_port; ++v) {
      const VirtualChannel& vc = inputs_[static_cast<std::size_t>(p)].vc(v);
      const std::uint64_t bit = std::uint64_t{1} << slot_index(p, v);
      if (!vc.empty()) occ_mask_ |= bit;
      if (vc.allocated())
        outputs_[static_cast<std::size_t>(vc.out_port())].req_mask |= bit;
    }
  }
}

}  // namespace dozz
