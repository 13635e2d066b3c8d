#include "tests/linear_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>

#include "src/common/error.hpp"
#include "src/power/power_model.hpp"
#include "src/regulator/simo_ldo.hpp"

namespace dozz {

void LinearKernel::run(Network& net, const Trace& trace, Tick end_tick,
                       bool drain) {
  net.begin_run(trace, end_tick, drain);
  net.finish_run(loop(net, trace, end_tick, drain));
}

Tick LinearKernel::next_event_after(const Network& net, Tick trace_next) {
  Tick t = trace_next;
  for (const auto& r : net.routers_) t = std::min(t, r.next_edge());
  for (const auto& n : net.nics_) t = std::min(t, n.next_response_tick());
  return t;
}

Tick LinearKernel::loop(Network& net, const Trace& trace, Tick end_tick,
                        bool drain) {
  SimContext& ctx = net.ctx_;
  const auto& entries = trace.entries();

  auto drained = [&]() {
    if (net.trace_cursor_ < entries.size()) return false;
    if (ctx.metrics.packets_delivered + net.terminal_failures() !=
        ctx.metrics.packets_offered)
      return false;
    for (const auto& n : net.nics_)
      if (n.has_backlog() || n.next_response_tick() != kInfTick) return false;
    return true;
  };

  while (true) {
    if (drain && drained()) break;
    const Tick trace_next = net.trace_cursor_ < entries.size()
                                ? entries[net.trace_cursor_].inject_tick()
                                : kInfTick;
    Tick t = std::min(next_event_after(net, trace_next), net.next_epoch_);
    if (t >= end_tick) break;
    DOZZ_ASSERT(t >= ctx.now);
    ctx.now = t;
    net.last_event_ = t;
    ++net.kernel_events_;

    // 1. Matured trace entries become pending packets at their source NI.
    net.inject_matured();

    // 2. Matured responses.
    for (auto& n : net.nics_)
      if (n.next_response_tick() <= ctx.now) net.mature_nic(n, ctx.now);

    // 3. Epoch boundary: feature capture and DVFS mode selection, on
    // folded counts as in the product's engines.
    bool at_epoch = false;
    if (ctx.now == net.next_epoch_) {
      net.fold_tallies();
      net.process_epoch(ctx.now);
      net.next_epoch_ += ctx.config.epoch_ticks();
      at_epoch = true;
    }

    // 4. Clock edges, in router-id order for determinism.
    for (std::size_t i = 0; i < net.routers_.size(); ++i) {
      if (net.routers_[i].next_edge() > ctx.now) continue;
      net.step_router(static_cast<RouterId>(i), net, ctx.now);
      ++net.edge_steps_;
    }
    net.fold_tallies();

    // Epoch hook, fired only after the boundary iteration completed its
    // clock edges, as in the product's engines.
    if (at_epoch && ctx.epoch_hook &&
        !ctx.epoch_hook(net, ctx.now, net.epochs_processed_)) {
      net.interrupted_ = true;
      break;
    }
  }
  return net.last_event_;
}

void drive(Network& net, const SimSetup& setup, const Trace& trace,
           bool linear) {
  const bool drain = setup.run_to_drain;
  const Tick end = drain ? setup.max_drain_tick() : setup.end_tick();
  if (linear)
    LinearKernel::run(net, trace, end, drain);
  else if (drain)
    net.run_until_drained(trace, end);
  else
    net.run(trace, end);
}

RunOutcome run_simulation_on(bool linear, const SimSetup& setup,
                             PowerController& policy, const Trace& trace,
                             bool collect_epoch_log,
                             bool collect_extended_log) {
  if (!linear)
    return run_simulation(setup, policy, trace, collect_epoch_log,
                          collect_extended_log);
  const Topology topo = setup.make_topology();
  NocConfig config = setup.noc;
  if (collect_epoch_log) config.collect_epoch_log = true;
  if (collect_extended_log) config.collect_extended_log = true;
  const PowerModel power;
  SimoLdoRegulator regulator;
  Network net(topo, config, policy, power, regulator);
  drive(net, setup, trace, /*linear=*/true);
  RunOutcome outcome;
  outcome.policy = policy.name();
  outcome.trace = trace.name();
  outcome.metrics = net.metrics();
  outcome.epoch_log = net.epoch_log();
  outcome.extended_log = net.extended_log();
  outcome.interrupted = net.interrupted();
  return outcome;
}

std::string sanitize(std::string name) {
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

WeightVector passthrough_weights() {
  WeightVector w;
  w.feature_names = EpochFeatures::names();
  w.weights = {0.0, 0.0, 0.0, 0.0, 1.0};
  return w;
}

void expect_stat_identical(const RunningStat& a, const RunningStat& b,
                           const char* label) {
  EXPECT_EQ(a.count(), b.count()) << label;
  EXPECT_EQ(a.mean(), b.mean()) << label;
  EXPECT_EQ(a.variance(), b.variance()) << label;
  EXPECT_EQ(a.min(), b.min()) << label;
  EXPECT_EQ(a.max(), b.max()) << label;
}

void expect_metrics_identical(const NetworkMetrics& a,
                              const NetworkMetrics& b) {
  EXPECT_EQ(a.packets_offered, b.packets_offered);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.requests_delivered, b.requests_delivered);
  EXPECT_EQ(a.responses_delivered, b.responses_delivered);
  expect_stat_identical(a.packet_latency_ns, b.packet_latency_ns,
                        "packet_latency_ns");
  expect_stat_identical(a.network_latency_ns, b.network_latency_ns,
                        "network_latency_ns");
  expect_stat_identical(a.packet_hops, b.packet_hops, "packet_hops");
  EXPECT_EQ(a.sim_ticks, b.sim_ticks);
  EXPECT_EQ(a.static_energy_j, b.static_energy_j);
  EXPECT_EQ(a.dynamic_energy_j, b.dynamic_energy_j);
  EXPECT_EQ(a.ml_energy_j, b.ml_energy_j);
  EXPECT_EQ(a.wall_static_energy_j, b.wall_static_energy_j);
  EXPECT_EQ(a.wall_dynamic_energy_j, b.wall_dynamic_energy_j);
  EXPECT_EQ(a.gatings, b.gatings);
  EXPECT_EQ(a.wakeups, b.wakeups);
  EXPECT_EQ(a.premature_wakeups, b.premature_wakeups);
  EXPECT_EQ(a.mode_switches, b.mode_switches);
  EXPECT_EQ(a.labels_computed, b.labels_computed);
  for (std::size_t i = 0; i < a.state_fractions.size(); ++i)
    EXPECT_EQ(a.state_fractions[i], b.state_fractions[i]) << "state " << i;
  for (std::size_t i = 0; i < a.epoch_mode_counts.size(); ++i)
    EXPECT_EQ(a.epoch_mode_counts[i], b.epoch_mode_counts[i]) << "mode " << i;
  EXPECT_EQ(a.avg_ibu, b.avg_ibu);
  EXPECT_EQ(a.off_time_fraction, b.off_time_fraction);
  EXPECT_EQ(a.latency_p50_ns, b.latency_p50_ns);
  EXPECT_EQ(a.latency_p95_ns, b.latency_p95_ns);
  EXPECT_EQ(a.latency_p99_ns, b.latency_p99_ns);
  EXPECT_EQ(a.faults.flits_corrupted, b.faults.flits_corrupted);
  EXPECT_EQ(a.faults.wakes_dropped, b.faults.wakes_dropped);
  EXPECT_EQ(a.faults.wakes_refused_stuck, b.faults.wakes_refused_stuck);
  EXPECT_EQ(a.faults.wakes_delayed, b.faults.wakes_delayed);
  EXPECT_EQ(a.faults.stuck_gatings, b.faults.stuck_gatings);
  EXPECT_EQ(a.faults.mode_switch_failures, b.faults.mode_switch_failures);
  EXPECT_EQ(a.faults.droops, b.faults.droops);
  EXPECT_EQ(a.faults.packets_corrupted, b.faults.packets_corrupted);
  EXPECT_EQ(a.faults.retransmissions, b.faults.retransmissions);
  EXPECT_EQ(a.faults.packets_lost, b.faults.packets_lost);
  EXPECT_EQ(a.faults.routers_gating_degraded,
            b.faults.routers_gating_degraded);
  EXPECT_EQ(a.faults.routers_pinned_nominal, b.faults.routers_pinned_nominal);
}

void expect_epoch_logs_identical(
    const std::vector<std::vector<EpochFeatures>>& a,
    const std::vector<std::vector<EpochFeatures>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    ASSERT_EQ(a[e].size(), b[e].size()) << "epoch " << e;
    for (std::size_t r = 0; r < a[e].size(); ++r) {
      EXPECT_EQ(a[e][r].bias, b[e][r].bias);
      EXPECT_EQ(a[e][r].reqs_sent, b[e][r].reqs_sent) << e << "/" << r;
      EXPECT_EQ(a[e][r].reqs_received, b[e][r].reqs_received) << e << "/" << r;
      EXPECT_EQ(a[e][r].total_off_kcycles, b[e][r].total_off_kcycles)
          << e << "/" << r;
      EXPECT_EQ(a[e][r].current_ibu, b[e][r].current_ibu) << e << "/" << r;
    }
  }
}

}  // namespace dozz
