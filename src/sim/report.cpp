#include "src/sim/report.hpp"

#include <ostream>
#include <sstream>

namespace dozz {

namespace {

void field(std::ostringstream& os, const char* name, double value,
           bool* first) {
  if (!*first) os << ',';
  *first = false;
  os << '"' << name << "\":" << value;
}

void field(std::ostringstream& os, const char* name, std::uint64_t value,
           bool* first) {
  if (!*first) os << ',';
  *first = false;
  os << '"' << name << "\":" << value;
}

}  // namespace

std::string metrics_to_json(const NetworkMetrics& m) {
  std::ostringstream os;
  os.precision(12);
  os << '{';
  bool first = true;
  field(os, "packets_offered", m.packets_offered, &first);
  field(os, "packets_delivered", m.packets_delivered, &first);
  field(os, "flits_delivered", m.flits_delivered, &first);
  field(os, "requests_delivered", m.requests_delivered, &first);
  field(os, "responses_delivered", m.responses_delivered, &first);
  field(os, "sim_ns", ns_from_ticks(m.sim_ticks), &first);
  field(os, "latency_mean_ns", m.packet_latency_ns.mean(), &first);
  field(os, "latency_p50_ns", m.latency_p50_ns, &first);
  field(os, "latency_p95_ns", m.latency_p95_ns, &first);
  field(os, "latency_p99_ns", m.latency_p99_ns, &first);
  field(os, "network_latency_mean_ns", m.network_latency_ns.mean(), &first);
  field(os, "hops_mean", m.packet_hops.mean(), &first);
  field(os, "throughput_flits_per_ns", m.throughput_flits_per_ns(), &first);
  field(os, "static_energy_j", m.static_energy_j, &first);
  field(os, "dynamic_energy_j", m.dynamic_energy_j, &first);
  field(os, "ml_energy_j", m.ml_energy_j, &first);
  field(os, "wall_static_energy_j", m.wall_static_energy_j, &first);
  field(os, "wall_dynamic_energy_j", m.wall_dynamic_energy_j, &first);
  field(os, "energy_delay_product_js", m.energy_delay_product(), &first);
  field(os, "gatings", m.gatings, &first);
  field(os, "wakeups", m.wakeups, &first);
  field(os, "premature_wakeups", m.premature_wakeups, &first);
  field(os, "mode_switches", m.mode_switches, &first);
  field(os, "labels_computed", m.labels_computed, &first);
  field(os, "off_time_fraction", m.off_time_fraction, &first);
  field(os, "avg_ibu", m.avg_ibu, &first);

  if (!first) os << ',';
  os << "\"state_fractions\":[";
  for (std::size_t i = 0; i < m.state_fractions.size(); ++i) {
    if (i > 0) os << ',';
    os << m.state_fractions[i];
  }
  os << "],\"epoch_mode_counts\":[";
  for (std::size_t i = 0; i < m.epoch_mode_counts.size(); ++i) {
    if (i > 0) os << ',';
    os << m.epoch_mode_counts[i];
  }
  os << ']';

  // Fault-injection stats only appear when something was injected, so
  // fault-free JSON output is byte-identical to pre-fault-layer builds.
  if (m.faults.total_injected() > 0) {
    const FaultStats& f = m.faults;
    bool ffirst = true;
    os << ",\"faults\":{";
    field(os, "flits_corrupted", f.flits_corrupted, &ffirst);
    field(os, "packets_corrupted", f.packets_corrupted, &ffirst);
    field(os, "retransmissions", f.retransmissions, &ffirst);
    field(os, "packets_lost", f.packets_lost, &ffirst);
    field(os, "wakes_dropped", f.wakes_dropped, &ffirst);
    field(os, "wakes_delayed", f.wakes_delayed, &ffirst);
    field(os, "wakes_refused_stuck", f.wakes_refused_stuck, &ffirst);
    field(os, "stuck_gatings", f.stuck_gatings, &ffirst);
    field(os, "mode_switch_failures", f.mode_switch_failures, &ffirst);
    field(os, "droops", f.droops, &ffirst);
    field(os, "routers_gating_degraded", f.routers_gating_degraded, &ffirst);
    field(os, "routers_pinned_nominal", f.routers_pinned_nominal, &ffirst);
    os << '}';
  }

  os << '}';
  return os.str();
}

std::string outcome_to_json(const RunOutcome& outcome) {
  std::ostringstream os;
  os << "{\"policy\":\"" << json_escape(outcome.policy) << "\",\"trace\":\""
     << json_escape(outcome.trace)
     << "\",\"metrics\":" << metrics_to_json(outcome.metrics) << '}';
  return os.str();
}

void write_text_report(std::ostream& out, const RunOutcome& o) {
  const NetworkMetrics& m = o.metrics;
  out << "policy: " << o.policy << "  trace: " << o.trace << '\n';
  out << "  delivered " << m.packets_delivered << '/' << m.packets_offered
      << " packets (" << m.flits_delivered << " flits) in "
      << ns_from_ticks(m.sim_ticks) * 1e-3 << " us\n";
  out << "  latency mean " << m.packet_latency_ns.mean() << " ns, p50 "
      << m.latency_p50_ns << ", p95 " << m.latency_p95_ns << ", p99 "
      << m.latency_p99_ns << '\n';
  out << "  throughput " << m.throughput_flits_per_ns() << " flits/ns\n";
  out << "  energy: static " << m.static_energy_j * 1e6 << " uJ, dynamic "
      << m.dynamic_energy_j * 1e6 << " uJ, ML " << m.ml_energy_j * 1e9
      << " nJ\n";
  out << "  power mgmt: off " << m.off_time_fraction * 100 << "%, "
      << m.gatings << " gatings, " << m.wakeups << " wakeups ("
      << m.premature_wakeups << " premature), " << m.mode_switches
      << " mode switches, " << m.labels_computed << " labels\n";
  if (m.faults.total_injected() > 0) {
    const FaultStats& f = m.faults;
    out << "  faults: " << f.flits_corrupted << " flit corruptions ("
        << f.packets_corrupted << " packets, " << f.retransmissions
        << " retransmits, " << f.packets_lost << " lost), "
        << f.wakes_dropped + f.wakes_delayed + f.wakes_refused_stuck
        << " wake faults, " << f.mode_switch_failures + f.droops
        << " regulator faults; degraded: " << f.routers_gating_degraded
        << " gating, " << f.routers_pinned_nominal << " pinned nominal\n";
  }
}

void write_comparison_report(std::ostream& out, const RunOutcome& baseline,
                             const RunOutcome& outcome) {
  const NetworkMetrics& b = baseline.metrics;
  const NetworkMetrics& m = outcome.metrics;
  write_text_report(out, outcome);
  out << "  vs " << baseline.policy << ":\n";
  if (b.static_energy_j > 0)
    out << "    static savings:  "
        << (1.0 - m.static_energy_j / b.static_energy_j) * 100 << "%\n";
  if (b.dynamic_energy_j > 0)
    out << "    dynamic savings: "
        << (1.0 - (m.dynamic_energy_j + m.ml_energy_j) / b.dynamic_energy_j) *
               100
        << "%\n";
  if (b.throughput_flits_per_ns() > 0)
    out << "    throughput loss: "
        << (1.0 - m.throughput_flits_per_ns() / b.throughput_flits_per_ns()) *
               100
        << "%\n";
  if (b.energy_delay_product() > 0)
    out << "    EDP ratio:       "
        << m.energy_delay_product() / b.energy_delay_product() << '\n';
}

}  // namespace dozz
