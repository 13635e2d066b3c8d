// Topology versatility (paper Sec. III-A: "built with enough versatility
// to be applicable to multiple network topologies"): DozzNoC on the 8x8
// mesh, the 4x4 concentrated mesh, and an 8x8 torus (with dateline VC
// classes). No global coordination is needed, so the same trained weights
// deploy on every topology.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/common/table.hpp"
#include "src/sim/batch.hpp"
#include "src/sim/registries.hpp"
#include "src/trafficgen/benchmarks.hpp"

int main() {
  using namespace dozz;
  bench::print_header(
      "Topology versatility: DozzNoC on mesh / cmesh / torus",
      "per-router voltage domains and local features scale across "
      "topologies; savings track each topology's idleness structure");

  struct Config {
    const char* label;
    const char* topology;  ///< Topology-registry name.
  };
  const Config configs[] = {
      {"mesh 8x8", "mesh"},
      {"cmesh 4x4", "cmesh"},
      {"torus 8x8", "torus"},
  };

  TextTable table({"topology", "hops (base)", "latency (base, ns)",
                   "static savings", "dynamic savings", "throughput loss",
                   "off time"});
  for (const Config& c : configs) {
    SimSetup setup = bench::paper_mesh_setup();
    setup.topology = c.topology;
    // The torus gets its dateline VC classes and torus-xy routing here.
    configure_topology(setup.topology, "", &setup.noc);
    const TrainingOptions opts = bench::paper_training_options(setup);
    const WeightVector weights =
        load_or_train(PolicyKind::kDozzNoc, setup, opts);

    // Pairs of (baseline, DozzNoC) jobs per benchmark, run as one batch.
    std::vector<BatchJob> jobs;
    for (const auto& name : test_benchmarks()) {
      BatchJob base_job;
      base_job.kind = PolicyKind::kBaseline;
      base_job.benchmark = name;
      jobs.push_back(base_job);
      BatchJob dozz_job;
      dozz_job.kind = PolicyKind::kDozzNoc;
      dozz_job.weights = weights;
      dozz_job.benchmark = name;
      jobs.push_back(std::move(dozz_job));
    }
    const std::vector<RunOutcome> outcomes = run_batch(setup, jobs);

    double hops = 0.0;
    double lat = 0.0;
    double st = 0.0;
    double dy = 0.0;
    double tp = 0.0;
    double off = 0.0;
    int n = 0;
    for (std::size_t i = 0; i + 1 < outcomes.size(); i += 2) {
      const NetworkMetrics& base = outcomes[i].metrics;
      const NetworkMetrics& dozz = outcomes[i + 1].metrics;
      hops += base.packet_hops.mean();
      lat += base.packet_latency_ns.mean();
      st += 1.0 - dozz.static_energy_j / base.static_energy_j;
      dy += 1.0 - (dozz.dynamic_energy_j + dozz.ml_energy_j) /
                      base.dynamic_energy_j;
      tp += 1.0 - dozz.throughput_flits_per_ns() /
                      base.throughput_flits_per_ns();
      off += dozz.off_time_fraction;
      ++n;
    }
    table.add_row({c.label, TextTable::fmt(hops / n, 2),
                   TextTable::fmt(lat / n, 2), TextTable::pct(st / n),
                   TextTable::pct(dy / n), TextTable::pct(tp / n),
                   TextTable::pct(off / n)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected shape: the torus shortens paths (fewer hops, lower latency)\n"
      "and keeps mesh-like savings; the cmesh shares each router among four\n"
      "cores, so off time and savings drop (paper Sec. IV-B2).\n");
  return 0;
}
