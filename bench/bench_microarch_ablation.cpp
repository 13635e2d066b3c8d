// Microarchitecture ablation: virtual channels and buffer depth, with the
// power model rescaled per geometry by the analytical DSENT-style model
// (deeper buffers cost leakage even when idle — exactly the static power
// that power-gating recovers).
#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/common/table.hpp"
#include "src/power/dsent_model.hpp"
#include "src/trafficgen/benchmarks.hpp"

int main() {
  using namespace dozz;
  bench::print_header(
      "Ablation: VCs x buffer depth (8x8 mesh, DSENT-scaled power)",
      "deeper buffering improves latency under load but raises the leakage "
      "that gating must recover; the paper's configuration is 2 VCs");

  SimSetup base_setup = bench::paper_mesh_setup();
  const TrainingOptions opts = bench::paper_training_options(base_setup);
  const WeightVector weights =
      load_or_train(PolicyKind::kDozzNoc, base_setup, opts);
  const int routers = base_setup.make_topology().num_routers();

  TextTable table({"VCs", "depth", "buffers/port", "static W/router @M7",
                   "hop pJ @M7", "base p99 lat (ns)", "DozzNoC static save",
                   "DozzNoC off time"});

  for (int vcs : {1, 2, 4}) {
    for (int depth : {2, 4, 8}) {
      SimSetup setup = base_setup;
      setup.noc.vcs_per_port = vcs;
      setup.noc.buffer_depth_flits = depth;

      RouterGeometry geom;
      geom.vcs_per_port = vcs;
      geom.buffer_depth = depth;
      const DsentRouterModel model(geom);
      const PowerModel power = model.to_power_model();

      double p99 = 0.0;
      double static_save = 0.0;
      double off = 0.0;
      int n = 0;
      for (const auto& name : {"x264", "lu"}) {
        const Trace trace =
            make_benchmark_trace(setup, name, kCompressedFactor);
        BaselinePolicy baseline;
        const NetworkMetrics mb =
            run_simulation_controlled(setup, baseline, trace, power, {})
                .metrics;
        auto dozz = make_policy(PolicyKind::kDozzNoc, routers, weights);
        const NetworkMetrics md =
            run_simulation_controlled(setup, *dozz, trace, power, {}).metrics;
        p99 += mb.latency_p99_ns;
        static_save += 1.0 - md.static_energy_j / mb.static_energy_j;
        off += md.off_time_fraction;
        ++n;
      }
      table.add_row(
          {std::to_string(vcs), std::to_string(depth),
           std::to_string(vcs * depth),
           TextTable::fmt(model.static_power_w(1.2), 4),
           TextTable::fmt(model.hop_energy_j(1.2) * 1e12, 1),
           TextTable::fmt(p99 / n, 1), TextTable::pct(static_save / n),
           TextTable::pct(off / n)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
