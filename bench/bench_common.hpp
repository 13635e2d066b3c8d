// Shared configuration for the table/figure regeneration benches.
//
// Every bench prints the paper's reported values next to our measured ones.
// Absolute magnitudes depend on the synthetic trace substitution (see
// DESIGN.md); the *shape* — who wins, by roughly what factor — is the
// reproduction target. Set DOZZ_QUICK=<n> to divide run lengths by n for
// smoke runs.
#pragma once

#include <cstdio>
#include <string>

#include "src/sim/model_store.hpp"
#include "src/sim/registries.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/setup.hpp"
#include "src/sim/training.hpp"

namespace dozz::bench {

/// The paper's headline configuration: 8x8 mesh, epoch (window) of 500
/// cycles, T-Idle = 4.
inline SimSetup paper_mesh_setup() {
  SimSetup setup;
  setup.topology = "mesh";
  configure_topology(setup.topology, "", &setup.noc);
  setup.noc.epoch_cycles = 500;
  setup.noc.t_idle_cycles = 4;
  setup.duration_cycles = scaled_cycles(16000);
  setup.run_to_drain = true;  // paper methodology: run traces to completion
  return setup;
}

/// The concentrated-mesh configuration: 4x4 cmesh, 4 cores per router.
inline SimSetup paper_cmesh_setup() {
  SimSetup setup = paper_mesh_setup();
  setup.topology = "cmesh";
  configure_topology(setup.topology, "", &setup.noc);
  return setup;
}

/// Training options used by all ML benches: gather on both load regimes.
inline TrainingOptions paper_training_options(const SimSetup& setup) {
  TrainingOptions opts;
  opts.compressions = {1.0, kCompressedFactor};
  opts.gather_cycles = setup.duration_cycles;
  return opts;
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::printf("==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper reference: %s\n", paper.c_str());
  std::printf("==================================================================\n");
}

}  // namespace dozz::bench
