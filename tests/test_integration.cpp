// Full-stack integration tests reproducing the qualitative claims of the
// paper's evaluation on scaled-down runs: policy orderings for throughput,
// static power and dynamic energy.
#include <gtest/gtest.h>

#include <map>

#include "src/sim/registries.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/training.hpp"
#include "src/trafficgen/benchmarks.hpp"

namespace dozz {
namespace {

struct Comparison {
  NetworkMetrics baseline;
  NetworkMetrics pg;
  NetworkMetrics lead;
  NetworkMetrics dozz;
  NetworkMetrics turbo;
};

/// Trains quickly and runs all five policies on one trace. Uses the 8x8
/// mesh (the paper's headline configuration: one core per router, so
/// per-core idle phases translate directly into gating windows). Results
/// are cached per (trace, compression) because several tests share them.
const Comparison& run_all(const std::string& trace_name, double compression) {
  static std::map<std::string, Comparison> cache;
  const std::string key =
      trace_name + "@" + std::to_string(compression);
  if (auto it = cache.find(key); it != cache.end()) return it->second;

  SimSetup setup;
  setup.topology = "mesh";
  configure_topology(setup.topology, "", &setup.noc);
  setup.duration_cycles = 6000;
  setup.noc.epoch_cycles = 250;

  TrainingOptions opts;
  opts.compressions = {compression};
  opts.gather_cycles = 4000;

  const Trace trace = make_benchmark_trace(setup, trace_name, compression);
  Comparison c;
  c.baseline = run_policy(setup, PolicyKind::kBaseline, trace).metrics;
  c.pg = run_policy(setup, PolicyKind::kPowerGate, trace).metrics;
  c.lead = run_policy(setup, PolicyKind::kLeadTau, trace,
                      train_policy_model(PolicyKind::kLeadTau, setup, opts)
                          .weights)
               .metrics;
  c.dozz = run_policy(setup, PolicyKind::kDozzNoc, trace,
                      train_policy_model(PolicyKind::kDozzNoc, setup, opts)
                          .weights)
               .metrics;
  c.turbo = run_policy(setup, PolicyKind::kMlTurbo, trace,
                       train_policy_model(PolicyKind::kMlTurbo, setup, opts)
                           .weights)
                .metrics;
  return cache.emplace(key, c).first->second;
}

TEST(Integration, PaperShapeHoldsOnTestTrace) {
  const Comparison& c = run_all("x264", kCompressedFactor);

  // Everyone delivers traffic.
  EXPECT_GT(c.baseline.packets_delivered, 100u);

  // --- Static power ordering (paper Fig. 8b): every power-managed policy
  // beats baseline; gating policies beat DVFS-only.
  const double base_static = c.baseline.static_energy_j;
  EXPECT_LT(c.pg.static_energy_j, base_static);
  EXPECT_LT(c.lead.static_energy_j, base_static);
  EXPECT_LT(c.dozz.static_energy_j, base_static);
  EXPECT_LT(c.turbo.static_energy_j, base_static);
  // At heavily compressed load gating windows vanish, so DozzNoC's static
  // energy approaches LEAD-tau's from either side (the strict ordering is
  // asserted on the light-load trace below).
  EXPECT_LT(c.dozz.static_energy_j, c.lead.static_energy_j * 1.05);

  // --- Dynamic energy (paper Fig. 8b): DVFS policies spend less per hop;
  // PG spends the same as baseline (always mode 7).
  const double base_dyn = c.baseline.dynamic_energy_j;
  EXPECT_LT(c.lead.dynamic_energy_j, base_dyn);
  EXPECT_LT(c.dozz.dynamic_energy_j, base_dyn);
  EXPECT_NEAR(c.pg.dynamic_energy_j, base_dyn, base_dyn * 0.05);
  // TURBO gives some dynamic savings back relative to DozzNoC.
  EXPECT_GE(c.turbo.dynamic_energy_j, c.dozz.dynamic_energy_j * 0.98);

  // --- Throughput (paper Fig. 8a): baseline is the upper bound; losses
  // are bounded (paper reports <= ~10%).
  const double base_tp = static_cast<double>(c.baseline.flits_delivered);
  for (const auto* m : {&c.pg, &c.lead, &c.dozz, &c.turbo}) {
    EXPECT_LE(static_cast<double>(m->flits_delivered), base_tp * 1.01);
    EXPECT_GE(static_cast<double>(m->flits_delivered), base_tp * 0.75);
  }
}

TEST(Integration, GatingPoliciesSpendTimeOffOnLightTraffic) {
  const Comparison& c = run_all("lu", 1.0);  // uncompressed: light load
  EXPECT_GT(c.pg.off_time_fraction, 0.3);
  // DozzNoC's slower active clocks stretch idle detection in wall time, so
  // it gates somewhat less than PG — but substantially.
  EXPECT_GT(c.dozz.off_time_fraction, 0.2);
  EXPECT_DOUBLE_EQ(c.baseline.off_time_fraction, 0.0);
  EXPECT_DOUBLE_EQ(c.lead.off_time_fraction, 0.0);
  // The paper's headline ordering: combining PG with DVFS saves more static
  // energy than either DVFS alone (LEAD-tau) or gating alone (PG).
  EXPECT_LT(c.dozz.static_energy_j, c.lead.static_energy_j);
  EXPECT_LT(c.dozz.static_energy_j, c.pg.static_energy_j);
}

TEST(Integration, DvfsPoliciesUseLowModesOnLightTraffic) {
  const Comparison& c = run_all("lu", 1.0);
  // At light load the predictor should choose the two lowest modes for most
  // epochs. (DozzNoC only selects modes for routers that are awake, and
  // awake routers at light load are the ones seeing the bursts, so the
  // distribution is not all-M3.)
  const auto& counts = c.dozz.epoch_mode_counts;
  std::uint64_t total = 0;
  for (auto n : counts) total += n;
  ASSERT_GT(total, 0u);
  const double low = static_cast<double>(counts[0] + counts[1]) /
                     static_cast<double>(total);
  EXPECT_GT(low, 0.5);
  // And the top mode is rare.
  EXPECT_LT(static_cast<double>(counts[kNumVfModes - 1]) /
                static_cast<double>(total),
            0.3);
}

TEST(Integration, TurboShiftsModeMassUpward) {
  const Comparison& c = run_all("x264", kCompressedFactor);
  auto top_fraction = [](const NetworkMetrics& m) {
    std::uint64_t total = 0;
    for (auto n : m.epoch_mode_counts) total += n;
    return total == 0 ? 0.0
                      : static_cast<double>(
                            m.epoch_mode_counts[kNumVfModes - 1]) /
                            static_cast<double>(total);
  };
  EXPECT_GT(top_fraction(c.turbo), top_fraction(c.dozz));
}

TEST(Integration, MlEnergyIsNegligibleButNonzero) {
  const Comparison& c = run_all("fft", kCompressedFactor);
  EXPECT_GT(c.dozz.ml_energy_j, 0.0);
  EXPECT_LT(c.dozz.ml_energy_j, c.dozz.total_energy_j() * 0.01);
  EXPECT_DOUBLE_EQ(c.pg.ml_energy_j, 0.0);
}

TEST(Integration, MeshRunMatchesDeliveryOnAllTestTraces) {
  // Smoke over the full 8x8 mesh with the real trace set (short window).
  SimSetup setup;
  setup.duration_cycles = 4000;
  setup.noc.epoch_cycles = 500;
  for (const auto& name : test_benchmarks()) {
    const Trace trace = make_benchmark_trace(setup, name, kCompressedFactor);
    const RunOutcome out = run_policy(setup, PolicyKind::kPowerGate, trace);
    EXPECT_GT(out.metrics.packets_delivered, 0u) << name;
    // Nearly all offered packets delivered within the window.
    EXPECT_GT(static_cast<double>(out.metrics.packets_delivered),
              0.8 * static_cast<double>(out.metrics.packets_offered))
        << name;
  }
}

}  // namespace
}  // namespace dozz
