// Tests for the extended (41-feature) instrumentation path: feature names
// and builder, router epoch counters, the extended proactive policy, the
// network plumbing, and the extended training pipeline.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/core/policies.hpp"
#include "src/noc/extended_features.hpp"
#include "src/noc/network.hpp"
#include "src/power/power_model.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/training.hpp"
#include "src/trafficgen/patterns.hpp"

namespace dozz {
namespace {

TEST(ExtendedFeatures, ExactlyFortyOneOnTheMesh) {
  // 5-port mesh router -> the paper's 41-feature count.
  EXPECT_EQ(extended_feature_names(5).size(), 41u);
  // Concentrated mesh has 8 ports -> 12 more per-port features.
  EXPECT_EQ(extended_feature_names(8).size(), 53u);
}

TEST(ExtendedFeatures, NamesStartWithTableIVFive) {
  const auto names = extended_feature_names(5);
  const auto base = EpochFeatures::names();
  for (std::size_t i = 0; i < base.size(); ++i) EXPECT_EQ(names[i], base[i]);
  EXPECT_EQ(names[extended_ibu_column()], "current_ibu");
}

TEST(ExtendedFeatures, BuilderMatchesNameCountAndValues) {
  ExtendedFeatureInputs in;
  in.base.bias = 1.0;
  in.base.reqs_sent = 7;
  in.base.current_ibu = 0.125;
  in.counters.port_occ_mean.assign(5, 0.5);
  in.counters.port_occ_peak.assign(5, 3.0);
  in.counters.port_arrivals.assign(5, 11.0);
  in.counters.port_departures.assign(5, 10.0);
  in.counters.idle_fraction = 0.25;
  in.counters.edges = 2000.0;
  in.mean_ibu = 0.03;
  in.epoch_hops = 42.0;
  in.mode_index_now = 2.0;
  in.prev_base.reqs_sent = 5.0;

  const auto v = build_extended_features(in);
  ASSERT_EQ(v.size(), 41u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
  EXPECT_DOUBLE_EQ(v[4], 0.125);
  EXPECT_DOUBLE_EQ(v[5], 0.03);
  EXPECT_DOUBLE_EQ(v[8], 2.0);   // edges_k = edges / 1000
  EXPECT_DOUBLE_EQ(v[12], 42.0);  // epoch_hops
  EXPECT_DOUBLE_EQ(v[17], 2.0);   // mode_index
  EXPECT_DOUBLE_EQ(v[18], 0.5);   // occ_mean_p0
  EXPECT_DOUBLE_EQ(v[23], 3.0);   // occ_peak_p0
  EXPECT_DOUBLE_EQ(v[38], 5.0);   // prev_reqs_sent
}

TEST(ExtendedFeatures, BuilderRejectsMismatchedPortVectors) {
  ExtendedFeatureInputs in;
  in.counters.port_occ_mean.assign(5, 0.0);
  in.counters.port_occ_peak.assign(4, 0.0);  // wrong
  in.counters.port_arrivals.assign(5, 0.0);
  in.counters.port_departures.assign(5, 0.0);
  EXPECT_THROW(build_extended_features(in), PreconditionError);
}

TEST(ExtendedPolicy, RequiresMoreThanFiveFeatures) {
  WeightVector w;
  w.feature_names = EpochFeatures::names();
  w.weights = {0, 0, 0, 0, 1};
  EXPECT_THROW(ProactiveExtendedMlPolicy(PolicyKind::kDozzNoc, w, 4),
               PreconditionError);
}

WeightVector extended_identity_weights() {
  WeightVector w;
  w.feature_names = extended_feature_names(5);
  w.weights.assign(41, 0.0);
  w.weights[extended_ibu_column()] = 1.0;
  return w;
}

TEST(ExtendedPolicy, SelectsViaExtendedVector) {
  ProactiveExtendedMlPolicy p(PolicyKind::kDozzNoc,
                              extended_identity_weights(), 4);
  EXPECT_TRUE(p.wants_extended_features());
  EXPECT_TRUE(p.uses_ml());
  EXPECT_TRUE(p.gating_enabled());
  EXPECT_EQ(p.label_feature_count(), 41);
  EXPECT_EQ(p.name(), "DozzNoC-41");

  std::vector<double> features(41, 0.0);
  features[extended_ibu_column()] = 0.15;
  EXPECT_EQ(p.select_mode_extended(0, features), VfMode::kV10);
  features[extended_ibu_column()] = 0.01;
  EXPECT_EQ(p.select_mode_extended(0, features), VfMode::kV08);
  // The narrow entry point must not be used for extended policies.
  EXPECT_THROW(p.select_mode(0, EpochFeatures{}), PreconditionError);
}

TEST(ExtendedPolicy, LabelEnergyScalesWithFeatureCount) {
  // A network driven by a 41-feature policy must charge 61.1 pJ per label.
  const Topology topo = make_mesh(4, 4);
  NocConfig config;
  config.epoch_cycles = 200;
  PowerModel power;
  SimoLdoRegulator regulator;
  // Build 41-feature weights for this topology (4x4 mesh also has 5 ports).
  ProactiveExtendedMlPolicy policy(PolicyKind::kDozzNoc,
                                   extended_identity_weights(), 16);
  Network net(topo, config, policy, power, regulator);
  const Trace trace = generate_synthetic_trace(
      topo, uniform_pattern(topo.num_cores()), 0.01, 1500, 3);
  net.run(trace, 3000 * kBaselinePeriodTicks);
  const NetworkMetrics& m = net.metrics();
  ASSERT_GT(m.labels_computed, 0u);
  EXPECT_NEAR(m.ml_energy_j,
              static_cast<double>(m.labels_computed) * 61.1e-12, 1e-14);
  EXPECT_GT(m.packets_delivered, 0u);
}

TEST(ExtendedLog, CollectedShapeAndBasicConsistency) {
  const Topology topo = make_mesh(4, 4);
  NocConfig config;
  config.epoch_cycles = 500;
  config.collect_epoch_log = true;
  config.collect_extended_log = true;
  PowerModel power;
  SimoLdoRegulator regulator;
  BaselinePolicy policy;
  Network net(topo, config, policy, power, regulator);
  const Trace trace = generate_synthetic_trace(
      topo, uniform_pattern(topo.num_cores()), 0.01, 2000, 9);
  net.run(trace, 4000 * kBaselinePeriodTicks);

  const auto& ext = net.extended_log();
  const auto& base = net.epoch_log();
  ASSERT_EQ(ext.size(), base.size());
  for (std::size_t e = 0; e < ext.size(); ++e) {
    ASSERT_EQ(ext[e].size(), base[e].size());
    for (std::size_t r = 0; r < ext[e].size(); ++r) {
      ASSERT_EQ(ext[e][r].size(), 41u);
      // The first five columns equal the basic feature vector.
      const auto bv = base[e][r].to_vector();
      for (std::size_t c = 0; c < bv.size(); ++c)
        EXPECT_DOUBLE_EQ(ext[e][r][c], bv[c]);
      // Baseline never gates or switches: those columns stay zero.
      EXPECT_DOUBLE_EQ(ext[e][r][13], 0.0);  // epoch_wakeups
      EXPECT_DOUBLE_EQ(ext[e][r][14], 0.0);  // epoch_gatings
      EXPECT_DOUBLE_EQ(ext[e][r][15], 0.0);  // epoch_switches
      EXPECT_DOUBLE_EQ(ext[e][r][17], 4.0);  // mode_index == M7
    }
  }
  // Temporal features: epoch e's prev_reqs_sent equals epoch e-1's
  // reqs_sent.
  for (std::size_t e = 1; e < ext.size(); ++e)
    for (std::size_t r = 0; r < ext[e].size(); ++r)
      EXPECT_DOUBLE_EQ(ext[e][r][38], base[e - 1][r].reqs_sent);
}

TEST(ExtendedLog, ArrivalDepartureConservationUnderBaseline) {
  // Over a fully drained run, total departures equal total arrivals
  // (every flit that enters a router eventually leaves it).
  const Topology topo = make_mesh(4, 4);
  NocConfig config;
  config.epoch_cycles = 250;
  config.collect_extended_log = true;
  config.auto_response = false;
  PowerModel power;
  SimoLdoRegulator regulator;
  BaselinePolicy policy;
  Network net(topo, config, policy, power, regulator);
  const Trace trace = generate_synthetic_trace(
      topo, uniform_pattern(topo.num_cores()), 0.01, 2000, 10);
  net.run_until_drained(trace, 20000 * kBaselinePeriodTicks);

  double arrivals = 0.0;
  double departures = 0.0;
  for (const auto& epoch : net.extended_log()) {
    for (const auto& row : epoch) {
      for (int p = 0; p < 5; ++p) {
        arrivals += row[28 + static_cast<std::size_t>(p)];
        departures += row[33 + static_cast<std::size_t>(p)];
      }
    }
  }
  // The logs only cover full epochs; flits in the final partial epoch are
  // missed equally on both sides, so totals track each other closely.
  EXPECT_NEAR(departures, arrivals, arrivals * 0.05 + 5.0);
  EXPECT_GT(arrivals, 0.0);
}

TEST(ExtendedTraining, DatasetFromExtendedLogPairsEpochs) {
  std::vector<std::vector<std::vector<double>>> log(
      3, std::vector<std::vector<double>>(2, std::vector<double>(41, 0.0)));
  log[0][0][extended_ibu_column()] = 0.1;
  log[1][0][extended_ibu_column()] = 0.2;
  log[2][0][extended_ibu_column()] = 0.3;
  const Dataset d = dataset_from_extended_log(log, 5);
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.num_features(), 41u);
  EXPECT_DOUBLE_EQ(d.example(0).label, 0.2);
  EXPECT_DOUBLE_EQ(d.example(2).label, 0.3);
}

TEST(ExtendedTraining, EndToEndTrainAndDeploy) {
  SimSetup setup;
  setup.duration_cycles = 6000;
  setup.noc.epoch_cycles = 250;
  TrainingOptions opts;
  opts.compressions = {kCompressedFactor};
  opts.gather_cycles = 4000;

  const TrainedModel model =
      train_extended_model(PolicyKind::kDozzNoc, setup, opts);
  EXPECT_EQ(model.weights.weights.size(), 41u);
  EXPECT_GT(model.train_examples, 100u);
  EXPECT_LT(model.validation_mse, 0.25);

  const Trace trace = make_benchmark_trace(setup, "fft", kCompressedFactor);
  ProactiveExtendedMlPolicy policy(PolicyKind::kDozzNoc, model.weights, 64);
  const RunOutcome out = run_simulation(setup, policy, trace);
  EXPECT_GT(out.metrics.packets_delivered, 0u);
  EXPECT_GT(out.metrics.labels_computed, 0u);
}

TEST(RouterEpochCounters, TrackInjectionAndForwarding) {
  // Drive one packet through a router and verify the counters.
  const Topology topo = make_mesh(4, 4);
  NocConfig config;
  config.auto_response = false;
  config.epoch_cycles = 5000;  // longer than the run: no window reset
  PowerModel power;
  SimoLdoRegulator regulator;
  BaselinePolicy policy;
  Network net(topo, config, policy, power, regulator);
  Trace trace("one");
  trace.add({0, 3, false, 5.0});  // 0 -> 1 -> 2 -> 3 along the top row
  net.run(trace, 1000 * kBaselinePeriodTicks);

  Router::EpochCounters c0, c1, c3;
  net.router(0).epoch_counters_into(&c0);
  net.router(1).epoch_counters_into(&c1);
  net.router(3).epoch_counters_into(&c3);
  EXPECT_DOUBLE_EQ(c0.injected, 1.0);
  EXPECT_DOUBLE_EQ(c0.ejected, 0.0);
  EXPECT_DOUBLE_EQ(c1.injected, 0.0);
  // Router 1 received the flit on its West port and sent it East.
  EXPECT_DOUBLE_EQ(
      c1.port_arrivals[static_cast<std::size_t>(Direction::kWest)], 1.0);
  EXPECT_DOUBLE_EQ(
      c1.port_departures[static_cast<std::size_t>(Direction::kEast)], 1.0);
  EXPECT_DOUBLE_EQ(c3.ejected, 1.0);
  EXPECT_GT(c0.edges, 0.0);
  EXPECT_GT(c0.idle_fraction, 0.5);  // mostly idle in this window
}

}  // namespace
}  // namespace dozz
