// Tests of the offline training pipeline on a small mesh: dataset
// gathering from reactive runs, ridge fitting with lambda tuning, scaler
// folding, and mode-selection accuracy measurement.
#include <gtest/gtest.h>

#include "src/sim/registries.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/training.hpp"
#include "src/trafficgen/benchmarks.hpp"

namespace dozz {
namespace {

SimSetup small_setup() {
  SimSetup setup;
  setup.topology = "cmesh";  // 4x4 cmesh: 16 routers, fast to simulate
  configure_topology(setup.topology, "", &setup.noc);
  setup.duration_cycles = 8000;
  setup.noc.epoch_cycles = 250;
  return setup;
}

TEST(Runner, DatasetFromLogPairsConsecutiveEpochs) {
  std::vector<std::vector<EpochFeatures>> log(3,
                                              std::vector<EpochFeatures>(2));
  log[0][0].current_ibu = 0.1;
  log[1][0].current_ibu = 0.2;
  log[2][0].current_ibu = 0.3;
  const Dataset d = dataset_from_log(log);
  // (epochs-1) * routers rows.
  EXPECT_EQ(d.size(), 4u);
  // Row 0 is epoch 0 / router 0, labelled with epoch 1's IBU.
  EXPECT_DOUBLE_EQ(d.example(0).features[4], 0.1);
  EXPECT_DOUBLE_EQ(d.example(0).label, 0.2);
  EXPECT_DOUBLE_EQ(d.example(2).features[4], 0.2);
  EXPECT_DOUBLE_EQ(d.example(2).label, 0.3);
}

TEST(Runner, DatasetFromShortLogIsEmpty) {
  std::vector<std::vector<EpochFeatures>> log(1,
                                              std::vector<EpochFeatures>(2));
  EXPECT_TRUE(dataset_from_log(log).empty());
}

TEST(Runner, MakeBenchmarkTraceCoversWindowWhenCompressed) {
  SimSetup setup = small_setup();
  const Trace t = make_benchmark_trace(setup, "canneal", kCompressedFactor);
  const double window_ns =
      ns_from_ticks(setup.duration_cycles * kBaselinePeriodTicks);
  EXPECT_GT(t.duration_ns(), window_ns * 0.9);
  EXPECT_EQ(t.name(), "canneal");
}

TEST(Runner, RunPolicyProducesMetrics) {
  SimSetup setup = small_setup();
  const Trace t = make_benchmark_trace(setup, "fft");
  const RunOutcome out = run_policy(setup, PolicyKind::kBaseline, t);
  EXPECT_GT(out.metrics.packets_delivered, 0u);
  EXPECT_EQ(out.policy, "Baseline");
  EXPECT_EQ(out.trace, "fft");
  EXPECT_TRUE(out.epoch_log.empty());  // not requested
}

TEST(Training, GatherDatasetHasExpectedShape) {
  SimSetup setup = small_setup();
  TrainingOptions opts;
  opts.compressions = {1.0};
  const Dataset d =
      gather_dataset(PolicyKind::kDozzNoc, setup, {"bodytrack"}, opts);
  // (epochs-1) * routers rows: epochs = 8000/250 - 1 boundaries = 31 logs.
  const std::size_t epochs = setup.duration_cycles / setup.noc.epoch_cycles - 1;
  EXPECT_EQ(d.size(), (epochs - 1) * 16u);
  EXPECT_EQ(d.num_features(), 5u);
  // Labels are utilizations in [0, 1].
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_GE(d.example(i).label, 0.0);
    EXPECT_LE(d.example(i).label, 1.0);
  }
}

TEST(Training, TrainPolicyModelEndToEnd) {
  SimSetup setup = small_setup();
  setup.duration_cycles = 6000;
  TrainingOptions opts;
  opts.compressions = {kCompressedFactor};
  const TrainedModel model =
      train_policy_model(PolicyKind::kDozzNoc, setup, opts);
  EXPECT_EQ(model.kind, PolicyKind::kDozzNoc);
  EXPECT_EQ(model.weights.weights.size(), 5u);
  EXPECT_GT(model.train_examples, 100u);
  EXPECT_GT(model.validation_examples, 50u);
  EXPECT_GT(model.validation_mse, 0.0);
  EXPECT_LT(model.validation_mse, 0.25);  // far better than chance
  // The trained model is deployable in the proactive policy.
  const Trace t = make_benchmark_trace(setup, "fft", kCompressedFactor);
  const RunOutcome out =
      run_policy(setup, PolicyKind::kDozzNoc, t, model.weights);
  EXPECT_GT(out.metrics.packets_delivered, 0u);
  EXPECT_GT(out.metrics.labels_computed, 0u);
}

TEST(Training, ModeSelectionAccuracyBoundsAndPerfectCase) {
  // A dataset whose label equals feature 5 exactly: identity weights give
  // 100% accuracy.
  Dataset d(EpochFeatures::names());
  for (int i = 0; i < 100; ++i) {
    const double ibu = static_cast<double>(i) / 100.0;
    d.add({1.0, 0.0, 0.0, 0.0, ibu}, ibu);
  }
  WeightVector identity;
  identity.feature_names = EpochFeatures::names();
  identity.weights = {0.0, 0.0, 0.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(mode_selection_accuracy(identity, d), 1.0);

  // All-zero weights predict 0 -> M3 always; accuracy = fraction of labels
  // below the 5% threshold.
  WeightVector zero;
  zero.feature_names = EpochFeatures::names();
  zero.weights = {0.0, 0.0, 0.0, 0.0, 0.0};
  EXPECT_NEAR(mode_selection_accuracy(zero, d), 0.05, 0.011);
}

TEST(Training, SingleFeatureStudyRanksIbuHighest) {
  SimSetup setup = small_setup();
  TrainingOptions opts;
  opts.compressions = {1.0, kCompressedFactor};
  const Dataset train =
      gather_dataset(PolicyKind::kDozzNoc, setup, {"bodytrack", "canneal"}, opts);
  const Dataset val =
      gather_dataset(PolicyKind::kDozzNoc, setup, {"vips"}, opts);
  const Dataset test =
      gather_dataset(PolicyKind::kDozzNoc, setup, {"fft"}, opts);

  double ibu_acc = 0.0;
  double other_best = 0.0;
  for (std::size_t col = 1; col < 5; ++col) {
    const SingleFeatureResult r = evaluate_single_feature(
        col, train, val, test, default_lambda_grid());
    EXPECT_GE(r.mode_accuracy, 0.0);
    EXPECT_LE(r.mode_accuracy, 1.0);
    if (r.feature == "current_ibu")
      ibu_acc = r.mode_accuracy;
    else
      other_best = std::max(other_best, r.mode_accuracy);
  }
  // Paper Fig. 9: current IBU is by far the most predictive single feature.
  EXPECT_GT(ibu_acc, 0.5);
  EXPECT_GE(ibu_acc, other_best);
}

}  // namespace
}  // namespace dozz
