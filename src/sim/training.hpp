// The paper's offline supervised-learning workflow (§III-D, §IV-A):
//
//   1. Run the *reactive* twin of each ML model over the 6 training and
//      3 validation traces, exporting the Table IV features plus the
//      future-IBU label every epoch.
//   2. Standardize features, fit ridge regression on the training set for
//      each lambda in a grid, pick the lambda with the lowest validation
//      MSE.
//   3. Fold the standardization into the weights and export them for use by
//      the proactive runtime policies.
#pragma once

#include <string>
#include <vector>

#include "src/core/policies.hpp"
#include "src/ml/ridge.hpp"
#include "src/ml/scaler.hpp"
#include "src/sim/runner.hpp"

namespace dozz {

/// Options controlling training-data generation.
struct TrainingOptions {
  /// Compression factors of the reactive data-gathering runs. Training on
  /// both load regimes makes one weight vector serve compressed and
  /// uncompressed test runs.
  std::vector<double> compressions = {1.0, kCompressedFactor};
  std::vector<double> lambda_grid = default_lambda_grid();
  /// Length of each data-gathering run, in baseline cycles; defaults to the
  /// setup's duration when 0.
  std::uint64_t gather_cycles = 0;
};

/// A trained, deployable model for one ML policy kind.
struct TrainedModel {
  PolicyKind kind = PolicyKind::kDozzNoc;
  WeightVector weights;        ///< Folded: applies to raw features.
  double validation_mse = 0.0;
  double train_mse = 0.0;
  double validation_r2 = 0.0;
  std::size_t train_examples = 0;
  std::size_t validation_examples = 0;
};

/// The setup of a data-gathering run: `setup`, lasting options.gather_cycles
/// when that is set.
SimSetup gather_setup(const SimSetup& setup, const TrainingOptions& options);

/// Gathers a dataset for `kind` by running its reactive twin over the given
/// benchmarks at each compression factor (the runs of gather_jobs()).
Dataset gather_dataset(PolicyKind kind, const SimSetup& setup,
                       const std::vector<std::string>& benchmarks,
                       const TrainingOptions& options);

/// Same, but capturing the extended (41-feature on the mesh) vectors
/// (paper Sec. IV-B1's DozzNoC-41 configuration).
Dataset gather_extended_dataset(PolicyKind kind, const SimSetup& setup,
                                const std::vector<std::string>& benchmarks,
                                const TrainingOptions& options);

/// The tail of both training pipelines: standardize on `train_raw`, fit
/// ridge regression for each lambda of `lambda_grid`, keep the one with the
/// lowest validation MSE and fold the standardization into its weights.
TrainedModel fit_and_tune(PolicyKind kind, const Dataset& train_raw,
                          const Dataset& val_raw,
                          const std::vector<double>& lambda_grid);

/// Full training pipeline over the extended feature set; the resulting
/// weights deploy via ProactiveExtendedMlPolicy.
TrainedModel train_extended_model(PolicyKind kind, const SimSetup& setup,
                                  const TrainingOptions& options = {});

/// Full pipeline for one policy kind, using the standard 6/3 train/val
/// benchmark split.
TrainedModel train_policy_model(PolicyKind kind, const SimSetup& setup,
                                const TrainingOptions& options = {});

/// Trains a model restricted to the bias plus a single feature column, and
/// reports its mode-selection accuracy on `test` — the Fig. 9 trade-off
/// study. Accuracy counts a prediction as correct when the predicted and
/// the actual label map to the same V/F mode.
struct SingleFeatureResult {
  std::string feature;
  double mode_accuracy = 0.0;
  double mse = 0.0;
};

SingleFeatureResult evaluate_single_feature(std::size_t feature_column,
                                            const Dataset& train,
                                            const Dataset& validation,
                                            const Dataset& test,
                                            const std::vector<double>& grid);

/// Mode-selection accuracy of a weight vector over a (raw-feature) dataset.
double mode_selection_accuracy(const WeightVector& weights,
                               const Dataset& data);

}  // namespace dozz
