#include "src/sim/training.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/common/log.hpp"
#include "src/noc/extended_features.hpp"
#include "src/sim/batch.hpp"
#include "src/trafficgen/benchmarks.hpp"

namespace dozz {

SimSetup gather_setup(const SimSetup& setup, const TrainingOptions& options) {
  SimSetup gather = setup;
  if (options.gather_cycles > 0) gather.duration_cycles = options.gather_cycles;
  return gather;
}

Dataset gather_dataset(PolicyKind kind, const SimSetup& setup,
                       const std::vector<std::string>& benchmarks,
                       const TrainingOptions& options) {
  DOZZ_REQUIRE(policy_uses_ml(kind));
  const std::vector<BatchJob> jobs = gather_jobs(kind, benchmarks, options);
  return gathered_dataset(jobs,
                          run_batch(gather_setup(setup, options), jobs));
}

Dataset gather_extended_dataset(PolicyKind kind, const SimSetup& setup,
                                const std::vector<std::string>& benchmarks,
                                const TrainingOptions& options) {
  DOZZ_REQUIRE(policy_uses_ml(kind));
  const SimSetup gather = gather_setup(setup, options);
  const int ports = gather.make_topology().ports_per_router();
  std::vector<BatchJob> jobs = gather_jobs(kind, benchmarks, options);
  for (BatchJob& job : jobs) {
    job.collect_epoch_log = false;
    job.collect_extended_log = true;
  }
  Dataset data(extended_feature_names(ports));
  for (const RunOutcome& outcome : run_batch(gather, jobs))
    data.append(dataset_from_extended_log(outcome.extended_log, ports));
  return data;
}

TrainedModel fit_and_tune(PolicyKind kind, const Dataset& train_raw,
                          const Dataset& val_raw,
                          const std::vector<double>& lambda_grid) {
  DOZZ_REQUIRE(!train_raw.empty() && !val_raw.empty());
  const StandardScaler scaler = StandardScaler::fit(train_raw);
  const Dataset train = scaler.transform(train_raw);
  const Dataset validation = scaler.transform(val_raw);

  const TuningResult tuning = tune_lambda(train, validation, lambda_grid);

  TrainedModel model;
  model.kind = kind;
  model.weights = fold_scaler(tuning.best, scaler);
  model.validation_mse = tuning.best_validation_mse;
  model.train_mse = RidgeRegression::evaluate_mse(tuning.best, train);
  model.validation_r2 = RidgeRegression::evaluate_r2(tuning.best, validation);
  model.train_examples = train.size();
  model.validation_examples = validation.size();
  DOZZ_LOG_INFO("trained " << policy_name(kind) << " ("
                           << model.weights.weights.size()
                           << " features): lambda=" << model.weights.lambda
                           << " val_mse=" << model.validation_mse
                           << " val_r2=" << model.validation_r2);
  return model;
}

TrainedModel train_policy_model(PolicyKind kind, const SimSetup& setup,
                                const TrainingOptions& options) {
  return fit_and_tune(
      kind, gather_dataset(kind, setup, training_benchmarks(), options),
      gather_dataset(kind, setup, validation_benchmarks(), options),
      options.lambda_grid);
}

TrainedModel train_extended_model(PolicyKind kind, const SimSetup& setup,
                                  const TrainingOptions& options) {
  return fit_and_tune(
      kind,
      gather_extended_dataset(kind, setup, training_benchmarks(), options),
      gather_extended_dataset(kind, setup, validation_benchmarks(), options),
      options.lambda_grid);
}

double mode_selection_accuracy(const WeightVector& weights,
                               const Dataset& data) {
  DOZZ_REQUIRE(!data.empty());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const Example& e = data.example(i);
    const double predicted =
        std::clamp(weights.predict(e.features), 0.0, 1.0);
    if (mode_for_utilization(predicted) == mode_for_utilization(e.label))
      ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

SingleFeatureResult evaluate_single_feature(std::size_t feature_column,
                                            const Dataset& train,
                                            const Dataset& validation,
                                            const Dataset& test,
                                            const std::vector<double>& grid) {
  DOZZ_REQUIRE(feature_column > 0);  // column 0 is the bias
  const std::vector<std::size_t> columns = {0, feature_column};
  const Dataset train_sel = train.select_features(columns);
  const Dataset val_sel = validation.select_features(columns);
  const Dataset test_sel = test.select_features(columns);

  const StandardScaler scaler = StandardScaler::fit(train_sel);
  const TuningResult tuning = tune_lambda(
      scaler.transform(train_sel), scaler.transform(val_sel), grid);
  const WeightVector raw = fold_scaler(tuning.best, scaler);

  SingleFeatureResult result;
  result.feature = train.feature_names()[feature_column];
  result.mode_accuracy = mode_selection_accuracy(raw, test_sel);
  result.mse = RidgeRegression::evaluate_mse(raw, test_sel);
  return result;
}

}  // namespace dozz
