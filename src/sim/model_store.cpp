#include "src/sim/model_store.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/atomic_file.hpp"
#include "src/common/error.hpp"
#include "src/common/log.hpp"

namespace dozz {

std::string model_cache_dir() {
  const char* env = std::getenv("DOZZ_CACHE_DIR");
  return env != nullptr ? env : "dozz_cache";
}

std::string model_cache_path(PolicyKind kind, const SimSetup& setup,
                             const TrainingOptions& options) {
  std::ostringstream name;
  name << "weights_" << policy_name(kind) << '_'
       << setup.make_topology().name() << "_e" << setup.noc.epoch_cycles
       << "_d"
       << (options.gather_cycles > 0 ? options.gather_cycles
                                     : setup.duration_cycles)
       << "_c";
  for (double c : options.compressions) name << '-' << c;
  name << ".txt";
  return model_cache_dir() + "/" + name.str();
}

std::optional<WeightVector> load_cached_weights(PolicyKind kind,
                                                const SimSetup& setup,
                                                const TrainingOptions& options) {
  if (std::getenv("DOZZ_NO_CACHE") != nullptr) return std::nullopt;
  const std::string path = model_cache_path(kind, setup, options);
  std::ifstream in(path);
  if (!in) return std::nullopt;
  try {
    WeightVector w = WeightVector::load(in, path);
    DOZZ_LOG_INFO("loaded cached weights from " << path);
    return w;
  } catch (const InputError& e) {
    // Corrupt cache entry: the caller retrains (but say why, with the
    // offending path, so a bad cache is discoverable).
    DOZZ_LOG_INFO("ignoring corrupt weight cache: " << e.what());
    return std::nullopt;
  }
}

void store_cached_weights(PolicyKind kind, const SimSetup& setup,
                          const TrainingOptions& options,
                          const WeightVector& weights) {
  std::error_code ec;
  std::filesystem::create_directories(model_cache_dir(), ec);
  if (ec) return;
  std::ostringstream out;
  weights.save(out);
  try {
    atomic_write_file(model_cache_path(kind, setup, options), out.str());
  } catch (const InputError& e) {
    DOZZ_LOG_INFO("could not persist weight cache: " << e.what());
  }
}

WeightVector load_or_train(PolicyKind kind, const SimSetup& setup,
                           const TrainingOptions& options) {
  if (auto cached = load_cached_weights(kind, setup, options)) return *cached;
  const TrainedModel model = train_policy_model(kind, setup, options);
  store_cached_weights(kind, setup, options, model.weights);
  return model.weights;
}

}  // namespace dozz
