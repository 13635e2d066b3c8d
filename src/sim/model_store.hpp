// File-backed cache of trained weight vectors, mirroring the paper's
// workflow of exporting offline-trained weights for the network simulator.
// Bench binaries share one cache directory so each ML model is trained once.
#pragma once

#include <optional>
#include <string>

#include "src/sim/training.hpp"

namespace dozz {

/// Cache directory: $DOZZ_CACHE_DIR or "./dozz_cache".
std::string model_cache_dir();

/// Deterministic cache file name for a (kind, setup, options) combination.
std::string model_cache_path(PolicyKind kind, const SimSetup& setup,
                             const TrainingOptions& options);

/// The cached weights for (kind, setup, options); nullopt when there is no
/// entry, the entry is corrupt (logged) or DOZZ_NO_CACHE is set.
std::optional<WeightVector> load_cached_weights(PolicyKind kind,
                                                const SimSetup& setup,
                                                const TrainingOptions& options);

/// Writes `weights` as the cache entry for (kind, setup, options). The write
/// is atomic: a concurrent reader sees no entry or a complete one. A failed
/// write is logged, not thrown.
void store_cached_weights(PolicyKind kind, const SimSetup& setup,
                          const TrainingOptions& options,
                          const WeightVector& weights);

/// Loads cached weights if present, otherwise runs the full training
/// pipeline and stores the result. Set DOZZ_NO_CACHE=1 to force retraining.
WeightVector load_or_train(PolicyKind kind, const SimSetup& setup,
                           const TrainingOptions& options = {});

}  // namespace dozz
