// Tests for the file-backed model store and run-setup helpers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "src/sim/model_store.hpp"
#include "src/sim/registries.hpp"
#include "src/sim/setup.hpp"

namespace dozz {
namespace {

struct CacheDirGuard {
  std::string dir;
  explicit CacheDirGuard(const std::string& d) : dir(d) {
    std::filesystem::remove_all(dir);
    ::setenv("DOZZ_CACHE_DIR", dir.c_str(), 1);
  }
  ~CacheDirGuard() {
    ::unsetenv("DOZZ_CACHE_DIR");
    std::filesystem::remove_all(dir);
  }
};

SimSetup tiny_setup() {
  SimSetup setup;
  setup.topology = "cmesh";
  configure_topology(setup.topology, "", &setup.noc);
  setup.duration_cycles = 4000;
  setup.noc.epoch_cycles = 250;
  return setup;
}

TrainingOptions tiny_options() {
  TrainingOptions opts;
  opts.compressions = {kCompressedFactor};
  opts.gather_cycles = 3000;
  return opts;
}

TEST(ModelStore, CachePathEncodesConfiguration) {
  CacheDirGuard guard("/tmp/dozz_test_cache_path");
  const SimSetup setup = tiny_setup();
  const TrainingOptions opts = tiny_options();
  const std::string path =
      model_cache_path(PolicyKind::kDozzNoc, setup, opts);
  EXPECT_NE(path.find("DozzNoC"), std::string::npos);
  EXPECT_NE(path.find("cmesh"), std::string::npos);
  EXPECT_NE(path.find("e250"), std::string::npos);
  EXPECT_NE(path.find("d3000"), std::string::npos);
  // Different epoch -> different file.
  SimSetup other = setup;
  other.noc.epoch_cycles = 500;
  EXPECT_NE(model_cache_path(PolicyKind::kDozzNoc, other, opts), path);
}

TEST(ModelStore, TrainsOnceThenLoadsIdenticalWeights) {
  CacheDirGuard guard("/tmp/dozz_test_cache_roundtrip");
  const SimSetup setup = tiny_setup();
  const TrainingOptions opts = tiny_options();
  const WeightVector first =
      load_or_train(PolicyKind::kDozzNoc, setup, opts);
  ASSERT_TRUE(std::filesystem::exists(
      model_cache_path(PolicyKind::kDozzNoc, setup, opts)));
  const WeightVector second =
      load_or_train(PolicyKind::kDozzNoc, setup, opts);
  ASSERT_EQ(first.weights.size(), second.weights.size());
  for (std::size_t i = 0; i < first.weights.size(); ++i)
    EXPECT_DOUBLE_EQ(first.weights[i], second.weights[i]);
}

TEST(ModelStore, CorruptCacheEntryTriggersRetrain) {
  CacheDirGuard guard("/tmp/dozz_test_cache_corrupt");
  const SimSetup setup = tiny_setup();
  const TrainingOptions opts = tiny_options();
  const std::string path =
      model_cache_path(PolicyKind::kLeadTau, setup, opts);
  std::filesystem::create_directories(model_cache_dir());
  {
    std::ofstream out(path);
    out << "this is not a weight file\n";
  }
  const WeightVector w = load_or_train(PolicyKind::kLeadTau, setup, opts);
  EXPECT_EQ(w.weights.size(), 5u);
  // The corrupt entry was replaced with a valid one.
  std::ifstream in(path);
  EXPECT_NO_THROW(WeightVector::load(in));
}

TEST(SimSetupHelpers, ScaledCyclesFloors) {
  // Robust to DOZZ_QUICK being set in the environment.
  const std::uint64_t divisor = quick_divisor();
  EXPECT_GE(divisor, 1u);
  EXPECT_EQ(scaled_cycles(16000, 1), 16000u / divisor);
  EXPECT_EQ(scaled_cycles(1000, 5000), 5000u);  // floored either way
}

TEST(SimSetupHelpers, EndTickAndDrainHorizon) {
  SimSetup setup;
  setup.duration_cycles = 1000;
  EXPECT_EQ(setup.end_tick(), 1000u * kBaselinePeriodTicks);
  EXPECT_EQ(setup.max_drain_tick(), 8u * setup.end_tick());
  EXPECT_EQ(setup.make_topology().num_routers(), 64);
  setup.topology = "cmesh";
  EXPECT_EQ(setup.make_topology().num_routers(), 16);
}

}  // namespace
}  // namespace dozz
