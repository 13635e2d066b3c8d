// Error-path hardening: loaders must fail with typed exceptions that name
// the offending file and position, run parameters no simulation can use
// must fail with a ConfigError naming the key, and the thread pool must
// account for every task exception (not just the one wait_all rethrows).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/policies.hpp"
#include "src/ml/ridge.hpp"
#include "src/noc/network.hpp"
#include "src/sim/config_file.hpp"
#include "src/sim/setup.hpp"
#include "src/trafficgen/trace.hpp"

namespace dozz {
namespace {

/// Writes `content` to a fresh file in the test temp dir and returns its
/// path. Files are cleaned up by the fixture.
class ErrorPathTest : public ::testing::Test {
 protected:
  std::string write_file(const std::string& name,
                         const std::string& content) {
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("dozz_error_paths_" + name);
    std::ofstream out(path);
    out << content;
    out.close();
    created_.push_back(path);
    return path.string();
  }

  void TearDown() override {
    for (const auto& p : created_) std::filesystem::remove(p);
  }

  std::vector<std::filesystem::path> created_;
};

void expect_input_error_mentions(const std::function<void()>& fn,
                                 const std::string& needle) {
  try {
    fn();
    FAIL() << "expected InputError mentioning \"" << needle << "\"";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

// --- Trace files ---

TEST_F(ErrorPathTest, TraceMissingFileNamesPath) {
  expect_input_error_mentions(
      [] { Trace::load_file("/nonexistent/dir/t.trace"); },
      "/nonexistent/dir/t.trace");
}

TEST_F(ErrorPathTest, TraceBadHeaderNamesPath) {
  const std::string path = write_file("bad_header.trace", "not-a-trace v9\n");
  expect_input_error_mentions([&] { Trace::load_file(path); }, path);
  expect_input_error_mentions([&] { Trace::load_file(path); }, "header");
}

TEST_F(ErrorPathTest, TraceTruncationReportsEntryOffset) {
  const std::string path = write_file(
      "truncated.trace",
      "dozznoc-trace v1 demo 3\n0 1 Q 10.0\n1 2 R 20.0\n");
  expect_input_error_mentions([&] { Trace::load_file(path); },
                              "truncated at entry 2 of 3");
  expect_input_error_mentions([&] { Trace::load_file(path); }, path);
}

TEST_F(ErrorPathTest, TraceBadEntryTypeReportsOffset) {
  const std::string path = write_file(
      "bad_type.trace", "dozznoc-trace v1 demo 1\n0 1 X 10.0\n");
  expect_input_error_mentions([&] { Trace::load_file(path); },
                              "bad entry type 'X' at entry 0");
}

TEST_F(ErrorPathTest, TraceGoodFileStillLoads) {
  const std::string path = write_file(
      "good.trace", "dozznoc-trace v1 demo 2\n0 1 Q 10.0\n1 2 R 5.0\n");
  const Trace t = Trace::load_file(path);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.name(), "demo");
  // Entries come back time-sorted.
  EXPECT_EQ(t.entries().front().inject_ns, 5.0);
}

// --- Weight files ---

TEST_F(ErrorPathTest, WeightsMissingFileNamesPath) {
  expect_input_error_mentions(
      [] { WeightVector::load_file("/nonexistent/w.txt"); },
      "/nonexistent/w.txt");
}

TEST_F(ErrorPathTest, WeightsBadHeaderNamesPath) {
  const std::string path = write_file("w_hdr.txt", "garbage\n");
  expect_input_error_mentions([&] { WeightVector::load_file(path); }, path);
}

TEST_F(ErrorPathTest, WeightsBadCountReported) {
  const std::string path =
      write_file("w_count.txt", "dozznoc-weights v1\n0.5\n0\n");
  expect_input_error_mentions([&] { WeightVector::load_file(path); },
                              "bad weight count 0");
}

TEST_F(ErrorPathTest, WeightsTruncationReportsOffset) {
  const std::string path = write_file(
      "w_trunc.txt", "dozznoc-weights v1\n0.5\n3\nbias 1.0\nibu 2.0\n");
  expect_input_error_mentions([&] { WeightVector::load_file(path); },
                              "truncated at weight 2 of 3");
}

// --- Config files ---

TEST_F(ErrorPathTest, ConfigMissingFileNamesPath) {
  expect_input_error_mentions([] { load_config_file("/nonexistent/c.cfg"); },
                              "/nonexistent/c.cfg");
}

TEST_F(ErrorPathTest, ConfigBadLineNamesPathAndLine) {
  const std::string path = write_file(
      "bad.cfg", "# comment\npolicy = dozznoc\nthis line has no equals\n");
  expect_input_error_mentions([&] { load_config_file(path); }, path);
  expect_input_error_mentions([&] { load_config_file(path); }, "line 3");
}

// --- Thread pool exception accounting ---

/// Expects `fn` to throw a ConfigError whose message starts with `key`.
void expect_config_error(const std::function<void()>& fn,
                         const std::string& key) {
  try {
    fn();
    FAIL() << "expected a ConfigError naming " << key;
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()).rfind(key + " must be", 0), 0u)
        << e.what();
  }
}

/// A Network built on `config` (the constructor validates it).
void build_network(const NocConfig& config) {
  const Topology topo = make_mesh(4, 4);
  const PowerModel power;
  const SimoLdoRegulator regulator;
  BaselinePolicy policy;
  Network net(topo, config, policy, power, regulator);
}

TEST(RunParameters, DefaultsAreValid) {
  EXPECT_NO_THROW(validate(SimSetup{}));
  EXPECT_NO_THROW(build_network(NocConfig{}));
}

TEST(RunParameters, ZeroEpochIsAConfigError) {
  // A zero-cycle epoch would divide by zero where a run sizes its epoch logs.
  SimSetup setup;
  setup.noc.epoch_cycles = 0;
  expect_config_error([&] { validate(setup); }, "noc.epoch_cycles");
  expect_config_error([&] { build_network(setup.noc); }, "epoch_cycles");
}

TEST(RunParameters, ZeroVcsIsAConfigError) {
  SimSetup setup;
  setup.noc.vcs_per_port = 0;
  expect_config_error([&] { validate(setup); }, "noc.vcs_per_port");
  expect_config_error([&] { build_network(setup.noc); }, "vcs_per_port");
}

TEST(RunParameters, ZeroDepthIsAConfigError) {
  SimSetup setup;
  setup.noc.buffer_depth_flits = 0;
  expect_config_error([&] { validate(setup); }, "noc.buffer_depth_flits");
  expect_config_error([&] { build_network(setup.noc); },
                      "buffer_depth_flits");
}

TEST(RunParameters, NegativeCyclesIsAConfigError) {
  // What strtoull makes of "-5": a duration whose drain horizon overflows
  // the tick range.
  SimSetup setup;
  setup.duration_cycles = static_cast<std::uint64_t>(-5);
  expect_config_error([&] { validate(setup); }, "duration_cycles");
  setup.duration_cycles = 0;
  expect_config_error([&] { validate(setup); }, "duration_cycles");
}

TEST(RunParameters, ZeroCompressionIsAConfigError) {
  expect_config_error([] { validate(SimSetup{}, 0.0); }, "compression");
  expect_config_error([] { validate(SimSetup{}, -0.25); }, "compression");
}

TEST(RunParameters, ErrorsNameKeysThroughTheNamer) {
  SimSetup setup;
  setup.noc.epoch_cycles = 0;
  const KeyNamer as_flag = [](const std::string& key) {
    return key == "noc.epoch_cycles" ? std::string("--epoch") : key;
  };
  expect_config_error([&] { validate(setup, 1.0, as_flag); }, "--epoch");
}

TEST(ThreadPoolErrors, SuppressedExceptionsAreCounted) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.suppressed_exceptions(), 0u);
  for (int i = 0; i < 3; ++i)
    pool.submit([] { throw std::runtime_error("task failure"); });
  EXPECT_THROW(pool.wait_all(), std::runtime_error);
  // One exception propagated; the other two must be accounted for.
  EXPECT_EQ(pool.suppressed_exceptions(), 2u);
}

TEST(ThreadPoolErrors, SuccessfulTasksSuppressNothing) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) pool.submit([] {});
  pool.wait_all();
  EXPECT_EQ(pool.suppressed_exceptions(), 0u);
}

}  // namespace
}  // namespace dozz
