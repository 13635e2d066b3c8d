// Error-path hardening: loaders must fail with typed exceptions that name
// the offending file and position, run parameters no simulation can use
// must fail with a ConfigError naming the key (numeric flags echo the
// value as typed), and the thread pool must account for every task
// exception (not just the one wait_all rethrows).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/parse.hpp"
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

TEST(RunParameters, NegativeIdleThresholdIsAConfigError) {
  SimSetup setup;
  setup.noc.t_idle_cycles = -3;
  expect_config_error([&] { validate(setup); }, "noc.t_idle_cycles");
  expect_config_error([&] { build_network(setup.noc); }, "t_idle_cycles");
  setup.noc.t_idle_cycles = 0;
  EXPECT_NO_THROW(validate(setup));
}

TEST(RunParameters, LinkLatencyBelowOneCycleIsAConfigError) {
  // Routers add the link latency times a period to unsigned ticks: a
  // negative count would wrap and act as a zero-cycle link.
  SimSetup setup;
  setup.noc.link_latency_cycles = -2;
  expect_config_error([&] { validate(setup); }, "noc.link_latency_cycles");
  expect_config_error([&] { build_network(setup.noc); },
                      "link_latency_cycles");
  setup.noc.link_latency_cycles = 0;
  expect_config_error([&] { build_network(setup.noc); },
                      "link_latency_cycles");
  setup.noc.link_latency_cycles = 1;
  EXPECT_NO_THROW(validate(setup));
}

TEST(RunParameters, NegativePipelineDepthIsAConfigError) {
  SimSetup setup;
  setup.noc.pipeline_stages = -1;
  expect_config_error([&] { validate(setup); }, "noc.pipeline_stages");
  expect_config_error([&] { build_network(setup.noc); }, "pipeline_stages");
  setup.noc.pipeline_stages = 0;
  EXPECT_NO_THROW(validate(setup));
}

TEST(RunParameters, UnsignedValuesAreCheckedAndEchoedAsTyped) {
  EXPECT_EQ(parse_unsigned("0", "--cycles"), 0u);
  EXPECT_EQ(parse_unsigned("18446744073709551615", "--cycles"),
            18446744073709551615u);
  EXPECT_EQ(parse_unsigned("7", "--threads", 7), 7u);
  for (const std::string bad :
       {"-5", "+5", "5x", "", " 5", "0x10", "1e3", "18446744073709551616"}) {
    try {
      parse_unsigned(bad, "--cycles");
      ADD_FAILURE() << "accepted \"" << bad << "\"";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()),
                "--cycles must be a non-negative integer (got " + bad + ")");
    }
  }
  expect_config_error([] { parse_unsigned("8", "--threads", 7); },
                      "--threads");
}

/// Expects `fn` to throw a ConfigError whose message is exactly `message`.
void expect_config_message(const std::function<void()>& fn,
                           const std::string& message) {
  try {
    fn();
    ADD_FAILURE() << "expected a ConfigError: " << message;
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

TEST(RunParameters, SignedValuesAreCheckedAndEchoedAsTyped) {
  EXPECT_EQ(parse_signed("-1", "--watchdog"), -1);
  EXPECT_EQ(parse_signed("0", "--vcs"), 0);
  EXPECT_EQ(parse_signed("2147483647", "--depth"), 2147483647);
  EXPECT_EQ(parse_signed("-2147483648", "--tidle"), -2147483647 - 1);
  EXPECT_EQ(parse_signed("256", "--shard-threads", 0, 256), 256);
  for (const std::string bad : {"0abc", "3x", "abc", "", " 5", "+5", "1.9",
                                "0x10", "1e3", "2147483648",
                                "-2147483649"})
    expect_config_message([&] { parse_signed(bad, "--vcs"); },
                          "--vcs must be an integer (got " + bad + ")");
  // A bounded value names its range.
  for (const std::string bad : {"-1", "257"})
    expect_config_message(
        [&] { parse_signed(bad, "--shard-threads", 0, 256); },
        "--shard-threads must be an integer from 0 to 256 (got " + bad +
            ")");
  expect_config_message([] { parse_signed("-1", "--retries", 0); },
                        "--retries must be an integer of at least 0 (got -1)");
}

TEST(RunParameters, FloatingValuesAreCheckedAndEchoedAsTyped) {
  EXPECT_EQ(parse_double("0.25", "--compress"), 0.25);
  EXPECT_EQ(parse_double("-1", "--compress"), -1.0);
  EXPECT_EQ(parse_double("1e-3", "--fault-link"), 1e-3);
  EXPECT_EQ(parse_double("0", "--timeout", 0.0), 0.0);
  for (const std::string bad : {"0x", "0.5abc", "abc", "", " 1", "+1",
                                "-1z", "inf", "nan", "1e999"})
    expect_config_message(
        [&] { parse_double(bad, "--compress"); },
        "--compress must be a finite number (got " + bad + ")");
  expect_config_message(
      [] { parse_double("-1", "--backoff", 0.0); },
      "--backoff must be a finite number of at least 0 (got -1)");
}

TEST(RunParameters, ConfigNumbersAreChecked) {
  std::stringstream in(
      "compress = 0.5abc\nwatchdog = 1.9\nvcs = 4294967297\nok = -3\n");
  const ConfigMap c = parse_config(in);
  expect_config_message(
      [&] { config_get_double(c, "compress", 1.0); },
      "config key 'compress' must be a finite number (got 0.5abc)");
  expect_config_message([&] { config_get_int(c, "watchdog", 0); },
                        "config key 'watchdog' must be an integer (got 1.9)");
  // Out of int range is an error, not a wrap-around to 1.
  expect_config_message(
      [&] { config_get_int(c, "vcs", 2); },
      "config key 'vcs' must be an integer (got 4294967297)");
  EXPECT_EQ(config_get_int(c, "ok", 0), -3);
  EXPECT_EQ(config_get_int(c, "missing", 7), 7);
}

// The allocators keep one mask bit per (input port, VC) slot: 13 VCs on a
// 5-port mesh router make 65 slots, one more than fits.
TEST(RunParameters, MoreRouterSlotsThanAMaskIsAConfigError) {
  SimSetup setup;
  setup.noc.vcs_per_port = 13;
  expect_config_message(
      [&] { validate(setup); },
      "noc.vcs_per_port must be at most 12 with 5 ports per router (got 13)");
  expect_config_error([&] { build_network(setup.noc); }, "vcs_per_port");
  // 12 VCs (60 slots) still run; cmesh's 8-port routers stop at 8 VCs.
  setup.noc.vcs_per_port = 12;
  EXPECT_NO_THROW(validate(setup));
  EXPECT_NO_THROW(build_network(setup.noc));
  setup.topology = "cmesh";
  expect_config_error([&] { validate(setup); }, "noc.vcs_per_port");
  setup.noc.vcs_per_port = 8;
  EXPECT_NO_THROW(validate(setup));
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
