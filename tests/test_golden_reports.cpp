// Golden-report regression: pins the text + JSON report for every paper
// policy on mesh and cmesh against committed fixtures, under both the
// product's engine and the linear-scan reference kernel
// (tests/linear_kernel.hpp). The fixtures were generated from the pre-refactor tree, so any
// refactor that drifts simulation results, iteration order, float math or
// report formatting fails here byte-for-byte.
//
// Regenerate (only when an intentional output change lands) with:
//   DOZZ_REGEN_GOLDEN=1 ./dozz_tests --gtest_filter='GoldenReport*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "src/core/policies.hpp"
#include "src/sim/registries.hpp"
#include "src/sim/report.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/setup.hpp"
#include "tests/linear_kernel.hpp"

namespace dozz {
namespace {

// Fixed hand-written weights: golden runs must not depend on the trainer.
WeightVector golden_weights() {
  WeightVector w;
  w.feature_names = EpochFeatures::names();
  w.weights = {0.02, 0.004, 0.003, -0.0005, 0.55};
  w.lambda = 1.0;
  return w;
}

std::string policy_slug(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kBaseline: return "baseline";
    case PolicyKind::kPowerGate: return "pg";
    case PolicyKind::kLeadTau: return "lead";
    case PolicyKind::kDozzNoc: return "dozznoc";
    case PolicyKind::kMlTurbo: return "turbo";
  }
  return "unknown";
}

std::string golden_path(PolicyKind kind, bool cmesh) {
  return std::string(DOZZ_SOURCE_DIR) + "/tests/golden/" +
         policy_slug(kind) + (cmesh ? "_cmesh" : "_mesh") + ".txt";
}

// One deterministic short run; the report is the text report followed by
// the JSON line, exactly as dozznoc_sim prints them.
std::string report_for(PolicyKind kind, bool cmesh, bool linear) {
  SimSetup setup;
  setup.topology = cmesh ? "cmesh" : "mesh";
  configure_topology(setup.topology, "", &setup.noc);
  setup.duration_cycles = 8000;
  const Trace trace = make_benchmark_trace(setup, "blackscholes");
  std::optional<WeightVector> weights;
  if (policy_uses_ml(kind)) weights = golden_weights();
  auto policy =
      make_policy(kind, setup.make_topology().num_routers(), weights);
  const RunOutcome outcome =
      run_simulation_on(linear, setup, *policy, trace);
  std::ostringstream os;
  write_text_report(os, outcome);
  os << outcome_to_json(outcome) << '\n';
  return os.str();
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct GoldenCase {
  PolicyKind kind;
  bool cmesh;
  // gtest prints a parameter type without a printer as its raw bytes, and
  // ctest names each case after that print. Spelling out the tail bytes,
  // zeroed, leaves no padding to print, so `--gtest_list_tests` and the
  // ctest names are the same in every build.
  std::uint8_t zero[3] = {};
};
static_assert(sizeof(GoldenCase) == sizeof(PolicyKind) + 4,
              "GoldenCase must have no padding bytes");

class GoldenReport : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenReport, MatchesFixtureUnderBothKernels) {
  const GoldenCase& c = GetParam();
  const std::string path = golden_path(c.kind, c.cmesh);
  const std::string indexed = report_for(c.kind, c.cmesh, false);

  if (std::getenv("DOZZ_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << indexed;
    GTEST_SKIP() << "regenerated " << path;
  }

  const std::optional<std::string> fixture = read_file(path);
  ASSERT_TRUE(fixture.has_value())
      << "missing fixture " << path
      << " (regenerate with DOZZ_REGEN_GOLDEN=1)";
  EXPECT_EQ(indexed, *fixture) << "indexed-kernel report drifted from " << path;

  const std::string linear = report_for(c.kind, c.cmesh, true);
  EXPECT_EQ(linear, *fixture) << "linear-kernel report drifted from " << path;
}

std::string golden_case_name(
    const ::testing::TestParamInfo<GoldenCase>& info) {
  return policy_slug(info.param.kind) +
         std::string(info.param.cmesh ? "_cmesh" : "_mesh");
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, GoldenReport,
    ::testing::Values(GoldenCase{PolicyKind::kBaseline, false},
                      GoldenCase{PolicyKind::kBaseline, true},
                      GoldenCase{PolicyKind::kPowerGate, false},
                      GoldenCase{PolicyKind::kPowerGate, true},
                      GoldenCase{PolicyKind::kLeadTau, false},
                      GoldenCase{PolicyKind::kLeadTau, true},
                      GoldenCase{PolicyKind::kDozzNoc, false},
                      GoldenCase{PolicyKind::kDozzNoc, true},
                      GoldenCase{PolicyKind::kMlTurbo, false},
                      GoldenCase{PolicyKind::kMlTurbo, true}),
    golden_case_name);

}  // namespace
}  // namespace dozz
