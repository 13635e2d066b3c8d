// The indexed event-schedule kernel must replay the linear-scan reference
// kernel (tests/linear_kernel.hpp) bit for bit: identical metrics (down to
// RunningStat internals), identical epoch logs, identical extended logs,
// for every policy, at both load regimes, in both fixed-window and
// run-to-drain modes. Tie-breaking
// at equal ticks (router-id order) and mid-sweep wake ordering are part of
// the kernel's contract, so any divergence here is a kernel bug even when
// aggregate results look plausible.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/core/policies.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/setup.hpp"
#include "tests/linear_kernel.hpp"

namespace dozz {
namespace {

RunOutcome run_kernel(PolicyKind kind, const std::string& benchmark,
                      double compression, bool linear, bool drain,
                      bool collect_extended, bool faults_armed = false) {
  SimSetup setup;
  setup.duration_cycles = 6000;
  setup.run_to_drain = drain;
  setup.noc.epoch_cycles = 500;
  if (collect_extended) setup.noc.collect_extended_log = true;
  // Armed = fault layer on (hooks live, CRC stamped) but all rates zero:
  // must be bit-identical to a faults-off run.
  if (faults_armed) setup.noc.faults.enabled = true;

  const Trace trace = make_benchmark_trace(setup, benchmark, compression);
  const int routers = setup.make_topology().num_routers();
  auto policy = make_policy(kind, routers,
                            policy_uses_ml(kind)
                                ? std::optional<WeightVector>(
                                      passthrough_weights())
                                : std::nullopt);
  return run_simulation_on(linear, setup, *policy, trace,
                           /*collect_epoch_log=*/true, collect_extended);
}

using EquivParam = std::tuple<PolicyKind, std::string /*benchmark*/>;

class KernelEquivalenceTest : public ::testing::TestWithParam<EquivParam> {};

TEST_P(KernelEquivalenceTest, IndexedMatchesLinearBitForBit) {
  const auto [kind, benchmark] = GetParam();
  for (double compression : {1.0, kCompressedFactor}) {
    const RunOutcome linear =
        run_kernel(kind, benchmark, compression, /*linear=*/true,
                   /*drain=*/false, /*collect_extended=*/false);
    const RunOutcome indexed =
        run_kernel(kind, benchmark, compression, /*linear=*/false,
                   /*drain=*/false, /*collect_extended=*/false);
    expect_metrics_identical(linear.metrics, indexed.metrics);
    expect_epoch_logs_identical(linear.epoch_log, indexed.epoch_log);
  }
}

TEST_P(KernelEquivalenceTest, IndexedMatchesLinearRunToDrain) {
  const auto [kind, benchmark] = GetParam();
  const RunOutcome linear =
      run_kernel(kind, benchmark, kCompressedFactor, /*linear=*/true,
                 /*drain=*/true, /*collect_extended=*/false);
  const RunOutcome indexed =
      run_kernel(kind, benchmark, kCompressedFactor, /*linear=*/false,
                 /*drain=*/true, /*collect_extended=*/false);
  expect_metrics_identical(linear.metrics, indexed.metrics);
  expect_epoch_logs_identical(linear.epoch_log, indexed.epoch_log);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, KernelEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(all_policy_kinds()),
                       ::testing::Values("blackscholes", "fft")),
    [](const ::testing::TestParamInfo<EquivParam>& info) {
      return sanitize(policy_name(std::get<0>(info.param)) + "_" +
                      std::get<1>(info.param));
    });

// The fault-injection layer with every rate at zero must be invisible:
// same metrics and epoch logs as a faults-off run, bit for bit, in both
// kernels. (A zero-rate draw consumes no RNG and no hook changes state, so
// the only difference is dead branches and CRC stamping.)
TEST(KernelEquivalenceFaults, ArmedZeroRatesBitIdenticalToDisabled) {
  for (PolicyKind kind :
       {PolicyKind::kBaseline, PolicyKind::kPowerGate, PolicyKind::kDozzNoc}) {
    for (bool linear : {true, false}) {
      const RunOutcome off =
          run_kernel(kind, "fft", kCompressedFactor, linear,
                     /*drain=*/true, /*collect_extended=*/false);
      const RunOutcome armed =
          run_kernel(kind, "fft", kCompressedFactor, linear,
                     /*drain=*/true, /*collect_extended=*/false,
                     /*faults_armed=*/true);
      expect_metrics_identical(off.metrics, armed.metrics);
      expect_epoch_logs_identical(off.epoch_log, armed.epoch_log);
    }
  }
}

// The extended (41-feature) log path shares the scratch buffers the fast
// kernel introduced; it must replay identically too.
TEST(KernelEquivalenceExtended, ExtendedLogsIdentical) {
  const RunOutcome linear =
      run_kernel(PolicyKind::kDozzNoc, "fft", 1.0, /*linear=*/true,
                 /*drain=*/false, /*collect_extended=*/true);
  const RunOutcome indexed =
      run_kernel(PolicyKind::kDozzNoc, "fft", 1.0, /*linear=*/false,
                 /*drain=*/false, /*collect_extended=*/true);
  expect_metrics_identical(linear.metrics, indexed.metrics);
  ASSERT_EQ(linear.extended_log.size(), indexed.extended_log.size());
  for (std::size_t e = 0; e < linear.extended_log.size(); ++e) {
    ASSERT_EQ(linear.extended_log[e].size(), indexed.extended_log[e].size());
    for (std::size_t r = 0; r < linear.extended_log[e].size(); ++r)
      EXPECT_EQ(linear.extended_log[e][r], indexed.extended_log[e][r])
          << "epoch " << e << " router " << r;
  }
}

}  // namespace
}  // namespace dozz
