// google-benchmark microbenchmarks of the simulator substrate itself:
// network stepping throughput, trace generation, ridge training, and the
// per-label runtime path (the operations Sec. III-D costs in hardware).
#include <benchmark/benchmark.h>

#include <sstream>

#include "bench/alloc_counter.hpp"
#include "src/core/policies.hpp"
#include "src/ml/mlp.hpp"
#include "src/ml/ridge.hpp"
#include "src/ml/scaler.hpp"
#include "src/noc/extended_features.hpp"
#include "src/noc/network.hpp"
#include "src/regulator/simo_converter.hpp"
#include "src/power/power_model.hpp"
#include "src/regulator/simo_ldo.hpp"
#include "src/sim/runner.hpp"
#include "src/trafficgen/benchmarks.hpp"
#include "src/trafficgen/patterns.hpp"

namespace {

using namespace dozz;

/// Measures heap allocations across the steady-state portion of one run:
/// the window between the second and the last epoch boundary, i.e. after
/// the ring buffers, event wheel, recycled overflow nodes and response
/// heap have grown to their working sizes. The stepping benchmarks report
/// the result as steady_allocs/event, which the zero-allocation hot path
/// keeps at 0 (the alloc_gate ctest checks it), next to steady_events, the
/// kernel events the window covered.
struct SteadyAllocWindow {
  static constexpr int kWarmupEpochs = 2;

  std::uint64_t start_allocs = 0;
  std::uint64_t start_events = 0;
  std::uint64_t end_allocs = 0;
  std::uint64_t end_events = 0;
  int boundaries = 0;

  void install(Network& net) {
    net.set_epoch_hook([this](Network& n, Tick, std::uint64_t) {
      const std::uint64_t a = bench::alloc_count();
      const std::uint64_t e = n.kernel_events();
      if (++boundaries <= kWarmupEpochs) {
        start_allocs = a;
        start_events = e;
      }
      end_allocs = a;
      end_events = e;
      return true;
    });
  }
  std::uint64_t allocs() const { return end_allocs - start_allocs; }
  std::uint64_t events() const { return end_events - start_events; }
};

/// Uniform traffic on the 8x8 mesh, each core injecting with probability
/// state.range(0) / 1000 per cycle. Reports kernel events and router edge
/// steps per second next to wall-clock time.
void BM_NetworkStep_Mesh8x8(benchmark::State& state) {
  const Topology topo = make_mesh();
  NocConfig config;
  config.auto_response = false;
  PowerModel power;
  SimoLdoRegulator regulator;
  const double rate = static_cast<double>(state.range(0)) / 1000.0;
  const std::uint64_t cycles = 2000;
  const Trace trace = generate_synthetic_trace(
      topo, uniform_pattern(topo.num_cores()), rate, cycles, 42);
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  std::uint64_t steps = 0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_events = 0;
  for (auto _ : state) {
    BaselinePolicy policy;
    Network net(topo, config, policy, power, regulator);
    SteadyAllocWindow window;
    window.install(net);
    net.run(trace, cycles * kBaselinePeriodTicks);
    delivered += net.metrics().flits_delivered;
    events += net.kernel_events();
    steps += net.edge_steps();
    steady_allocs += window.allocs();
    steady_events += window.events();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * cycles * static_cast<std::uint64_t>(
          topo.num_routers())));
  state.counters["flits"] = static_cast<double>(delivered) /
                            static_cast<double>(state.iterations());
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["edge_steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
  state.counters["steady_allocs/event"] =
      steady_events == 0 ? 0.0
                         : static_cast<double>(steady_allocs) /
                               static_cast<double>(steady_events);
  state.counters["steady_events"] = static_cast<double>(steady_events);
}

BENCHMARK(BM_NetworkStep_Mesh8x8)->Arg(5)->Arg(20)->Arg(50)
    ->Unit(benchmark::kMillisecond);

void BM_NetworkStep_PowerGated(benchmark::State& state) {
  const Topology topo = make_mesh();
  NocConfig config;
  config.auto_response = false;
  PowerModel power;
  SimoLdoRegulator regulator;
  const std::uint64_t cycles = 2000;
  const Trace trace = generate_synthetic_trace(
      topo, uniform_pattern(topo.num_cores()), 0.005, cycles, 42);
  std::uint64_t events = 0;
  std::uint64_t steps = 0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_events = 0;
  for (auto _ : state) {
    PowerGatePolicy policy;
    Network net(topo, config, policy, power, regulator);
    SteadyAllocWindow window;
    window.install(net);
    net.run(trace, cycles * kBaselinePeriodTicks);
    benchmark::DoNotOptimize(net.metrics().packets_delivered);
    events += net.kernel_events();
    steps += net.edge_steps();
    steady_allocs += window.allocs();
    steady_events += window.events();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * cycles * static_cast<std::uint64_t>(
          topo.num_routers())));
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["edge_steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
  state.counters["steady_allocs/event"] =
      steady_events == 0 ? 0.0
                         : static_cast<double>(steady_allocs) /
                               static_cast<double>(steady_events);
  state.counters["steady_events"] = static_cast<double>(steady_events);
}

BENCHMARK(BM_NetworkStep_PowerGated)->Unit(benchmark::kMillisecond);

/// Thread-scaling sweep of the sharded single-run engine (DESIGN.md §11):
/// one loaded 16x16 mesh stepped under 1/2/4/8 shards. edge_steps/s is the
/// comparable throughput number (router edge work is identical at any
/// shard count, unlike the engine-specific kernel-event count), and
/// barrier_stall is the mean fraction of wall-clock the shard threads
/// spent parked at window/epoch barriers — the protocol's scaling cost.
void BM_NetworkStep_Sharded16x16(benchmark::State& state) {
  const Topology topo = make_mesh(16, 16);
  NocConfig config;
  config.auto_response = false;
  config.shard_threads = static_cast<int>(state.range(0));
  PowerModel power;
  SimoLdoRegulator regulator;
  const std::uint64_t cycles = 2000;
  const Trace trace = generate_synthetic_trace(
      topo, uniform_pattern(topo.num_cores()), 0.02, cycles, 42);
  std::uint64_t events = 0;
  std::uint64_t steps = 0;
  double stall = 0.0;
  int shards = 0;
  for (auto _ : state) {
    BaselinePolicy policy;
    Network net(topo, config, policy, power, regulator);
    net.run(trace, cycles * kBaselinePeriodTicks);
    benchmark::DoNotOptimize(net.metrics().flits_delivered);
    events += net.kernel_events();
    steps += net.edge_steps();
    stall += net.shard_barrier_stall();
    shards = net.shards_used();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * cycles * static_cast<std::uint64_t>(
          topo.num_routers())));
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["edge_steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
  state.counters["barrier_stall"] =
      stall / static_cast<double>(state.iterations());
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_NetworkStep_Sharded16x16)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BenchmarkTraceGeneration(benchmark::State& state) {
  const Topology topo = make_mesh();
  const auto& profile = benchmark_profile("canneal");
  for (auto _ : state) {
    const Trace t = generate_benchmark_trace(profile, topo, 20000);
    benchmark::DoNotOptimize(t.size());
  }
}
BENCHMARK(BM_BenchmarkTraceGeneration)->Unit(benchmark::kMillisecond);

void BM_RidgeFit(benchmark::State& state) {
  Dataset d(EpochFeatures::names());
  Rng rng(3);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    const double ibu = rng.next_double() * 0.4;
    d.add({1.0, rng.next_double() * 20, rng.next_double() * 20,
           rng.next_double() * 10, ibu},
          ibu * 0.9 + 0.01 * rng.next_gaussian());
  }
  for (auto _ : state) {
    const WeightVector w =
        RidgeRegression::fit(d, {.lambda = 0.1, .penalize_bias = false});
    benchmark::DoNotOptimize(w.weights[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RidgeFit)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LabelGenerate(benchmark::State& state) {
  WeightVector w;
  w.feature_names = EpochFeatures::names();
  w.weights = {0.01, 0.002, 0.001, -0.0001, 0.85};
  LabelGenerateUnit unit(w);
  EpochFeatures f;
  f.reqs_sent = 12;
  f.reqs_received = 9;
  f.total_off_kcycles = 3.5;
  f.current_ibu = 0.12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(unit.generate(f));
    f.current_ibu += 1e-9;  // defeat value caching
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LabelGenerate);

void BM_NetworkStep_Torus8x8(benchmark::State& state) {
  const Topology topo = make_torus();
  NocConfig config;
  config.auto_response = false;
  config.vc_classes = 2;
  PowerModel power;
  SimoLdoRegulator regulator;
  const std::uint64_t cycles = 2000;
  const Trace trace = generate_synthetic_trace(
      topo, uniform_pattern(topo.num_cores()), 0.02, cycles, 42);
  for (auto _ : state) {
    BaselinePolicy policy;
    Network net(topo, config, policy, power, regulator);
    net.run(trace, cycles * kBaselinePeriodTicks);
    benchmark::DoNotOptimize(net.metrics().flits_delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * cycles * static_cast<std::uint64_t>(
          topo.num_routers())));
}
BENCHMARK(BM_NetworkStep_Torus8x8)->Unit(benchmark::kMillisecond);

void BM_MlpFit(benchmark::State& state) {
  Dataset d(EpochFeatures::names());
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const double ibu = rng.next_double() * 0.4;
    d.add({1.0, rng.next_double() * 20, rng.next_double() * 20,
           rng.next_double() * 10, ibu},
          ibu * 0.9);
  }
  for (auto _ : state) {
    MlpOptions opts;
    opts.hidden_units = static_cast<int>(state.range(0));
    opts.epochs = 10;
    MlpRegressor mlp(d.num_features(), opts);
    benchmark::DoNotOptimize(mlp.fit(d));
  }
}
BENCHMARK(BM_MlpFit)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_ConverterSolve(benchmark::State& state) {
  SimoConverter conv;
  RailLoads loads;
  loads.i12 = 2.0;
  loads.i11 = 0.4;
  loads.i09 = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.solve(loads).efficiency);
    loads.i12 += 1e-12;  // defeat caching
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConverterSolve);

void BM_ExtendedFeatureBuild(benchmark::State& state) {
  ExtendedFeatureInputs in;
  in.counters.port_occ_mean.assign(5, 0.25);
  in.counters.port_occ_peak.assign(5, 3.0);
  in.counters.port_arrivals.assign(5, 17.0);
  in.counters.port_departures.assign(5, 16.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_extended_features(in).size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExtendedFeatureBuild);

void BM_WeightsSerialization(benchmark::State& state) {
  WeightVector w;
  w.feature_names = EpochFeatures::names();
  w.weights = {0.01, 0.002, 0.001, -0.0001, 0.85};
  for (auto _ : state) {
    std::stringstream buf;
    w.save(buf);
    const WeightVector back = WeightVector::load(buf);
    benchmark::DoNotOptimize(back.weights[4]);
  }
}
BENCHMARK(BM_WeightsSerialization);

}  // namespace

BENCHMARK_MAIN();
