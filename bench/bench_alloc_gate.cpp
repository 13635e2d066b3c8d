// Zero-allocation gate over the micro-sim stepping benchmarks (registered as
// the `alloc_gate` ctest). Runs bench_micro_sim on the two pinned stepping
// configurations and fails unless each reports exactly zero heap
// allocations per kernel event over its steady-state window
// (steady_allocs/event, DESIGN.md §10) and that window held kernel events
// (steady_events > 0), so an empty window cannot pass. Allocation counts do
// not depend on the host's speed, so the gate holds on any machine.
//
//   bench_alloc_gate <bench_micro_sim-path>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

const char* kPinned[] = {"BM_NetworkStep_Mesh8x8/20",
                         "BM_NetworkStep_PowerGated"};

/// The number after `"key": ` inside the benchmark object that starts at
/// `from` (the search stops at the next "name" field); false if absent.
bool counter(const std::string& text, const std::string& key,
             std::size_t from, double* value) {
  std::size_t until = text.find("\"name\":", from + 1);
  if (until == std::string::npos) until = text.size();
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos || at >= until) return false;
  *value = std::strtod(text.c_str() + at + needle.size(), nullptr);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: bench_alloc_gate <bench_micro_sim>\n");
    return 2;
  }
  const std::string report_path = "alloc_gate_report.json";
  const std::string cmd =
      "\"" + std::string(argv[1]) +
      "\" --benchmark_filter='^BM_NetworkStep_Mesh8x8/20$|"
      "^BM_NetworkStep_PowerGated$' "
      "--benchmark_min_time=0.01 "
      "--benchmark_out_format=json --benchmark_out=" +
      report_path + " > /dev/null";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "alloc_gate: benchmark run failed: %s\n",
                 cmd.c_str());
    return 1;
  }
  std::ifstream in(report_path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  bool failed = false;
  for (const char* name : kPinned) {
    const std::size_t at =
        text.find(std::string("\"name\": \"") + name + "\"");
    double allocs = 0.0;
    double events = 0.0;
    if (at == std::string::npos ||
        !counter(text, "steady_allocs/event", at, &allocs) ||
        !counter(text, "steady_events", at, &events)) {
      std::fprintf(stderr, "alloc_gate: %s: no steady-state counters in %s\n",
                   name, report_path.c_str());
      failed = true;
      continue;
    }
    const bool ok = allocs == 0.0 && events > 0.0;
    std::printf("alloc_gate: %-28s %g allocs/event over %.0f events -> %s\n",
                name, allocs, events, ok ? "ok" : "FAILED");
    if (!ok) failed = true;
  }
  if (failed) {
    std::fprintf(stderr,
                 "alloc_gate: the steady-state stepping path must allocate "
                 "nothing (DESIGN.md §10)\n");
    return 1;
  }
  return 0;
}
