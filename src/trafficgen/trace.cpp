#include "src/trafficgen/trace.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "src/common/error.hpp"

namespace dozz {

void Trace::add(TraceEntry entry) {
  DOZZ_REQUIRE(entry.inject_ns >= 0.0);
  entries_.push_back(entry);
}

void Trace::sort_by_time() {
  const auto earlier = [](const TraceEntry& a, const TraceEntry& b) {
    return a.inject_ns < b.inject_ns;
  };
  // Generators mostly emit in time order already; a stable sort of a
  // sorted range is the identity, so skip it.
  if (std::is_sorted(entries_.begin(), entries_.end(), earlier)) return;
  std::stable_sort(entries_.begin(), entries_.end(), earlier);
}

double Trace::duration_ns() const {
  return entries_.empty() ? 0.0 : entries_.back().inject_ns;
}

Trace Trace::compressed(double factor) const {
  DOZZ_REQUIRE(factor > 0.0);
  Trace out(name_ + (factor < 1.0 ? "-compressed" : "-stretched"));
  for (TraceEntry e : entries_) {
    e.inject_ns *= factor;
    out.add(e);
  }
  return out;
}

double Trace::offered_load_pkts_per_core_us(int num_cores) const {
  DOZZ_REQUIRE(num_cores > 0);
  const double dur_us = duration_ns() * 1e-3;
  if (dur_us <= 0.0) return 0.0;
  return static_cast<double>(entries_.size()) /
         (dur_us * static_cast<double>(num_cores));
}

void Trace::save(std::ostream& out) const {
  out << "dozznoc-trace v1 " << (name_.empty() ? "unnamed" : name_) << ' '
      << entries_.size() << '\n';
  for (const auto& e : entries_) {
    out << e.src << ' ' << e.dst << ' ' << (e.is_response ? 'R' : 'Q') << ' '
        << e.inject_ns << '\n';
  }
}

Trace Trace::load(std::istream& in, const std::string& source) {
  std::string magic;
  std::string version;
  std::string name;
  std::size_t count = 0;
  in >> magic >> version >> name >> count;
  if (magic != "dozznoc-trace" || version != "v1")
    throw InputError("trace file " + source +
                     ": bad header (expected \"dozznoc-trace v1\")");
  Trace trace(name);
  for (std::size_t i = 0; i < count; ++i) {
    TraceEntry e;
    char type = 0;
    in >> e.src >> e.dst >> type >> e.inject_ns;
    if (!in)
      throw InputError("trace file " + source + ": truncated at entry " +
                       std::to_string(i) + " of " + std::to_string(count));
    if (type != 'Q' && type != 'R')
      throw InputError("trace file " + source + ": bad entry type '" +
                       std::string(1, type) + "' at entry " +
                       std::to_string(i) + " (expected Q or R)");
    e.is_response = (type == 'R');
    trace.add(e);
  }
  trace.sort_by_time();
  return trace;
}

Trace Trace::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InputError("cannot open trace file " + path);
  return load(in, path);
}

}  // namespace dozz
