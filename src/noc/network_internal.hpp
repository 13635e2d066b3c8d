// Helpers shared between the engine loop and the checkpoint layer; not
// part of the public Network surface.
#pragma once

#include <cstdint>
#include <cstring>

#include "src/common/time.hpp"
#include "src/topology/topology.hpp"
#include "src/trafficgen/trace.hpp"

namespace dozz {

namespace internal {

/// FNV-1a over the trace's entry fields (not raw struct bytes, which would
/// hash padding). A resumed run validates this fingerprint so a checkpoint
/// can never be silently continued against a different workload.
inline std::uint64_t trace_fingerprint(const Trace& trace) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& e : trace.entries()) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.src)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.dst)));
    mix(e.is_response ? 1 : 0);
    std::uint64_t bits;
    std::memcpy(&bits, &e.inject_ns, sizeof bits);
    mix(bits);
  }
  return h;
}

}  // namespace internal
}  // namespace dozz
