// Error handling helpers shared across all DozzNoC modules.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace dozz {

/// Thrown when a caller violates an API precondition.
class PreconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when the simulator reaches an internally inconsistent state.
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown on malformed external input (trace files, weight files, ...).
class InputError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a configuration value is out of range (a zero-cycle epoch)
/// or values are individually valid but mutually inconsistent (a torus
/// topology with a non-wrap-aware routing algorithm); the message names
/// the offending key or flag.
class ConfigError : public InputError {
 public:
  using InputError::InputError;
};

/// Maps a configuration key to the name its value was given under (a CLI
/// flag), so a ConfigError names what the user wrote. Empty = name the key
/// itself.
using KeyNamer = std::function<std::string(const std::string& key)>;

/// Thrown when a routing step cannot make forward progress — a corrupted
/// next-hop table or a destination the algorithm cannot reach. The message
/// names the path's src/dst and the router where the walk stopped.
class RoutingError : public InvariantError {
 public:
  using InvariantError::InvariantError;
};

/// Thrown by the no-progress watchdog when a simulation stops making
/// forward progress (no flit ejected for the configured number of epochs
/// while packets are still outstanding) — a livelock/deadlock diagnosis
/// with a per-router dump, instead of a silent hang.
class SimStallError : public std::runtime_error {
 public:
  explicit SimStallError(const std::string& what, std::uint64_t stall_tick = 0)
      : std::runtime_error(what), stall_tick_(stall_tick) {}
  /// Simulation tick at which the watchdog fired.
  std::uint64_t stall_tick() const { return stall_tick_; }

 private:
  std::uint64_t stall_tick_;
};

namespace detail {
[[noreturn]] inline void throw_precondition(const char* expr, const char* file,
                                            int line) {
  throw PreconditionError(std::string("precondition failed: ") + expr + " at " +
                          file + ":" + std::to_string(line));
}
[[noreturn]] inline void throw_invariant(const char* expr, const char* file,
                                         int line) {
  throw InvariantError(std::string("invariant violated: ") + expr + " at " +
                       file + ":" + std::to_string(line));
}
}  // namespace detail

}  // namespace dozz

/// Validates a public API precondition; throws dozz::PreconditionError.
#define DOZZ_REQUIRE(expr)                                        \
  do {                                                            \
    if (!(expr)) ::dozz::detail::throw_precondition(#expr, __FILE__, __LINE__); \
  } while (false)

/// Validates an internal invariant; throws dozz::InvariantError.
#define DOZZ_ASSERT(expr)                                      \
  do {                                                         \
    if (!(expr)) ::dozz::detail::throw_invariant(#expr, __FILE__, __LINE__); \
  } while (false)
