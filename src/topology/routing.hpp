// Routing as an interface: each RoutingAlgorithm enum value is backed by a
// stateless RoutingPolicy singleton that routers consult for the next hop.
// New algorithms register here (and in the enum, which the checkpoint
// format serializes as a u8) without touching src/noc/ (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/topology/topology.hpp"

namespace dozz {

/// A deterministic routing algorithm. Implementations are stateless
/// singletons; `route` must be minimal and deadlock free on the
/// topologies it claims to support (`torus_aware`).
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  /// CLI / report name ("xy", "yx", "torus-xy").
  virtual const char* name() const = 0;

  /// The enum value this policy implements (checkpoint serialization and
  /// NocConfig storage still use the enum).
  virtual RoutingAlgorithm algorithm() const = 0;

  /// True when the algorithm routes minimally across wraparound links and
  /// cooperates with dateline VC classes, i.e. is safe on a torus.
  virtual bool torus_aware() const = 0;

  /// Output direction for a packet at `current` heading to `dest`, or
  /// nullopt when current == dest (eject locally).
  virtual std::optional<Direction> route(const Topology& topo,
                                         RouterId current,
                                         RouterId dest) const = 0;
};

/// A dense R×R next-hop table precomputed from a RoutingPolicy. Routing is
/// deterministic and stateless, so every (current, dest) decision can be
/// materialized once per simulation instead of paying a virtual `route`
/// dispatch (and its coordinate arithmetic) per flit and per Power Punch
/// path hop. One byte per pair, indexed by current * R + dest: the output
/// Direction, or kEject when current == dest. The next router one step
/// along it comes from an R×4 neighbour table.
class FlatRouteTable {
 public:
  /// Direction slot meaning "current == dest, eject locally".
  static constexpr std::uint8_t kEject = 0xFF;

  FlatRouteTable(const Topology& topo, const RoutingPolicy& policy);

  /// Output direction for (current → dest), or kEject when current == dest.
  std::uint8_t dir(RouterId current, RouterId dest) const {
    return dir_[index(current, dest)];
  }

  /// Next router one minimal hop from `current` toward `dest`; returns
  /// `current` itself when current == dest.
  RouterId next_hop(RouterId current, RouterId dest) const {
    const std::uint8_t d = dir(current, dest);
    if (d == kEject) return current;
    return neighbor_[static_cast<std::size_t>(current) * kNumDirections + d];
  }

  int num_routers() const { return n_; }

 private:
  std::size_t index(RouterId current, RouterId dest) const {
    return static_cast<std::size_t>(current) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(dest);
  }

  int n_;
  std::vector<std::uint8_t> dir_;
  /// neighbor_[r * 4 + d]: the router one hop from `r` in direction `d`,
  /// or -1 where the mesh ends (no route uses that slot).
  std::vector<RouterId> neighbor_;
};

/// Singleton policy for an enum value; never fails.
const RoutingPolicy& routing_policy(RoutingAlgorithm algo);

/// Looks up a policy by CLI name ("xy", "yx", "torus-xy"); nullptr when
/// unknown.
const RoutingPolicy* find_routing_policy(const std::string& name);

}  // namespace dozz
