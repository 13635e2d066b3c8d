// Network topologies: 8x8 mesh (64 routers / 64 cores) and 4x4 concentrated
// mesh (16 routers / 64 cores), as in paper Fig. 1. Both use XY dimension-
// order routing, which the power-gating scheme exploits for lookahead
// wake-up of downstream routers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/error.hpp"

namespace dozz {

using RouterId = int;
using CoreId = int;

/// Mesh compass direction; also the port index 0..3 of a router.
enum class Direction : std::uint8_t {
  kNorth = 0,
  kEast = 1,
  kSouth = 2,
  kWest = 3,
};

inline constexpr int kNumDirections = 4;

/// Opposite compass direction (the port a flit arrives on downstream).
inline Direction opposite(Direction d) {
  switch (d) {
    case Direction::kNorth: return Direction::kSouth;
    case Direction::kEast: return Direction::kWest;
    case Direction::kSouth: return Direction::kNorth;
    case Direction::kWest: return Direction::kEast;
  }
  DOZZ_ASSERT(false);
}

/// Short name ("N", "E", "S", "W").
const char* direction_name(Direction d);

/// Deterministic dimension-order routing algorithms. Both are deadlock
/// free; the power-gating scheme only needs the next hop to be computable
/// in advance (paper Sec. III-A), which any deterministic algorithm gives.
enum class RoutingAlgorithm : std::uint8_t {
  kXY = 0,       ///< Resolve X first, then Y (the paper's choice).
  kYX = 1,       ///< Resolve Y first, then X.
  kTorusXY = 2,  ///< XY with shortest-way wraparound; requires a torus
                 ///< topology and >= 2 VC classes for deadlock freedom.
};

/// True when both directions lie in the same dimension (E/W or N/S).
inline bool same_dimension(Direction a, Direction b) {
  const bool a_x = a == Direction::kEast || a == Direction::kWest;
  const bool b_x = b == Direction::kEast || b == Direction::kWest;
  return a_x == b_x;
}

/// A grid topology with per-router core concentration. concentration == 1
/// gives the plain mesh; concentration == 4 the concentrated mesh. With
/// `wrap` the grid closes into a torus (wraparound links); torus routing
/// picks the shorter way around each dimension and marks dateline (wrap)
/// links so the router can apply VC-class deadlock avoidance.
class Topology {
 public:
  Topology(int width, int height, int concentration, std::string name,
           bool wrap = false);

  int width() const { return width_; }
  int height() const { return height_; }
  int concentration() const { return concentration_; }
  int num_routers() const { return width_ * height_; }
  int num_cores() const { return num_routers() * concentration_; }
  const std::string& name() const { return name_; }

  /// Total ports per router: 4 compass + `concentration` local.
  int ports_per_router() const { return kNumDirections + concentration_; }

  /// Port index of the local port serving `slot` (0..concentration-1).
  int local_port(int slot) const {
    DOZZ_REQUIRE(slot >= 0 && slot < concentration_);
    return kNumDirections + slot;
  }

  /// True if `port` is a local (core-facing) port.
  bool is_local_port(int port) const {
    return port >= kNumDirections && port < ports_per_router();
  }

  int x_of(RouterId r) const;
  int y_of(RouterId r) const;
  RouterId router_at(int x, int y) const;

  bool is_torus() const { return wrap_; }

  /// Neighbor in direction `d`, or nullopt at the mesh edge (a torus
  /// always has a neighbor).
  std::optional<RouterId> neighbor(RouterId r, Direction d) const;

  /// True when following `d` from `r` crosses the wraparound seam — the
  /// dateline where packets must move to the escape VC class.
  bool is_wrap_link(RouterId r, Direction d) const;

  RouterId router_of_core(CoreId core) const {
    DOZZ_REQUIRE(core >= 0 && core < num_cores());
    return core / concentration_;
  }
  int local_slot_of_core(CoreId core) const {
    DOZZ_REQUIRE(core >= 0 && core < num_cores());
    return core % concentration_;
  }
  CoreId core_at(RouterId r, int slot) const;

  /// XY dimension-order routing: the direction a packet at `current` takes
  /// toward `dest`, or nullopt when current == dest (eject locally).
  std::optional<Direction> route_xy(RouterId current, RouterId dest) const;

  /// YX dimension-order routing (Y resolved first).
  std::optional<Direction> route_yx(RouterId current, RouterId dest) const;

  /// Number of router-to-router hops (minimal for both algorithms).
  int hop_count(RouterId src, RouterId dest) const;

 private:
  int width_;
  int height_;
  int concentration_;
  std::string name_;
  bool wrap_;
};

/// 8x8 mesh: 64 routers, one core each (paper Fig. 1b).
Topology make_mesh(int width = 8, int height = 8);

/// 4x4 concentrated mesh: 16 routers, four cores each (paper Fig. 1a).
Topology make_cmesh(int width = 4, int height = 4, int concentration = 4);

/// 8x8 torus: the mesh with wraparound links. Requires 2 VC classes in the
/// router configuration for deadlock freedom (NocConfig::vc_classes).
Topology make_torus(int width = 8, int height = 8);

}  // namespace dozz
