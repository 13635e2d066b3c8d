#include "src/topology/topology.hpp"

#include <cstdlib>

#include "src/common/error.hpp"

namespace dozz {

const char* direction_name(Direction d) {
  switch (d) {
    case Direction::kNorth: return "N";
    case Direction::kEast: return "E";
    case Direction::kSouth: return "S";
    case Direction::kWest: return "W";
  }
  DOZZ_ASSERT(false);
}

Topology::Topology(int width, int height, int concentration, std::string name,
                   bool wrap)
    : width_(width), height_(height), concentration_(concentration),
      name_(std::move(name)), wrap_(wrap) {
  DOZZ_REQUIRE(width >= 2 && height >= 2 && concentration >= 1);
}

int Topology::x_of(RouterId r) const {
  DOZZ_REQUIRE(r >= 0 && r < num_routers());
  return r % width_;
}

int Topology::y_of(RouterId r) const {
  DOZZ_REQUIRE(r >= 0 && r < num_routers());
  return r / width_;
}

RouterId Topology::router_at(int x, int y) const {
  DOZZ_REQUIRE(x >= 0 && x < width_ && y >= 0 && y < height_);
  return y * width_ + x;
}

std::optional<RouterId> Topology::neighbor(RouterId r, Direction d) const {
  const int x = x_of(r);
  const int y = y_of(r);
  if (wrap_) {
    switch (d) {
      case Direction::kNorth: return router_at(x, (y + height_ - 1) % height_);
      case Direction::kSouth: return router_at(x, (y + 1) % height_);
      case Direction::kWest: return router_at((x + width_ - 1) % width_, y);
      case Direction::kEast: return router_at((x + 1) % width_, y);
    }
    DOZZ_ASSERT(false);
  }
  switch (d) {
    case Direction::kNorth:
      return y > 0 ? std::optional<RouterId>(router_at(x, y - 1)) : std::nullopt;
    case Direction::kSouth:
      return y < height_ - 1 ? std::optional<RouterId>(router_at(x, y + 1))
                             : std::nullopt;
    case Direction::kWest:
      return x > 0 ? std::optional<RouterId>(router_at(x - 1, y)) : std::nullopt;
    case Direction::kEast:
      return x < width_ - 1 ? std::optional<RouterId>(router_at(x + 1, y))
                            : std::nullopt;
  }
  DOZZ_ASSERT(false);
}

bool Topology::is_wrap_link(RouterId r, Direction d) const {
  if (!wrap_) return false;
  const int x = x_of(r);
  const int y = y_of(r);
  switch (d) {
    case Direction::kNorth: return y == 0;
    case Direction::kSouth: return y == height_ - 1;
    case Direction::kWest: return x == 0;
    case Direction::kEast: return x == width_ - 1;
  }
  DOZZ_ASSERT(false);
}

CoreId Topology::core_at(RouterId r, int slot) const {
  DOZZ_REQUIRE(r >= 0 && r < num_routers());
  DOZZ_REQUIRE(slot >= 0 && slot < concentration_);
  return r * concentration_ + slot;
}

namespace {
/// Direction of travel along one dimension: positive, negative, or none.
/// On a torus, takes the shorter way (ties resolved positively).
std::optional<bool /*positive*/> dim_step(int from, int to, int extent,
                                          bool wrap) {
  if (from == to) return std::nullopt;
  if (!wrap) return to > from;
  const int forward = (to - from + extent) % extent;
  return forward <= extent - forward;
}
}  // namespace

std::optional<Direction> Topology::route_xy(RouterId current,
                                            RouterId dest) const {
  DOZZ_REQUIRE(current >= 0 && current < num_routers());
  DOZZ_REQUIRE(dest >= 0 && dest < num_routers());
  if (const auto x = dim_step(x_of(current), x_of(dest), width_, wrap_))
    return *x ? Direction::kEast : Direction::kWest;
  if (const auto y = dim_step(y_of(current), y_of(dest), height_, wrap_))
    return *y ? Direction::kSouth : Direction::kNorth;
  return std::nullopt;
}

std::optional<Direction> Topology::route_yx(RouterId current,
                                            RouterId dest) const {
  DOZZ_REQUIRE(current >= 0 && current < num_routers());
  DOZZ_REQUIRE(dest >= 0 && dest < num_routers());
  if (const auto y = dim_step(y_of(current), y_of(dest), height_, wrap_))
    return *y ? Direction::kSouth : Direction::kNorth;
  if (const auto x = dim_step(x_of(current), x_of(dest), width_, wrap_))
    return *x ? Direction::kEast : Direction::kWest;
  return std::nullopt;
}

int Topology::hop_count(RouterId src, RouterId dest) const {
  const int dx = std::abs(x_of(src) - x_of(dest));
  const int dy = std::abs(y_of(src) - y_of(dest));
  if (!wrap_) return dx + dy;
  return std::min(dx, width_ - dx) + std::min(dy, height_ - dy);
}

Topology make_mesh(int width, int height) {
  return Topology(width, height, 1,
                  "mesh" + std::to_string(width) + "x" + std::to_string(height));
}

Topology make_cmesh(int width, int height, int concentration) {
  return Topology(width, height, concentration,
                  "cmesh" + std::to_string(width) + "x" + std::to_string(height));
}

Topology make_torus(int width, int height) {
  return Topology(width, height, 1,
                  "torus" + std::to_string(width) + "x" +
                      std::to_string(height),
                  /*wrap=*/true);
}

}  // namespace dozz
