#include "src/topology/routing.hpp"

#include "src/common/error.hpp"

namespace dozz {
namespace {

class XyRouting final : public RoutingPolicy {
 public:
  const char* name() const override { return "xy"; }
  RoutingAlgorithm algorithm() const override { return RoutingAlgorithm::kXY; }
  bool torus_aware() const override { return false; }
  std::optional<Direction> route(const Topology& topo, RouterId current,
                                 RouterId dest) const override {
    return topo.route_xy(current, dest);
  }
};

class YxRouting final : public RoutingPolicy {
 public:
  const char* name() const override { return "yx"; }
  RoutingAlgorithm algorithm() const override { return RoutingAlgorithm::kYX; }
  bool torus_aware() const override { return false; }
  std::optional<Direction> route(const Topology& topo, RouterId current,
                                 RouterId dest) const override {
    return topo.route_yx(current, dest);
  }
};

// Same next-hop function as XY (route_xy resolves wraparound through the
// topology's wrap flag), but declared torus-aware: it routes the shorter
// way around each dimension and relies on the router's dateline VC
// classes for deadlock freedom.
class TorusXyRouting final : public RoutingPolicy {
 public:
  const char* name() const override { return "torus-xy"; }
  RoutingAlgorithm algorithm() const override {
    return RoutingAlgorithm::kTorusXY;
  }
  bool torus_aware() const override { return true; }
  std::optional<Direction> route(const Topology& topo, RouterId current,
                                 RouterId dest) const override {
    return topo.route_xy(current, dest);
  }
};

}  // namespace

FlatRouteTable::FlatRouteTable(const Topology& topo,
                               const RoutingPolicy& policy)
    : n_(topo.num_routers()) {
  neighbor_.assign(static_cast<std::size_t>(n_) * kNumDirections, -1);
  for (RouterId r = 0; r < n_; ++r)
    for (int d = 0; d < kNumDirections; ++d)
      neighbor_[static_cast<std::size_t>(r) * kNumDirections +
                static_cast<std::size_t>(d)] =
          topo.neighbor(r, static_cast<Direction>(d)).value_or(-1);
  dir_.assign(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_),
              kEject);
  for (RouterId current = 0; current < n_; ++current) {
    for (RouterId dest = 0; dest < n_; ++dest) {
      if (current == dest) continue;
      const std::optional<Direction> d = policy.route(topo, current, dest);
      DOZZ_ASSERT(d.has_value());
      // Every hop the table names must exist.
      DOZZ_ASSERT(neighbor_[static_cast<std::size_t>(current) *
                                kNumDirections +
                            static_cast<std::size_t>(*d)] >= 0);
      dir_[index(current, dest)] = static_cast<std::uint8_t>(*d);
    }
  }
}

const RoutingPolicy& routing_policy(RoutingAlgorithm algo) {
  static const XyRouting xy;
  static const YxRouting yx;
  static const TorusXyRouting torus_xy;
  switch (algo) {
    case RoutingAlgorithm::kXY: return xy;
    case RoutingAlgorithm::kYX: return yx;
    case RoutingAlgorithm::kTorusXY: return torus_xy;
  }
  DOZZ_ASSERT(false);
}

const RoutingPolicy* find_routing_policy(const std::string& name) {
  for (const RoutingAlgorithm algo :
       {RoutingAlgorithm::kXY, RoutingAlgorithm::kYX,
        RoutingAlgorithm::kTorusXY}) {
    const RoutingPolicy& policy = routing_policy(algo);
    if (name == policy.name()) return &policy;
  }
  return nullptr;
}

}  // namespace dozz
