// Unit tests for mesh/cmesh topology and XY dimension-order routing.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/topology/topology.hpp"

namespace dozz {
namespace {

TEST(Topology, MeshDimensions) {
  const Topology mesh = make_mesh();
  EXPECT_EQ(mesh.width(), 8);
  EXPECT_EQ(mesh.height(), 8);
  EXPECT_EQ(mesh.num_routers(), 64);
  EXPECT_EQ(mesh.num_cores(), 64);
  EXPECT_EQ(mesh.concentration(), 1);
  EXPECT_EQ(mesh.ports_per_router(), 5);
  EXPECT_EQ(mesh.name(), "mesh8x8");
}

TEST(Topology, CmeshDimensions) {
  const Topology cmesh = make_cmesh();
  EXPECT_EQ(cmesh.num_routers(), 16);
  EXPECT_EQ(cmesh.num_cores(), 64);
  EXPECT_EQ(cmesh.concentration(), 4);
  EXPECT_EQ(cmesh.ports_per_router(), 8);
  EXPECT_EQ(cmesh.name(), "cmesh4x4");
}

TEST(Topology, CoordinateRoundTrip) {
  const Topology mesh = make_mesh();
  for (RouterId r = 0; r < mesh.num_routers(); ++r) {
    EXPECT_EQ(mesh.router_at(mesh.x_of(r), mesh.y_of(r)), r);
  }
}

TEST(Topology, NeighborsAtEdgesAreAbsent) {
  const Topology mesh = make_mesh(3, 3);
  EXPECT_FALSE(mesh.neighbor(0, Direction::kNorth).has_value());
  EXPECT_FALSE(mesh.neighbor(0, Direction::kWest).has_value());
  EXPECT_EQ(mesh.neighbor(0, Direction::kEast), 1);
  EXPECT_EQ(mesh.neighbor(0, Direction::kSouth), 3);
  EXPECT_FALSE(mesh.neighbor(8, Direction::kSouth).has_value());
  EXPECT_FALSE(mesh.neighbor(8, Direction::kEast).has_value());
}

TEST(Topology, NeighborRelationIsSymmetric) {
  const Topology mesh = make_mesh(5, 4);
  for (RouterId r = 0; r < mesh.num_routers(); ++r) {
    for (int d = 0; d < kNumDirections; ++d) {
      const auto dir = static_cast<Direction>(d);
      if (const auto nb = mesh.neighbor(r, dir)) {
        EXPECT_EQ(mesh.neighbor(*nb, opposite(dir)), r);
      }
    }
  }
}

TEST(Topology, OppositeDirections) {
  EXPECT_EQ(opposite(Direction::kNorth), Direction::kSouth);
  EXPECT_EQ(opposite(Direction::kEast), Direction::kWest);
  EXPECT_EQ(opposite(opposite(Direction::kWest)), Direction::kWest);
}

TEST(Topology, CoreMapping) {
  const Topology cmesh = make_cmesh();
  for (CoreId c = 0; c < cmesh.num_cores(); ++c) {
    const RouterId r = cmesh.router_of_core(c);
    const int slot = cmesh.local_slot_of_core(c);
    EXPECT_EQ(cmesh.core_at(r, slot), c);
    EXPECT_TRUE(cmesh.is_local_port(cmesh.local_port(slot)));
  }
}

TEST(Topology, XyRoutingGoesXFirst) {
  const Topology mesh = make_mesh();
  // From (0,0) to (3,5): move East until x matches, then South.
  const RouterId src = mesh.router_at(0, 0);
  const RouterId dst = mesh.router_at(3, 5);
  EXPECT_EQ(mesh.route_xy(src, dst), Direction::kEast);
  const RouterId mid = mesh.router_at(3, 0);
  EXPECT_EQ(mesh.route_xy(mid, dst), Direction::kSouth);
  EXPECT_FALSE(mesh.route_xy(dst, dst).has_value());
}

TEST(Topology, XyPathTerminatesWithCorrectHopCount) {
  const Topology mesh = make_mesh();
  for (RouterId src : {0, 7, 28, 63}) {
    for (RouterId dst : {0, 7, 35, 56, 63}) {
      RouterId cur = src;
      int hops = 0;
      while (cur != dst) {
        const auto dir = mesh.route_xy(cur, dst);
        ASSERT_TRUE(dir.has_value());
        cur = *mesh.neighbor(cur, *dir);
        ++hops;
        ASSERT_LE(hops, 14);  // max Manhattan distance on 8x8
      }
      EXPECT_EQ(hops, mesh.hop_count(src, dst));
    }
  }
}

TEST(Topology, XyRoutingIsDeadlockFreeOrdering) {
  // Property: XY never turns from Y back to X. Walk every pair on a small
  // mesh and check the direction sequence.
  const Topology mesh = make_mesh(4, 4);
  for (RouterId src = 0; src < mesh.num_routers(); ++src) {
    for (RouterId dst = 0; dst < mesh.num_routers(); ++dst) {
      bool seen_y = false;
      RouterId cur = src;
      while (cur != dst) {
        const auto dir = mesh.route_xy(cur, dst);
        ASSERT_TRUE(dir.has_value());
        const bool is_y =
            *dir == Direction::kNorth || *dir == Direction::kSouth;
        if (seen_y) {
          EXPECT_TRUE(is_y);
        }
        seen_y = seen_y || is_y;
        cur = *mesh.neighbor(cur, *dir);
      }
    }
  }
}

TEST(Topology, HopCountIsManhattan) {
  const Topology mesh = make_mesh();
  EXPECT_EQ(mesh.hop_count(0, 63), 14);
  EXPECT_EQ(mesh.hop_count(0, 0), 0);
  EXPECT_EQ(mesh.hop_count(mesh.router_at(2, 3), mesh.router_at(5, 1)), 5);
}

TEST(Topology, InvalidArgumentsThrow) {
  const Topology mesh = make_mesh();
  EXPECT_THROW(mesh.router_at(8, 0), PreconditionError);
  EXPECT_THROW(mesh.x_of(64), PreconditionError);
  EXPECT_THROW(mesh.router_of_core(64), PreconditionError);
  EXPECT_THROW(mesh.local_port(1), PreconditionError);  // concentration 1
  EXPECT_THROW(make_mesh(1, 8), PreconditionError);
}

TEST(Topology, LocalPortClassification) {
  const Topology cmesh = make_cmesh();
  for (int p = 0; p < kNumDirections; ++p)
    EXPECT_FALSE(cmesh.is_local_port(p));
  for (int s = 0; s < cmesh.concentration(); ++s)
    EXPECT_TRUE(cmesh.is_local_port(cmesh.local_port(s)));
}

}  // namespace
}  // namespace dozz
