// Topology construction tests: reference systems, channel wiring, vertical
// links, and spec validation.
#include <gtest/gtest.h>

#include "topology/builder.hpp"

namespace deft {
namespace {

TEST(Topology, FourChipletReferenceCounts) {
  const Topology topo(make_reference_spec(4));
  EXPECT_EQ(topo.num_chiplets(), 4);
  // 8x8 interposer + 4 chiplets of 4x4.
  EXPECT_EQ(topo.num_nodes(), 64 + 64);
  EXPECT_EQ(topo.num_vls(), 16);
  // Fig. 7(a): 32 faultable unidirectional VL channels.
  EXPECT_EQ(topo.num_vl_channels(), 32);
  EXPECT_EQ(topo.core_endpoints().size(), 64u);
  EXPECT_EQ(topo.dram_endpoints().size(), 4u);
  EXPECT_EQ(topo.endpoints().size(), 68u);
}

TEST(Topology, SixChipletReferenceCounts) {
  const Topology topo(make_reference_spec(6));
  EXPECT_EQ(topo.num_chiplets(), 6);
  EXPECT_EQ(topo.num_nodes(), 12 * 8 + 6 * 16);
  // Fig. 7(b): 48 faultable unidirectional VL channels.
  EXPECT_EQ(topo.num_vl_channels(), 48);
  EXPECT_EQ(topo.core_endpoints().size(), 96u);
}

TEST(Topology, ChannelCountsMatchMeshFormula) {
  const Topology topo(make_reference_spec(4));
  // Directed horizontal channels: 2*(w-1)*h + 2*w*(h-1) per mesh.
  const int interposer = 2 * 7 * 8 + 2 * 8 * 7;
  const int chiplets = 4 * (2 * 3 * 4 + 2 * 4 * 3);
  const int vertical = 32;
  EXPECT_EQ(topo.num_channels(), interposer + chiplets + vertical);
}

TEST(Topology, MeshNeighboursAreConsistent) {
  const Topology topo(make_reference_spec(4));
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (Port p : {Port::east, Port::west, Port::north, Port::south}) {
      const NodeId m = topo.neighbour(n, p);
      if (m == kInvalidNode) {
        continue;
      }
      // Same mesh, adjacent coordinates, and a reverse channel exists.
      EXPECT_EQ(topo.node(n).chiplet, topo.node(m).chiplet);
      EXPECT_EQ(topo.mesh_distance(n, m), 1);
      const Port reverse = p == Port::east    ? Port::west
                           : p == Port::west  ? Port::east
                           : p == Port::north ? Port::south
                                              : Port::north;
      EXPECT_EQ(topo.neighbour(m, reverse), n);
    }
  }
}

TEST(Topology, EdgeNodesLackOutwardPorts) {
  const Topology topo(make_reference_spec(4));
  const NodeId corner = topo.interposer_node_at(0, 0);
  EXPECT_EQ(topo.neighbour(corner, Port::west), kInvalidNode);
  EXPECT_EQ(topo.neighbour(corner, Port::north), kInvalidNode);
  EXPECT_NE(topo.neighbour(corner, Port::east), kInvalidNode);
  EXPECT_NE(topo.neighbour(corner, Port::south), kInvalidNode);
}

TEST(Topology, VerticalLinksConnectMatchingCoordinates) {
  const Topology topo(make_reference_spec(4));
  for (const VerticalLink& vl : topo.vls()) {
    const Node& top = topo.node(vl.chiplet_node);
    const Node& bottom = topo.node(vl.interposer_node);
    EXPECT_EQ(top.global, bottom.global);
    EXPECT_EQ(bottom.chiplet, kInterposer);
    EXPECT_EQ(top.chiplet, vl.chiplet);
    EXPECT_TRUE(top.is_boundary);
    // Down channel: chiplet -> interposer on the down ports.
    const Channel& down = topo.channel(vl.down_channel);
    EXPECT_EQ(down.src, vl.chiplet_node);
    EXPECT_EQ(down.dst, vl.interposer_node);
    EXPECT_EQ(down.src_port, Port::down);
    const Channel& up = topo.channel(vl.up_channel);
    EXPECT_EQ(up.src, vl.interposer_node);
    EXPECT_EQ(up.dst, vl.chiplet_node);
    EXPECT_EQ(up.src_port, Port::up);
    // VL channel ids round-trip through the fault-model mapping.
    EXPECT_EQ(topo.vl_channel_to_channel(vl.down_vl_channel()),
              vl.down_channel);
    EXPECT_EQ(topo.vl_channel_to_channel(vl.up_vl_channel()), vl.up_channel);
  }
}

TEST(Topology, EveryChipletHasFourBorderVls) {
  const Topology topo(make_reference_spec(4));
  for (int c = 0; c < topo.num_chiplets(); ++c) {
    const auto& vls = topo.chiplet_vls(c);
    ASSERT_EQ(vls.size(), 4u);
    for (VlId v : vls) {
      const Coord pos = topo.node(topo.vl(v).chiplet_node).local;
      const bool on_border =
          pos.x == 0 || pos.x == 3 || pos.y == 0 || pos.y == 3;
      EXPECT_TRUE(on_border) << "VL at (" << pos.x << "," << pos.y << ")";
    }
  }
}

TEST(Topology, InChannelMirrorsOutChannel) {
  const Topology topo(make_reference_spec(4));
  for (ChannelId c = 0; c < topo.num_channels(); ++c) {
    const Channel& ch = topo.channel(c);
    EXPECT_EQ(topo.out_channel(ch.src, ch.src_port), c);
    EXPECT_EQ(topo.in_channel(ch.dst, ch.dst_port), c);
  }
}

TEST(Topology, HeterogeneousSpecBuilds) {
  const Topology topo(make_two_chiplet_spec());
  EXPECT_EQ(topo.num_chiplets(), 2);
  EXPECT_EQ(topo.chiplet_nodes(0).size(), 9u);
  EXPECT_EQ(topo.chiplet_nodes(1).size(), 4u);
  EXPECT_EQ(topo.num_vls(), 4);
  EXPECT_EQ(topo.dram_endpoints().size(), 2u);
}

TEST(Topology, RejectsOverlappingChiplets) {
  SystemSpec spec = make_two_chiplet_spec();
  spec.chiplets[1].origin = {1, 1};  // overlaps chiplet 0
  EXPECT_THROW(Topology{spec}, std::invalid_argument);
}

TEST(Topology, RejectsChipletOutsideInterposer) {
  SystemSpec spec = make_two_chiplet_spec();
  spec.chiplets[1].origin = {5, 3};  // 2x2 chiplet past the 6x4 edge
  EXPECT_THROW(Topology{spec}, std::invalid_argument);
}

TEST(Topology, RejectsDuplicateVlPositions) {
  SystemSpec spec = make_two_chiplet_spec();
  spec.chiplets[0].vl_positions = {{1, 0}, {1, 0}};
  EXPECT_THROW(Topology{spec}, std::invalid_argument);
}

TEST(Topology, RejectsVlOutsideChiplet) {
  SystemSpec spec = make_two_chiplet_spec();
  spec.chiplets[1].vl_positions = {{3, 0}};
  EXPECT_THROW(Topology{spec}, std::invalid_argument);
}

TEST(Topology, RejectsChipletWithoutVls) {
  SystemSpec spec = make_two_chiplet_spec();
  spec.chiplets[0].vl_positions.clear();
  EXPECT_THROW(Topology{spec}, std::invalid_argument);
}

TEST(Topology, CapsVlsPerChiplet) {
  // Routing keeps per-chiplet VL masks in 8 bits, so a 9th VL is rejected
  // rather than silently dropped.
  SystemSpec spec = make_two_chiplet_spec();
  spec.chiplets[0].vl_positions.clear();
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      spec.chiplets[0].vl_positions.push_back({x, y});
    }
  }
  EXPECT_THROW(Topology{spec}, std::invalid_argument);
  spec.chiplets[0].vl_positions.pop_back();
  const Topology topo(spec);
  EXPECT_EQ(topo.chiplet_vls(0).size(),
            static_cast<std::size_t>(kMaxVlsPerChiplet));
}

TEST(Topology, MeshDistanceIsManhattan) {
  const Topology topo(make_reference_spec(4));
  EXPECT_EQ(topo.mesh_distance(topo.chiplet_node_at(0, 0, 0),
                               topo.chiplet_node_at(0, 3, 3)),
            6);
  EXPECT_EQ(topo.mesh_distance(topo.interposer_node_at(0, 0),
                               topo.interposer_node_at(7, 7)),
            14);
  // Different meshes: precondition violation.
  EXPECT_THROW(topo.mesh_distance(topo.chiplet_node_at(0, 0, 0),
                                  topo.chiplet_node_at(1, 0, 0)),
               std::invalid_argument);
}

TEST(Topology, GridSpecGeneralizes) {
  const Topology topo(Topology(make_grid_spec(3, 3, 3, 3)));
  EXPECT_EQ(topo.num_chiplets(), 9);
  EXPECT_EQ(topo.num_vls(), 36);
  EXPECT_EQ(topo.spec().interposer_width, 9);
}

}  // namespace
}  // namespace deft
