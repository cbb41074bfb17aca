// 2.5D chiplet-system topology model.
//
// The system is a set of mesh chiplets placed on a mesh interposer
// (Fig. 1 of the DeFT paper). Selected chiplet routers ("boundary
// routers") connect to the interposer router directly beneath them through
// a bidirectional vertical link (VL). Every VL consists of two
// unidirectional vertical channels: "down" (chiplet -> interposer) and
// "up" (interposer -> chiplet); faults are injected per unidirectional
// channel, matching the VL counts in Fig. 7 of the paper (4 chiplets x 4
// VLs x 2 directions = 32).
#pragma once

#include <array>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace deft {

/// Router port roles. Horizontal ports (East..North) are intra-mesh;
/// Down leaves a chiplet toward the interposer; Up leaves the interposer
/// toward a chiplet. Local connects the router to its processing element.
enum class Port : std::uint8_t {
  local = 0,
  east = 1,
  west = 2,
  north = 3,
  south = 4,
  up = 5,
  down = 6,
  /// Router-internal port connecting the RC-buffer unit of the RC baseline
  /// (Section II-A, [8]); it never appears as a topology channel.
  rc = 7,
};
inline constexpr int kNumPorts = 8;

inline constexpr int port_index(Port p) { return static_cast<int>(p); }
const char* port_name(Port p);

/// True for East/West/North/South.
inline bool is_horizontal(Port p) {
  return p == Port::east || p == Port::west || p == Port::north ||
         p == Port::south;
}

/// 2D grid coordinate; x grows eastward, y grows southward.
struct Coord {
  int x = 0;
  int y = 0;
  friend bool operator==(const Coord&, const Coord&) = default;
};

inline int manhattan(Coord a, Coord b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

/// Which mesh a node belongs to: a chiplet index, or the interposer.
inline constexpr int kInterposer = -1;

/// What is attached to a router's local port.
enum class EndpointKind : std::uint8_t {
  none = 0,  ///< interposer router with no traffic endpoint
  core = 1,  ///< CPU core on a chiplet
  dram = 2,  ///< DRAM/memory endpoint on the interposer
};

struct Node {
  NodeId id = kInvalidNode;
  int chiplet = kInterposer;  ///< chiplet index, or kInterposer
  Coord local;                ///< coordinate within its own mesh
  Coord global;               ///< coordinate on the interposer grid
  EndpointKind endpoint = EndpointKind::none;
  bool is_boundary = false;   ///< chiplet router with a Down port
  VlId vl = kInvalidVl;       ///< VL attached here (chiplet or interposer side)
};

/// A directed physical channel between two routers.
struct Channel {
  ChannelId id = kInvalidChannel;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Port src_port = Port::local;  ///< output port at src
  Port dst_port = Port::local;  ///< input port at dst
  VlChannelId vl_channel = -1;  ///< unidirectional VL channel id, or -1
};

/// A bidirectional vertical link between a chiplet boundary router and the
/// interposer router directly beneath it.
struct VerticalLink {
  VlId id = kInvalidVl;
  int chiplet = 0;
  int index_in_chiplet = 0;
  NodeId chiplet_node = kInvalidNode;
  NodeId interposer_node = kInvalidNode;
  ChannelId down_channel = kInvalidChannel;  ///< chiplet -> interposer
  ChannelId up_channel = kInvalidChannel;    ///< interposer -> chiplet

  /// Unidirectional VL channel ids used by the fault model.
  VlChannelId down_vl_channel() const { return 2 * id; }
  VlChannelId up_vl_channel() const { return 2 * id + 1; }
};

/// Most VLs one chiplet may have. Routing keeps a chiplet's alive VLs in
/// 8-bit masks and its (down, up) VL pairs in 64-bit combo masks (bit
/// 8 * down + up, RoutingAlgorithm::pair_combo_mask).
inline constexpr int kMaxVlsPerChiplet = 8;

/// Most unidirectional VL channels a system may have: the capacity of a
/// VlFaultSet, and the count of the 256-chiplet grid (1,024 VLs).
inline constexpr int kMaxVlChannels = 2048;

struct ChipletSpec {
  int width = 4;
  int height = 4;
  Coord origin;                     ///< top-left corner on the interposer grid
  /// Boundary-router coords (chiplet-local): 1 to kMaxVlsPerChiplet VLs.
  std::vector<Coord> vl_positions;
};

struct SystemSpec {
  std::string name;
  int interposer_width = 8;
  int interposer_height = 8;
  std::vector<ChipletSpec> chiplets;
  std::vector<Coord> dram_positions;  ///< interposer routers with DRAM PEs
};

/// Immutable, validated 2.5D network graph built from a SystemSpec.
class Topology {
 public:
  explicit Topology(SystemSpec spec);

  const SystemSpec& spec() const { return spec_; }
  int num_chiplets() const { return static_cast<int>(spec_.chiplets.size()); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_channels() const { return static_cast<int>(channels_.size()); }
  int num_vls() const { return static_cast<int>(vls_.size()); }
  int num_vl_channels() const { return 2 * num_vls(); }

  const Node& node(NodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }
  const Channel& channel(ChannelId id) const {
    return channels_[static_cast<std::size_t>(id)];
  }
  const VerticalLink& vl(VlId id) const { return vls_[static_cast<std::size_t>(id)]; }
  const std::vector<VerticalLink>& vls() const { return vls_; }

  /// Outgoing channel of `node` through `port`, or kInvalidChannel.
  ChannelId out_channel(NodeId node, Port port) const {
    return out_channels_[static_cast<std::size_t>(node)][port_index(port)];
  }

  /// Incoming channel arriving at `node` through input port `port`, or
  /// kInvalidChannel.
  ChannelId in_channel(NodeId node, Port port) const {
    return in_channels_[static_cast<std::size_t>(node)][port_index(port)];
  }

  /// Neighbour of `node` through `port`, or kInvalidNode.
  NodeId neighbour(NodeId node, Port port) const {
    const ChannelId c = out_channel(node, port);
    return c == kInvalidChannel ? kInvalidNode : channel(c).dst;
  }

  /// Router id of the interposer node at interposer-grid (x, y).
  NodeId interposer_node_at(int x, int y) const;

  /// Router id of chiplet `c`'s node at chiplet-local (x, y).
  NodeId chiplet_node_at(int chiplet, int x, int y) const;

  /// All router ids belonging to chiplet `c`.
  const std::vector<NodeId>& chiplet_nodes(int chiplet) const {
    return chiplet_nodes_[static_cast<std::size_t>(chiplet)];
  }

  /// VL ids attached to chiplet `c`, ordered by index_in_chiplet.
  const std::vector<VlId>& chiplet_vls(int chiplet) const {
    return chiplet_vls_[static_cast<std::size_t>(chiplet)];
  }

  /// All nodes with a traffic endpoint (cores and DRAMs).
  const std::vector<NodeId>& endpoints() const { return endpoints_; }

  /// Index of `n` in endpoints() - the index of its NI in a simulation -
  /// or -1 when `n` is not an endpoint node (or not a node at all).
  int endpoint_index(NodeId n) const {
    return n >= 0 && n < num_nodes()
               ? endpoint_index_[static_cast<std::size_t>(n)]
               : -1;
  }

  /// All nodes with a core endpoint.
  const std::vector<NodeId>& core_endpoints() const { return cores_; }

  /// All nodes with a DRAM endpoint.
  const std::vector<NodeId>& dram_endpoints() const { return drams_; }

  /// The channel carrying unidirectional VL channel `vc`.
  ChannelId vl_channel_to_channel(VlChannelId vc) const {
    return vl_channel_map_[static_cast<std::size_t>(vc)];
  }

  /// Hop distance between two nodes of the same mesh (chiplet or
  /// interposer) in chiplet-local / interposer coordinates.
  int mesh_distance(NodeId a, NodeId b) const;

 private:
  void validate_spec() const;
  void build_nodes();
  void build_mesh_channels();
  void build_vertical_links();

  ChannelId add_channel(NodeId src, NodeId dst, Port src_port, Port dst_port,
                        VlChannelId vl_channel);

  SystemSpec spec_;
  std::vector<Node> nodes_;
  std::vector<Channel> channels_;
  std::vector<VerticalLink> vls_;
  std::vector<std::array<ChannelId, kNumPorts>> out_channels_;
  std::vector<std::array<ChannelId, kNumPorts>> in_channels_;
  std::vector<std::vector<NodeId>> chiplet_nodes_;
  std::vector<std::vector<VlId>> chiplet_vls_;
  std::vector<NodeId> endpoints_;
  std::vector<int> endpoint_index_;  ///< node -> endpoints_ index, -1 = none
  std::vector<NodeId> cores_;
  std::vector<NodeId> drams_;
  std::vector<NodeId> interposer_grid_;  ///< (x, y) -> node id
  std::vector<ChannelId> vl_channel_map_;
};

}  // namespace deft
