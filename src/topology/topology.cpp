#include "topology/topology.hpp"

#include <algorithm>

namespace deft {

const char* port_name(Port p) {
  switch (p) {
    case Port::local: return "local";
    case Port::east: return "east";
    case Port::west: return "west";
    case Port::north: return "north";
    case Port::south: return "south";
    case Port::up: return "up";
    case Port::down: return "down";
    case Port::rc: return "rc";
  }
  return "?";
}

Topology::Topology(SystemSpec spec) : spec_(std::move(spec)) {
  validate_spec();
  build_nodes();
  build_mesh_channels();
  build_vertical_links();
}

void Topology::validate_spec() const {
  require(spec_.interposer_width > 0 && spec_.interposer_height > 0,
          "Topology: interposer dimensions must be positive");
  require(!spec_.chiplets.empty(), "Topology: need at least one chiplet");
  std::vector<char> covered(static_cast<std::size_t>(spec_.interposer_width *
                                                     spec_.interposer_height),
                            0);
  std::size_t vls = 0;
  for (std::size_t c = 0; c < spec_.chiplets.size(); ++c) {
    const ChipletSpec& ch = spec_.chiplets[c];
    vls += ch.vl_positions.size();
    require(ch.width > 0 && ch.height > 0,
            "Topology: chiplet dimensions must be positive");
    require(ch.origin.x >= 0 && ch.origin.y >= 0 &&
                ch.origin.x + ch.width <= spec_.interposer_width &&
                ch.origin.y + ch.height <= spec_.interposer_height,
            "Topology: chiplet does not fit on the interposer");
    // Chiplets must not overlap: each interposer cell hosts at most one
    // chiplet router above it (VLs land directly beneath their boundary
    // router).
    for (int y = ch.origin.y; y < ch.origin.y + ch.height; ++y) {
      for (int x = ch.origin.x; x < ch.origin.x + ch.width; ++x) {
        char& cell = covered[static_cast<std::size_t>(
            y * spec_.interposer_width + x)];
        require(cell == 0, "Topology: chiplets overlap on the interposer");
        cell = 1;
      }
    }
    require(!ch.vl_positions.empty(),
            "Topology: every chiplet needs at least one vertical link");
    require(ch.vl_positions.size() <=
                static_cast<std::size_t>(kMaxVlsPerChiplet),
            "Topology: a chiplet may have at most 8 vertical links");
    for (const Coord& v : ch.vl_positions) {
      require(v.x >= 0 && v.x < ch.width && v.y >= 0 && v.y < ch.height,
              "Topology: VL position outside its chiplet");
      const auto same = [&](const Coord& o) { return o == v; };
      require(std::count_if(ch.vl_positions.begin(), ch.vl_positions.end(),
                            same) == 1,
              "Topology: duplicate VL position within a chiplet");
    }
  }
  require(2 * vls <= static_cast<std::size_t>(kMaxVlChannels),
          "Topology: more than " + std::to_string(kMaxVlChannels) +
              " unidirectional VL channels (a fault set's capacity)");
  for (const Coord& d : spec_.dram_positions) {
    require(d.x >= 0 && d.x < spec_.interposer_width && d.y >= 0 &&
                d.y < spec_.interposer_height,
            "Topology: DRAM position outside the interposer");
  }
}

void Topology::build_nodes() {
  // Interposer nodes first (dense grid), then chiplet nodes row-major per
  // chiplet. This ordering is relied upon only through the accessors.
  interposer_grid_.assign(static_cast<std::size_t>(spec_.interposer_width *
                                                   spec_.interposer_height),
                          kInvalidNode);
  for (int y = 0; y < spec_.interposer_height; ++y) {
    for (int x = 0; x < spec_.interposer_width; ++x) {
      Node n;
      n.id = static_cast<NodeId>(nodes_.size());
      n.chiplet = kInterposer;
      n.local = {x, y};
      n.global = {x, y};
      nodes_.push_back(n);
      interposer_grid_[static_cast<std::size_t>(y * spec_.interposer_width +
                                                x)] = n.id;
    }
  }
  for (const Coord& d : spec_.dram_positions) {
    Node& n = nodes_[static_cast<std::size_t>(
        interposer_grid_[static_cast<std::size_t>(
            d.y * spec_.interposer_width + d.x)])];
    require(n.endpoint == EndpointKind::none,
            "Topology: duplicate DRAM position");
    n.endpoint = EndpointKind::dram;
  }

  chiplet_nodes_.resize(spec_.chiplets.size());
  for (std::size_t c = 0; c < spec_.chiplets.size(); ++c) {
    const ChipletSpec& ch = spec_.chiplets[c];
    for (int y = 0; y < ch.height; ++y) {
      for (int x = 0; x < ch.width; ++x) {
        Node n;
        n.id = static_cast<NodeId>(nodes_.size());
        n.chiplet = static_cast<int>(c);
        n.local = {x, y};
        n.global = {ch.origin.x + x, ch.origin.y + y};
        n.endpoint = EndpointKind::core;
        nodes_.push_back(n);
        chiplet_nodes_[c].push_back(n.id);
      }
    }
  }

  endpoint_index_.assign(nodes_.size(), -1);
  for (const Node& n : nodes_) {
    if (n.endpoint == EndpointKind::core) {
      cores_.push_back(n.id);
    } else if (n.endpoint == EndpointKind::dram) {
      drams_.push_back(n.id);
    }
    if (n.endpoint != EndpointKind::none) {
      endpoint_index_[static_cast<std::size_t>(n.id)] =
          static_cast<int>(endpoints_.size());
      endpoints_.push_back(n.id);
    }
  }
  std::array<ChannelId, kNumPorts> empty{};
  empty.fill(kInvalidChannel);
  out_channels_.assign(nodes_.size(), empty);
  in_channels_.assign(nodes_.size(), empty);
}

ChannelId Topology::add_channel(NodeId src, NodeId dst, Port src_port,
                                Port dst_port, VlChannelId vl_channel) {
  Channel c;
  c.id = static_cast<ChannelId>(channels_.size());
  c.src = src;
  c.dst = dst;
  c.src_port = src_port;
  c.dst_port = dst_port;
  c.vl_channel = vl_channel;
  channels_.push_back(c);
  auto& out_slot =
      out_channels_[static_cast<std::size_t>(src)][port_index(src_port)];
  check(out_slot == kInvalidChannel, "Topology: duplicate output channel");
  out_slot = c.id;
  auto& in_slot =
      in_channels_[static_cast<std::size_t>(dst)][port_index(dst_port)];
  check(in_slot == kInvalidChannel, "Topology: duplicate input channel");
  in_slot = c.id;
  return c.id;
}

void Topology::build_mesh_channels() {
  // Builds the four horizontal channels of every mesh (interposer and each
  // chiplet). Opposite directions are separate channels.
  const auto link_mesh = [&](const std::vector<NodeId>& grid, int width,
                             int height) {
    const auto at = [&](int x, int y) {
      return grid[static_cast<std::size_t>(y * width + x)];
    };
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        if (x + 1 < width) {
          add_channel(at(x, y), at(x + 1, y), Port::east, Port::west, -1);
          add_channel(at(x + 1, y), at(x, y), Port::west, Port::east, -1);
        }
        if (y + 1 < height) {
          add_channel(at(x, y), at(x, y + 1), Port::south, Port::north, -1);
          add_channel(at(x, y + 1), at(x, y), Port::north, Port::south, -1);
        }
      }
    }
  };
  link_mesh(interposer_grid_, spec_.interposer_width, spec_.interposer_height);
  for (std::size_t c = 0; c < spec_.chiplets.size(); ++c) {
    link_mesh(chiplet_nodes_[c], spec_.chiplets[c].width,
              spec_.chiplets[c].height);
  }
}

void Topology::build_vertical_links() {
  chiplet_vls_.resize(spec_.chiplets.size());
  for (std::size_t c = 0; c < spec_.chiplets.size(); ++c) {
    const ChipletSpec& ch = spec_.chiplets[c];
    for (std::size_t v = 0; v < ch.vl_positions.size(); ++v) {
      const Coord pos = ch.vl_positions[v];
      VerticalLink vl;
      vl.id = static_cast<VlId>(vls_.size());
      vl.chiplet = static_cast<int>(c);
      vl.index_in_chiplet = static_cast<int>(v);
      vl.chiplet_node = chiplet_node_at(static_cast<int>(c), pos.x, pos.y);
      vl.interposer_node =
          interposer_node_at(ch.origin.x + pos.x, ch.origin.y + pos.y);
      vl.down_channel = add_channel(vl.chiplet_node, vl.interposer_node,
                                    Port::down, Port::down,
                                    2 * vl.id);
      vl.up_channel = add_channel(vl.interposer_node, vl.chiplet_node,
                                  Port::up, Port::up, 2 * vl.id + 1);
      nodes_[static_cast<std::size_t>(vl.chiplet_node)].is_boundary = true;
      nodes_[static_cast<std::size_t>(vl.chiplet_node)].vl = vl.id;
      nodes_[static_cast<std::size_t>(vl.interposer_node)].vl = vl.id;
      chiplet_vls_[c].push_back(vl.id);
      vls_.push_back(vl);
    }
  }
  vl_channel_map_.assign(static_cast<std::size_t>(2 * num_vls()),
                         kInvalidChannel);
  for (const VerticalLink& vl : vls_) {
    vl_channel_map_[static_cast<std::size_t>(vl.down_vl_channel())] =
        vl.down_channel;
    vl_channel_map_[static_cast<std::size_t>(vl.up_vl_channel())] =
        vl.up_channel;
  }
}

NodeId Topology::interposer_node_at(int x, int y) const {
  require(x >= 0 && x < spec_.interposer_width && y >= 0 &&
              y < spec_.interposer_height,
          "interposer_node_at: coordinate out of range");
  return interposer_grid_[static_cast<std::size_t>(
      y * spec_.interposer_width + x)];
}

NodeId Topology::chiplet_node_at(int chiplet, int x, int y) const {
  require(chiplet >= 0 && chiplet < num_chiplets(),
          "chiplet_node_at: bad chiplet index");
  const ChipletSpec& ch = spec_.chiplets[static_cast<std::size_t>(chiplet)];
  require(x >= 0 && x < ch.width && y >= 0 && y < ch.height,
          "chiplet_node_at: coordinate out of range");
  return chiplet_nodes_[static_cast<std::size_t>(chiplet)]
                       [static_cast<std::size_t>(y * ch.width + x)];
}

int Topology::mesh_distance(NodeId a, NodeId b) const {
  const Node& na = node(a);
  const Node& nb = node(b);
  require(na.chiplet == nb.chiplet,
          "mesh_distance: nodes belong to different meshes");
  return manhattan(na.local, nb.local);
}

}  // namespace deft
