#include "routing/deft_routing.hpp"

#include <limits>

namespace deft {

const char* vl_strategy_name(VlStrategy s) {
  switch (s) {
    case VlStrategy::table: return "table";
    case VlStrategy::distance: return "distance";
    case VlStrategy::random: return "random";
  }
  return "?";
}

DeftRouting::DeftRouting(const Topology& topo,
                         std::shared_ptr<const SystemVlTables> tables,
                         VlFaultSet faults, int num_vcs, VlStrategy strategy,
                         std::uint64_t seed)
    : topo_(&topo),
      tables_(std::move(tables)),
      faults_(faults),
      num_vcs_(num_vcs),
      strategy_(strategy),
      rng_(seed) {
  require(num_vcs_ >= 2 && num_vcs_ % 2 == 0 && num_vcs_ <= kMaxVcs,
          "DeftRouting: num_vcs must be even (one VC set per VN)");
  require(strategy_ != VlStrategy::table || tables_ != nullptr,
          "DeftRouting: table strategy requires SystemVlTables");
  const std::size_t chiplets =
      static_cast<std::size_t>(topo_->num_chiplets());
  down_mask_.resize(chiplets);
  up_mask_.resize(chiplets);
  alive_down_.resize(chiplets);
  alive_up_.resize(chiplets);
  DeftRouting::set_faults(faults);
}

void DeftRouting::set_faults(const VlFaultSet& faults) {
  // In-place incremental rebuild: exactly the state the constructor
  // builds for `faults`, reusing every vector's capacity (clear +
  // push_back never exceeds a previous build on the same topology) and
  // never touching rng_, so a mid-run fault event is indistinguishable
  // from having constructed with the new fault set.
  faults_ = faults;
  for (int c = 0; c < topo_->num_chiplets(); ++c) {
    const std::size_t ci = static_cast<std::size_t>(c);
    down_mask_[ci] = faults_.chiplet_down_mask(*topo_, c);
    up_mask_[ci] = faults_.chiplet_up_mask(*topo_, c);
    std::vector<int>& down = alive_down_[ci];
    std::vector<int>& up = alive_up_[ci];
    down.clear();
    up.clear();
    const auto& vls = topo_->chiplet_vls(c);
    for (std::size_t i = 0; i < vls.size(); ++i) {
      if ((down_mask_[ci] & (1u << i)) == 0) {
        down.push_back(static_cast<int>(i));
      }
      if ((up_mask_[ci] & (1u << i)) == 0) {
        up.push_back(static_cast<int>(i));
      }
    }
  }
}

bool DeftRouting::hop_viable(NodeId node, Port /*in_port*/,
                             const PacketRoute& rt) const {
  return route_hop_viable(*topo_, faults_, node, rt);
}

VcMask DeftRouting::vn_vcs(int vn) const {
  const int per_vn = num_vcs_ / 2;
  VcMask mask = 0;
  for (int v = 0; v < per_vn; ++v) {
    mask |= vc_bit(vn * per_vn + v);
  }
  return mask;
}

int DeftRouting::select_down_vl(NodeId src, CounterRng* stream) {
  const int chiplet = topo_->node(src).chiplet;
  const auto& alive = alive_down_[static_cast<std::size_t>(chiplet)];
  if (alive.empty()) {
    return -1;
  }
  switch (strategy_) {
    case VlStrategy::table:
      return tables_->down(chiplet).selected_vl(
          down_mask_[static_cast<std::size_t>(chiplet)], src);
    case VlStrategy::distance: {
      int best = alive.front();
      int best_d = std::numeric_limits<int>::max();
      for (int v : alive) {
        const VerticalLink& vl =
            topo_->vl(topo_->chiplet_vls(chiplet)[static_cast<std::size_t>(v)]);
        const int d = topo_->mesh_distance(src, vl.chiplet_node);
        if (d < best_d) {
          best_d = d;
          best = v;
        }
      }
      return best;
    }
    case VlStrategy::random:
      return alive[static_cast<std::size_t>(
          stream != nullptr
              ? stream->uniform(static_cast<std::uint64_t>(alive.size()))
              : rng_.uniform(static_cast<std::uint64_t>(alive.size())))];
  }
  return -1;
}

int DeftRouting::select_up_vl(NodeId dst, CounterRng* stream) {
  const int chiplet = topo_->node(dst).chiplet;
  const auto& alive = alive_up_[static_cast<std::size_t>(chiplet)];
  if (alive.empty()) {
    return -1;
  }
  switch (strategy_) {
    case VlStrategy::table:
      return tables_->up(chiplet).selected_vl(
          up_mask_[static_cast<std::size_t>(chiplet)], dst);
    case VlStrategy::distance: {
      int best = alive.front();
      int best_d = std::numeric_limits<int>::max();
      for (int v : alive) {
        const VerticalLink& vl =
            topo_->vl(topo_->chiplet_vls(chiplet)[static_cast<std::size_t>(v)]);
        const int d = topo_->mesh_distance(vl.chiplet_node, dst);
        if (d < best_d) {
          best_d = d;
          best = v;
        }
      }
      return best;
    }
    case VlStrategy::random:
      return alive[static_cast<std::size_t>(
          stream != nullptr
              ? stream->uniform(static_cast<std::uint64_t>(alive.size()))
              : rng_.uniform(static_cast<std::uint64_t>(alive.size())))];
  }
  return -1;
}

bool DeftRouting::prepare_packet(PacketRoute& route, CounterRng* stream) {
  const Node& src = topo_->node(route.src);
  const Node& dst = topo_->node(route.dst);
  route.down_node = kInvalidNode;
  route.up_exit = kInvalidNode;
  route.rc_absorb = false;

  if (src.chiplet == dst.chiplet) {
    // Intra-chiplet (or interposer-to-interposer) packets: Theorem III.1,
    // both VNs admissible; the NI round-robins the actual assignment.
    route.initial_vcs = all_vcs();
    return true;
  }

  if (src.chiplet != kInterposer) {
    const int down_vl = select_down_vl(route.src, stream);
    if (down_vl < 0) {
      return false;  // source chiplet cannot reach the interposer
    }
    route.down_node = topo_->vl(topo_->chiplet_vls(src.chiplet)
                                    [static_cast<std::size_t>(down_vl)])
                          .chiplet_node;
  }
  if (dst.chiplet != kInterposer) {
    const int up_vl = select_up_vl(route.dst, stream);
    if (up_vl < 0) {
      return false;  // destination chiplet cannot be entered
    }
    route.up_exit = topo_->vl(topo_->chiplet_vls(dst.chiplet)
                                  [static_cast<std::size_t>(up_vl)])
                        .interposer_node;
  }

  if (src.chiplet == kInterposer || route.src == route.down_node) {
    // Algorithm 1: interposer sources and sources that descend at their own
    // boundary router round-robin over both VNs.
    route.initial_vcs = all_vcs();
  } else {
    // Other inter-chiplet packets are injected in VN.0 (they must cross
    // their source chiplet horizontally; Rule 3 would trap them in VN.1).
    route.initial_vcs = vn_vcs(0);
  }
  return true;
}

RouteDecision DeftRouting::route(NodeId node, Port in_port, int in_vc,
                                 const PacketRoute& rt,
                                 const RouterView& /*view*/) const {
  const int vn = vn_of(in_vc);
  const Node& here = topo_->node(node);
  const Node& src = topo_->node(rt.src);
  const Node& dst = topo_->node(rt.dst);
  RouteDecision decision;

  if (here.chiplet != kInterposer) {
    if (src.chiplet == dst.chiplet) {
      // Intra-chiplet: minimal XY in the assigned VN (Theorem III.1).
      decision.out_port = xy_step(*topo_, node, rt.dst);
      decision.vcs = vn_vcs(vn);
    } else if (here.chiplet == src.chiplet) {
      // Source phase: head for the selected down VL in VN.0; at the VL the
      // VN is re-assigned round-robin over both VNs (Algorithm 1).
      if (node == rt.down_node) {
        decision.out_port = Port::down;
        decision.vcs = all_vcs();
      } else {
        decision.out_port = xy_step(*topo_, node, rt.down_node);
        decision.vcs = vn_vcs(0);
      }
    } else {
      // Destination phase: the Up hop forced VN.1 (Rule 2); minimal XY.
      decision.out_port = xy_step(*topo_, node, rt.dst);
      decision.vcs = vn_vcs(1);
    }
  } else {
    if (dst.chiplet == kInterposer) {
      // Interposer destination: stay in the current VN to ejection.
      decision.out_port = xy_step(*topo_, node, rt.dst);
      decision.vcs = vn_vcs(vn);
    } else if (node == rt.up_exit) {
      // Second vertical hop. Algorithm 1 switches to VN.1 "coming from the
      // interposer", i.e. at chiplet entry: the vertical link itself may
      // carry either VN (Rule 1 permits the later switch; Rule 2 is
      // enforced on the first horizontal hop in route()'s
      // destination-phase branch). Keeping both VNs admissible here is
      // what balances VC utilization on the interposer (Fig. 5).
      decision.out_port = Port::up;
      decision.vcs = vn == 0 ? all_vcs() : vn_vcs(1);
    } else {
      // Transit on the interposer: stay in the current VN (Algorithm 1);
      // Theorem III.2 permits either VN here.
      decision.out_port = xy_step(*topo_, node, rt.up_exit);
      decision.vcs = vn_vcs(vn);
    }
  }

  if (decision.out_port == Port::local) {
    decision.vcs = all_vcs();  // ejection accepts any VC
  }
  check(in_port != decision.out_port || in_port == Port::local,
        "DeftRouting: route would U-turn through a port");
  return decision;
}

std::uint64_t DeftRouting::pair_combo_mask(NodeId src, NodeId dst) const {
  // Theorems III.3/III.4: DeFT may use any VL on either side, so every
  // (down, up) combination is usable regardless of faults.
  const Node& s = topo_->node(src);
  const Node& d = topo_->node(dst);
  if (s.chiplet == d.chiplet) {
    return kAlwaysReachable;
  }
  std::uint64_t mask = 0;
  if (s.chiplet != kInterposer && d.chiplet != kInterposer) {
    const auto downs = topo_->chiplet_vls(s.chiplet).size();
    const auto ups = topo_->chiplet_vls(d.chiplet).size();
    for (std::size_t dn = 0; dn < downs; ++dn) {
      for (std::size_t up = 0; up < ups; ++up) {
        mask |= std::uint64_t{1} << (8 * dn + up);
      }
    }
  } else if (s.chiplet != kInterposer) {
    mask = (std::uint64_t{1} << topo_->chiplet_vls(s.chiplet).size()) - 1;
  } else {
    mask = (std::uint64_t{1} << topo_->chiplet_vls(d.chiplet).size()) - 1;
  }
  return mask;
}

bool DeftRouting::pair_reachable(NodeId src, NodeId dst) const {
  const Node& s = topo_->node(src);
  const Node& d = topo_->node(dst);
  if (s.chiplet == d.chiplet) {
    return true;
  }
  if (s.chiplet != kInterposer &&
      alive_down_[static_cast<std::size_t>(s.chiplet)].empty()) {
    return false;
  }
  if (d.chiplet != kInterposer &&
      alive_up_[static_cast<std::size_t>(d.chiplet)].empty()) {
    return false;
  }
  return true;
}

}  // namespace deft
