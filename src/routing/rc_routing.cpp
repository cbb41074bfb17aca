#include "routing/rc_routing.hpp"

#include <limits>

namespace deft {

RcRouting::RcRouting(const Topology& topo, VlFaultSet faults, int num_vcs)
    : topo_(&topo), faults_(faults), num_vcs_(num_vcs) {
  require(num_vcs_ >= 1 && num_vcs_ <= kMaxVcs, "RcRouting: bad VC count");
  nearest_vl_.assign(static_cast<std::size_t>(topo.num_nodes()), kInvalidVl);
  for (int c = 0; c < topo.num_chiplets(); ++c) {
    for (NodeId n : topo.chiplet_nodes(c)) {
      int best_d = std::numeric_limits<int>::max();
      VlId best = kInvalidVl;
      for (VlId v : topo.chiplet_vls(c)) {
        const int d = topo.mesh_distance(n, topo.vl(v).chiplet_node);
        if (d < best_d) {
          best_d = d;
          best = v;
        }
      }
      nearest_vl_[static_cast<std::size_t>(n)] = best;
    }
  }
}

VlId RcRouting::fixed_up_vl(NodeId dst) const {
  require(topo_->node(dst).chiplet != kInterposer,
          "fixed_up_vl: dst must be on a chiplet");
  return nearest_vl_[static_cast<std::size_t>(dst)];
}

VlId RcRouting::fixed_down_vl(NodeId src, NodeId dst) const {
  const Node& s = topo_->node(src);
  require(s.chiplet != kInterposer, "fixed_down_vl: src must be on a chiplet");
  // Interposer-side target of the descent: the ascent's landing router for
  // chiplet destinations, the destination itself for interposer ones.
  const NodeId target = topo_->node(dst).chiplet == kInterposer
                            ? dst
                            : topo_->vl(fixed_up_vl(dst)).interposer_node;
  int best_cost = std::numeric_limits<int>::max();
  VlId best = kInvalidVl;
  for (VlId v : topo_->chiplet_vls(s.chiplet)) {
    const VerticalLink& vl = topo_->vl(v);
    const int cost = topo_->mesh_distance(src, vl.chiplet_node) +
                     manhattan(topo_->node(vl.interposer_node).global,
                               topo_->node(target).global);
    if (cost < best_cost) {
      best_cost = cost;
      best = v;
    }
  }
  return best;
}

bool RcRouting::prepare_packet(PacketRoute& route, CounterRng* /*stream*/) {
  const Node& src = topo_->node(route.src);
  const Node& dst = topo_->node(route.dst);
  route.down_node = kInvalidNode;
  route.up_exit = kInvalidNode;
  route.rc_absorb = false;
  route.rc_unit = kInvalidNode;
  route.initial_vcs = all_vcs_mask(num_vcs_);
  if (src.chiplet == dst.chiplet) {
    return true;
  }
  if (dst.chiplet != kInterposer) {
    const VerticalLink& up = topo_->vl(fixed_up_vl(route.dst));
    if (faults_.is_faulty(up.up_vl_channel())) {
      return false;  // fixed choice, no re-selection under faults
    }
    route.up_exit = up.interposer_node;
    route.rc_absorb = true;
    route.rc_unit = up.chiplet_node;
  }
  if (src.chiplet != kInterposer) {
    const VerticalLink& down = topo_->vl(fixed_down_vl(route.src, route.dst));
    if (faults_.is_faulty(down.down_vl_channel())) {
      return false;
    }
    route.down_node = down.chiplet_node;
  }
  return true;
}

RouteDecision RcRouting::route(NodeId node, Port in_port, int in_vc,
                               const PacketRoute& rt,
                               const RouterView& /*view*/) const {
  (void)in_vc;
  const Node& here = topo_->node(node);
  const Node& src = topo_->node(rt.src);
  const Node& dst = topo_->node(rt.dst);
  RouteDecision decision;
  decision.vcs = all_vcs_mask(num_vcs_);

  if (here.chiplet != kInterposer) {
    if (src.chiplet == dst.chiplet) {
      decision.out_port = xy_step(*topo_, node, rt.dst);
    } else if (here.chiplet == src.chiplet) {
      decision.out_port = node == rt.down_node
                              ? Port::down
                              : xy_step(*topo_, node, rt.down_node);
    } else if (in_port == Port::up && rt.rc_absorb) {
      // Destination crossing: the whole packet is absorbed into the
      // reserved RC buffer before re-entering the chiplet network.
      decision.out_port = Port::rc;
      decision.vcs = vc_bit(0);
    } else {
      // Re-injected by the RC unit (or already past it): minimal XY.
      decision.out_port = xy_step(*topo_, node, rt.dst);
    }
  } else {
    if (dst.chiplet == kInterposer) {
      decision.out_port = xy_step(*topo_, node, rt.dst);
    } else if (node == rt.up_exit) {
      decision.out_port = Port::up;
    } else {
      decision.out_port = xy_step(*topo_, node, rt.up_exit);
    }
  }
  return decision;
}

std::uint64_t RcRouting::pair_combo_mask(NodeId src, NodeId dst) const {
  const Node& s = topo_->node(src);
  const Node& d = topo_->node(dst);
  if (s.chiplet == d.chiplet) {
    return kAlwaysReachable;
  }
  if (s.chiplet != kInterposer && d.chiplet != kInterposer) {
    const int dn = topo_->vl(fixed_down_vl(src, dst)).index_in_chiplet;
    const int up = topo_->vl(fixed_up_vl(dst)).index_in_chiplet;
    return std::uint64_t{1} << (8 * dn + up);
  }
  if (s.chiplet != kInterposer) {
    return std::uint64_t{1}
           << topo_->vl(fixed_down_vl(src, dst)).index_in_chiplet;
  }
  return std::uint64_t{1} << topo_->vl(fixed_up_vl(dst)).index_in_chiplet;
}

bool RcRouting::pair_reachable(NodeId src, NodeId dst) const {
  const Node& s = topo_->node(src);
  const Node& d = topo_->node(dst);
  if (s.chiplet == d.chiplet) {
    return true;
  }
  if (d.chiplet != kInterposer &&
      faults_.is_faulty(topo_->vl(fixed_up_vl(dst)).up_vl_channel())) {
    return false;
  }
  if (s.chiplet != kInterposer &&
      faults_.is_faulty(
          topo_->vl(fixed_down_vl(src, dst)).down_vl_channel())) {
    return false;
  }
  return true;
}

}  // namespace deft
