// RC baseline: Remote-Control deadlock avoidance (Majumder et al., IEEE TC
// 2020), reimplemented from its characterisation in the DeFT paper.
//
// Inter-chiplet packets cross into their destination chiplet through a
// packet-sized RC buffer at the destination-side boundary router, shared
// through a permission network: the source NI must be granted the buffer
// before injecting, and the grant is released once the packet has been
// fully absorbed. Because an ascending packet always finds its reserved
// buffer, Up channels drain unconditionally and the remaining dependency
// graph (XY meshes chained by Down hops) is acyclic - this is verified by
// rc_dependency_oracle() in the test suite. The costs are the structural
// properties the paper measures: an extra packet buffer and permission
// logic on boundary routers (Table I), long-range request/grant latency and
// per-buffer serialization (Fig. 4), and a fixed VL choice with no
// fault tolerance (Fig. 7).
//
// The sharing direction is our interpretation: the paper's description
// ("an extra buffer on the boundary routers ... shared among the chiplet
// routers that utilize the boundary router") does not pin down whether the
// buffer guards the descending or ascending crossing; guarding the ascent
// is the variant that is provably deadlock-free with one buffer per
// boundary router, and it preserves every property the evaluation compares.
#pragma once

#include "routing/routing.hpp"

namespace deft {

class RcRouting final : public RoutingAlgorithm {
 public:
  RcRouting(const Topology& topo, VlFaultSet faults, int num_vcs);

  const char* name() const override { return "RC"; }
  int num_vcs() const override { return num_vcs_; }
  /// `stream` is ignored: the route is a pure function of the pair
  /// (no per-packet randomness), already safe for concurrent calls.
  bool prepare_packet(PacketRoute& route,
                      CounterRng* stream = nullptr) override;
  RouteDecision route(NodeId node, Port in_port, int in_vc,
                      const PacketRoute& route,
                      const RouterView& view) const override;
  bool pair_reachable(NodeId src, NodeId dst) const override;
  std::uint64_t pair_combo_mask(NodeId src, NodeId dst) const override;
  /// RC's per-hop decision is oblivious (fixed VLs, minimal XY legs).
  bool uses_router_view() const override { return false; }
  /// Dynamic fault events: RC keeps no fault-derived tables (its VL choice
  /// is design-time and fault-oblivious), so only the set itself changes.
  void set_faults(const VlFaultSet& faults) override { faults_ = faults; }
  bool hop_viable(NodeId node, Port in_port,
                  const PacketRoute& rt) const override {
    (void)in_port;
    return route_hop_viable(*topo_, faults_, node, rt);
  }

  /// The fixed ascending VL for packets destined to `dst` (design-time,
  /// fault-oblivious): the VL closest to `dst` on its chiplet.
  VlId fixed_up_vl(NodeId dst) const;

  /// The fixed descending VL for src -> dst: minimizes source-chiplet hops
  /// plus interposer hops to the ascent (or to the interposer destination).
  VlId fixed_down_vl(NodeId src, NodeId dst) const;

 private:
  const Topology* topo_;
  VlFaultSet faults_;
  int num_vcs_;
  /// nearest_vl_[node] = VL closest to this chiplet node (kInvalidVl for
  /// interposer nodes).
  std::vector<VlId> nearest_vl_;
};

}  // namespace deft
