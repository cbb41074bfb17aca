// MTR baseline: modular turn-restriction routing (Yin et al., ISCA'18),
// reimplemented from its characterisation in the DeFT paper (Section II-A).
//
// Chiplets and the interposer keep their own deadlock-free XY routing;
// deadlock across the layers is avoided by *restricting some inter-chiplet
// turns at the boundary/vertical crossings* (e.g. the green left-to-down
// turn of Fig. 1). The restriction set is synthesized at design time:
// starting from all physically sensible turns, cycles in the channel turn
// graph are broken greedily, always preserving all-endpoint connectivity.
// Routing then follows minimal paths inside the allowed-turn graph
// (adaptive among equal-length continuations).
//
// Because the allowed-VL choices per source/destination pair are baked in
// at design time, MTR cannot re-select VLs when one fails - the property
// Fig. 7 measures.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "routing/line_graph.hpp"
#include "routing/routing.hpp"

namespace deft {

/// Design-time artifacts of MTR for one topology: the synthesized turn
/// restrictions, per-destination minimal-route tables, and the
/// vertical-channel combinations each endpoint pair can use (for fault
/// reachability analysis). Immutable and shared across fault scenarios.
class MtrPlan {
 public:
  explicit MtrPlan(const Topology& topo);

  const Topology& topo() const { return *topo_; }

  /// True when the channel-to-channel turn survived synthesis. `out` must
  /// leave the router `in` enters.
  bool turn_allowed(ChannelId in, ChannelId out) const;

  /// Number of turns removed by the synthesis.
  int restricted_turn_count() const { return restricted_turns_; }

  /// The final allowed-turn line graph (includes injection/ejection).
  const LineGraph& line_graph() const { return *line_graph_; }

  /// Minimal allowed-path length (in channels) from line node `l` to the
  /// ejection of endpoint `dst`; kUnreachable when none exists.
  static constexpr std::uint16_t kUnreachable = 0xffff;
  std::uint16_t distance(int line_node, NodeId dst) const;

  /// The full distance row of destination endpoint index `d` (one uint16
  /// per line node): the contiguous storage distance() reads, exposed so
  /// the route-cache rebuild scans a row instead of making one indexed
  /// call per line node.
  const std::uint16_t* distance_row(std::size_t d) const {
    return dist_[d].data();
  }

  /// Endpoint pair -> bitmask of usable vertical combinations. For
  /// chiplet->chiplet pairs, bit (down_idx * 8 + up_idx); for
  /// chiplet->interposer, bit down_idx; for interposer->chiplet, bit
  /// up_idx. Indices are per-chiplet VL indices.
  std::uint64_t pair_combos(NodeId src, NodeId dst) const;

  int endpoint_index(NodeId n) const { return topo_->endpoint_index(n); }

 private:
  /// The synthesis' single-crossing route model (source, interposer and
  /// destination leg graphs), defined in mtr_routing.cpp. It lives only
  /// while the constructor runs.
  class Legs;

  void synthesize_restrictions(Legs& legs);
  bool try_synthesize(Legs& legs,
                      const std::vector<std::vector<int>>& unrestricted,
                      Rng* shuffle);
  void build_route_tables();
  bool connectivity_preserved() const;

  const Topology* topo_;
  /// One byte per turn slot (input channel * kNumPorts + output port):
  /// nonzero when the synthesis forbade that turn.
  std::vector<std::uint8_t> forbidden_;
  int restricted_turns_ = 0;
  std::unique_ptr<LineGraph> line_graph_;
  /// dist_[endpoint_index][line_node]
  std::vector<std::vector<std::uint16_t>> dist_;
  /// combos_[src_endpoint_index * num_endpoints + dst_endpoint_index]
  std::vector<std::uint64_t> combos_;
};

class MtrRouting final : public RoutingAlgorithm {
 public:
  MtrRouting(std::shared_ptr<const MtrPlan> plan, VlFaultSet faults,
             int num_vcs);

  const char* name() const override { return "MTR"; }
  int num_vcs() const override { return num_vcs_; }
  /// `stream` is ignored: the route is a pure function of the pair
  /// (no per-packet randomness), already safe for concurrent calls.
  bool prepare_packet(PacketRoute& route,
                      CounterRng* stream = nullptr) override;
  RouteDecision route(NodeId node, Port in_port, int in_vc,
                      const PacketRoute& route,
                      const RouterView& view) const override;
  /// Only hops whose cached candidate set holds two or more continuations
  /// tie-break on credits; everything else (ejection, forced single
  /// continuation) answers from the table without a credit view, and the
  /// network skips building one.
  bool route_needs_view(NodeId node, Port in_port,
                        const PacketRoute& route) const override;
  bool pair_reachable(NodeId src, NodeId dst) const override;
  std::uint64_t pair_combo_mask(NodeId src, NodeId dst) const override;

  const MtrPlan& plan() const { return *plan_; }

  /// Re-targets this instance at a different fault scenario, rebuilding
  /// the fault-aware distance tables and invalidating + rebuilding the
  /// memoized route-candidate cache. Equivalent to constructing a fresh
  /// instance with the same plan (asserted by the routing tests); lets
  /// sweep drivers reuse one instance across scenarios and the simulator
  /// apply mid-run fault events. All rebuild scratch and the tables
  /// themselves reuse capacity: after a first build at a given topology,
  /// later calls are allocation-free.
  void set_faults(const VlFaultSet& faults) override;

  /// MTR carries no per-packet route state (down_node/up_exit are
  /// invalid), so viability is positional: can the fault-aware tables
  /// still steer a packet at `node` (arrived through `in_port`) to
  /// rt.dst's ejection?
  bool hop_viable(NodeId node, Port in_port,
                  const PacketRoute& rt) const override;

 private:
  /// Memoized route decision for one (line node, destination endpoint):
  /// the minimal continuations in allowed-turn successor order plus, for
  /// credit-independent hops (ejection or a single continuation), the
  /// fully resolved decision. route() scans the candidates of a
  /// multi-candidate hop in the order the uncached successor scan visited
  /// them (bit-identical adaptive choices).
  struct RouteEntry {
    std::uint8_t count = 0;  ///< 0 = unreachable from this line node
    bool eject = false;      ///< a minimal continuation is dst's ejection
    std::array<std::uint8_t, 6> ports{};  ///< Port values, successor order
    /// Precomputed answer when `eject || count == 1`; for larger counts
    /// only the VC mask is meaningful and route() picks out_port.
    RouteDecision decision;
  };

  /// Minimal allowed-path distance from `line_node` to `dst`'s ejection,
  /// excluding faulty vertical channels (falls back to the design-time
  /// tables when the fault set is empty).
  std::uint16_t dist(int line_node, NodeId dst) const;

  /// The cached entry for the hop arriving at `node` through `in_port`
  /// toward destination endpoint `dst`.
  const RouteEntry& entry_for(NodeId node, Port in_port, NodeId dst) const;

  void rebuild_fault_tables();
  void rebuild_route_cache();

  std::shared_ptr<const MtrPlan> plan_;
  VlFaultSet faults_;
  int num_vcs_;
  /// Per chiplet: alive down/up VL-index bitmasks under faults_.
  std::vector<std::uint8_t> alive_down_;
  std::vector<std::uint8_t> alive_up_;
  /// Fault-aware distance table, flat with one line-graph-sized row per
  /// endpoint (fault_dist_[d * line_graph.size() + line_node]); empty
  /// when faults_ is empty. MTR never re-selects VLs at design time, but
  /// a hop must still not be steered into a dead vertical channel at run
  /// time: these tables make route() follow minimal allowed paths through
  /// alive channels only, while pair_reachable still reports the pairs
  /// whose every allowed combination died.
  std::vector<std::uint16_t> fault_dist_;
  /// route_cache_[dst_endpoint_index * line_graph.size() + line_node].
  std::vector<RouteEntry> route_cache_;
  /// rebuild_fault_tables() scratch, kept as members so repeated
  /// set_faults() calls (sweep re-targeting, mid-run fault events on a
  /// warm workspace) reuse capacity instead of reallocating per call.
  std::vector<char> scratch_faulty_;
  std::vector<std::size_t> scratch_pred_off_;
  std::vector<int> scratch_pred_;
  std::vector<std::size_t> scratch_fill_;
  std::vector<int> scratch_frontier_;
};

}  // namespace deft
