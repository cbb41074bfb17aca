// Turn-level graph analysis.
//
// The "line graph" of the network has one node per directed physical
// channel plus one injection and one ejection pseudo-channel per router.
// An edge (a -> b) exists when a packet holding channel a may request
// channel b, i.e. the turn a->b is allowed by a routing policy. Routing
// restrictions (the MTR baseline) and deadlock analysis both operate here:
// a routing policy whose allowed-turn graph is acyclic is deadlock-free,
// and connectivity in the allowed-turn graph decides reachability.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "topology/topology.hpp"

namespace deft {

/// Decides whether the channel-to-channel turn in -> out (with
/// in.dst == out.src) is allowed.
using TurnPredicate =
    std::function<bool(const Topology&, const Channel& in, const Channel& out)>;

/// Line graph over channels + injection/ejection pseudo-channels.
class LineGraph {
 public:
  LineGraph(const Topology& topo, const TurnPredicate& allowed);

  const Topology& topo() const { return *topo_; }

  int size() const { return static_cast<int>(succ_.size()); }
  int channel_node(ChannelId c) const { return c; }
  int injection_node(NodeId n) const { return topo_->num_channels() + n; }
  int ejection_node(NodeId n) const {
    return topo_->num_channels() + topo_->num_nodes() + n;
  }

  /// True for nodes representing physical channels.
  bool is_channel(int line_node) const {
    return line_node < topo_->num_channels();
  }

  const std::vector<int>& successors(int line_node) const {
    return succ_[static_cast<std::size_t>(line_node)];
  }

  /// CSR view of the same adjacency: one flat successor array indexed by
  /// per-node offsets. The per-fault-scenario rebuild passes (MTR's
  /// distance BFS and route-cache construction) stream this instead of
  /// hopping across per-node heap vectors.
  std::span<const int> successors_flat(int line_node) const {
    const std::size_t l = static_cast<std::size_t>(line_node);
    return {flat_.data() + offsets_[l], flat_.data() + offsets_[l + 1]};
  }

 private:
  const Topology* topo_;
  std::vector<std::vector<int>> succ_;
  /// CSR mirror of succ_ (offsets_ has size() + 1 entries).
  std::vector<std::size_t> offsets_;
  std::vector<int> flat_;
};

/// The baseline intra-mesh turn rule: dimension-order (XY). Straight moves
/// and X->Y turns are allowed; Y->X turns are forbidden. U-turns are never
/// allowed. Both channels must be horizontal and on the same mesh.
bool xy_turn_allowed(const Channel& in, const Channel& out);

/// True when the port moves along the X dimension (east/west).
bool is_x_port(Port p);

/// All-pairs reachability over a line graph, one BFS per node, stored as a
/// packed bit matrix. Sized for analysis graphs (<= a few thousand nodes).
class LineReachability {
 public:
  explicit LineReachability(const LineGraph& graph);

  /// True when `to` is reachable from `from` (reflexively true for ==).
  bool reachable(int from, int to) const {
    return (bits_[static_cast<std::size_t>(from) * words_ +
                  static_cast<std::size_t>(to / 64)] >>
            (to % 64)) &
           1u;
  }

 private:
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

}  // namespace deft
