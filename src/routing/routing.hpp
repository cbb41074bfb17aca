// Routing-algorithm interface shared by the simulator, the CDG analyzer,
// and the reachability analyzer.
//
// Inter-chiplet routing in 2.5D systems uses two intermediate destinations
// (Section II-A of the paper): a vertical link on the source chiplet and a
// vertical link to the destination chiplet, selected when the packet is
// created. The routing algorithm fills a PacketRoute at injection time and
// then answers per-hop queries (output port + admissible virtual channels).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_set.hpp"
#include "topology/topology.hpp"

namespace deft {

/// Maximum virtual channels per physical channel supported by the library.
inline constexpr int kMaxVcs = 4;

/// Bitmask over VC indices.
using VcMask = std::uint8_t;

inline VcMask vc_bit(int vc) { return static_cast<VcMask>(1u << vc); }

/// Per-packet routing state, fixed at injection (except for the VC/VN,
/// which the VC allocator re-binds hop by hop within the admissible mask).
struct PacketRoute {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  /// Boundary router on the source chiplet where the packet descends
  /// (first intermediate destination), or kInvalidNode.
  NodeId down_node = kInvalidNode;
  /// Interposer router where the packet ascends to the destination chiplet
  /// (second intermediate destination), or kInvalidNode.
  NodeId up_exit = kInvalidNode;
  /// Admissible VCs for injection at the source NI.
  VcMask initial_vcs = 0;
  /// True when the packet must be absorbed by the RC unit at the
  /// destination-side boundary router (RC routing only).
  bool rc_absorb = false;
  /// The boundary router whose RC unit must grant this packet before
  /// injection (RC routing only).
  NodeId rc_unit = kInvalidNode;
};

/// Per-hop routing answer: one output port plus the set of admissible
/// downstream VCs. For DeFT the VC set encodes the virtual-network rules;
/// the VC allocator's round-robin over the mask implements Algorithm 1's
/// round-robin VN (re)assignment.
struct RouteDecision {
  Port out_port = Port::local;
  VcMask vcs = 0;
};

/// Downstream congestion visible to a router when making adaptive choices;
/// free_credits[p] is the total free credits over all VCs of output port p.
struct RouterView {
  std::array<int, kNumPorts> free_credits{};
};

class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;

  virtual const char* name() const = 0;

  /// Number of virtual channels the algorithm is configured for.
  virtual int num_vcs() const = 0;

  /// Fills route state for a new packet. Returns false when the pair is
  /// unreachable under the current fault set (the NI drops the packet and
  /// counts it against reachability). When `stream` is non-null
  /// (`rng_mode = counter`), any per-packet randomness must be drawn from
  /// it instead of the algorithm's own stream; with a non-null stream the
  /// call must be const-observable on the algorithm (no shared mutable
  /// state), because the partitioned core invokes it concurrently from
  /// shard workers, each with its own per-NI stream.
  virtual bool prepare_packet(PacketRoute& route,
                              CounterRng* stream = nullptr) = 0;

  /// Per-hop decision for the packet whose head flit sits at `node`,
  /// arrived through `in_port` on VC `in_vc`.
  virtual RouteDecision route(NodeId node, Port in_port, int in_vc,
                              const PacketRoute& route,
                              const RouterView& view) const = 0;

  /// True when route() reads the RouterView (adaptive, congestion-aware
  /// choices). The network only aggregates per-port credit views for
  /// algorithms that need them; oblivious algorithms receive a
  /// zero-initialized view. Conservative default: true.
  virtual bool uses_router_view() const { return true; }

  /// Per-hop refinement of uses_router_view(): true when the decision for
  /// this specific (node, in_port, packet) hop depends on the credit view.
  /// Adaptive algorithms whose candidate tables often hold a single
  /// continuation (MTR) override this so the network skips the per-port
  /// credit aggregation on forced hops; route() must then not read `view`
  /// for such hops. Only consulted when uses_router_view() is true.
  virtual bool route_needs_view(NodeId node, Port in_port,
                                const PacketRoute& route) const {
    (void)node;
    (void)in_port;
    (void)route;
    return uses_router_view();
  }

  /// Replaces the algorithm's fault set in place (dynamic fault events).
  /// Implementations must rebuild exactly the state the constructor would
  /// have built for this fault set - reusing capacity rather than
  /// reallocating, and leaving any RNG stream untouched - so constructing
  /// with faults F is indistinguishable from constructing fault-free and
  /// then calling set_faults(F).
  virtual void set_faults(const VlFaultSet& faults) {
    (void)faults;
    require(false, std::string(name()) + ": dynamic faults not supported");
  }

  /// True when a packet currently at `node` (head flit arrived through
  /// `in_port`) can still reach rt.dst without traversing a faulty
  /// channel, given its immutable route. Position-aware: a packet past
  /// its vertical crossings no longer needs them. Used by the dynamic
  /// fault machinery to decide which in-flight packets a fail event
  /// dooms; only meaningful for algorithms that override set_faults().
  virtual bool hop_viable(NodeId node, Port in_port,
                          const PacketRoute& rt) const {
    (void)node;
    (void)in_port;
    (void)rt;
    return true;
  }

  /// True when the algorithm can deliver src -> dst under the fault set it
  /// was constructed with (used by the reachability analyzer).
  virtual bool pair_reachable(NodeId src, NodeId dst) const = 0;

  /// Fault-independent descriptor of the vertical channels usable for
  /// src -> dst: for chiplet->chiplet pairs, a bitmask with bit
  /// (down_idx * 8 + up_idx) per usable combination (per-chiplet VL
  /// indices); for chiplet->interposer pairs, bit down_idx; for
  /// interposer->chiplet pairs, bit up_idx. kAlwaysReachable for pairs
  /// that never cross a vertical link. A pair is deliverable under a
  /// fault set iff its mask intersects the alive combinations - this lets
  /// the reachability analyzer aggregate identical pairs across thousands
  /// of fault patterns.
  virtual std::uint64_t pair_combo_mask(NodeId src, NodeId dst) const = 0;

  /// Simulation checkpointing (sim/snapshot.hpp): algorithms that consume
  /// per-run randomness (DeFT's random VL strategy) expose that stream
  /// state here so a restored run resumes it mid-sequence. Stateless
  /// algorithms keep the empty default; save and load must round-trip
  /// (load consumes exactly the words save appended).
  virtual void save_stream_state(std::vector<std::uint64_t>& out) const {
    (void)out;
  }
  virtual void load_stream_state(const std::vector<std::uint64_t>& in,
                                 std::size_t& cursor) {
    (void)in;
    (void)cursor;
  }

  static constexpr std::uint64_t kAlwaysReachable = ~std::uint64_t{0};
};

/// One XY hop on a mesh: the port moving `cur` toward `target` (both must
/// be on the same mesh), X first, then Y; Port::local when cur == target.
/// This is the per-hop XY function of DeFT's and RC's route stage: every
/// XY leg is computed from the two routers' mesh coordinates.
Port xy_step(const Topology& topo, NodeId cur, NodeId target);

/// The mask admitting every VC index below `num_vcs`.
VcMask all_vcs_mask(int num_vcs);

/// Position-aware viability of a route-carrying packet (DeFT/RC): true
/// when the journey from `node` no longer needs a faulty vertical crossing
/// recorded in rt.down_node / rt.up_exit. Shared hop_viable() backend.
bool route_hop_viable(const Topology& topo, const VlFaultSet& faults,
                      NodeId node, const PacketRoute& rt);

}  // namespace deft
