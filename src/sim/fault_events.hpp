// Mid-run fault-event surgery.
//
// A FaultTimeline turns faults from a static per-run scenario into runtime
// events. The FaultSurgeon applies the events due at a cycle boundary - the
// cycle's serial begin step at any shard count, so the surgery is
// bit-identical across shard counts - and performs the incremental state
// transition the naive approach (tear down the run, rebuild per scenario)
// avoids paying for:
//
//  * the routing algorithm's fault tables are rebuilt in place through
//    RoutingAlgorithm::set_faults() (capacity-reusing, RNG untouched);
//  * the network's faulty-channel mask flips exactly one channel;
//  * head-of-line route decisions are invalidated (and their held output
//    VCs released) so the next cycle re-routes them under the new fault
//    set - on repair as well as on failure;
//  * in-flight packets that still need the dead channel are *extracted*:
//    a wormhole committed toward a dead link cannot be salvaged, so their
//    flits are filtered out of every buffer lane, mirrored credits are
//    restored, their RC reservations are purged, and they are counted
//    lost;
//  * packets still queued at their source NI whose route needs the dead
//    channel are resolved by the InFlightPolicy: dropped, or re-routed in
//    ascending NI order (deterministic, preserving the algorithm's shared
//    RNG stream order).
//
// The surgeon also owns the fault-window metrics (packets lost, delivery
// ratio during fault-active cycles, reconvergence latency), computed
// post-run from the packet timestamp plane so the serial and sharded
// cores trivially agree.
#pragma once

#include <vector>

#include "fault/scenario.hpp"
#include "sim/ni.hpp"
#include "stats/stats.hpp"

namespace deft {

class FaultSurgeon {
 public:
  FaultSurgeon() = default;

  /// (Re)binds the surgeon for one run. `timeline` may be null (no dynamic
  /// events; the surgeon still tracks the fault window of a static
  /// `initial` set so the window metrics cover static-fault runs too).
  /// Reuses all prior allocations: on a warm workspace reset() and the
  /// per-event surgery perform no heap allocation.
  void reset(const Topology& topo, const FaultTimeline* timeline,
             InFlightPolicy policy, const VlFaultSet& initial);

  /// O(1) guard for the per-cycle serial point: true when apply_due(now)
  /// has events to apply.
  bool pending(Cycle now) const {
    return cursor_ < order_.size() &&
           timeline_->events()[order_[static_cast<std::size_t>(cursor_)]]
                   .cycle <= now;
  }

  /// Applies every event due at or before `now`, in (cycle, insertion
  /// order). Must be called at a cycle-boundary serial point: all staged
  /// network state committed, no step in flight.
  void apply_due(Cycle now, Network& net, RoutingAlgorithm& alg,
                 PacketTable& packets, std::vector<NetworkInterface>& nis,
                 RcUnitManager& rc_units);

  /// Packets extracted or dropped so far that were created inside the
  /// measurement window; the drain condition adds this to the delivered
  /// count (a lost packet can never drain).
  std::uint64_t lost_measured() const { return lost_measured_; }

  /// Fills the fault metrics of `results` from the packet timestamp plane
  /// (post-run; order-insensitive, so serial and sharded runs agree).
  void finalize(SimResults& results, const PacketTable& packets) const;

 private:
  /// Checkpointing serializes the event cursor, current fault set and
  /// fault-window metrics (order_ is rebuilt by reset(); the
  /// per-event scratch is reassigned at each event application).
  friend class SnapshotAccess;

  /// An input VC that is pinned (route_ready) but currently holds no
  /// flits: its owner was found by walking the feeder chain upstream.
  struct PinnedLane {
    NodeId node = kInvalidNode;
    int lane = 0;
    PacketId owner = -1;
  };

  bool fault_active(Cycle c) const;
  void mark_affected(RouteId id);
  /// Marks every interned route that can no longer be served from its
  /// source under the algorithm's current fault set.
  void mark_affected_routes(const RoutingAlgorithm& alg,
                            const PacketTable& packets);
  /// Releases a lane's held output VC (if any) and resets its head-of-line
  /// route state.
  static void release_lane(RouterState& r, int lane);
  /// Invalidates every head-of-line route decision whose head flit has not
  /// yet departed, so the next cycle re-routes it under the new fault set.
  void refresh_head_routes(Network& net);
  /// Owner of an empty pinned lane, found by walking the feeder ownership
  /// chain upstream; -1 for RC-fed lanes (re-injection legs never cross a
  /// vertical link, so their owners are never doomed).
  PacketId upstream_owner(const Network& net,
                          const std::vector<NetworkInterface>& nis,
                          NodeId node, int lane) const;
  void doom(PacketId id);
  /// Finds every in-flight packet that still needs a now-faulty channel.
  void doom_scan(Network& net, const RoutingAlgorithm& alg,
                 const PacketTable& packets,
                 const std::vector<NetworkInterface>& nis);
  /// Removes every doomed packet's flits from the network (restoring the
  /// mirrored credits), resets their NIs and purges their RC state.
  void extract_doomed(Network& net, const PacketTable& packets,
                      std::vector<NetworkInterface>& nis,
                      RcUnitManager& rc_units);
  /// Cancels a packet's pending requests, grant and buffered flits at its
  /// RC unit, mirroring the manager's busy/held bookkeeping.
  void purge_rc(Network& net, RcUnitManager& rc_units, PacketId id,
                NodeId unit_node);
  /// Resolves affected packets still queued at their source NI under the
  /// in-flight policy, in ascending NI order.
  void apply_policy(Network& net, RoutingAlgorithm& alg, PacketTable& packets,
                    std::vector<NetworkInterface>& nis,
                    RcUnitManager& rc_units);

  const Topology* topo_ = nullptr;
  const FaultTimeline* timeline_ = nullptr;
  InFlightPolicy policy_ = InFlightPolicy::drop;
  VlFaultSet faults_;  ///< current set (initial + applied events)
  /// Event indices sorted by (cycle, insertion order); cursor_ = next due.
  std::vector<std::uint32_t> order_;
  std::size_t cursor_ = 0;

  // --- Fault-window metrics ---------------------------------------------
  std::uint64_t lost_ = 0;
  std::uint64_t lost_measured_ = 0;
  Cycle first_fail_ = -1;  ///< cycle of the first applied fail event
  /// Half-open [start, end) cycle ranges with a non-empty fault set; end
  /// of -1 means open through the end of the run.
  std::vector<std::pair<Cycle, Cycle>> intervals_;
  /// Per RouteId: route crossed a failed channel (or replaced such a
  /// route); reconvergence is measured over deliveries on these routes.
  std::vector<char> affected_;

  // --- Per-event scratch (grow-only) ------------------------------------
  std::vector<char> doomed_;  ///< per PacketId
  std::vector<PacketId> doomed_list_;
  std::vector<PinnedLane> pinned_empty_;
};

}  // namespace deft
