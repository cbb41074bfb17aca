// RC-buffer units and the permission network for the RC baseline.
//
// One unit sits at every boundary router. A source NI must be granted the
// unit guarding its packet's ascending crossing before injecting; requests
// and grants travel with hop-count latency through the permission network.
// The granted packet is absorbed whole into the unit's packet buffer when
// it arrives via the Up channel (the absorption can never stall - the
// buffer was empty and reserved at grant time), then re-injected into the
// destination chiplet through the router's RC input port. The reservation
// is released once the buffer is empty again, which keeps the "ascents
// always drain" invariant that makes RC deadlock-free.
#pragma once

#include <deque>

#include "sim/network.hpp"

namespace deft {

class RcUnitManager {
 public:
  /// Creates one unit per boundary router; `packet_size` fixes each unit's
  /// buffer capacity (they store exactly one packet).
  RcUnitManager(const Topology& topo, int packet_size) {
    reset(topo, packet_size);
  }

  /// A manager without units awaiting reset() (SimWorkspace member state).
  RcUnitManager() = default;

  /// (Re)binds the manager: identical post-state to fresh construction.
  /// Reusing the same topology and packet size clears each unit in place
  /// and keeps the unit/node tables (workspace reuse); otherwise the
  /// tables are rebuilt.
  void reset(const Topology& topo, int packet_size);

  /// NI-side: file a permission request for `packet` targeting the unit at
  /// boundary router `unit_node`. One outstanding request per NI. (The
  /// full-scan reference core files directly; the active-set cycle stages
  /// requests and delivers them through request_parallel().)
  void request(NodeId unit_node, NodeId requester, PacketId packet, Cycle now);

  /// request() variant for the cycle's distributed delivery: the
  /// busy-unit counter is NOT touched - the at-rest transition (0 or 1) is
  /// returned instead, for the caller to accumulate per shard and fold in
  /// via add_busy_units() at the next serial point. Safe to call
  /// concurrently from different shards as long as each unit's requests
  /// all come from the one shard that owns its node (the partition
  /// guarantees this) - different units never share state besides
  /// busy_units_, which this variant leaves alone.
  int request_parallel(NodeId unit_node, NodeId requester, PacketId packet,
                       Cycle now);

  /// Folds the per-shard at-rest deltas accumulated by request_parallel()
  /// into the busy-unit counter. Serial points only.
  void add_busy_units(int delta) { busy_units_ += delta; }

  /// NI-side: true once the grant for (requester, packet) has arrived.
  bool grant_ready(NodeId unit_node, NodeId requester, PacketId packet,
                   Cycle now) const;

  /// Network hook: a flit was handed to the unit at `unit_node`.
  void absorb(NodeId unit_node, const Flit& flit, Cycle now,
              const PacketTable& packets);

  /// Advance grants and re-inject buffered flits (<= 1 flit/cycle/unit).
  /// O(1) when every unit is at rest (no queued requests, reservation or
  /// buffered flits) - the permanent state under non-RC algorithms.
  void tick(Cycle now, Network& net, const PacketTable& packets);

  /// Registers each unit's initial buffer capacity as RC output credits.
  void publish_initial_credits(Network& net) const;

  /// Progress events (grants issued, flits re-injected) since the last
  /// call; feeds the deadlock watchdog.
  std::uint64_t take_progress() {
    const std::uint64_t p = progress_;
    progress_ = 0;
    return p;
  }

  /// Flits currently buffered across all units (in-flight work). Queried
  /// by the deadlock watchdog every cycle, so kept as a running counter.
  std::uint64_t flits_held() const { return flits_held_; }

  bool has_unit(NodeId node) const {
    return static_cast<std::size_t>(node) < unit_of_node_.size() &&
           unit_of_node_[static_cast<std::size_t>(node)] >= 0;
  }

 private:
  /// The fault-event surgeon purges a doomed packet's requests,
  /// reservation and buffered flits at event boundaries (serial points
  /// only), mirroring this manager's busy/held bookkeeping.
  friend class FaultSurgeon;
  /// Checkpointing serializes each unit's queue, reservation and buffer at
  /// a paused cycle boundary.
  friend class SnapshotAccess;

  struct Request {
    NodeId requester;
    PacketId packet;
    Cycle arrives;  ///< when the request reaches the unit
  };
  struct Unit {
    NodeId node = kInvalidNode;
    std::deque<Request> queue;
    bool reserved = false;
    NodeId granted_to = kInvalidNode;
    PacketId granted_packet = -1;
    Cycle grant_arrives = 0;  ///< when the grant reaches the requester
    std::deque<Flit> buffer;
    bool absorbing_done = false;  ///< tail absorbed, re-injection may run
    int reinject_vc = 0;
  };

  static bool at_rest(const Unit& unit) {
    return !unit.reserved && unit.queue.empty() && unit.buffer.empty();
  }

  int permission_latency(NodeId a, NodeId b) const;
  Unit& unit_at(NodeId node);
  const Unit& unit_at(NodeId node) const;

  const Topology* topo_ = nullptr;
  int packet_size_ = 0;
  std::vector<int> unit_of_node_;
  std::vector<Unit> units_;
  std::uint64_t progress_ = 0;
  std::uint64_t flits_held_ = 0;
  /// Units not at rest; tick() returns immediately when zero.
  int busy_units_ = 0;
};

}  // namespace deft
