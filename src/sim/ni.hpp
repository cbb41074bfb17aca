// Network interface: open-loop packet source and sink at an endpoint.
//
// Each NI owns an unbounded source queue (so offered load is independent
// of network backpressure, the standard open-loop measurement setup), a
// private RNG stream, and - for the RC baseline - the permission-request
// state machine for the packet at the head of its queue.
#pragma once

#include "sim/network.hpp"
#include "sim/rc_units.hpp"
#include "traffic/patterns.hpp"

namespace deft {

/// Injection-side counters, aggregated by the simulator.
struct NiCounters {
  std::uint64_t created = 0;
  std::uint64_t created_measured = 0;
  std::uint64_t dropped_unroutable = 0;
};

/// A permission request an NI would file with a (possibly remote) RC unit.
/// The cycle's front step captures these during NI injection and the back
/// step delivers them in ascending NI order - the order the NIs file them
/// - before the next RC tick. Deferring delivery to the back step is
/// exact: a request filed at cycle t cannot arrive at its unit before
/// t + 2 (permission_latency >= 2), so no grant decision at cycle t or
/// t + 1 can observe it.
struct RcPermissionRequest {
  std::size_t ni = 0;  ///< NI index (the delivery-order key)
  NodeId unit_node = kInvalidNode;
  NodeId requester = kInvalidNode;
  PacketId packet = -1;
  Cycle now = 0;  ///< cycle the request was filed
};

class NetworkInterface {
 public:
  NetworkInterface(NodeId node, Rng rng) : node_(node), rng_(rng) {}

  /// An unbound NI awaiting reset() (SimWorkspace member state).
  NetworkInterface() = default;

  /// Rebinds the NI to an endpoint with a fresh RNG stream and discards
  /// all queued/active packet state, keeping the queue and scratch
  /// allocations (workspace reuse across runs). With `counter_mode` set,
  /// `route_rng` supplies this NI's private counter-based stream and all
  /// route preparation draws from it instead of the routing algorithm's
  /// shared stream (SimKnobs::rng_mode).
  void reset(NodeId node, Rng rng, CounterRng route_rng = CounterRng{},
             bool counter_mode = false) {
    node_ = node;
    rng_ = rng;
    route_rng_ = route_rng;
    counter_mode_ = counter_mode;
    queue_.clear();
    queue_head_ = 0;
    active_ = -1;
    active_size_ = 0;
    active_initial_vcs_ = 0;
    next_seq_ = 0;
    vc_ = -1;
    perm_requested_ = false;
    vc_rr_ = 0;
    scratch_.clear();
    prepared_.clear();
  }

  /// Asks the traffic generator for this cycle's packets, prepares their
  /// routes and enqueues them (unroutable ones are dropped and counted).
  /// Per-cycle polling path; the scheduled path below replaces it when the
  /// generator supports lookahead.
  void generate(Cycle now, TrafficGenerator& traffic,
                RoutingAlgorithm& algorithm, PacketTable& packets,
                int packet_size, bool in_measure_window, NiCounters& counters);

  // --- Scheduled generation (lookahead-capable generators) ---------------
  /// Pre-draws this NI's next injection event in [from, limit): the
  /// requests are buffered internally (the RNG stream is consumed exactly
  /// as per-cycle generate() calls would) and the event cycle is returned,
  /// or `limit` when the source stays silent. The simulator re-enters via
  /// commit_scheduled() when the returned cycle arrives.
  Cycle schedule_next(TrafficGenerator& traffic, Cycle from, Cycle limit);

  /// Materializes the requests pre-drawn by schedule_next() as packets
  /// created at cycle `now` - identical packet state and counters to a
  /// generate() call at `now`. When prepare_scheduled() already ran for
  /// this batch, the prepared routes are committed instead of re-deriving
  /// them (the prepared buffer is consumed either way).
  void commit_scheduled(Cycle now, RoutingAlgorithm& algorithm,
                        PacketTable& packets, int packet_size,
                        bool in_measure_window, NiCounters& counters);

  /// Counter-mode fast path: prepares the routes of the requests pre-drawn
  /// by schedule_next() using this NI's private counter stream, so the
  /// work runs inside the cycle's per-shard back step.
  /// Packet creation (the dense-id allocation) stays in commit_scheduled's
  /// serial ascending-NI merge, which is what keeps PacketTable ids
  /// shard-count-invariant. Only valid in counter mode; must not run when
  /// a fault event fires at the commit cycle (the routes would see the
  /// stale fault set - the caller defers to the serial path instead, and
  /// the per-NI stream makes both paths consume identical draws).
  void prepare_scheduled(RoutingAlgorithm& algorithm);

  /// Pushes at most one flit of the active packet into the router; handles
  /// RC permission acquisition for the head-of-queue packet. When
  /// `staged_requests` is non-null (the cycle's front step),
  /// permission requests are appended there - tagged with `ni_index` -
  /// instead of being filed with the manager directly; grant checks stay
  /// read-only either way.
  void try_inject(Cycle now, Network& net, PacketTable& packets,
                  RcUnitManager& rc_units,
                  std::vector<RcPermissionRequest>* staged_requests = nullptr,
                  std::size_t ni_index = 0);

  /// Work still owned by this NI (queued or partially injected packets).
  bool busy() const { return active_ >= 0 || queue_head_ < queue_.size(); }
  std::size_t queue_depth() const {
    return (queue_.size() - queue_head_) + (active_ >= 0);
  }
  NodeId node() const { return node_; }

 private:
  /// The fault-event surgeon inspects/edits queued and active packet state
  /// at event boundaries (serial points only).
  friend class FaultSurgeon;
  /// Checkpointing serializes the queue, active-packet cache, RNG stream
  /// and pre-drawn scratch requests at a paused cycle boundary.
  friend class SnapshotAccess;

  /// Shared tail of generate()/commit_scheduled(): route preparation,
  /// packet creation and counter updates for one batch of requests.
  void materialize(Cycle now, const std::vector<PacketRequest>& requests,
                   RoutingAlgorithm& algorithm, PacketTable& packets,
                   int packet_size, bool in_measure_window,
                   NiCounters& counters);

  /// This NI's route-randomness source: its private counter stream in
  /// counter mode, or null (= the algorithm's shared stream) otherwise.
  /// Also consumed by the fault surgeon's reroute pass, which runs at
  /// serial points in ascending NI order under both modes.
  CounterRng* route_stream() {
    return counter_mode_ ? &route_rng_ : nullptr;
  }

  /// One pre-routed packet request (prepare_scheduled's output).
  struct PreparedRequest {
    PacketRoute route;
    std::uint8_t app = 0;
    bool ok = false;  ///< prepare_packet verdict (false = unroutable)
  };

  NodeId node_ = kInvalidNode;
  Rng rng_{0};
  /// Counter-mode route stream (keyed by (seed, node_)); unused -
  /// counter 0 - in serial mode.
  CounterRng route_rng_;
  bool counter_mode_ = false;
  /// FIFO as a growth-only vector with a consumed-prefix cursor: push_back
  /// appends, the head advances on pop, and both rewind to zero whenever
  /// the queue drains. Capacity is never released, so a reused workspace's
  /// steady state enqueues without heap traffic (a deque would allocate
  /// block nodes at construction and release them on clear).
  std::vector<PacketId> queue_;
  std::size_t queue_head_ = 0;
  PacketId active_ = -1;
  /// Cached from the active packet's hot record at activation, so the
  /// per-cycle flit streaming path stays inside the NI's own state.
  std::uint16_t active_size_ = 0;
  VcMask active_initial_vcs_ = 0;
  std::uint16_t next_seq_ = 0;
  int vc_ = -1;
  bool perm_requested_ = false;
  std::uint8_t vc_rr_ = 0;
  std::vector<PacketRequest> scratch_;
  /// Routes prepared ahead of commit by prepare_scheduled(), parallel to
  /// scratch_; empty when the serial path will re-derive them.
  std::vector<PreparedRequest> prepared_;
};

}  // namespace deft
