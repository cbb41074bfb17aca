// Network interface: open-loop packet source and sink at an endpoint.
//
// Each NI owns an unbounded source queue (so offered load is independent
// of network backpressure, the standard open-loop measurement setup), a
// private RNG stream, its pre-drawn next injection, the FIFO of replies it
// owes requesters, and - for the RC baseline - the permission-request
// state machine for the packet at the head of its queue.
#pragma once

#include <limits>

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
    injection_at_ = kNoInjection;
    replies_.clear();
    replies_head_ = 0;
    prepared_.clear();
  }

  /// A reply this NI owes: sent to `requester` at cycle `due`.
  struct PendingReply {
    Cycle due = 0;
    NodeId requester = kInvalidNode;
    std::uint8_t app = 0;
  };

  /// The full-scan reference's per-cycle path: materializes the replies
  /// due now, then this cycle's tick() requests (drawn()).
  void generate(Cycle now, TrafficGenerator& traffic,
                RoutingAlgorithm& algorithm, PacketTable& packets,
                int packet_size, bool in_measure_window, NiCounters& counters);

  // --- Scheduled generation (the active-set cycle) -----------------------
  /// Pre-draws this NI's next injection event in [from, limit) into
  /// drawn() and injection_at(), consuming the RNG stream exactly as
  /// per-cycle generate() calls would. Returns its cycle, or `limit`.
  Cycle schedule_next(TrafficGenerator& traffic, Cycle from, Cycle limit);

  /// Materializes this NI's batch at cycle `now`: the queued replies due
  /// by `now` in FIFO order, then - when its own event is due now - the
  /// requests schedule_next() pre-drew. Identical packet state and
  /// counters to a generate() call at `now`. Routes prepare_scheduled()
  /// already prepared for this batch are committed as they are.
  void commit_scheduled(Cycle now, RoutingAlgorithm& algorithm,
                        PacketTable& packets, int packet_size,
                        bool in_measure_window, NiCounters& counters);

  /// Counter-mode fast path: prepares the routes of the batch
  /// commit_scheduled(`at`) will materialize from this NI's private
  /// counter stream, inside the per-shard back step; packet creation (the
  /// dense-id allocation) stays in the serial ascending-NI commit, so ids
  /// are shard-count-invariant. Must not run when a fault event fires at
  /// `at` (the routes would see the stale fault set); the caller defers to
  /// the serial path, which consumes identical per-NI draws.
  void prepare_scheduled(RoutingAlgorithm& algorithm, Cycle at) {
    prepare(at, injection_at_ == at, algorithm);
  }

  /// Queues a reply to `requester` due at `due`; replies arrive in due
  /// order.
  void queue_reply(Cycle due, NodeId requester, std::uint8_t app) {
    replies_.push_back({due, requester, app});
  }

  /// This NI's own injection event: its requests (pre-drawn, or this
  /// cycle's in generate()) and its cycle (kNoInjection before the first
  /// pre-draw).
  const std::vector<PacketRequest>& drawn() const { return scratch_; }
  Cycle injection_at() const { return injection_at_; }

  static constexpr Cycle kNoInjection = std::numeric_limits<Cycle>::max();

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
  NodeId node() const { return node_; }

 private:
  /// The fault-event surgeon inspects/edits queued and active packet state
  /// at event boundaries (serial points only).
  friend class FaultSurgeon;
  /// Checkpointing serializes the queue, active-packet cache, RNG stream,
  /// pre-drawn injection event and reply FIFO at a paused cycle boundary.
  friend class SnapshotAccess;

  /// Prepares the routes of the batch due at `at` into prepared_: the
  /// replies due by then (popped off their FIFO), then - with `own` -
  /// drawn().
  void prepare(Cycle at, bool own, RoutingAlgorithm& algorithm);
  /// Creates and queues the prepared_ packets at cycle `now` (an
  /// unroutable one is counted and dropped).
  void commit(Cycle now, PacketTable& packets, int packet_size,
              bool in_measure_window, NiCounters& counters);

  /// This NI's route-randomness source: its private counter stream in
  /// counter mode, or null (= the algorithm's shared stream) otherwise.
  /// Also consumed by the fault surgeon's reroute pass, which runs at
  /// serial points in ascending NI order under both modes.
  CounterRng* route_stream() {
    return counter_mode_ ? &route_rng_ : nullptr;
  }

  /// One pre-routed packet request (prepare's output).
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
  /// The own injection event: its requests and its cycle.
  std::vector<PacketRequest> scratch_;
  Cycle injection_at_ = kNoInjection;
  /// Replies owed, a FIFO like queue_ that also drops its consumed prefix
  /// once that dominates, so one that never drains stays bounded.
  std::vector<PendingReply> replies_;
  std::size_t replies_head_ = 0;
  /// The batch prepare() built, in batch order. Only a counter-mode back
  /// step leaves it filled for the next begin step's commit.
  std::vector<PreparedRequest> prepared_;
};

}  // namespace deft
