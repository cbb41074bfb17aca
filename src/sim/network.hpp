// The cycle-accurate network: routers, channels, credits.
//
// Two-phase execution keeps the model order-independent: step() lets every
// router compute routes, allocate VCs and arbitrate its crossbar against
// the state left by the previous cycle, staging all flit movements and
// credit returns; apply() then commits them. A flit therefore advances at
// most one hop per cycle (router + link folded into one stage, the model
// Noxim uses), and credits become visible one cycle after the buffer slot
// frees.
//
// Hot-path mechanisms keeping the cost per simulated cycle proportional
// to traffic, not to system size:
//
//  * Active-router worklist (SimCore::active_set, the default): a bitmask
//    with one bit per router, set when the router buffers any flit.
//    step() scans only set bits (in router-id order, so arbitration is
//    bit-identical to the full scan); apply() sets the bit on every
//    committed arrival, step() clears it when the last buffered flit
//    leaves. Blocked-but-occupied routers stay on the worklist - the
//    upstream credit return that unblocks them commits through apply(),
//    which cannot race the wakeup. SimCore::full_scan keeps the
//    walk-all-routers loop as the semantic reference for the equivalence
//    tests and the perf baseline.
//
//  * Compile-time stats sinks: step()/apply() are templated on a StatsSink
//    (see NullStatsSink for the concept) instead of indirect std::function
//    hooks, so per-flit instrumentation inlines into the traversal loop
//    and the no-stats phases (warmup, drain, deadlock probes) pay nothing.
//
//  * Structure-of-arrays flit storage (FlitStore in router.hpp): buffered
//    flits live in parallel field planes per router, flits carry a
//    head/tail kind byte stamped once at injection, and the credit view
//    for adaptive routing is built only when route_needs_view() says the
//    hop's decision actually depends on it - so the pipeline stages
//    stream single bytes instead of whole packet records. The route
//    stage's one remaining per-packet access reads the interned route
//    plane (PacketTable::route_of): an 8-byte hot record indexing a
//    dense RouteId -> PacketRoute array shared by every packet that
//    repeats the route.
//
// Sharded execution (the partitioned core): when reset() receives a
// Partition, every piece of per-cycle mutable state is sliced by shard -
// each shard owns a private active-router worklist, flit/move counters,
// and a row of staging outboxes keyed by the *consumer* shard. step() on
// a router only ever touches that router's own state plus its shard's
// outboxes, so step_shard() calls for different shards are data-race-free
// and may run on different threads. commit_shard(s) then drains every
// producer's outbox addressed to s (arrivals, credit returns, RC output
// credits, local ejections) - all order-independent within a cycle: at
// most one arrival lands per (router, port, VC) lane, credits are
// additive, and ejection statistics are merged as order-insensitive
// multisets - while RC-unit absorptions (which mutate manager-wide
// state) drain through the serial drain_rc_departures(). The trivial
// single-shard partition reproduces the historical serial behavior
// byte for byte.
#pragma once

#include <bit>

#include "fault/fault_set.hpp"
#include "sim/router.hpp"
#include "topology/partition.hpp"

namespace deft {

class FaultSurgeon;

/// Which simulation core drives step(): the incremental active-router
/// worklist or the reference full scan (kept for equivalence testing and
/// as the perf baseline).
enum class SimCore : std::uint8_t { active_set, full_scan };

/// The no-op statistics sink; also documents the StatsSink concept that
/// Network::step()/apply() expect. All three methods must be callable;
/// empty bodies compile away entirely.
struct NullStatsSink {
  /// Flit traversing a physical channel on a VC (for VC/VL statistics).
  void traverse(ChannelId, int) {}
  /// Tail-inclusive flit ejection at a node's local port.
  void eject(NodeId, const Flit&, Cycle) {}
  /// Flit handed to the RC unit of a boundary router.
  void rc_absorb(NodeId, const Flit&, Cycle) {}
};

class Network {
 public:
  /// `vl_serialization` models serialized vertical interconnects (the
  /// cost-reduction the paper cites from [18], Pasricha DAC'09): a
  /// vertical channel accepts one flit every `vl_serialization` cycles
  /// (1 = full-width VLs, the paper's baseline).
  Network(const Topology& topo, RoutingAlgorithm& algorithm,
          PacketTable& packets, int num_vcs, int buffer_depth,
          VlFaultSet faults, int vl_serialization = 1,
          SimCore core = SimCore::active_set,
          const Partition* partition = nullptr) {
    reset(topo, algorithm, packets, num_vcs, buffer_depth, faults,
          vl_serialization, core, partition);
  }

  /// An empty network awaiting reset() (SimWorkspace member state).
  Network() = default;

  /// (Re)configures the network for a run: identical post-state to
  /// constructing a fresh Network with these arguments, but reuses every
  /// allocation - on a same-or-smaller topology no heap traffic occurs.
  /// `partition` slices the per-cycle state for sharded execution (it
  /// must outlive the network's use); nullptr keeps the serial
  /// single-shard layout.
  void reset(const Topology& topo, RoutingAlgorithm& algorithm,
             PacketTable& packets, int num_vcs, int buffer_depth,
             VlFaultSet faults, int vl_serialization = 1,
             SimCore core = SimCore::active_set,
             const Partition* partition = nullptr);

  /// Compute one cycle of router activity (stages moves, does not commit).
  /// `sink` receives the per-flit traversal events. Serial wrapper over
  /// step_shard() for every shard.
  template <class Sink>
  void step(Cycle now, Sink& sink) {
    for (int s = 0; s < num_shards_; ++s) {
      step_shard(s, now, sink);
    }
  }
  void step(Cycle now) {
    NullStatsSink sink;
    step(now, sink);
  }

  /// Commit staged arrivals, credits, ejections and absorptions. `sink`
  /// receives the ejection and RC-absorption events. Serial wrapper over
  /// commit_shard() for every shard plus the RC departure drain.
  template <class Sink>
  void apply(Cycle now, Sink& sink) {
    for (int s = 0; s < num_shards_; ++s) {
      commit_shard(s, now, sink);
    }
    drain_rc_departures(now, sink);
  }
  void apply(Cycle now) {
    NullStatsSink sink;
    apply(now, sink);
  }

  // --- Sharded execution ---------------------------------------------------
  // Contract (see the header comment): step_shard(s)/commit_shard(s) for
  // distinct s touch disjoint state and may run concurrently within their
  // phase; a barrier must separate the step phase from the commit phase,
  // and drain_rc_departures() must run with no commit in flight.

  /// Route/allocate/traverse for the routers shard `s` owns.
  template <class Sink>
  void step_shard(int shard, Cycle now, Sink& sink);

  /// Commits arrivals, credit returns, RC output credits and local
  /// ejections addressed to shard `s` (from every producer's outbox).
  template <class Sink>
  void commit_shard(int shard, Cycle now, Sink& sink);

  /// Serially hands the staged RC-unit absorptions to `sink` (they mutate
  /// manager-wide RC state and so stay out of the parallel commit).
  template <class Sink>
  void drain_rc_departures(Cycle now, Sink& sink) {
    for (ShardLane& lane : lanes_) {
      for (const Departure& d : lane.rc_departures) {
        sink.rc_absorb(d.node, d.flit, now);
      }
      lane.rc_departures.clear();
    }
  }

  // --- Network-interface side -------------------------------------------
  /// Free slots the NI may still inject into (node's local input VC).
  int local_free(NodeId node, int vc) const {
    return local_credit_[index(node, vc)];
  }
  /// Stage one flit into the node's local input port on `vc`. Safe to
  /// call concurrently from the shard owning `node`.
  void inject_local(NodeId node, int vc, const Flit& flit);

  // --- RC-unit side -------------------------------------------------------
  /// Free slots on the boundary router's RC input port (RC re-injection).
  int rc_in_free(NodeId node, int vc) const {
    return rc_in_credit_[index(node, vc)];
  }
  /// Stage one flit into the boundary router's RC input port (serial
  /// contexts only: the RC units tick outside the parallel phases).
  void inject_rc(NodeId node, int vc, const Flit& flit);
  /// Make `credits` additional flit slots available on the router's RC
  /// output (called by the RC unit as its packet buffer frees; serial
  /// contexts only).
  void add_rc_out_credits(NodeId node, int credits);

  // --- Introspection --------------------------------------------------------
  /// Flits currently held in router buffers (the deadlock watchdog's
  /// progress signal, together with moves_last_cycle()). Sums the
  /// per-shard counters; call it from serial sections only.
  std::uint64_t flits_buffered() const {
    std::uint64_t total = 0;
    for (const ShardLane& lane : lanes_) {
      total += lane.flits_buffered;
    }
    return total;
  }
  /// Flit movements committed by the last apply() (summed over shards).
  std::uint64_t moves_last_cycle() const {
    std::uint64_t total = 0;
    for (const ShardLane& lane : lanes_) {
      total += lane.moves;
    }
    return total;
  }
  int num_vcs() const { return num_vcs_; }
  int buffer_depth() const { return buffer_depth_; }
  SimCore core() const { return core_; }
  const RouterState& router(NodeId node) const {
    return routers_[static_cast<std::size_t>(node)];
  }

  // --- Dynamic fault events ------------------------------------------------
  /// Marks one vertical channel (un)usable mid-run. Serial contexts only
  /// (a fault-event boundary); the caller is responsible for having
  /// extracted every in-flight flit that would otherwise traverse the
  /// channel - step() checks and refuses to cross a faulty channel.
  void set_vl_channel_faulty(VlChannelId vl_channel, bool faulty);

 private:
  /// The fault-event surgeon extracts doomed in-flight flits and restores
  /// the mirrored credits; it runs only at serial points and mutates the
  /// same state apply() commits into.
  friend class FaultSurgeon;
  /// Checkpointing reads/writes the full router planes at a paused cycle
  /// boundary (sim/snapshot.hpp).
  friend class SnapshotAccess;
  struct Arrival {
    NodeId node;
    std::uint8_t port;
    std::uint8_t vc;
    Flit flit;
  };
  struct CreditReturn {
    NodeId node;
    std::uint8_t port;
    std::uint8_t vc;
  };
  struct Departure {
    NodeId node;
    Flit flit;
  };

  /// Per-shard slice of the mutable per-cycle state. Only the owning
  /// shard's step/commit pass touches a lane. Cache-line aligned: shards
  /// update their counters on every flit move, and neighbouring lanes
  /// sharing a line would bounce it between the shards' cores.
  struct alignas(64) ShardLane {
    /// Active-router worklist over the global node-id bit space; only
    /// bits of owned routers are ever set.
    std::vector<std::uint64_t> active;
    std::uint64_t flits_buffered = 0;
    std::uint64_t moves = 0;
    /// RC-unit absorptions this shard's step staged (drained serially).
    std::vector<Departure> rc_departures;
    /// RC output credits for this shard's routers (staged serially).
    std::vector<std::pair<NodeId, int>> rc_out_credits;
  };

  /// One producer's staged moves for one consumer shard. Arrivals and
  /// credit returns are keyed by the router they land on, ejections by
  /// the ejecting router. Cache-line aligned like ShardLane: every push
  /// rewrites a vector header, and producers writing neighbouring boxes
  /// must not share its line.
  struct alignas(64) Outbox {
    std::vector<Arrival> arrivals;
    std::vector<CreditReturn> credits;
    std::vector<Departure> ejections;
  };

  std::size_t index(NodeId node, int vc) const {
    return static_cast<std::size_t>(node) * static_cast<std::size_t>(num_vcs_) +
           static_cast<std::size_t>(vc);
  }

  int shard_of(NodeId node) const {
    return num_shards_ == 1 ? 0 : partition_->shard_of(node);
  }
  /// Outbox of `producer` addressed to `consumer`.
  std::size_t box(int producer, int consumer) const {
    return static_cast<std::size_t>(producer) *
               static_cast<std::size_t>(num_shards_) +
           static_cast<std::size_t>(consumer);
  }

  template <class Sink>
  void process_router(NodeId node, int shard, Cycle now, Sink& sink);
  RouterView make_view(const RouterState& r) const;
  /// Returns `flit` with its head/tail kind byte filled in from the
  /// packet's size (called once per flit as it enters the network).
  Flit stamp_kind(const Flit& flit) const;

  const Topology* topo_ = nullptr;
  RoutingAlgorithm* algorithm_ = nullptr;
  PacketTable* packets_ = nullptr;
  int num_vcs_ = 0;
  int buffer_depth_ = 0;
  int vl_serialization_ = 1;
  SimCore core_ = SimCore::active_set;
  /// Whether algorithm_ reads the RouterView; oblivious algorithms skip
  /// the per-route credit aggregation entirely.
  bool algorithm_uses_view_ = false;
  const Partition* partition_ = nullptr;
  int num_shards_ = 1;

  std::vector<RouterState> routers_;
  std::vector<char> channel_faulty_;
  /// Per vertical channel: earliest cycle the serialized link is free.
  std::vector<Cycle> vl_next_free_;
  std::vector<int> local_credit_;  ///< NI-visible credits per (node, vc)
  std::vector<int> rc_in_credit_;  ///< RC-unit-visible credits per (node, vc)

  std::vector<ShardLane> lanes_;   ///< one per shard
  std::vector<Outbox> outboxes_;  ///< indexed box(producer, consumer)
};

// ---------------------------------------------------------------------------
// Hot-path template bodies. These live in the header so the StatsSink calls
// inline into the traversal loop (the whole point of replacing the
// std::function hooks).

template <class Sink>
void Network::step_shard(int shard, Cycle now, Sink& sink) {
  ShardLane& lane = lanes_[static_cast<std::size_t>(shard)];
  lane.moves = 0;
  if (core_ == SimCore::full_scan) {
    for (NodeId n = 0; n < topo_->num_nodes(); ++n) {
      if ((num_shards_ == 1 || shard_of(n) == shard) &&
          routers_[static_cast<std::size_t>(n)].occupancy != 0) {
        process_router(n, shard, now, sink);
      }
    }
    return;
  }
  for (std::size_t w = 0; w < lane.active.size(); ++w) {
    std::uint64_t word = lane.active[w];
    while (word != 0) {
      const int b = std::countr_zero(word);
      word &= word - 1;
      const NodeId n = static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b));
      process_router(n, shard, now, sink);
      if (routers_[static_cast<std::size_t>(n)].occupancy == 0) {
        lane.active[w] &= ~(std::uint64_t{1} << b);
      }
    }
  }
}

template <class Sink>
void Network::process_router(NodeId node, int shard, Cycle now, Sink& sink) {
  RouterState& r = routers_[static_cast<std::size_t>(node)];
  ShardLane& lane = lanes_[static_cast<std::size_t>(shard)];

  // --- Route computation + VC allocation ---------------------------------
  // Every occupied input VC whose head-of-line flit is a packet head first
  // computes its route, then tries to acquire an output VC. The output-VC
  // round-robin pointer arbitrates both fairness and DeFT's round-robin VN
  // assignment when the admissible mask spans both VNs. The credit view is
  // built lazily: only adaptive algorithms read it, and only for hops where
  // route_needs_view() says the decision actually depends on it (its
  // contents cannot change inside this stage, so computing it at first use
  // is equivalent to computing it up front).
  RouterView view{};
  bool view_ready = !algorithm_uses_view_;
  for (std::uint64_t occ = r.occupancy; occ != 0; occ &= occ - 1) {
    const int lane_idx = std::countr_zero(occ);
    const int p = lane_idx / kMaxVcs;
    const int v = lane_idx % kMaxVcs;
    InputVcState& ivc = r.in[static_cast<std::size_t>(lane_idx)];
    if (!ivc.route_ready) {
      // Occupancy bit => lane non-empty; only the kind plane is touched
      // unless the head is routable.
      if ((r.flits.front_kind(lane_idx) & kFlitHead) == 0) {
        continue;  // waiting for a lagging head? cannot happen, see below
      }
      // Interned-route chase: PacketHot (8 bytes) -> dense RouteId plane.
      // Hot routes are shared across the packets repeating them, so this
      // stays cache-resident where the old fat PacketState walk did not.
      const PacketRoute& route =
          packets_->route_of(r.flits.front_packet(lane_idx));
      if (!view_ready &&
          algorithm_->route_needs_view(node, static_cast<Port>(p), route)) {
        view = make_view(r);
        view_ready = true;
      }
      ivc.decision = algorithm_->route(node, static_cast<Port>(p), v,
                                       route, view);
      ivc.route_ready = true;
      ivc.out_vc = -1;
    }
    if (ivc.out_vc >= 0) {
      continue;  // already holds an output VC
    }
    const int o = port_index(ivc.decision.out_port);
    auto& ovc_ptr = r.ovc_ptr[static_cast<std::size_t>(o)];
    for (int k = 0; k < num_vcs_; ++k) {
      const int cand = (ovc_ptr + k) % num_vcs_;
      if ((ivc.decision.vcs & vc_bit(cand)) == 0) {
        continue;
      }
      OutputVc& out = r.out[static_cast<std::size_t>(
          FlitStore::lane_of(o, cand))];
      if (out.owner_port >= 0) {
        continue;
      }
      out.owner_port = static_cast<std::int8_t>(p);
      out.owner_vc = static_cast<std::int8_t>(v);
      r.owned |= std::uint32_t{1} << FlitStore::lane_of(o, cand);
      ivc.out_vc = static_cast<std::int8_t>(cand);
      ovc_ptr = static_cast<std::uint8_t>((cand + 1) % num_vcs_);
      break;
    }
  }

  // --- Switch allocation + traversal --------------------------------------
  // One flit per output port and one per input port per cycle. The slot
  // scan of the round-robin arbiter is folded onto the output-VC owner
  // fields: an input VC competes for output port o iff it holds one of o's
  // output VCs, so visiting the owners in cyclic slot order starting at
  // the round-robin pointer grants exactly the slot the full scan would.
  // The owned-output bitmask drives the walk: only output ports with at
  // least one owned VC are visited (in port order, VCs in ascending order
  // within a port - the order the exhaustive scan used).
  bool used_in[kNumPorts] = {};
  const int slots = kNumPorts * num_vcs_;
  for (std::uint32_t owned = r.owned; owned != 0;) {
    const int o = std::countr_zero(owned) / kMaxVcs;
    constexpr std::uint32_t kGroupMask = (std::uint32_t{1} << kMaxVcs) - 1;
    std::uint32_t group = owned & (kGroupMask << (o * kMaxVcs));
    owned &= ~group;
    auto& sa = r.sa_ptr[static_cast<std::size_t>(o)];
    struct Candidate {
      int distance;  ///< cyclic slot distance from the round-robin pointer
      std::int16_t slot;
      std::int8_t port;
      std::int8_t vc;
      std::int8_t out_vc;
    };
    Candidate cands[kMaxVcs];
    int num_cands = 0;
    for (; group != 0; group &= group - 1) {
      const int out_lane = std::countr_zero(group);
      const OutputVc& out = r.out[static_cast<std::size_t>(out_lane)];
      const int slot = out.owner_port * num_vcs_ + out.owner_vc;
      Candidate c{(slot - sa + slots) % slots, static_cast<std::int16_t>(slot),
                  out.owner_port, out.owner_vc,
                  static_cast<std::int8_t>(out_lane % kMaxVcs)};
      int i = num_cands++;
      for (; i > 0 && cands[i - 1].distance > c.distance; --i) {
        cands[i] = cands[i - 1];
      }
      cands[i] = c;
    }
    for (int i = 0; i < num_cands; ++i) {
      const Candidate& c = cands[i];
      const int p = c.port;
      if (used_in[p]) {
        continue;
      }
      const int in_lane = FlitStore::lane_of(p, c.vc);
      InputVcState& ivc = r.in[static_cast<std::size_t>(in_lane)];
      if (r.flits.empty(in_lane)) {
        continue;  // owner waiting for body flits (wormhole)
      }
      OutputVc& out =
          r.out[static_cast<std::size_t>(FlitStore::lane_of(o, c.out_vc))];
      const Port out_port = static_cast<Port>(o);
      if (out_port != Port::local && out.credits <= 0) {
        continue;
      }
      // Serialized vertical links accept one flit every S cycles.
      if (vl_serialization_ > 1 &&
          (out_port == Port::up || out_port == Port::down)) {
        const ChannelId vch = topo_->out_channel(node, out_port);
        if (vch != kInvalidChannel &&
            vl_next_free_[static_cast<std::size_t>(vch)] > now) {
          continue;
        }
      }

      // Grant: move the flit.
      const Flit flit = r.flits.pop(in_lane);
      --lane.flits_buffered;
      ++lane.moves;
      used_in[p] = true;
      sa = static_cast<std::uint8_t>((c.slot + 1) % slots);
      if (r.flits.empty(in_lane)) {
        r.occupancy &= ~(std::uint64_t{1} << in_lane);
      }

      // Return a credit upstream for the freed input slot (the upstream
      // router's shard consumes it).
      if (static_cast<Port>(p) == Port::local) {
        outboxes_[box(shard, shard)].credits.push_back(
            {node, static_cast<std::uint8_t>(Port::local),
             static_cast<std::uint8_t>(c.vc)});
      } else if (static_cast<Port>(p) == Port::rc) {
        outboxes_[box(shard, shard)].credits.push_back(
            {node, static_cast<std::uint8_t>(Port::rc),
             static_cast<std::uint8_t>(c.vc)});
      } else {
        const ChannelId in_ch = topo_->in_channel(node, static_cast<Port>(p));
        check(in_ch != kInvalidChannel, "Network: input port without channel");
        const Channel& ch = topo_->channel(in_ch);
        outboxes_[box(shard, shard_of(ch.src))].credits.push_back(
            {ch.src, static_cast<std::uint8_t>(ch.src_port),
             static_cast<std::uint8_t>(c.vc)});
      }

      const bool is_tail = flit.is_tail();  // stamped at injection
      if (out_port == Port::local) {
        outboxes_[box(shard, shard)].ejections.push_back({node, flit});
      } else if (out_port == Port::rc) {
        --out.credits;
        lane.rc_departures.push_back({node, flit});
      } else {
        const ChannelId out_ch = topo_->out_channel(node, out_port);
        check(out_ch != kInvalidChannel, "Network: route into missing port");
        check(!channel_faulty_[static_cast<std::size_t>(out_ch)],
              "Network: routing algorithm crossed a faulty channel");
        if (vl_serialization_ > 1 &&
            topo_->channel(out_ch).vl_channel >= 0) {
          vl_next_free_[static_cast<std::size_t>(out_ch)] =
              now + vl_serialization_;
        }
        --out.credits;
        const Channel& ch = topo_->channel(out_ch);
        outboxes_[box(shard, shard_of(ch.dst))].arrivals.push_back(
            {ch.dst, static_cast<std::uint8_t>(ch.dst_port),
             static_cast<std::uint8_t>(c.out_vc), flit});
        sink.traverse(out_ch, c.out_vc);
      }

      if (is_tail) {
        out.owner_port = -1;
        out.owner_vc = -1;
        r.owned &= ~(std::uint32_t{1} << FlitStore::lane_of(o, c.out_vc));
        ivc.route_ready = false;
        ivc.out_vc = -1;
      }
      break;  // this output port is done for the cycle
    }
  }
}

template <class Sink>
void Network::commit_shard(int shard, Cycle now, Sink& sink) {
  ShardLane& lane = lanes_[static_cast<std::size_t>(shard)];
  for (int p = 0; p < num_shards_; ++p) {
    std::vector<Arrival>& arrivals = outboxes_[box(p, shard)].arrivals;
    for (const Arrival& a : arrivals) {
      RouterState& r = routers_[static_cast<std::size_t>(a.node)];
      const int lane_idx = FlitStore::lane_of(a.port, a.vc);
      check(r.flits.size(lane_idx) < buffer_depth_,
            "Network: buffer overflow");
      r.flits.push(lane_idx, a.flit);
      ++lane.flits_buffered;
      r.occupancy |= std::uint64_t{1} << lane_idx;
      lane.active[static_cast<std::size_t>(a.node) / 64] |=
          std::uint64_t{1} << (static_cast<std::size_t>(a.node) % 64);
    }
    arrivals.clear();
  }

  for (int p = 0; p < num_shards_; ++p) {
    std::vector<CreditReturn>& credits = outboxes_[box(p, shard)].credits;
    for (const CreditReturn& c : credits) {
      if (static_cast<Port>(c.port) == Port::local) {
        ++local_credit_[index(c.node, c.vc)];
      } else if (static_cast<Port>(c.port) == Port::rc) {
        ++rc_in_credit_[index(c.node, c.vc)];
      } else {
        ++routers_[static_cast<std::size_t>(c.node)]
              .out[static_cast<std::size_t>(FlitStore::lane_of(c.port, c.vc))]
              .credits;
      }
    }
    credits.clear();
  }

  for (const auto& [node, credits] : lane.rc_out_credits) {
    // The RC output port is modelled with a single shared credit pool on
    // VC 0 (the RC unit ignores VCs).
    routers_[static_cast<std::size_t>(node)]
        .out[static_cast<std::size_t>(
            FlitStore::lane_of(port_index(Port::rc), 0))]
        .credits += static_cast<std::int16_t>(credits);
  }
  lane.rc_out_credits.clear();

  for (int p = 0; p < num_shards_; ++p) {
    std::vector<Departure>& ejections = outboxes_[box(p, shard)].ejections;
    for (const Departure& d : ejections) {
      sink.eject(d.node, d.flit, now);
    }
    ejections.clear();
  }
}

}  // namespace deft
