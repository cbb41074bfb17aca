#include "sim/fault_events.hpp"

#include <algorithm>
#include <bit>

namespace deft {

void FaultSurgeon::reset(const Topology& topo, const FaultTimeline* timeline,
                         InFlightPolicy policy, const VlFaultSet& initial) {
  topo_ = &topo;
  timeline_ = timeline;
  policy_ = policy;
  faults_ = initial;

  order_.clear();
  cursor_ = 0;
  if (timeline != nullptr) {
    const std::vector<FaultEvent>& events = timeline->events();
    order_.resize(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      order_[i] = static_cast<std::uint32_t>(i);
    }
    // Stable order without a stable sort (std::stable_sort allocates):
    // tie-break equal cycles on the insertion index itself.
    std::sort(order_.begin(), order_.end(),
              [&events](std::uint32_t a, std::uint32_t b) {
                const Cycle ca = events[a].cycle;
                const Cycle cb = events[b].cycle;
                return ca != cb ? ca < cb : a < b;
              });
  }

  lost_ = 0;
  lost_measured_ = 0;
  first_fail_ = -1;
  intervals_.clear();
  if (!faults_.empty()) {
    intervals_.push_back({0, -1});  // static faults: window = whole run
  }
  affected_.clear();
  doomed_list_.clear();
  pinned_empty_.clear();
}

void FaultSurgeon::apply_due(Cycle now, Network& net, RoutingAlgorithm& alg,
                             PacketTable& packets,
                             std::vector<NetworkInterface>& nis,
                             RcUnitManager& rc_units) {
  const std::vector<FaultEvent>& events = timeline_->events();
  while (cursor_ < order_.size() &&
         events[order_[cursor_]].cycle <= now) {
    const FaultEvent& ev = events[order_[cursor_]];
    ++cursor_;

    if (ev.kind == FaultEventKind::repair) {
      faults_.clear(ev.channel);
      net.set_vl_channel_faulty(ev.channel, false);
      alg.set_faults(faults_);
      // Head-of-line decisions computed under the old fault set may now be
      // suboptimal (or, for adaptive tables, stale): invalidate them so
      // the next cycle re-routes - the same refresh a failure applies.
      refresh_head_routes(net);
      if (faults_.empty() && !intervals_.empty() &&
          intervals_.back().second < 0) {
        intervals_.back().second = now;
      }
      continue;
    }

    const bool was_empty = faults_.empty();
    faults_.set_faulty(ev.channel);
    net.set_vl_channel_faulty(ev.channel, true);
    alg.set_faults(faults_);
    if (first_fail_ < 0) {
      first_fail_ = now;
    }
    if (was_empty) {
      intervals_.push_back({now, -1});
    }
    refresh_head_routes(net);
    mark_affected_routes(alg, packets);
    doom_scan(net, alg, packets, nis);
    extract_doomed(net, packets, nis, rc_units);
    apply_policy(net, alg, packets, nis, rc_units);
  }
}

bool FaultSurgeon::fault_active(Cycle c) const {
  for (const auto& [start, end] : intervals_) {
    if (c >= start && (end < 0 || c < end)) {
      return true;
    }
  }
  return false;
}

void FaultSurgeon::mark_affected(RouteId id) {
  if (static_cast<std::size_t>(id) >= affected_.size()) {
    affected_.resize(static_cast<std::size_t>(id) + 1, 0);
  }
  affected_[static_cast<std::size_t>(id)] = 1;
}

void FaultSurgeon::mark_affected_routes(const RoutingAlgorithm& alg,
                                        const PacketTable& packets) {
  const RouteStore& store = packets.route_store();
  if (store.size() > affected_.size()) {
    affected_.resize(store.size(), 0);
  }
  for (std::size_t r = 0; r < store.size(); ++r) {
    if (affected_[r] != 0) {
      continue;
    }
    const PacketRoute& rt = store.get(static_cast<RouteId>(r));
    if (!alg.hop_viable(rt.src, Port::local, rt)) {
      affected_[r] = 1;
    }
  }
}

void FaultSurgeon::release_lane(RouterState& r, int lane) {
  InputVcState& ivc = r.in[static_cast<std::size_t>(lane)];
  if (ivc.out_vc >= 0) {
    const int out_lane = FlitStore::lane_of(port_index(ivc.decision.out_port),
                                            ivc.out_vc);
    OutputVc& out = r.out[static_cast<std::size_t>(out_lane)];
    check(out.owner_port == lane / kMaxVcs && out.owner_vc == lane % kMaxVcs,
          "FaultSurgeon: releasing an output VC owned by another lane");
    out.owner_port = -1;
    out.owner_vc = -1;
    r.owned &= ~(std::uint32_t{1} << out_lane);
  }
  ivc.route_ready = false;
  ivc.out_vc = -1;
}

void FaultSurgeon::refresh_head_routes(Network& net) {
  for (NodeId n = 0; n < topo_->num_nodes(); ++n) {
    RouterState& r = net.routers_[static_cast<std::size_t>(n)];
    for (std::uint64_t occ = r.occupancy; occ != 0; occ &= occ - 1) {
      const int lane = std::countr_zero(occ);
      const InputVcState& ivc = r.in[static_cast<std::size_t>(lane)];
      if (!ivc.route_ready) {
        continue;
      }
      if ((r.flits.front_kind(lane) & kFlitHead) == 0) {
        continue;  // established wormhole: the path is committed
      }
      // The head has routed but not departed: its decision (and any held
      // output VC) reflects the previous fault set. Recompute next cycle.
      release_lane(r, lane);
    }
  }
}

PacketId FaultSurgeon::upstream_owner(const Network& net,
                                      const std::vector<NetworkInterface>& nis,
                                      NodeId node, int lane) const {
  // An empty pinned lane's flits are all upstream: follow the feeder
  // chain. Each upstream router's output VC for this lane is still owned
  // (the tail has not passed), and a pinned lane's front flit belongs to
  // its owner, so the walk ends at the first flit-holding lane - or at
  // the source NI, whose active packet is the owner.
  for (;;) {
    const int p = lane / kMaxVcs;
    const int v = lane % kMaxVcs;
    if (static_cast<Port>(p) == Port::local) {
      const int ni = topo_->endpoint_index(node);
      check(ni >= 0, "FaultSurgeon: pinned local lane at a non-endpoint");
      const PacketId owner = nis[static_cast<std::size_t>(ni)].active_;
      check(owner >= 0,
            "FaultSurgeon: empty pinned local lane with an idle NI");
      return owner;
    }
    if (static_cast<Port>(p) == Port::rc) {
      return -1;  // RC re-injection leg: stays on the destination chiplet
    }
    const ChannelId in_ch = topo_->in_channel(node, static_cast<Port>(p));
    check(in_ch != kInvalidChannel,
          "FaultSurgeon: pinned lane behind a missing channel");
    const Channel& ch = topo_->channel(in_ch);
    const RouterState& u = net.routers_[static_cast<std::size_t>(ch.src)];
    const OutputVc& out = u.out[static_cast<std::size_t>(
        FlitStore::lane_of(port_index(ch.src_port), v))];
    check(out.owner_port >= 0,
          "FaultSurgeon: empty pinned lane fed by an unowned output VC");
    const int up_lane = FlitStore::lane_of(out.owner_port, out.owner_vc);
    if (!u.flits.empty(up_lane)) {
      return u.flits.front_packet(up_lane);
    }
    node = ch.src;
    lane = up_lane;
  }
}

void FaultSurgeon::doom(PacketId id) {
  if (doomed_[static_cast<std::size_t>(id)] != 0) {
    return;
  }
  doomed_[static_cast<std::size_t>(id)] = 1;
  doomed_list_.push_back(id);
}

void FaultSurgeon::doom_scan(Network& net, const RoutingAlgorithm& alg,
                             const PacketTable& packets,
                             const std::vector<NetworkInterface>& nis) {
  doomed_.assign(packets.size(), 0);
  doomed_list_.clear();
  pinned_empty_.clear();

  for (NodeId n = 0; n < topo_->num_nodes(); ++n) {
    RouterState& r = net.routers_[static_cast<std::size_t>(n)];
    if (r.occupancy == 0 && r.owned == 0) {
      continue;  // no flits, no pinned lanes
    }
    // Visit only lanes that can matter: occupied lanes (from the ring fill
    // counts) plus pinned-but-possibly-empty lanes (route_ready).
    // Ascending bit order is (port, VC) order, and lanes above the
    // configured VC count are never occupied or pinned, so the full
    // 32-lane mask is safe.
    std::uint32_t pinned = 0;
    for (int lane = 0; lane < kNumLanes; ++lane) {
      if (r.in[static_cast<std::size_t>(lane)].route_ready) {
        pinned |= std::uint32_t{1} << lane;
      }
    }
    for (std::uint32_t visit = r.flits.occupied_mask() | pinned; visit != 0;
         visit &= visit - 1) {
      const int lane = std::countr_zero(visit);
      const int p = lane / kMaxVcs;
      const InputVcState& ivc = r.in[static_cast<std::size_t>(lane)];
      const int held = r.flits.size(lane);

      // Established wormholes: a pinned lane's decision names the next
      // channel its owner is committed to. If that channel just died,
      // the owner's remaining flits would be forced across it - the
      // packet cannot be salvaged, whatever its position.
      if (ivc.route_ready) {
        PacketId owner;
        if (held > 0) {
          owner = r.flits.front_packet(lane);
        } else {
          owner = upstream_owner(net, nis, n, lane);
          if (owner >= 0) {
            pinned_empty_.push_back({n, lane, owner});
          }
        }
        if (owner >= 0 && ivc.decision.out_port != Port::local &&
            ivc.decision.out_port != Port::rc) {
          const ChannelId out_ch =
              topo_->out_channel(n, ivc.decision.out_port);
          if (out_ch != kInvalidChannel &&
              net.channel_faulty_[static_cast<std::size_t>(out_ch)] != 0) {
            doom(owner);
          }
        }
      }

      // Unrouted heads anywhere in the lane: position-aware viability
      // (the head will route at this node, arriving through port p).
      for (int off = 0; off < held; ++off) {
        const Flit f = r.flits.peek(lane, off);
        if (!f.is_head() || doomed_[static_cast<std::size_t>(f.packet)] != 0) {
          continue;
        }
        if (!alg.hop_viable(n, static_cast<Port>(p),
                            packets.route_of(f.packet))) {
          doom(f.packet);
        }
      }
    }
  }

  // Packets mid-injection at their source NI.
  for (const NetworkInterface& ni : nis) {
    if (ni.active_ < 0 || doomed_[static_cast<std::size_t>(ni.active_)] != 0) {
      continue;
    }
    if (!alg.hop_viable(ni.node_, Port::local, packets.route_of(ni.active_))) {
      doom(ni.active_);
    }
  }
}

void FaultSurgeon::extract_doomed(Network& net, const PacketTable& packets,
                                  std::vector<NetworkInterface>& nis,
                                  RcUnitManager& rc_units) {
  if (doomed_list_.empty()) {
    return;
  }
  for (NodeId n = 0; n < topo_->num_nodes(); ++n) {
    RouterState& r = net.routers_[static_cast<std::size_t>(n)];
    if (r.occupancy == 0) {
      continue;
    }
    // Only the non-empty lanes, from the ring fill counts, in ascending
    // lane order - (port, VC) order.
    for (std::uint32_t visit = r.flits.occupied_mask(); visit != 0;
         visit &= visit - 1) {
      const int lane = std::countr_zero(visit);
      const int p = lane / kMaxVcs;
      const int v = lane % kMaxVcs;
      const int held = r.flits.size(lane);
      InputVcState& ivc = r.in[static_cast<std::size_t>(lane)];
      if (ivc.route_ready &&
          doomed_[static_cast<std::size_t>(r.flits.front_packet(lane))] !=
              0) {
        release_lane(r, lane);
      }
      // Filter the ring: pop everything, re-push the survivors. Each
      // removed flit frees one slot of this lane, so one credit returns
      // to whoever mirrors it (the NI, the RC unit, or the upstream
      // router's output VC).
      std::array<Flit, kMaxBufferDepth> keep;
      int kept = 0;
      int removed = 0;
      for (int i = 0; i < held; ++i) {
        const Flit f = r.flits.pop(lane);
        if (doomed_[static_cast<std::size_t>(f.packet)] == 0) {
          keep[static_cast<std::size_t>(kept++)] = f;
          continue;
        }
        ++removed;
        if (static_cast<Port>(p) == Port::local) {
          ++net.local_credit_[net.index(n, v)];
        } else if (static_cast<Port>(p) == Port::rc) {
          ++net.rc_in_credit_[net.index(n, v)];
        } else {
          const ChannelId in_ch = topo_->in_channel(n, static_cast<Port>(p));
          check(in_ch != kInvalidChannel,
                "FaultSurgeon: flit in a lane without an input channel");
          const Channel& ch = topo_->channel(in_ch);
          ++net.routers_[static_cast<std::size_t>(ch.src)]
                .out[static_cast<std::size_t>(
                    FlitStore::lane_of(port_index(ch.src_port), v))]
                .credits;
        }
      }
      for (int i = 0; i < kept; ++i) {
        r.flits.push(lane, keep[static_cast<std::size_t>(i)]);
      }
      if (removed > 0) {
        net.lanes_[static_cast<std::size_t>(net.shard_of(n))]
            .flits_buffered -= static_cast<std::uint64_t>(removed);
        if (kept == 0) {
          r.occupancy &= ~(std::uint64_t{1} << lane);
          // The active-worklist bit clears itself lazily on the next
          // step over an empty router.
        }
      }
    }
  }

  // Empty pinned lanes whose (upstream-walked) owner is doomed.
  for (const PinnedLane& pl : pinned_empty_) {
    if (doomed_[static_cast<std::size_t>(pl.owner)] == 0) {
      continue;
    }
    RouterState& r = net.routers_[static_cast<std::size_t>(pl.node)];
    if (r.in[static_cast<std::size_t>(pl.lane)].route_ready) {
      release_lane(r, pl.lane);
    }
  }

  // Source NIs mid-injection of a doomed packet stop streaming it.
  for (NetworkInterface& ni : nis) {
    if (ni.active_ >= 0 &&
        doomed_[static_cast<std::size_t>(ni.active_)] != 0) {
      ni.active_ = -1;
      ni.active_size_ = 0;
      ni.active_initial_vcs_ = 0;
      ni.next_seq_ = 0;
      ni.vc_ = -1;
    }
  }

  for (const PacketId id : doomed_list_) {
    const PacketRoute& rt = packets.route_of(id);
    if (rt.rc_unit != kInvalidNode) {
      purge_rc(net, rc_units, id, rt.rc_unit);
    }
    ++lost_;
    const PacketHot& hot = packets.hot(id);
    if (hot.measured) {
      ++lost_measured_;
    }
    mark_affected(hot.route);
  }
}

void FaultSurgeon::purge_rc(Network& net, RcUnitManager& rc_units,
                            PacketId id, NodeId unit_node) {
  RcUnitManager::Unit& unit = rc_units.unit_at(unit_node);
  const bool was_rest = RcUnitManager::at_rest(unit);
  for (auto it = unit.queue.begin(); it != unit.queue.end();) {
    it = it->packet == id ? unit.queue.erase(it) : std::next(it);
  }
  if (unit.granted_packet == id) {
    // Credits consumed so far: one per absorbed flit. Before the tail is
    // absorbed that is the buffer fill; after (absorbing_done) the whole
    // packet was absorbed, whatever has been re-injected since.
    const int consumed = unit.absorbing_done
                             ? rc_units.packet_size_
                             : static_cast<int>(unit.buffer.size());
    if (!unit.buffer.empty()) {
      rc_units.flits_held_ -= unit.buffer.size();
      unit.buffer.clear();
    }
    unit.absorbing_done = false;
    unit.reserved = false;
    unit.granted_to = kInvalidNode;
    unit.granted_packet = -1;
    if (consumed > 0) {
      net.add_rc_out_credits(unit.node, consumed);
    }
  }
  if (!was_rest && RcUnitManager::at_rest(unit)) {
    --rc_units.busy_units_;
  }
}

void FaultSurgeon::apply_policy(Network& net, RoutingAlgorithm& alg,
                                PacketTable& packets,
                                std::vector<NetworkInterface>& nis,
                                RcUnitManager& rc_units) {
  // Ascending NI order: the reroute path re-prepares routes through the
  // algorithm's shared RNG stream (or, in counter mode, each NI's private
  // stream), and this is the order packet materialization consumes it in
  // - every shard count calls this from the same serial begin step, so
  // the streams stay bit-identical across shard counts. In counter mode
  // the back step additionally defers its route preparation whenever an
  // event is pending at the commit cycle, so these reroute draws always
  // precede that cycle's injection draws on every NI stream.
  for (NetworkInterface& ni : nis) {
    if (ni.queue_head_ >= ni.queue_.size()) {
      continue;
    }
    const std::size_t head_pos = ni.queue_head_;
    std::size_t write = ni.queue_head_;
    for (std::size_t i = ni.queue_head_; i < ni.queue_.size(); ++i) {
      const PacketId id = ni.queue_[i];
      const PacketRoute rt = packets.route_of(id);  // by value: reroute
                                                    // interning may grow
                                                    // the route store
      bool keep = true;
      if (!alg.hop_viable(ni.node_, Port::local, rt)) {
        mark_affected(packets.route_id(id));
        if (policy_ == InFlightPolicy::reroute) {
          PacketRoute fresh;
          fresh.src = rt.src;
          fresh.dst = rt.dst;
          // The guard re-checks viability: a fault-oblivious algorithm
          // (RC's fixed VLs) can fail only through prepare_packet, but
          // nothing forces a fresh route to be usable in general.
          if (alg.prepare_packet(fresh, ni.route_stream()) &&
              alg.hop_viable(ni.node_, Port::local, fresh)) {
            packets.set_route(id, fresh);
            mark_affected(packets.route_id(id));
          } else {
            keep = false;
          }
        } else {
          keep = false;
        }
        if (i == head_pos && ni.perm_requested_) {
          // The outstanding permission request targets the old route's RC
          // unit; cancel it (the kept, re-routed head re-requests).
          if (rt.rc_unit != kInvalidNode) {
            purge_rc(net, rc_units, id, rt.rc_unit);
          }
          ni.perm_requested_ = false;
        }
      }
      if (!keep) {
        ++lost_;
        if (packets.hot(id).measured) {
          ++lost_measured_;
        }
        continue;
      }
      ni.queue_[write++] = id;
    }
    ni.queue_.resize(write);
    if (ni.queue_head_ >= ni.queue_.size()) {
      ni.queue_.clear();  // drained: rewind, as try_inject does
      ni.queue_head_ = 0;
    }
  }
}

void FaultSurgeon::finalize(SimResults& results,
                            const PacketTable& packets) const {
  results.packets_lost = lost_;
  results.packets_lost_measured = lost_measured_;
  if (intervals_.empty()) {
    return;  // fault-free run: window counters stay zero
  }
  Cycle best = -1;
  for (PacketId id = 0; id < static_cast<PacketId>(packets.size()); ++id) {
    const PacketTimes& t = packets.times(id);
    if (fault_active(t.created)) {
      ++results.fault_window_created;
      if (t.ejected >= 0) {
        ++results.fault_window_delivered;
      }
    }
    if (first_fail_ >= 0 && t.ejected >= first_fail_) {
      const std::size_t r = static_cast<std::size_t>(packets.route_id(id));
      if (r < affected_.size() && affected_[r] != 0 &&
          (best < 0 || t.ejected < best)) {
        best = t.ejected;
      }
    }
  }
  results.reconvergence_latency = best < 0 ? -1 : best - first_fail_;
}

}  // namespace deft
