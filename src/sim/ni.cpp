#include "sim/ni.hpp"

namespace deft {

void NetworkInterface::generate(Cycle now, TrafficGenerator& traffic,
                                RoutingAlgorithm& algorithm,
                                PacketTable& packets, int packet_size,
                                bool in_measure_window,
                                NiCounters& counters) {
  scratch_.clear();
  traffic.tick(node_, now, rng_, scratch_);
  prepare(now, true, algorithm);
  commit(now, packets, packet_size, in_measure_window, counters);
}

Cycle NetworkInterface::schedule_next(TrafficGenerator& traffic, Cycle from,
                                      Cycle limit) {
  scratch_.clear();
  injection_at_ = traffic.next_injection(node_, from, limit, rng_, scratch_);
  return injection_at_;
}

void NetworkInterface::commit_scheduled(Cycle now, RoutingAlgorithm& algorithm,
                                        PacketTable& packets, int packet_size,
                                        bool in_measure_window,
                                        NiCounters& counters) {
  if (prepared_.empty()) {
    prepare(now, injection_at_ == now, algorithm);
  }
  commit(now, packets, packet_size, in_measure_window, counters);
}

void NetworkInterface::prepare(Cycle at, bool own,
                               RoutingAlgorithm& algorithm) {
  prepared_.clear();
  const auto add = [&](NodeId dst, std::uint8_t app) {
    PreparedRequest& p = prepared_.emplace_back();
    p.route.src = node_;
    p.route.dst = dst;
    p.app = app;
    p.ok = algorithm.prepare_packet(p.route, route_stream());
  };
  for (; replies_head_ < replies_.size() &&
         replies_[replies_head_].due <= at;
       ++replies_head_) {
    add(replies_[replies_head_].requester, replies_[replies_head_].app);
  }
  if (replies_head_ > 0 && 2 * replies_head_ >= replies_.size()) {
    replies_.erase(replies_.begin(),
                   replies_.begin() +
                       static_cast<std::ptrdiff_t>(replies_head_));
    replies_head_ = 0;
  }
  if (own) {
    for (const PacketRequest& req : scratch_) {
      add(req.dst, req.app);
    }
  }
}

void NetworkInterface::commit(Cycle now, PacketTable& packets,
                              int packet_size, bool in_measure_window,
                              NiCounters& counters) {
  for (const PreparedRequest& p : prepared_) {
    if (!p.ok) {
      ++counters.dropped_unroutable;
      continue;
    }
    const PacketId id =
        packets.create(p.route, now, static_cast<std::uint16_t>(packet_size),
                       p.app, in_measure_window);
    queue_.push_back(id);
    ++counters.created;
    if (in_measure_window) {
      ++counters.created_measured;
    }
  }
  prepared_.clear();
}

void NetworkInterface::try_inject(Cycle now, Network& net,
                                  PacketTable& packets,
                                  RcUnitManager& rc_units,
                                  std::vector<RcPermissionRequest>* staged_requests,
                                  std::size_t ni_index) {
  if (active_ < 0) {
    if (queue_head_ == queue_.size()) {
      return;
    }
    const PacketId head = queue_[queue_head_];
    const PacketRoute& route = packets.route_of(head);
    if (route.rc_unit != kInvalidNode) {
      // RC permission handshake for the head-of-queue packet.
      if (!perm_requested_) {
        if (staged_requests != nullptr) {
          staged_requests->push_back(
              {ni_index, route.rc_unit, node_, head, now});
        } else {
          rc_units.request(route.rc_unit, node_, head, now);
        }
        perm_requested_ = true;
        return;
      }
      if (!rc_units.grant_ready(route.rc_unit, node_, head, now)) {
        return;
      }
    }
    if (++queue_head_ == queue_.size()) {
      queue_.clear();  // drained: rewind so the buffer is reused in place
      queue_head_ = 0;
    }
    active_ = head;
    // Cache the per-packet fields the flit-streaming loop needs (size and
    // admissible injection VCs) so the cycles that push body flits never
    // touch the PacketTable.
    active_size_ = packets.hot(head).size;
    active_initial_vcs_ = route.initial_vcs;
    next_seq_ = 0;
    vc_ = -1;
    perm_requested_ = false;
  }

  if (vc_ < 0) {
    // Bind the whole packet to one local-input VC (wormhole). Packets that
    // may start in either VN round-robin over the admissible mask
    // (Algorithm 1's VN assignment); packets pinned to one VN must not
    // disturb that pointer, or the assignment drifts toward one VN.
    const bool round_robins = (active_initial_vcs_ &
                               (active_initial_vcs_ - 1)) != 0;
    const int start = round_robins ? vc_rr_ : 0;
    for (int k = 0; k < net.num_vcs(); ++k) {
      const int cand = (start + k) % net.num_vcs();
      if ((active_initial_vcs_ & vc_bit(cand)) != 0 &&
          net.local_free(node_, cand) > 0) {
        vc_ = cand;
        break;
      }
    }
    if (vc_ < 0) {
      return;
    }
    if (round_robins) {
      vc_rr_ = static_cast<std::uint8_t>((vc_ + 1) % net.num_vcs());
    }
  }
  if (net.local_free(node_, vc_) <= 0) {
    return;
  }
  Flit flit;
  flit.packet = active_;
  flit.seq = next_seq_;
  net.inject_local(node_, vc_, flit);
  if (next_seq_ == 0) {
    packets.times(active_).net_injected = now;  // cold plane: head only
  }
  ++next_seq_;
  if (next_seq_ == active_size_) {
    active_ = -1;
    vc_ = -1;
  }
}

}  // namespace deft
