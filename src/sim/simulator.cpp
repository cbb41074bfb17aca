#include "sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>

namespace deft {

namespace {

/// Run-wide accumulation shared by the phase sinks and the cycle loops.
/// The latency sample vectors live in the SimWorkspace so a reused
/// workspace keeps their capacity across runs.
struct RunAccum {
  const Topology* topo;
  PacketTable* packets;
  RcUnitManager* rc_units;
  SimResults* results;
  std::vector<std::uint32_t>* net_latencies;
  std::vector<std::uint32_t>* total_latencies;
  std::uint64_t delivered_measured = 0;
};

/// Compile-time StatsSink for one phase. With InWindow false (warmup and
/// drain) the traversal statistics and the in-window ejection counter
/// compile away; the functional parts - RC absorption, delivery
/// bookkeeping, latency capture for measured packets draining after the
/// window - run in every phase.
template <bool InWindow>
struct PhaseSink {
  RunAccum* a;

  void traverse(ChannelId c, int vc) {
    if constexpr (InWindow) {
      const Channel& ch = a->topo->channel(c);
      const int chiplet = a->topo->node(ch.src).chiplet;
      const int region =
          chiplet == kInterposer ? a->topo->num_chiplets() : chiplet;
      ++a->results->region_vc_flits[static_cast<std::size_t>(region)]
                                   [static_cast<std::size_t>(vc)];
      if (ch.vl_channel >= 0) {
        ++a->results->vl_channel_flits[static_cast<std::size_t>(ch.vl_channel)];
      }
    } else {
      (void)c;
      (void)vc;
    }
  }

  void rc_absorb(NodeId node, const Flit& flit, Cycle now) {
    a->rc_units->absorb(node, flit, now, *a->packets);
  }

  void eject(NodeId node, const Flit& flit, Cycle now) {
    if constexpr (InWindow) {
      ++a->results->flits_ejected_in_window;
    }
    if (flit.is_tail()) {  // kind stamped at injection
      // Tail ejection touches the hot plane (route id + measured byte)
      // and, for measured packets, the cold timestamp plane - the only
      // per-packet table accesses outside injection.
      const PacketHot& hot = a->packets->hot(flit.packet);
      check(node == a->packets->route_of(flit.packet).dst,
            "Simulator: flit ejected at a wrong node");
      PacketTimes& times = a->packets->times(flit.packet);
      times.ejected = now;
      if (hot.measured) {
        ++a->delivered_measured;
        a->net_latencies->push_back(
            static_cast<std::uint32_t>(now - times.net_injected));
        a->total_latencies->push_back(
            static_cast<std::uint32_t>(now - times.created));
      }
    }
  }
};

/// Everything one simulation loop needs, independent of the phase.
struct LoopCtx {
  const SimKnobs* knobs;
  TrafficGenerator* traffic;
  RoutingAlgorithm* algorithm;
  PacketTable* packets;
  Network* net;
  RcUnitManager* rc_units;
  std::vector<NetworkInterface>* nis;
  FaultSurgeon* surgeon = nullptr;
  RunAccum* acc;
  NiCounters counters;

  Cycle measure_end = 0;
  Cycle hard_end = 0;
  Cycle now = 0;
  Cycle idle_cycles = 0;
  /// Stepper pause point: loops stop before executing cycle `cap` (the
  /// unstepped run leaves it unbounded, so the loops are untouched).
  Cycle cap = SimStepper::kNoCycleCap;
  bool deadlock = false;
  bool drained = false;

  // Pending-NI worklist (active-set core); the storage is workspace-owned.
  // `busy` mirrors NetworkInterface::busy(); `wake` marks NIs whose
  // scheduled injection fires this cycle; `events` is a min-heap ordering
  // the pre-drawn injections by (cycle, NI index) so same-cycle wakeups
  // run in NI order - the order the full scan visits them.
  bool lookahead = false;
  std::vector<std::uint64_t>* busy = nullptr;
  std::vector<std::uint64_t>* wake = nullptr;
  std::vector<std::pair<Cycle, std::size_t>>* events = nullptr;

  void schedule(std::size_t i, Cycle from) {
    const Cycle c = (*nis)[i].schedule_next(*traffic, from, hard_end);
    if (c < hard_end) {
      events->emplace_back(c, i);
      std::push_heap(events->begin(), events->end(), std::greater<>{});
    }
  }
};

/// Runs cycles [ctx.now, phase_end) of the active-set core - capped at
/// ctx.cap for stepped execution. Returns false when the run ended early
/// (deadlock, or - with DrainCheck - all measured packets delivered).
template <bool InWindow, bool DrainCheck>
bool run_phase(LoopCtx& ctx) {
  const Cycle phase_end = DrainCheck
                              ? (InWindow ? ctx.measure_end : ctx.hard_end)
                              : (InWindow ? ctx.measure_end - 1
                                          : ctx.knobs->warmup);
  const Cycle stop = std::min(phase_end, ctx.cap);
  PhaseSink<InWindow> sink{ctx.acc};
  for (; ctx.now < stop; ++ctx.now) {
    const Cycle now = ctx.now;

    // Dynamic fault events apply at the cycle boundary, before this
    // cycle's packet creation - the same serial point the sharded core
    // uses (ShardedState::begin_cycle), so surgery is shard-invariant.
    if (ctx.surgeon->pending(now)) {
      ctx.surgeon->apply_due(now, *ctx.net, *ctx.algorithm, *ctx.packets,
                             *ctx.nis, *ctx.rc_units);
    }

    if (!ctx.lookahead) {
      for (NetworkInterface& ni : *ctx.nis) {
        ni.generate(now, *ctx.traffic, *ctx.algorithm, *ctx.packets,
                    ctx.knobs->packet_size, InWindow, ctx.counters);
        if (ni.busy()) {
          ni.try_inject(now, *ctx.net, *ctx.packets, *ctx.rc_units);
        }
      }
    } else {
      while (!ctx.events->empty() && ctx.events->front().first == now) {
        std::pop_heap(ctx.events->begin(), ctx.events->end(),
                      std::greater<>{});
        const std::size_t i = ctx.events->back().second;
        ctx.events->pop_back();
        (*ctx.wake)[i / 64] |= std::uint64_t{1} << (i % 64);
      }
      for (std::size_t w = 0; w < ctx.busy->size(); ++w) {
        const std::uint64_t wake_word = (*ctx.wake)[w];
        (*ctx.wake)[w] = 0;
        std::uint64_t word = (*ctx.busy)[w] | wake_word;
        while (word != 0) {
          const int b = std::countr_zero(word);
          word &= word - 1;
          const std::size_t i = w * 64 + static_cast<std::size_t>(b);
          NetworkInterface& ni = (*ctx.nis)[i];
          if ((wake_word >> b) & 1) {
            ni.commit_scheduled(now, *ctx.algorithm, *ctx.packets,
                                ctx.knobs->packet_size, InWindow,
                                ctx.counters);
            ctx.schedule(i, now + 1);
          }
          if (ni.busy()) {
            ni.try_inject(now, *ctx.net, *ctx.packets, *ctx.rc_units);
          }
          if (ni.busy()) {
            (*ctx.busy)[w] |= std::uint64_t{1} << b;
          } else {
            (*ctx.busy)[w] &= ~(std::uint64_t{1} << b);
          }
        }
      }
    }

    ctx.rc_units->tick(now, *ctx.net, *ctx.packets);
    ctx.net->step(now, sink);
    ctx.net->apply(now, sink);
    ctx.acc->results->flit_hops += ctx.net->moves_last_cycle();

    // Deadlock watchdog: pending work with no forward progress.
    const std::uint64_t progress =
        ctx.net->moves_last_cycle() + ctx.rc_units->take_progress();
    if (progress > 0) {
      ctx.idle_cycles = 0;
    } else if (ctx.net->flits_buffered() + ctx.rc_units->flits_held() > 0) {
      if (++ctx.idle_cycles >= ctx.knobs->watchdog_cycles) {
        ctx.deadlock = true;
        return false;
      }
    }

    if constexpr (DrainCheck) {
      // Lost packets can never drain; they count as resolved.
      if (now + 1 >= ctx.measure_end &&
          ctx.acc->delivered_measured + ctx.surgeon->lost_measured() ==
              ctx.counters.created_measured) {
        ctx.drained = true;
        ++ctx.now;
        return false;
      }
    }
  }
  return true;
}

/// The reference core: the original single loop that polls every NI and
/// recomputes the window flag every cycle, driving the network's full
/// router scan. Kept as the executable specification the equivalence
/// tests (and the perf harness baseline) compare the active-set core to.
void run_reference(LoopCtx& ctx) {
  const Cycle stop = std::min(ctx.hard_end, ctx.cap);
  for (; ctx.now < stop; ++ctx.now) {
    const Cycle now = ctx.now;
    const bool in_window =
        now >= ctx.knobs->warmup && now < ctx.measure_end;

    if (ctx.surgeon->pending(now)) {
      ctx.surgeon->apply_due(now, *ctx.net, *ctx.algorithm, *ctx.packets,
                             *ctx.nis, *ctx.rc_units);
    }

    for (NetworkInterface& ni : *ctx.nis) {
      ni.generate(now, *ctx.traffic, *ctx.algorithm, *ctx.packets,
                  ctx.knobs->packet_size, in_window, ctx.counters);
      ni.try_inject(now, *ctx.net, *ctx.packets, *ctx.rc_units);
    }
    ctx.rc_units->tick(now, *ctx.net, *ctx.packets);
    if (in_window) {
      PhaseSink<true> sink{ctx.acc};
      ctx.net->step(now, sink);
      ctx.net->apply(now, sink);
    } else {
      PhaseSink<false> sink{ctx.acc};
      ctx.net->step(now, sink);
      ctx.net->apply(now, sink);
    }
    ctx.acc->results->flit_hops += ctx.net->moves_last_cycle();

    const std::uint64_t progress =
        ctx.net->moves_last_cycle() + ctx.rc_units->take_progress();
    if (progress > 0) {
      ctx.idle_cycles = 0;
    } else if (ctx.net->flits_buffered() + ctx.rc_units->flits_held() > 0) {
      if (++ctx.idle_cycles >= ctx.knobs->watchdog_cycles) {
        ctx.deadlock = true;
        break;
      }
    }

    if (now + 1 >= ctx.measure_end &&
        ctx.acc->delivered_measured + ctx.surgeon->lost_measured() ==
            ctx.counters.created_measured) {
      ctx.drained = true;
      ++ctx.now;
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// The sharded (partitioned) core. Each cycle runs as two parallel phases
// with a rendezvous after each (CycleSync, core/worker_pool.hpp):
//
//   front (per shard): scheduled wake-ups re-arm their next event, busy
//     NIs inject (staging arrivals into the shard's own inbox and RC
//     permission requests into the shard's batch), then step_shard()
//     routes/arbitrates the shard's routers into the per-consumer
//     outboxes.
//   back (per shard): commit_shard() drains every inbox addressed to the
//     shard (arrivals, credits, RC output credits, local ejections into
//     the shard's private accumulators), the staged RC permission
//     requests for the shard's own units are delivered in the serial
//     loop's NI order, then the next cycle's wake set is pre-drawn from
//     the shard's event heap.
//   completion (serial, on worker 0 after the second rendezvous): RC
//     absorptions drain, the watchdog and drain checks run on the summed
//     counters, and - when the run continues - the next cycle is
//     prepared: due fault events apply, pending injections materialize
//     in ascending NI order (preserving the routing algorithm's shared
//     RNG stream), and the RC units tick.
//
// Why this is bit-identical to serial: step() never reads another
// router's state, commits are order-independent within a cycle (one
// arrival per buffer lane, additive credits, order-insensitive stat
// merges), every order-sensitive operation - packet creation, grants,
// watchdog decisions - happens in the serial completion step in serial
// order, and RC request delivery keeps each unit's serial queue order
// (shard_back()). Deferring RC request delivery to the back phase is
// exact because the permission network's latency keeps
// same-cycle requests invisible to same-cycle grant decisions (see
// RcPermissionRequest).

/// State shared by every shard worker; plain fields are published across
/// threads by the two CycleSync rendezvous per cycle.
struct ShardedState {
  const SimKnobs* knobs = nullptr;
  const Topology* topo = nullptr;
  TrafficGenerator* traffic = nullptr;
  RoutingAlgorithm* algorithm = nullptr;
  PacketTable* packets = nullptr;
  Network* net = nullptr;
  RcUnitManager* rc_units = nullptr;
  std::vector<NetworkInterface>* nis = nullptr;
  std::vector<ShardRun>* shards = nullptr;
  SimResults* results = nullptr;
  FaultSurgeon* surgeon = nullptr;
  const Partition* partition = nullptr;
  /// SimKnobs::rng_mode == counter: per-NI route streams make route
  /// preparation order-independent, so shard_back() prepares next-cycle
  /// injections in parallel instead of begin_cycle() doing it serially.
  bool counter_mode = false;
  NiCounters counters;

  Cycle measure_end = 0;
  Cycle hard_end = 0;
  Cycle now = 0;
  Cycle idle_cycles = 0;
  bool in_window = false;
  bool stop = false;
  bool deadlock = false;
  bool drained = false;

  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;

  void record_failure() {
    {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) {
        error = std::current_exception();
      }
    }
    failed.store(true, std::memory_order_relaxed);
  }

  void schedule(ShardRun& sh, std::size_t i, Cycle from) {
    const Cycle c = (*nis)[i].schedule_next(*traffic, from, hard_end);
    if (c < hard_end) {
      sh.events.emplace_back(c, i);
      std::push_heap(sh.events.begin(), sh.events.end(), std::greater<>{});
    }
  }

  /// Pops shard events due at `next` into the wake set and the pending
  /// materialization list (heap order yields ascending NI index).
  static void draw(ShardRun& sh, Cycle next) {
    while (!sh.events.empty() && sh.events.front().first == next) {
      std::pop_heap(sh.events.begin(), sh.events.end(), std::greater<>{});
      const std::size_t i = sh.events.back().second;
      sh.events.pop_back();
      sh.wake[i / 64] |= std::uint64_t{1} << (i % 64);
      sh.pending.push_back(i);
    }
  }

  /// Serial start-of-cycle work for cycle `now`: fold the shards' RC
  /// busy-unit deltas, materialize pending injections in ascending NI
  /// order, then tick the RC units. Mirrors the serial loop's per-NI
  /// order of commit_scheduled() calls; the staged RC requests themselves
  /// were already delivered - in the serial loop's per-unit order - by the
  /// shards' back phases (see shard_back()).
  void begin_cycle() {
    const int num_shards = static_cast<int>(shards->size());
    int busy_delta = 0;
    for (ShardRun& sh : *shards) {
      busy_delta += sh.rc_busy_delta;
      sh.rc_busy_delta = 0;
    }
    rc_units->add_busy_units(busy_delta);
    // Fault events apply after the staged RC requests are delivered and
    // before pending injections materialize - the same relative point the
    // serial loop reaches at the top of its cycle body.
    if (surgeon->pending(now)) {
      surgeon->apply_due(now, *net, *algorithm, *packets, *nis, *rc_units);
    }
    // K-way merge by NI index over the shards' (already ascending)
    // pending lists; shard counts are small, so a linear min scan
    // suffices.
    std::size_t pend_cursor[kMaxSimShards] = {};
    for (;;) {
      int best = -1;
      std::size_t best_ni = 0;
      for (int s = 0; s < num_shards; ++s) {
        const auto& pend = (*shards)[static_cast<std::size_t>(s)].pending;
        if (pend_cursor[s] < pend.size() &&
            (best < 0 || pend[pend_cursor[s]] < best_ni)) {
          best = s;
          best_ni = pend[pend_cursor[s]];
        }
      }
      if (best < 0) {
        break;
      }
      const std::size_t i =
          (*shards)[static_cast<std::size_t>(best)].pending[pend_cursor[best]++];
      (*nis)[i].commit_scheduled(now, *algorithm, *packets,
                                 knobs->packet_size, in_window, counters);
    }
    for (ShardRun& sh : *shards) {
      sh.rc_requests.clear();
      sh.pending.clear();
    }
    rc_units->tick(now, *net, *packets);
  }
};

/// Per-shard stats sink: the PhaseSink equivalent writing the shard's
/// private accumulators. RC absorptions never reach it - the network
/// routes them through the serial drain.
template <bool InWindow>
struct ShardPhaseSink {
  ShardedState* st;
  ShardRun* sh;

  void traverse(ChannelId c, int vc) {
    if constexpr (InWindow) {
      const Channel& ch = st->topo->channel(c);
      const int chiplet = st->topo->node(ch.src).chiplet;
      const int region =
          chiplet == kInterposer ? st->topo->num_chiplets() : chiplet;
      ++sh->region_vc_flits[static_cast<std::size_t>(region)]
                           [static_cast<std::size_t>(vc)];
      if (ch.vl_channel >= 0) {
        ++sh->vl_channel_flits[static_cast<std::size_t>(ch.vl_channel)];
      }
    } else {
      (void)c;
      (void)vc;
    }
  }

  void rc_absorb(NodeId, const Flit&, Cycle) {
    check(false, "Simulator: RC absorption reached a parallel sink");
  }

  void eject(NodeId node, const Flit& flit, Cycle now) {
    if constexpr (InWindow) {
      ++sh->flits_ejected_in_window;
    }
    if (flit.is_tail()) {
      const PacketHot& hot = st->packets->hot(flit.packet);
      check(node == st->packets->route_of(flit.packet).dst,
            "Simulator: flit ejected at a wrong node");
      PacketTimes& times = st->packets->times(flit.packet);
      times.ejected = now;
      if (hot.measured) {
        ++sh->delivered_measured;
        sh->net_latencies.push_back(
            static_cast<std::uint32_t>(now - times.net_injected));
        sh->total_latencies.push_back(
            static_cast<std::uint32_t>(now - times.created));
      }
    }
  }
};

/// Serial sink for the RC departure drain.
struct RcDrainSink {
  RcUnitManager* rc_units;
  const PacketTable* packets;
  void traverse(ChannelId, int) {
    check(false, "Simulator: traversal reached the RC drain sink");
  }
  void eject(NodeId, const Flit&, Cycle) {
    check(false, "Simulator: ejection reached the RC drain sink");
  }
  void rc_absorb(NodeId node, const Flit& flit, Cycle now) {
    rc_units->absorb(node, flit, now, *packets);
  }
};

/// Front phase for one shard: scheduled wake-ups re-arm, busy NIs inject,
/// the shard's routers step.
template <bool InWindow>
void shard_front(ShardedState& st, int s) {
  ShardRun& sh = (*st.shards)[static_cast<std::size_t>(s)];
  const Cycle now = st.now;
  for (std::size_t w = 0; w < sh.busy.size(); ++w) {
    const std::uint64_t wake_word = sh.wake[w];
    sh.wake[w] = 0;
    std::uint64_t word = sh.busy[w] | wake_word;
    while (word != 0) {
      const int b = std::countr_zero(word);
      word &= word - 1;
      const std::size_t i = w * 64 + static_cast<std::size_t>(b);
      NetworkInterface& ni = (*st.nis)[i];
      if ((wake_word >> b) & 1) {
        // The injection itself was materialized in the serial completion
        // step; re-arm the NI's next scheduled event.
        st.schedule(sh, i, now + 1);
      }
      if (ni.busy()) {
        ni.try_inject(now, *st.net, *st.packets, *st.rc_units,
                      &sh.rc_requests, i);
      }
      if (ni.busy()) {
        sh.busy[w] |= std::uint64_t{1} << b;
      } else {
        sh.busy[w] &= ~(std::uint64_t{1} << b);
      }
    }
  }
  ShardPhaseSink<InWindow> sink{&st, &sh};
  st.net->step_shard(s, now, sink);
}

/// Back phase for one shard: commit the shard's inboxes, deliver the
/// staged RC permission requests whose units this shard owns, pre-draw
/// the next cycle's wake set, and - in counter mode - prepare the routes
/// of the newly drawn injections.
template <bool InWindow>
void shard_back(ShardedState& st, int s) {
  ShardRun& sh = (*st.shards)[static_cast<std::size_t>(s)];
  ShardPhaseSink<InWindow> sink{&st, &sh};
  st.net->commit_shard(s, st.now, sink);

  // Distributed RC delivery: every shard scans all staged-request lists
  // (written during the front phase, frozen by the front rendezvous) and
  // delivers, in ascending NI order, exactly the requests targeting units
  // on its own nodes. Restricting the serial loop's global NI order to one
  // unit's requests preserves that unit's queue order, and no two shards
  // ever touch the same unit - the partition keys ownership by node.
  // The busy-unit transitions accumulate locally and fold in serially
  // (RcUnitManager::add_busy_units) at the next begin_cycle().
  const int num_shards = static_cast<int>(st.shards->size());
  std::size_t cursor[kMaxSimShards] = {};
  int busy_delta = 0;
  for (;;) {
    int best = -1;
    std::size_t best_ni = 0;
    for (int p = 0; p < num_shards; ++p) {
      const auto& reqs =
          (*st.shards)[static_cast<std::size_t>(p)].rc_requests;
      std::size_t& c = cursor[p];
      while (c < reqs.size() &&
             st.partition->shard_of(reqs[c].unit_node) != s) {
        ++c;  // lazily skip requests another shard owns
      }
      if (c < reqs.size() && (best < 0 || reqs[c].ni < best_ni)) {
        best = p;
        best_ni = reqs[c].ni;
      }
    }
    if (best < 0) {
      break;
    }
    const RcPermissionRequest& r =
        (*st.shards)[static_cast<std::size_t>(best)].rc_requests[cursor[best]++];
    busy_delta +=
        st.rc_units->request_parallel(r.unit_node, r.requester, r.packet, r.now);
  }
  sh.rc_busy_delta += busy_delta;

  const std::size_t drawn_from = sh.pending.size();
  ShardedState::draw(sh, st.now + 1);
  // Counter mode: prepare the next cycle's routes here, in parallel -
  // each NI draws from its private stream, so the result is independent
  // of which shard/order runs it. Deferred to the serial commit path
  // whenever a fault event fires at the commit cycle: the routes must
  // see the post-event fault set, and the surgeon's reroute pass must
  // consume each NI's stream first. The event cursor only advances at
  // serial points, so pending() is safe to read concurrently.
  if (st.counter_mode && !st.surgeon->pending(st.now + 1)) {
    for (std::size_t k = drawn_from; k < sh.pending.size(); ++k) {
      (*st.nis)[sh.pending[k]].prepare_scheduled(*st.algorithm);
    }
  }
}

/// End-of-cycle serial step (worker 0, after the back rendezvous): drains
/// RC absorptions, applies the watchdog and drain checks to the summed
/// counters, and prepares the next cycle.
void sharded_cycle_end(ShardedState& st) {
  if (st.failed.load(std::memory_order_relaxed)) {
    st.stop = true;
    return;
  }
  try {
    RcDrainSink rc_sink{st.rc_units, st.packets};
    st.net->drain_rc_departures(st.now, rc_sink);

    const std::uint64_t moves = st.net->moves_last_cycle();
    st.results->flit_hops += moves;
    const std::uint64_t progress = moves + st.rc_units->take_progress();
    if (progress > 0) {
      st.idle_cycles = 0;
    } else if (st.net->flits_buffered() + st.rc_units->flits_held() > 0) {
      if (++st.idle_cycles >= st.knobs->watchdog_cycles) {
        st.deadlock = true;
        st.stop = true;
        return;
      }
    }

    std::uint64_t delivered = 0;
    for (const ShardRun& sh : *st.shards) {
      delivered += sh.delivered_measured;
    }
    if (st.now + 1 >= st.measure_end &&
        delivered + st.surgeon->lost_measured() ==
            st.counters.created_measured) {
      st.drained = true;
      ++st.now;
      st.stop = true;
      return;
    }

    ++st.now;
    if (st.now >= st.hard_end) {
      st.stop = true;
      return;
    }
    st.in_window =
        st.now >= st.knobs->warmup && st.now < st.measure_end;
    st.begin_cycle();
  } catch (...) {
    st.record_failure();
    st.stop = true;
  }
}

/// Runs the cycle loop across one worker per shard. The caller has
/// already performed cycle 0's prologue (initial event scheduling, the
/// cycle-0 draw/materialization, the first RC tick). Per cycle: front
/// phase, rendezvous, back phase, then worker 0 waits for every
/// follower's back phase, runs the completion step and releases the
/// followers - the completion's stop decision must precede every
/// worker's next front phase.
void run_sharded(ShardedState& st, WorkerPool& pool) {
  static_assert(kMaxSimShards <= CycleSync::kMaxWorkers);
  const int num_shards = static_cast<int>(st.shards->size());
  CycleSync sync(num_shards);
  pool.run(num_shards, [&st, &sync](int w) {
    std::uint64_t epoch = 0;
    while (!st.stop) {
      ++epoch;
      if (!st.failed.load(std::memory_order_relaxed)) {
        try {
          if (st.in_window) {
            shard_front<true>(st, w);
          } else {
            shard_front<false>(st, w);
          }
        } catch (...) {
          st.record_failure();
        }
      }
      sync.front_done(w, epoch);
      if (!st.failed.load(std::memory_order_relaxed)) {
        try {
          if (st.in_window) {
            shard_back<true>(st, w);
          } else {
            shard_back<false>(st, w);
          }
        } catch (...) {
          st.record_failure();
        }
      }
      if (w == 0) {
        sync.wait_followers_back(epoch);
        sharded_cycle_end(st);
        sync.publish_release(epoch);
      } else {
        sync.follower_back_done(w, epoch);
      }
    }
  });
}

/// Resets the workspace-owned results in place: scalar fields zeroed,
/// vector fields assigned to this run's dimensions - never replaced, so a
/// reused workspace keeps their capacity.
void reset_results(SimResults& results, const Topology& topo,
                   Cycle measure_cycles) {
  results.network_latency = LatencySummary{};
  results.total_latency = LatencySummary{};
  results.packets_created = 0;
  results.packets_created_measured = 0;
  results.packets_delivered_measured = 0;
  results.packets_dropped_unroutable = 0;
  results.flits_ejected_in_window = 0;
  results.flit_hops = 0;
  results.cycles_run = 0;
  results.measure_cycles = measure_cycles;
  results.deadlock_detected = false;
  results.drained = false;
  results.outcome = RunOutcome::completed;
  results.packets_lost = 0;
  results.packets_lost_measured = 0;
  results.fault_window_created = 0;
  results.fault_window_delivered = 0;
  results.reconvergence_latency = -1;
  results.region_vc_flits.assign(
      static_cast<std::size_t>(topo.num_chiplets()) + 1, {});
  results.vl_channel_flits.assign(
      static_cast<std::size_t>(topo.num_vl_channels()), 0);
}

}  // namespace

const char* rng_mode_name(RngMode m) {
  switch (m) {
    case RngMode::serial: return "serial";
    case RngMode::counter: return "counter";
  }
  return "?";
}

Simulator::Simulator(const Topology& topo, RoutingAlgorithm& algorithm,
                     TrafficGenerator& traffic, SimKnobs knobs,
                     VlFaultSet faults, const FaultTimeline* timeline,
                     InFlightPolicy policy)
    : topo_(&topo),
      algorithm_(&algorithm),
      traffic_(&traffic),
      knobs_(knobs),
      faults_(faults),
      timeline_(timeline),
      policy_(policy) {
  require(knobs_.packet_size >= 1, "Simulator: bad packet size");
  require(knobs_.warmup >= 0 && knobs_.measure > 0 && knobs_.drain_max >= 0,
          "Simulator: bad phase lengths");
  require(knobs_.shards >= 1 && knobs_.shards <= kMaxSimShards,
          "Simulator: bad shard count");
  if (timeline_ != nullptr) {
    timeline_->validate(*topo_, faults_);
  }
}

SimResults Simulator::run() {
  SimWorkspace ws;
  return run(ws);  // copied out before the private workspace dies
}

void Simulator::prepare(SimWorkspace& ws, const Partition* partition) {
  ws.packets_.clear();
  ws.net_.reset(*topo_, *algorithm_, ws.packets_, knobs_.num_vcs,
                knobs_.buffer_depth, faults_, knobs_.vl_serialization,
                knobs_.core, partition);
  ws.rc_units_.reset(*topo_, knobs_.packet_size);
  ws.rc_units_.publish_initial_credits(ws.net_);

  Rng root(knobs_.seed);
  const std::vector<NodeId>& endpoints = topo_->endpoints();
  ws.nis_.resize(endpoints.size());
  const bool counter = knobs_.rng_mode == RngMode::counter;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    const NodeId n = endpoints[i];
    // In counter mode each NI additionally owns the route stream keyed by
    // (seed, node) - a pure function of the pair, so identical for every
    // shard count including the serial stepper.
    ws.nis_[i].reset(n, root.fork(static_cast<std::uint64_t>(n)),
                     CounterRng(knobs_.seed, static_cast<std::uint64_t>(n)),
                     counter);
  }
  ws.surgeon_.reset(*topo_, timeline_, policy_, faults_, ws.nis_);

  ws.net_latencies_.clear();
  ws.total_latencies_.clear();
  ws.events_.clear();
  reset_results(ws.results_, *topo_, knobs_.measure);
}

const SimResults& Simulator::run(SimWorkspace& ws) {
  // Sharded execution needs the active-set core (the full scan is the
  // serial reference) and a lookahead-capable generator: lookahead is the
  // generator's declaration that sources draw independently, which is
  // exactly what the parallel NI phase requires. Everything else runs
  // serially through the trivial partition.
  bool sharded = knobs_.core == SimCore::active_set && knobs_.shards > 1 &&
                 traffic_->supports_lookahead();
  if (sharded) {
    ws.partition_.build(*topo_, knobs_.shards);
    sharded = ws.partition_.num_shards() > 1;
  }

  if (!sharded) {
    // Serial path: the resumable stepper, run to completion in a single
    // advance - what makes a stepped (paused and resumed) run
    // bit-identical to this one by construction.
    SimStepper stepper;
    stepper.start(*this, ws);
    stepper.advance();
    return stepper.finish();
  }

  require(!ran_, "Simulator::run may only be called once");
  ran_ = true;
  prepare(ws, &ws.partition_);
  const std::vector<NodeId>& endpoints = topo_->endpoints();

  {
    const int num_shards = ws.partition_.num_shards();
    ws.shard_runs_.resize(static_cast<std::size_t>(num_shards));
    const std::size_t ni_words = (ws.nis_.size() + 63) / 64;
    for (ShardRun& sh : ws.shard_runs_) {
      sh.busy.assign(ni_words, 0);
      sh.wake.assign(ni_words, 0);
      sh.events.clear();
      sh.pending.clear();
      sh.rc_requests.clear();
      sh.rc_busy_delta = 0;
      sh.net_latencies.clear();
      sh.total_latencies.clear();
      sh.region_vc_flits.assign(
          static_cast<std::size_t>(topo_->num_chiplets()) + 1, {});
      sh.vl_channel_flits.assign(
          static_cast<std::size_t>(topo_->num_vl_channels()), 0);
      sh.flits_ejected_in_window = 0;
      sh.delivered_measured = 0;
    }
    if (!ws.pool_ || ws.pool_->threads() < num_shards - 1) {
      ws.pool_ = std::make_unique<WorkerPool>(num_shards - 1);
    }

    ShardedState st;
    st.knobs = &knobs_;
    st.topo = topo_;
    st.traffic = traffic_;
    st.algorithm = algorithm_;
    st.packets = &ws.packets_;
    st.net = &ws.net_;
    st.rc_units = &ws.rc_units_;
    st.nis = &ws.nis_;
    st.shards = &ws.shard_runs_;
    st.results = &ws.results_;
    st.surgeon = &ws.surgeon_;
    st.partition = &ws.partition_;
    st.counter_mode = knobs_.rng_mode == RngMode::counter;
    st.measure_end = knobs_.warmup + knobs_.measure;
    st.hard_end = st.measure_end + knobs_.drain_max;

    // Cycle-0 prologue (serial): arm every NI's first scheduled event in
    // its owner shard's heap, pre-draw cycle 0's wake set, materialize
    // its injections and run the first RC tick - the same work the
    // completion step performs at every later cycle boundary.
    for (std::size_t i = 0; i < ws.nis_.size(); ++i) {
      const int s = ws.partition_.shard_of(endpoints[i]);
      st.schedule(ws.shard_runs_[static_cast<std::size_t>(s)], i, 0);
    }
    for (ShardRun& sh : ws.shard_runs_) {
      ShardedState::draw(sh, 0);
    }
    st.now = 0;
    st.in_window = knobs_.warmup <= 0;
    st.begin_cycle();

    run_sharded(st, *ws.pool_);
    if (st.error) {
      std::rethrow_exception(st.error);
    }

    // Merge the per-shard measurement slices. Every counter is additive
    // and the latency summaries sort their samples, so the merge order
    // cannot influence the results.
    SimResults& results = ws.results_;
    std::uint64_t delivered_measured = 0;
    for (const ShardRun& sh : ws.shard_runs_) {
      results.flits_ejected_in_window += sh.flits_ejected_in_window;
      delivered_measured += sh.delivered_measured;
      for (std::size_t r = 0; r < results.region_vc_flits.size(); ++r) {
        for (std::size_t v = 0; v < results.region_vc_flits[r].size(); ++v) {
          results.region_vc_flits[r][v] += sh.region_vc_flits[r][v];
        }
      }
      for (std::size_t c = 0; c < results.vl_channel_flits.size(); ++c) {
        results.vl_channel_flits[c] += sh.vl_channel_flits[c];
      }
      ws.net_latencies_.insert(ws.net_latencies_.end(),
                               sh.net_latencies.begin(),
                               sh.net_latencies.end());
      ws.total_latencies_.insert(ws.total_latencies_.end(),
                                 sh.total_latencies.begin(),
                                 sh.total_latencies.end());
    }
    return finish(ws, st.now, st.deadlock, st.drained, st.counters,
                  delivered_measured);
  }
}

const SimResults& Simulator::finish(SimWorkspace& ws, Cycle cycles,
                                    bool deadlock, bool drained,
                                    const NiCounters& counters,
                                    std::uint64_t delivered_measured) {
  SimResults& results = ws.results_;
  results.cycles_run = cycles;
  results.deadlock_detected = deadlock;
  results.outcome = deadlock ? RunOutcome::deadlocked : RunOutcome::completed;
  results.drained = drained;
  results.packets_created = counters.created;
  results.packets_created_measured = counters.created_measured;
  results.packets_delivered_measured = delivered_measured;
  results.packets_dropped_unroutable = counters.dropped_unroutable;
  results.network_latency = LatencySummary::from_samples(ws.net_latencies_);
  results.total_latency = LatencySummary::from_samples(ws.total_latencies_);
  ws.surgeon_.finalize(results, ws.packets_);
  return results;
}

// ------------------------------------------------------------- SimStepper
//
// The stepper is the serial run loop with its cycle cursor hoisted into a
// member: every advance() rebuilds the same RunAccum/LoopCtx the one-shot
// path would use, runs the phase chain up to `cap`, and round-trips the
// loop scalars back out. Because run_phase/run_reference derive the phase
// from ctx.now alone, pausing and resuming at any cycle boundary cannot
// change what any cycle executes - the bit-identity argument for
// snapshots and checkpoints (docs/architecture.md).

void SimStepper::start(Simulator& sim, SimWorkspace& ws) {
  require(!sim.ran_, "Simulator::run may only be called once");
  sim.ran_ = true;
  sim_ = &sim;
  ws_ = &ws;
  sim.prepare(ws, nullptr);
  measure_end_ = sim.knobs_.warmup + sim.knobs_.measure;
  hard_end_ = measure_end_ + sim.knobs_.drain_max;
  lookahead_ = sim.knobs_.core == SimCore::active_set &&
               sim.traffic_->supports_lookahead();
  now_ = 0;
  idle_cycles_ = 0;
  primed_ = false;
  deadlock_ = drained_ = done_ = finished_ = false;
  counters_ = NiCounters{};
  delivered_measured_ = 0;
}

bool SimStepper::advance(Cycle cap) {
  require(sim_ != nullptr, "SimStepper::advance before start");
  if (done_ || now_ >= cap) {
    return done_;
  }
  Simulator& sim = *sim_;
  SimWorkspace& ws = *ws_;
  RunAccum acc{sim.topo_,          &ws.packets_,
               &ws.rc_units_,      &ws.results_,
               &ws.net_latencies_, &ws.total_latencies_,
               delivered_measured_};
  LoopCtx ctx;
  ctx.knobs = &sim.knobs_;
  ctx.traffic = sim.traffic_;
  ctx.algorithm = sim.algorithm_;
  ctx.packets = &ws.packets_;
  ctx.net = &ws.net_;
  ctx.rc_units = &ws.rc_units_;
  ctx.nis = &ws.nis_;
  ctx.surgeon = &ws.surgeon_;
  ctx.acc = &acc;
  ctx.counters = counters_;
  ctx.measure_end = measure_end_;
  ctx.hard_end = hard_end_;
  ctx.now = now_;
  ctx.idle_cycles = idle_cycles_;
  ctx.cap = cap;
  ctx.deadlock = deadlock_;
  ctx.drained = drained_;
  ctx.lookahead = lookahead_;
  ctx.busy = &ws.busy_;
  ctx.wake = &ws.wake_;
  ctx.events = &ws.events_;
  if (!primed_) {
    primed_ = true;
    if (lookahead_) {
      const std::size_t words = (ws.nis_.size() + 63) / 64;
      ws.busy_.assign(words, 0);
      ws.wake_.assign(words, 0);
      for (std::size_t i = 0; i < ws.nis_.size(); ++i) {
        ctx.schedule(i, 0);
      }
    }
  }
  if (sim.knobs_.core == SimCore::full_scan) {
    run_reference(ctx);
  } else {
    // The same phase chain as the one-shot path, re-entered by cycle
    // cursor: each iteration picks the phase `ctx.now` falls in, so a
    // capped run resumes mid-phase exactly where it stopped.
    while (!ctx.deadlock && !ctx.drained && ctx.now < hard_end_ &&
           ctx.now < cap) {
      if (ctx.now < ctx.knobs->warmup) {
        run_phase<false, false>(ctx);
      } else if (ctx.now < measure_end_ - 1) {
        run_phase<true, false>(ctx);
      } else if (ctx.now < measure_end_) {
        run_phase<true, true>(ctx);
      } else {
        run_phase<false, true>(ctx);
      }
    }
  }
  now_ = ctx.now;
  idle_cycles_ = ctx.idle_cycles;
  deadlock_ = ctx.deadlock;
  drained_ = ctx.drained;
  counters_ = ctx.counters;
  delivered_measured_ = acc.delivered_measured;
  done_ = deadlock_ || drained_ || now_ >= hard_end_;
  return done_;
}

const SimResults& SimStepper::finish() {
  require(sim_ != nullptr && done_, "SimStepper::finish before the run ended");
  if (finished_) {
    return ws_->results_;
  }
  finished_ = true;
  return Simulator::finish(*ws_, now_, deadlock_, drained_, counters_,
                           delivered_measured_);
}

}  // namespace deft
