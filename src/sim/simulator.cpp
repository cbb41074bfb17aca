#include "sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>

namespace deft {

// ---------------------------------------------------------------------------
// The cycle. Every active-set run executes each cycle as four steps over a
// router Partition, with one ShardRun slice per shard:
//
//   begin (serial): due fault events apply; the NIs woken this cycle (by
//     their pre-drawn injection or by a reply falling due) are drawn
//     (unless back() already drew them) and materialize in ascending NI
//     order - the order the routing algorithm's shared RNG stream is
//     consumed in - queueing the replies their requests carry at the
//     responders' NIs and waking each responder at its reply's due cycle;
//     then the RC units tick.
//   front (per shard): NIs whose own injection fired re-arm their next
//     event, busy NIs inject (staging RC permission requests into the
//     shard's batch), then step_shard() routes/arbitrates the shard's
//     routers into the per-consumer outboxes.
//   back (per shard): commit_shard() drains every inbox addressed to the
//     shard (arrivals, credits, RC output credits, local ejections into
//     the shard's private accumulators), the staged RC permission
//     requests for the shard's own units are delivered in ascending NI
//     order, and the next cycle's wake-ups are drawn from the shard's
//     event heap - in counter mode with their routes prepared.
//   end (serial): RC absorptions drain, the shards' RC busy-unit deltas
//     fold in, and the watchdog and drain checks run on the summed
//     counters.
//
// Two loops call these steps, and SimStepper::advance picks one. A run
// at one shard calls them inline on the calling thread (run_inline). A
// run with shards > 1 calls them from one worker per shard, with a
// CycleSync rendezvous after front and after back; worker 0 runs end and
// the next begin between the followers' back phases and their release
// (run_workers). Both stop where end() does: at the run's end or at the
// advance() cap.
//
// Why every shard count gives the same bits: step() never reads another
// router's state, commits are order-independent within a cycle (one
// arrival per buffer lane, additive credits, order-insensitive stat
// merges), every order-sensitive operation - packet creation, grants,
// watchdog decisions - happens in the serial steps in serial order, and
// RC request delivery keeps each unit's queue order (back()). Ticking the
// RC units before NI injection, and delivering the cycle's permission
// requests after it, is exact because the permission network's latency
// keeps same-cycle requests invisible to same-cycle grant decisions (see
// RcPermissionRequest).

/// The state one run's cycles share. Plain fields: in the worker loop they
/// are published across threads by the two CycleSync rendezvous per cycle.
struct CycleEngine {
  CycleEngine(Simulator& sim, SimWorkspace& ws)
      : knobs(&sim.knobs_),
        topo(sim.topo_),
        traffic(sim.traffic_),
        algorithm(sim.algorithm_),
        packets(&ws.packets_),
        net(&ws.net_),
        rc_units(&ws.rc_units_),
        nis(&ws.nis_),
        shards(&ws.shard_runs_),
        results(&ws.results_),
        surgeon(&ws.surgeon_),
        partition(&ws.partition_),
        counter_mode(sim.knobs_.rng_mode == RngMode::counter) {}

  const SimKnobs* knobs;
  const Topology* topo;
  TrafficGenerator* traffic;
  RoutingAlgorithm* algorithm;
  PacketTable* packets;
  Network* net;
  RcUnitManager* rc_units;
  std::vector<NetworkInterface>* nis;
  std::vector<ShardRun>* shards;
  SimResults* results;
  FaultSurgeon* surgeon;
  const Partition* partition;
  /// SimKnobs::rng_mode == counter: per-NI route streams make route
  /// preparation order-independent, so back() prepares the next cycle's
  /// routes in parallel instead of begin() deriving them serially.
  bool counter_mode;
  RunCursor cur;
  /// The advance() cap: end() stops the run when the clock reaches it,
  /// and back() draws the next cycle's injections only below it. A pause
  /// before cycle c leaves c's draw (and, in counter mode, its route
  /// preparation) to begin(c), so at every pause each shard's wake words
  /// are zero and its heap holds what the next cycle will draw from.
  Cycle draw_end = SimStepper::kNoCycleCap;
  bool in_window = false;
  bool stop = false;

  /// Wakes NI i at cycle `at` through its shard's event heap. An NI may
  /// hold several events for one cycle (its own injection and replies);
  /// draw() folds them into one wake-up.
  void wake_at(Cycle at, std::size_t i) {
    const int s = partition->shard_of((*nis)[i].node());
    auto& events = (*shards)[static_cast<std::size_t>(s)].events;
    events.emplace_back(at, i);
    std::push_heap(events.begin(), events.end(), std::greater<>{});
  }

  /// Pre-draws NI i's next own injection from `from` and wakes the NI
  /// then, unless it falls at or past the run's hard end.
  void schedule(std::size_t i, Cycle from) {
    const Cycle c = (*nis)[i].schedule_next(*traffic, from, cur.hard_end);
    if (c < cur.hard_end) {
      wake_at(c, i);
    }
  }

  /// Queues the replies `ni`'s just-materialized requests carry at their
  /// responders' NIs, in request order; with `wake` (the active-set
  /// cycle) each one due before the hard end also wakes its responder
  /// then. Serial steps only: a responder may belong to another shard.
  void forward_replies(const NetworkInterface& ni, bool wake) {
    for (const PacketRequest& req : ni.drawn()) {
      if (req.reply_at == kNoReply) {
        continue;
      }
      const auto r = static_cast<std::size_t>(topo->endpoint_index(req.dst));
      check(r < nis->size(), "Simulator: a reply's responder is no endpoint");
      (*nis)[r].queue_reply(req.reply_at, ni.node(), req.app);
      if (wake && req.reply_at < cur.hard_end) {
        wake_at(req.reply_at, r);
      }
    }
  }

  /// Pops the shard's wake-ups due at `at` into its wake set; with
  /// `prepare`, also prepares each woken NI's batch routes (counter mode).
  void draw(ShardRun& sh, Cycle at, bool prepare) {
    while (!sh.events.empty() && sh.events.front().first == at) {
      std::pop_heap(sh.events.begin(), sh.events.end(), std::greater<>{});
      const std::size_t i = sh.events.back().second;
      sh.events.pop_back();
      std::uint64_t& word = sh.wake[i / 64];
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      if (prepare && (word & bit) == 0) {
        (*nis)[i].prepare_scheduled(*algorithm, at);
      }
      word |= bit;
    }
  }

  /// Run prologue of the active-set cycle: pre-draws every NI's first
  /// injection into its owner shard's heap.
  void arm() {
    for (std::size_t i = 0; i < nis->size(); ++i) {
      schedule(i, 0);
    }
  }

  void begin();
  void end();
};

namespace {

/// The cycle's stats sink, writing one shard's private accumulators. With
/// InWindow false (warmup and drain) the traversal statistics and the
/// in-window ejection counter compile away; the functional parts - RC
/// absorption, delivery bookkeeping, latency capture for measured packets
/// draining after the window - run in every cycle. RC absorptions arrive
/// only from serial contexts (Network::drain_rc_departures).
template <bool InWindow>
struct ShardSink {
  CycleEngine* st;
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

  void rc_absorb(NodeId node, const Flit& flit, Cycle now) {
    st->rc_units->absorb(node, flit, now, *st->packets);
  }

  void eject(NodeId node, const Flit& flit, Cycle now) {
    if constexpr (InWindow) {
      ++sh->flits_ejected_in_window;
    }
    if (flit.is_tail()) {  // kind stamped at injection
      // Tail ejection touches the hot plane (route id + measured byte)
      // and, for measured packets, the cold timestamp plane - the only
      // per-packet table accesses outside injection.
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

/// Front step for one shard: fired injections re-arm, busy NIs inject,
/// the shard's routers step.
template <bool InWindow>
void front(CycleEngine& st, int s) {
  ShardRun& sh = (*st.shards)[static_cast<std::size_t>(s)];
  const Cycle now = st.cur.now;
  for (std::size_t w = 0; w < sh.busy.size(); ++w) {
    const std::uint64_t wake_word = sh.wake[w];
    sh.wake[w] = 0;
    std::uint64_t busy = sh.busy[w];
    std::uint64_t word = busy | wake_word;
    while (word != 0) {
      const int b = std::countr_zero(word);
      word &= word - 1;
      const std::size_t i = w * 64 + static_cast<std::size_t>(b);
      NetworkInterface& ni = (*st.nis)[i];
      if (((wake_word >> b) & 1) != 0 && ni.injection_at() == now) {
        // begin() materialized the NI's own injection; pre-draw its next.
        // A wake-up by replies alone leaves the pending one in the heap.
        st.schedule(i, now + 1);
      }
      if (ni.busy()) {
        ni.try_inject(now, *st.net, *st.packets, *st.rc_units,
                      &sh.rc_requests, i);
      }
      if (ni.busy()) {
        busy |= std::uint64_t{1} << b;
      } else {
        busy &= ~(std::uint64_t{1} << b);
      }
    }
    sh.busy[w] = busy;
  }
  ShardSink<InWindow> sink{&st, &sh};
  st.net->step_shard(s, now, sink);
}

/// Back step for one shard: commit the shard's inboxes, deliver the staged
/// RC permission requests whose units this shard owns, and draw the next
/// cycle's wake-ups.
template <bool InWindow>
void back(CycleEngine& st, int s) {
  ShardRun& sh = (*st.shards)[static_cast<std::size_t>(s)];
  ShardSink<InWindow> sink{&st, &sh};
  st.net->commit_shard(s, st.cur.now, sink);

  // Distributed RC delivery: every shard scans all staged-request lists
  // (written during the front phase, frozen by the front rendezvous) and
  // delivers, in ascending NI order, exactly the requests targeting units
  // on its own nodes. Restricting the global NI order to one unit's
  // requests preserves that unit's queue order, and no two shards ever
  // touch the same unit - the partition keys ownership by node. The
  // busy-unit transitions accumulate locally and fold in at end().
  const int num_shards = static_cast<int>(st.shards->size());
  std::size_t cursor[kMaxSimShards];
  std::fill_n(cursor, num_shards, 0);
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

  // Counter mode prepares the drawn routes here, in parallel: each NI
  // draws from its private stream, so the result is independent of which
  // shard/order runs it. Deferred to begin()'s serial commit whenever a
  // fault event fires at the commit cycle: the routes must see the
  // post-event fault set, and the surgeon's reroute pass must consume each
  // NI's stream first. The event cursor only advances at serial points, so
  // pending() is safe to read concurrently.
  const Cycle next = st.cur.now + 1;
  if (next < st.draw_end) {
    st.draw(sh, next, st.counter_mode && !st.surgeon->pending(next));
  }
}

}  // namespace

void CycleEngine::begin() {
  const Cycle now = cur.now;
  in_window = now >= knobs->warmup && now < cur.measure_end;
  if (surgeon->pending(now)) {
    surgeon->apply_due(now, *net, *algorithm, *packets, *nis, *rc_units);
  }
  // Draw whatever back() left due now (cycle 0, and the cycle after a
  // pause). Nothing due now can have been pushed since the last back() -
  // replies fall due at least one cycle after their requests - so this is
  // a no-op whenever back() drew. Then materialize in ascending NI order:
  // each NI belongs to one shard, so the OR of the shards' wake words is
  // the whole wake set.
  for (ShardRun& sh : *shards) {
    draw(sh, now, false);
  }
  const std::size_t words = shards->front().wake.size();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = 0;
    for (const ShardRun& sh : *shards) {
      word |= sh.wake[w];
    }
    for (; word != 0; word &= word - 1) {
      const std::size_t i =
          w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      NetworkInterface& ni = (*nis)[i];
      ni.commit_scheduled(now, *algorithm, *packets, knobs->packet_size,
                          in_window, cur.counters);
      if (ni.injection_at() == now) {
        forward_replies(ni, true);
      }
    }
  }
  rc_units->tick(now, *net, *packets);
}

void CycleEngine::end() {
  const Cycle now = cur.now;
  ShardSink<false> rc_sink{this, &shards->front()};
  net->drain_rc_departures(now, rc_sink);
  // Fold the RC busy-unit deltas and drop the delivered requests here, so
  // a pause leaves the RC units as direct request() calls would.
  int busy_delta = 0;
  for (ShardRun& sh : *shards) {
    busy_delta += sh.rc_busy_delta;
    sh.rc_busy_delta = 0;
    sh.rc_requests.clear();
  }
  rc_units->add_busy_units(busy_delta);

  const std::uint64_t moves = net->moves_last_cycle();
  results->flit_hops += moves;
  // Deadlock watchdog: pending work with no forward progress.
  if (moves + rc_units->take_progress() > 0) {
    cur.idle_cycles = 0;
  } else if (net->flits_buffered() + rc_units->flits_held() > 0 &&
             ++cur.idle_cycles >= knobs->watchdog_cycles) {
    cur.deadlock = true;
    stop = true;
    return;
  }
  // Lost packets can never drain; they count as resolved.
  if (now + 1 >= cur.measure_end) {
    std::uint64_t delivered = 0;
    for (const ShardRun& sh : *shards) {
      delivered += sh.delivered_measured;
    }
    cur.drained = delivered + surgeon->lost_measured() ==
                  cur.counters.created_measured;
  }
  ++cur.now;
  stop = cur.drained || cur.now >= cur.hard_end || cur.now >= draw_end;
}

namespace {

/// The inline loop: cycles at one shard on the calling thread until
/// end() stops the run. Flattened so the four steps compile into one loop
/// body: left as calls, they cost sparse loads (uniform 0.0005 on the
/// 4-chiplet system) about 4% of their cycle rate.
[[gnu::flatten]] void run_inline(CycleEngine& st) {
  while (!st.stop) {
    st.begin();
    if (st.in_window) {
      front<true>(st, 0);
      back<true>(st, 0);
    } else {
      front<false>(st, 0);
      back<false>(st, 0);
    }
    st.end();
  }
}

/// The worker loop: cycles across one worker per shard, from a cycle whose
/// begin() has run, until end() stops the run. Per cycle: front,
/// rendezvous, back, then worker 0 waits for every follower's back, runs
/// end and the next begin, and releases the followers - end's stop
/// decision must precede every worker's next front. A throwing step stops
/// the run at the next end; the first exception is rethrown on the caller.
void run_workers(CycleEngine& st, WorkerPool& pool) {
  static_assert(kMaxSimShards <= CycleSync::kMaxWorkers);
  const int num_shards = static_cast<int>(st.shards->size());
  CycleSync sync(num_shards);
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;
  const auto guarded = [&](auto&& step) {
    if (failed.load(std::memory_order_relaxed)) {
      return;
    }
    try {
      step();
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) {
          error = std::current_exception();
        }
      }
      failed.store(true, std::memory_order_relaxed);
    }
  };
  pool.run(num_shards, [&](int w) {
    for (std::uint64_t epoch = 1; !st.stop; ++epoch) {
      guarded([&] {
        st.in_window ? front<true>(st, w) : front<false>(st, w);
      });
      sync.front_done(w, epoch);
      guarded([&] {
        st.in_window ? back<true>(st, w) : back<false>(st, w);
      });
      if (w == 0) {
        sync.wait_followers_back(epoch);
        guarded([&] {
          st.end();
          if (!st.stop) {
            st.begin();
          }
        });
        st.stop = st.stop || failed.load(std::memory_order_relaxed);
        sync.publish_release(epoch);
      } else {
        sync.follower_back_done(w, epoch);
      }
    }
  });
  if (error) {
    std::rethrow_exception(error);
  }
}

/// The reference core: the original single loop that polls every NI's
/// generator (TrafficGenerator::tick) and recomputes the window flag every
/// cycle, driving the network's full router scan. Kept as the executable
/// specification the equivalence tests (and the perf harness baseline)
/// compare the active-set cycle to.
void run_reference(CycleEngine& st, Cycle cap) {
  RunCursor& cur = st.cur;
  ShardRun& sh = st.shards->front();
  const Cycle stop = std::min(cur.hard_end, cap);
  for (; cur.now < stop; ++cur.now) {
    const Cycle now = cur.now;
    const bool in_window = now >= st.knobs->warmup && now < cur.measure_end;

    if (st.surgeon->pending(now)) {
      st.surgeon->apply_due(now, *st.net, *st.algorithm, *st.packets,
                            *st.nis, *st.rc_units);
    }

    for (NetworkInterface& ni : *st.nis) {
      ni.generate(now, *st.traffic, *st.algorithm, *st.packets,
                  st.knobs->packet_size, in_window, cur.counters);
      st.forward_replies(ni, false);
      ni.try_inject(now, *st.net, *st.packets, *st.rc_units);
    }
    st.rc_units->tick(now, *st.net, *st.packets);
    if (in_window) {
      ShardSink<true> sink{&st, &sh};
      st.net->step(now, sink);
      st.net->apply(now, sink);
    } else {
      ShardSink<false> sink{&st, &sh};
      st.net->step(now, sink);
      st.net->apply(now, sink);
    }
    st.results->flit_hops += st.net->moves_last_cycle();

    const std::uint64_t progress =
        st.net->moves_last_cycle() + st.rc_units->take_progress();
    if (progress > 0) {
      cur.idle_cycles = 0;
    } else if (st.net->flits_buffered() + st.rc_units->flits_held() > 0) {
      if (++cur.idle_cycles >= st.knobs->watchdog_cycles) {
        cur.deadlock = true;
        break;
      }
    }

    if (now + 1 >= cur.measure_end &&
        sh.delivered_measured + st.surgeon->lost_measured() ==
            cur.counters.created_measured) {
      cur.drained = true;
      ++cur.now;
      break;
    }
  }
}

/// Resets the workspace-owned results' scalar fields. SimStepper::finish
/// assigns the vector fields, which a reused workspace keeps the capacity
/// of.
void reset_results(SimResults& results, Cycle measure_cycles) {
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

const SimResults& Simulator::run(SimWorkspace& ws) {
  SimStepper stepper;
  stepper.start(*this, ws);
  stepper.advance();
  return stepper.finish();
}

void ShardRun::merge_measurements(const ShardRun& other) {
  net_latencies.insert(net_latencies.end(), other.net_latencies.begin(),
                       other.net_latencies.end());
  total_latencies.insert(total_latencies.end(),
                         other.total_latencies.begin(),
                         other.total_latencies.end());
  for (std::size_t r = 0; r < region_vc_flits.size(); ++r) {
    for (std::size_t v = 0; v < region_vc_flits[r].size(); ++v) {
      region_vc_flits[r][v] += other.region_vc_flits[r][v];
    }
  }
  for (std::size_t c = 0; c < vl_channel_flits.size(); ++c) {
    vl_channel_flits[c] += other.vl_channel_flits[c];
  }
  flits_ejected_in_window += other.flits_ejected_in_window;
  delivered_measured += other.delivered_measured;
}

// ------------------------------------------------------------- SimStepper
//
// Every advance() binds a CycleEngine to the run, executes cycles up to
// `cap` on the loop the shard count calls for, and keeps the cursor.
// Each cycle derives its window flag from the cursor alone, and a pause
// defers only the next cycle's injection draw - which begin() then
// performs - so pausing and resuming at any cycle boundary cannot change
// what any cycle executes: the bit-identity argument for snapshots and
// checkpoints (docs/architecture.md).

void SimStepper::start(Simulator& sim, SimWorkspace& ws) {
  require(!sim.ran_, "Simulator::run may only be called once");
  sim.ran_ = true;
  sim_ = &sim;
  ws_ = &ws;
  done_ = finished_ = false;
  const Topology& topo = *sim.topo_;
  const SimKnobs& knobs = sim.knobs_;

  // The active-set core runs at the requested shard count; the full-scan
  // reference - and a partition that comes out with one shard - runs the
  // same cycle at one shard.
  ws.partition_.build(topo,
                      knobs.core == SimCore::active_set ? knobs.shards : 1);
  const int shards = ws.partition_.num_shards();
  if (shards > 1 && (!ws.pool_ || ws.pool_->threads() < shards - 1)) {
    ws.pool_ = std::make_unique<WorkerPool>(shards - 1);
  }

  ws.packets_.clear();
  ws.net_.reset(topo, *sim.algorithm_, ws.packets_, knobs.num_vcs,
                knobs.buffer_depth, sim.faults_, knobs.vl_serialization,
                knobs.core, &ws.partition_);
  ws.rc_units_.reset(topo, knobs.packet_size);
  ws.rc_units_.publish_initial_credits(ws.net_);

  Rng root(knobs.seed);
  const std::vector<NodeId>& endpoints = topo.endpoints();
  ws.nis_.resize(endpoints.size());
  const bool counter = knobs.rng_mode == RngMode::counter;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    const NodeId n = endpoints[i];
    // In counter mode each NI additionally owns the route stream keyed by
    // (seed, node) - a pure function of the pair, so identical for every
    // shard count.
    ws.nis_[i].reset(n, root.fork(static_cast<std::uint64_t>(n)),
                     CounterRng(knobs.seed, static_cast<std::uint64_t>(n)),
                     counter);
  }
  ws.surgeon_.reset(topo, sim.timeline_, sim.policy_, sim.faults_);

  // Every mode sizes the worklist, so nothing of an earlier run in this
  // workspace survives into this one.
  ws.shard_runs_.resize(static_cast<std::size_t>(shards));
  const std::size_t ni_words = (ws.nis_.size() + 63) / 64;
  for (ShardRun& sh : ws.shard_runs_) {
    sh.busy.assign(ni_words, 0);
    sh.wake.assign(ni_words, 0);
    sh.events.clear();
    sh.rc_requests.clear();
    sh.rc_busy_delta = 0;
    sh.net_latencies.clear();
    sh.total_latencies.clear();
    sh.region_vc_flits.assign(
        static_cast<std::size_t>(topo.num_chiplets()) + 1, {});
    sh.vl_channel_flits.assign(
        static_cast<std::size_t>(topo.num_vl_channels()), 0);
    sh.flits_ejected_in_window = 0;
    sh.delivered_measured = 0;
  }
  reset_results(ws.results_, knobs.measure);

  cur_ = RunCursor{};
  cur_.measure_end = knobs.warmup + knobs.measure;
  cur_.hard_end = cur_.measure_end + knobs.drain_max;
}

bool SimStepper::advance(Cycle cap) {
  require(sim_ != nullptr, "SimStepper::advance before start");
  if (done_ || cur_.now >= cap) {
    return done_;
  }
  CycleEngine st(*sim_, *ws_);
  st.cur = cur_;
  st.draw_end = cap;
  if (sim_->knobs_.core == SimCore::full_scan) {
    run_reference(st, cap);
  } else {
    if (cur_.now == 0) {
      st.arm();  // before the first cycle: pre-draw every NI's injection
    }
    if (ws_->partition_.num_shards() == 1) {
      run_inline(st);
    } else {
      st.begin();
      run_workers(st, *ws_->pool_);
    }
  }
  cur_ = st.cur;
  done_ = cur_.deadlock || cur_.drained || cur_.now >= cur_.hard_end;
  return done_;
}

const SimResults& SimStepper::finish() {
  require(sim_ != nullptr && done_, "SimStepper::finish before the run ended");
  SimResults& results = ws_->results_;
  if (finished_) {
    return results;
  }
  finished_ = true;
  // Merge the per-shard measurement slices into slice 0. Every counter is
  // additive and the latency summaries sort their samples, so the merge
  // order cannot influence the results.
  ShardRun& first = ws_->shard_runs_.front();
  for (std::size_t s = 1; s < ws_->shard_runs_.size(); ++s) {
    first.merge_measurements(ws_->shard_runs_[s]);
  }
  results.flits_ejected_in_window = first.flits_ejected_in_window;
  results.region_vc_flits = first.region_vc_flits;
  results.vl_channel_flits = first.vl_channel_flits;
  results.cycles_run = cur_.now;
  results.deadlock_detected = cur_.deadlock;
  results.outcome =
      cur_.deadlock ? RunOutcome::deadlocked : RunOutcome::completed;
  results.drained = cur_.drained;
  results.packets_created = cur_.counters.created;
  results.packets_created_measured = cur_.counters.created_measured;
  results.packets_delivered_measured = first.delivered_measured;
  results.packets_dropped_unroutable = cur_.counters.dropped_unroutable;
  results.network_latency = LatencySummary::from_samples(first.net_latencies);
  results.total_latency = LatencySummary::from_samples(first.total_latencies);
  ws_->surgeon_.finalize(results, ws_->packets_);
  return results;
}

}  // namespace deft
