// Dynamic fault timeline contract tests.
//
// The FaultSurgeon's promise is that mid-run link failures (and repairs)
// are applied at a deterministic serial point of the cycle, that the
// in-flight policy resolves affected packets in NI order, and that the
// result is bit-identical across the serial, full-scan and sharded cores.
// Three layers of protection:
//
//  1. Golden digests on the 6-chiplet system: every algorithm x
//     {fail-only, fail+repair} x {drop, reroute} combination is pinned to
//     a constant, and shard counts {2, 4} must reproduce the serial
//     digest exactly.
//
//  2. Boundary equivalence: a timeline whose events all fire at cycle 0
//     must be field-identical to handing the same fault set to the
//     simulator statically (set_faults before the run) - the dynamic
//     machinery collapses to the static path when there is nothing in
//     flight.
//
//  3. Conservation: every measured packet is either delivered or
//     explicitly counted lost; nothing leaks, under either policy, and
//     the run still drains without deadlock.
#include <gtest/gtest.h>

#include <memory>

#include "core/runner.hpp"
#include "sim/snapshot.hpp"
#include "sim_results_checks.hpp"

namespace deft {
namespace {

/// The golden digest's fields plus the fault-window metrics, which the
/// historical goldens must not absorb.
std::uint64_t fault_digest(const SimResults& r) {
  Digest d;
  mix_latencies(d, r);
  d.mix(r.packets_created);
  d.mix(r.packets_created_measured);
  d.mix(r.packets_delivered_measured);
  d.mix(r.packets_dropped_unroutable);
  d.mix(r.packets_lost);
  d.mix(r.packets_lost_measured);
  d.mix(r.fault_window_created);
  d.mix(r.fault_window_delivered);
  d.mix(static_cast<std::uint64_t>(r.reconvergence_latency + 1));
  d.mix(r.flits_ejected_in_window);
  d.mix(static_cast<std::uint64_t>(r.cycles_run));
  d.mix(static_cast<std::uint64_t>(r.measure_cycles));
  d.mix(r.deadlock_detected ? std::uint64_t{1} : 0);
  d.mix(r.drained ? std::uint64_t{1} : 0);
  mix_flit_counters(d, r);
  return d.value();
}

SimKnobs dyn_knobs(int shards) {
  SimKnobs k;
  k.warmup = 500;
  k.measure = 1500;
  k.drain_max = 6000;
  k.seed = 7;
  k.shards = shards;
  return k;
}

const ExperimentContext& ctx6() {
  static const ExperimentContext ctx = ExperimentContext::reference(6);
  return ctx;
}

/// The channels of the sampled 2-fault pattern the sweep grid would use
/// for this context - the same channels every golden below fails.
std::vector<int> dyn_channels() {
  const VlFaultSet pattern = grid_fault_pattern(ctx6(), 4);
  std::vector<int> channels;
  for (int c = 0; c < ctx6().topo().num_vl_channels(); ++c) {
    if (pattern.is_faulty(c)) {
      channels.push_back(c);
    }
  }
  return channels;
}

constexpr Cycle kFirstFailAt = 800;   // inside the measurement window
constexpr Cycle kSecondFailAt = 1100; // hits the post-fault backlog
constexpr Cycle kRepairAt = 1600;

// Two failure waves: the first congests the network, so the second one
// catches packets queued at their NIs mid-route - the case where the
// drop and reroute policies genuinely diverge.
FaultTimeline dyn_timeline(bool repair) {
  FaultTimeline timeline;
  const std::vector<int> channels = dyn_channels();
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const Cycle fail_at = i < channels.size() / 2 ? kFirstFailAt
                                                  : kSecondFailAt;
    if (repair) {
      timeline.add_transient(channels[i], fail_at, kRepairAt);
    } else {
      timeline.add_fail(fail_at, channels[i]);
    }
  }
  return timeline;
}

SimResults run_dyn(Algorithm alg, bool repair, InFlightPolicy policy,
                   int shards) {
  // The permanent-fault variant must stay under the network's *reduced*
  // capacity or the drain never completes (background injection continues
  // during the drain by design); the transient variant regains full
  // capacity at the repair, so it can run hot enough that the second
  // failure wave catches a real NI backlog - where drop and reroute
  // genuinely diverge.
  UniformTraffic traffic(ctx6().topo(), repair ? 0.023 : 0.01);
  const FaultTimeline timeline = dyn_timeline(repair);
  return run_sim(ctx6(), alg, traffic, dyn_knobs(shards), {},
                 VlStrategy::table, &timeline, policy);
}

struct DynGolden {
  Algorithm alg;
  bool repair;
  InFlightPolicy policy;
  bool drained;
  std::uint64_t digest;
};

std::string dyn_name(const DynGolden& g) {
  return std::string(algorithm_name(g.alg)) +
         (g.repair ? "/fail+repair/" : "/fail/") +
         in_flight_policy_name(g.policy);
}

// Pinned on the seed host; any change to fault-event application order,
// in-flight resolution, or the route-invalidation set shows up here.
// The drop/reroute pairs coincide except for DeFT's transient scenario:
// at the low permanent-fault rate the NI queues are empty when the
// failures land, and MTR/RC route per hop from rebuilt tables, so their
// queued packets never go stale - only DeFT's source-chosen VL routes do.
//
// The drained column is itself a pinned claim of the paper: only DeFT
// keeps full reachability (and hence drains) across every scenario. MTR
// wedges under the four permanent failures even at the low rate, and at
// the near-saturation transient rate neither baseline recovers within
// the drain budget after the repair.
const DynGolden kDynGoldens[] = {
    {Algorithm::deft, false, InFlightPolicy::drop, true,
     0xae8f746c6cbed25aULL},
    {Algorithm::deft, false, InFlightPolicy::reroute, true,
     0xae8f746c6cbed25aULL},
    {Algorithm::deft, true, InFlightPolicy::drop, true,
     0x9ed32eb2477eb701ULL},
    {Algorithm::deft, true, InFlightPolicy::reroute, true,
     0x5b4f8bebb95bc0fbULL},
    {Algorithm::mtr, false, InFlightPolicy::drop, false,
     0x1acd89bf7bad9ea6ULL},
    {Algorithm::mtr, false, InFlightPolicy::reroute, false,
     0x1acd89bf7bad9ea6ULL},
    {Algorithm::mtr, true, InFlightPolicy::drop, false,
     0x8dc7474d455c151aULL},
    {Algorithm::mtr, true, InFlightPolicy::reroute, false,
     0x8dc7474d455c151aULL},
    {Algorithm::rc, false, InFlightPolicy::drop, true,
     0xf3e09c08093e3a80ULL},
    {Algorithm::rc, false, InFlightPolicy::reroute, true,
     0xf3e09c08093e3a80ULL},
    {Algorithm::rc, true, InFlightPolicy::drop, false,
     0x3efd6b5c5c033db1ULL},
    {Algorithm::rc, true, InFlightPolicy::reroute, false,
     0x3efd6b5c5c033db1ULL},
};

TEST(FaultDynamicGolden, SerialRunsMatchPinnedDigests) {
  for (const DynGolden& g : kDynGoldens) {
    SCOPED_TRACE(dyn_name(g));
    const SimResults r = run_dyn(g.alg, g.repair, g.policy, 1);
    EXPECT_FALSE(r.deadlock_detected);
    // Every golden ends `completed`, including the MTR wedges: they fail
    // by exhausting the drain budget while background traffic keeps the
    // watchdog fed, not by tripping it. `deadlocked` is strictly the
    // no-progress watchdog.
    EXPECT_EQ(r.outcome, RunOutcome::completed);
    EXPECT_EQ(r.drained, g.drained);
    EXPECT_EQ(fault_digest(r), g.digest)
        << dyn_name(g) << ": digest 0x" << std::hex << fault_digest(r);
  }
}

TEST(FaultDynamicGolden, ShardedRunsReproduceSerialDigests) {
  for (const DynGolden& g : kDynGoldens) {
    const SimResults serial = run_dyn(g.alg, g.repair, g.policy, 1);
    for (int shards : {2, 4}) {
      SCOPED_TRACE(dyn_name(g) + "/shards" + std::to_string(shards));
      const SimResults sharded = run_dyn(g.alg, g.repair, g.policy, shards);
      expect_identical(serial, sharded);
      EXPECT_EQ(fault_digest(sharded), g.digest);
    }
  }
}

/// A stepper-driven variant of run_dyn (fresh per-run instances; the
/// timeline must outlive the Simulator, so it lives in the struct).
struct DynRun {
  std::unique_ptr<RoutingAlgorithm> algorithm;
  std::unique_ptr<UniformTraffic> traffic;
  FaultTimeline timeline;
  std::unique_ptr<Simulator> sim;
  SimWorkspace ws;
  SimStepper stepper;
};

std::unique_ptr<DynRun> make_dyn_run(const DynGolden& g) {
  auto run = std::make_unique<DynRun>();
  const SimKnobs knobs = dyn_knobs(1);
  run->algorithm =
      ctx6().make_algorithm(g.alg, {}, knobs.num_vcs, VlStrategy::table);
  run->traffic = std::make_unique<UniformTraffic>(ctx6().topo(),
                                                  g.repair ? 0.023 : 0.01);
  run->timeline = dyn_timeline(g.repair);
  run->sim = std::make_unique<Simulator>(ctx6().topo(), *run->algorithm,
                                         *run->traffic, knobs, VlFaultSet{},
                                         &run->timeline, g.policy);
  return run;
}

TEST(FaultDynamicGolden, SnapshotRoundTripReproducesDigests) {
  // Checkpoint/restore (sim/snapshot.hpp) composes with mid-run fault
  // surgery: an image taken between the failure waves (cycle 1000, fault
  // tables already rebuilt once, surgeon cursor mid-timeline) and one
  // taken exactly on the repair boundary (1600; the event applies on the
  // first resumed cycle) must both finish on the pinned digest - which
  // shard counts {2, 4} also reproduce, per the sharded golden above.
  for (const DynGolden& g : kDynGoldens) {
    SCOPED_TRACE(dyn_name(g));
    for (const Cycle pause : {Cycle{1000}, Cycle{1600}}) {
      SCOPED_TRACE(pause);
      auto paused = make_dyn_run(g);
      paused->stepper.start(*paused->sim, paused->ws);
      paused->stepper.advance(pause);
      const std::vector<std::uint8_t> image = save_snapshot(paused->stepper);
      auto resumed = make_dyn_run(g);
      restore_snapshot(image, *resumed->sim, resumed->stepper, resumed->ws);
      EXPECT_EQ(resumed->stepper.now(), pause);
      resumed->stepper.advance();
      EXPECT_EQ(fault_digest(resumed->stepper.finish()), g.digest);
    }
  }
}

// A timeline that fires entirely at cycle 0 is the static fault scenario
// in disguise: no packet exists yet, so the in-flight policy has nothing
// to resolve and the run must be field-identical to set_faults().
TEST(FaultDynamic, CycleZeroTimelineMatchesStaticFaults) {
  const VlFaultSet pattern = grid_fault_pattern(ctx6(), 4);
  FaultTimeline at_zero;
  for (int c : dyn_channels()) {
    at_zero.add_fail(0, c);
  }
  for (Algorithm alg : {Algorithm::deft, Algorithm::mtr, Algorithm::rc}) {
    SCOPED_TRACE(algorithm_name(alg));
    // Under the permanent 4-channel pattern the run must stay below
    // the reduced capacity to drain (same rate as the fail-only golden).
    UniformTraffic dynamic_traffic(ctx6().topo(), 0.01);
    UniformTraffic static_traffic(ctx6().topo(), 0.01);
    const SimResults dynamic =
        run_sim(ctx6(), alg, dynamic_traffic, dyn_knobs(1), {},
                VlStrategy::table, &at_zero, InFlightPolicy::drop);
    const SimResults fixed =
        run_sim(ctx6(), alg, static_traffic, dyn_knobs(1), pattern);
    expect_identical(dynamic, fixed);
  }
}

// The conservation invariant behind the drain condition: once drained,
// every measured packet was either delivered or counted lost.
TEST(FaultDynamic, LostPlusDeliveredAccountsForEveryMeasuredPacket) {
  for (const InFlightPolicy policy :
       {InFlightPolicy::drop, InFlightPolicy::reroute}) {
    for (const bool repair : {false, true}) {
      SCOPED_TRACE(std::string(in_flight_policy_name(policy)) +
                   (repair ? "/fail+repair" : "/fail"));
      const SimResults r =
          run_dyn(Algorithm::deft, repair, policy, 1);
      ASSERT_TRUE(r.drained);
      EXPECT_FALSE(r.deadlock_detected);
      EXPECT_EQ(r.packets_delivered_measured + r.packets_lost_measured,
                r.packets_created_measured);
      EXPECT_GE(r.packets_lost, r.packets_lost_measured);
      EXPECT_LE(r.fault_window_delivered, r.fault_window_created);
    }
  }
}

// The policies must genuinely diverge on the transient scenario: the
// second failure wave catches packets queued at their NIs, which drop
// forfeits and reroute re-prepares. Packets already streaming across a
// dying channel are unsalvageable either way, so reroute's loss count is
// lower but not zero.
TEST(FaultDynamic, ReroutePolicySavesQueuedPacketsThatDropForfeits) {
  const SimResults dropped =
      run_dyn(Algorithm::deft, /*repair=*/true, InFlightPolicy::drop, 1);
  const SimResults rerouted =
      run_dyn(Algorithm::deft, /*repair=*/true, InFlightPolicy::reroute, 1);
  ASSERT_TRUE(dropped.drained);
  ASSERT_TRUE(rerouted.drained);
  EXPECT_LT(rerouted.packets_lost, dropped.packets_lost);
  EXPECT_GT(rerouted.packets_lost, 0u);
  EXPECT_EQ(rerouted.packets_delivered_measured +
                rerouted.packets_lost_measured,
            rerouted.packets_created_measured);
}

}  // namespace
}  // namespace deft
