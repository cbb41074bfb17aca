// Deterministic checkpoint/restore (sim/snapshot.hpp).
//
// The contract under test: pausing a stepped run at any interior cycle,
// serializing it, and restoring the image into a fresh Simulator +
// SimWorkspace continues the run bit-identically - the golden digests
// pinned by test_sim_equivalence.cpp must survive a snapshot at any
// boundary. The negative half of the contract matters as much: a
// corrupt, truncated, version-mismatched or wrong-configuration image
// must be rejected with a SnapshotError, never restored into a silently
// wrong result. Snapshots rest on the stepper's own guarantee, pinned
// first: pausing at every cycle boundary changes nothing, at any shard
// count. The image bytes are pinned too, since a checkpoint written before
// an upgrade must restore after it, and they are the same at every shard
// count, since an image restores at any other.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "app_traffic.hpp"
#include "core/runner.hpp"
#include "sim/snapshot.hpp"
#include "sim_results_checks.hpp"
#include "snapshot_image.hpp"
#include "traffic/trace.hpp"

namespace deft {
namespace {

SimKnobs golden_knobs() {
  SimKnobs k;
  k.warmup = 500;
  k.measure = 1500;
  k.drain_max = 3000;
  k.seed = 7;
  return k;
}

const ExperimentContext& ctx4() {
  static const ExperimentContext ctx = ExperimentContext::reference(4);
  return ctx;
}

/// One snapshotable scenario: fresh algorithm + traffic instances per
/// run (both hold per-run stream state).
struct Scenario {
  const char* name;
  Algorithm algorithm;
  VlStrategy strategy = VlStrategy::table;
  int fault_count = 0;
  bool trace = false;
  std::uint64_t expected_digest = 0;  ///< 0 = derive from straight run
  RngMode rng_mode = RngMode::serial;
  /// Two vertical channels fail inside the measurement window (cycles 700
  /// and 900) and are repaired at 1400, under the reroute policy.
  bool fail_repair = false;
  /// Application traffic (app_traffic.hpp) instead of uniform traffic.
  const AppGolden* application = nullptr;
  double uniform_rate = 0.02;
};

// The six golden configurations of test_sim_equivalence.cpp (uniform
// traffic at 0.02, golden knobs, seed 7) plus two trace-replay configs
// (cursor stream state) - digests pinned there, repeated here so a
// snapshot regression reads as "the golden digest broke".
const Scenario kScenarios[] = {
    {"deft_table", Algorithm::deft, VlStrategy::table, 0, false,
     0xaeb4ff9aedc7445eULL},
    {"deft_distance", Algorithm::deft, VlStrategy::distance, 0, false,
     0xaeb4ff9aedc7445eULL},
    {"deft_random", Algorithm::deft, VlStrategy::random, 0, false,
     0x0112fd2b81d6daf1ULL},
    {"mtr", Algorithm::mtr, VlStrategy::table, 0, false,
     0x336aabf23e3f7c66ULL},
    {"rc", Algorithm::rc, VlStrategy::table, 0, false,
     0x38e4d1328d56a047ULL},
    {"deft_table_f4", Algorithm::deft, VlStrategy::table, 4, false,
     0x9efd33fa70237ed8ULL},
    {"trace_deft_f0", Algorithm::deft, VlStrategy::table, 0, true,
     0xf03ff11403a277d5ULL},
    {"trace_mtr_f2", Algorithm::mtr, VlStrategy::table, 2, true,
     0xd48e63dd7ca05101ULL},
};

// deft_random in counter RNG mode: the one configuration whose per-NI
// route streams carry draws (format v2). Its digest is pinned by
// test_sim_sharded.cpp.
const Scenario kCounterRandom = {"deft_random_counter", Algorithm::deft,
                                 VlStrategy::random, 0, false,
                                 0x0df1a74aafdcf75bULL, RngMode::counter};

// Dynamic faults: the surgeon's cursor, fault-window intervals and
// affected-route plane, and the algorithm's rebuilt tables.
const Scenario kFailRepair = {"deft_fail_repair", Algorithm::deft,
                              VlStrategy::table, 0, false, 0,
                              RngMode::serial, true};

// Application traffic: burst flags in the generator's stream words, reply
// FIFOs and own-event cycles in the NI records, reply wake-ups in the heap.
const Scenario kApplication = {"bl_application", Algorithm::deft,
                               VlStrategy::table, 0, false, kBlDigest,
                               RngMode::serial, false, &kAppGoldens[0]};
const Scenario kStFl = {"st_fl_application", Algorithm::deft,
                        VlStrategy::table, 0, false, kStFlDigest,
                        RngMode::serial, false, &kAppGoldens[1]};

std::unique_ptr<TrafficGenerator> application_traffic() {
  return std::make_unique<AppTrafficGenerator>(bl_traffic(ctx4().topo()));
}

const std::vector<TraceRecord>& golden_trace() {
  static const std::vector<TraceRecord> trace =
      record_uniform_trace(ctx4().topo(), 0.03, 1500);
  return trace;
}

/// One run of a scenario. The configuration is kept beside the
/// Simulator so that a fresh one can be built over the same instances.
struct Run {
  SimKnobs knobs;
  VlFaultSet faults;
  FaultTimeline timeline;  ///< must outlive the Simulator
  InFlightPolicy policy = InFlightPolicy::drop;
  std::unique_ptr<RoutingAlgorithm> algorithm;
  std::unique_ptr<TrafficGenerator> traffic;
  std::unique_ptr<Simulator> sim;
  SimWorkspace ws;
  SimStepper stepper;
};

std::unique_ptr<Simulator> make_sim(Run& run) {
  return std::make_unique<Simulator>(
      ctx4().topo(), *run.algorithm, *run.traffic, run.knobs, run.faults,
      run.timeline.empty() ? nullptr : &run.timeline, run.policy);
}

std::unique_ptr<Run> make_run(const Scenario& s, int shards = 1) {
  auto run = std::make_unique<Run>();
  run->knobs = golden_knobs();
  run->knobs.rng_mode = s.rng_mode;
  run->knobs.shards = shards;
  if (s.fault_count > 0) {
    run->faults = grid_fault_pattern(ctx4(), s.fault_count);
  }
  if (s.fail_repair) {
    run->timeline.add_transient(ctx4().topo().vl(2).down_vl_channel(), 700,
                                1400);
    run->timeline.add_transient(ctx4().topo().vl(6).up_vl_channel(), 900,
                                1400);
    run->policy = InFlightPolicy::reroute;
  }
  run->algorithm = ctx4().make_algorithm(s.algorithm, run->faults,
                                         run->knobs.num_vcs, s.strategy);
  if (s.trace) {
    run->traffic = std::make_unique<TraceReplayGenerator>(golden_trace());
  } else if (s.application != nullptr) {
    run->traffic = std::make_unique<AppTrafficGenerator>(
        s.application->make(ctx4().topo()));
  } else {
    run->traffic =
        std::make_unique<UniformTraffic>(ctx4().topo(), s.uniform_rate);
  }
  run->sim = make_sim(*run);
  return run;
}

std::uint64_t straight_digest(const Scenario& s) {
  auto run = make_run(s);
  run->stepper.start(*run->sim, run->ws);
  run->stepper.advance();
  return digest(run->stepper.finish());
}

/// Runs to `pause` at `shards` shards, snapshots, and returns the image
/// (the paused run is discarded - the restore must not depend on it
/// surviving).
std::vector<std::uint8_t> snapshot_at(const Scenario& s, Cycle pause,
                                      int shards = 1) {
  auto run = make_run(s, shards);
  run->stepper.start(*run->sim, run->ws);
  run->stepper.advance(pause);
  return save_snapshot(run->stepper);
}

std::uint64_t resumed_digest(const Scenario& s,
                             const std::vector<std::uint8_t>& image,
                             int shards = 1) {
  auto run = make_run(s, shards);
  restore_snapshot(image, *run->sim, run->stepper, run->ws);
  run->stepper.advance();
  return digest(run->stepper.finish());
}

TEST(SimStepper, SingleCycleCapsMatchOneShotRun) {
  // The cap parameter itself: advancing a stepper one cycle at a time
  // must reproduce the uncapped run exactly, including the phase
  // transitions (warmup -> measure -> last measure cycle -> drain) that
  // the capped loop re-dispatches on every advance() call - inline at one
  // shard, and through the worker loop at two and four, where every cap
  // ends a dispatch to the shard workers. Each input carries different
  // state across the pause:
  //   - a mid-run link failure and repair under reroute: fault surgery is
  //     driven off the simulation clock, so its events must land on the
  //     same cycles when every cycle is its own advance() call;
  //   - RC: staged permission requests and busy-unit deltas;
  //   - BL application traffic: replies queued at their responders' NIs
  //     and the wake-ups that fire them;
  //   - counter-mode deft_random: the cap skips the next cycle's injection
  //     draw and its route preparation.
  SimKnobs knobs;
  knobs.warmup = 40;
  knobs.measure = 90;
  knobs.drain_max = 800;
  knobs.seed = 11;
  FaultTimeline fail_repair;
  fail_repair.add_transient(ctx4().topo().vl(2).down_vl_channel(), 60, 110);

  struct CapCase {
    const char* name;
    Algorithm algorithm;
    VlStrategy strategy;
    bool application;  ///< BL application traffic instead of uniform 0.02
    RngMode rng_mode;
    const FaultTimeline* timeline;
  };
  const CapCase cases[] = {
      {"deft", Algorithm::deft, VlStrategy::table, false, RngMode::serial,
       nullptr},
      {"deft fail + repair", Algorithm::deft, VlStrategy::table, false,
       RngMode::serial, &fail_repair},
      {"rc", Algorithm::rc, VlStrategy::table, false, RngMode::serial,
       nullptr},
      {"bl application", Algorithm::deft, VlStrategy::table, true,
       RngMode::serial, nullptr},
      {"deft_random counter", Algorithm::deft, VlStrategy::random, false,
       RngMode::counter, nullptr},
  };
  const auto make_traffic_for = [](const CapCase& c) {
    return c.application ? application_traffic()
                         : make_traffic(ctx4().topo(), "uniform", 0.02);
  };
  for (const CapCase& c : cases) {
    for (const int shards : {1, 2, 4}) {
      SCOPED_TRACE(::testing::Message() << c.name << " at " << shards
                                        << " shards");
      SimKnobs k = knobs;
      k.rng_mode = c.rng_mode;
      k.shards = shards;
      const auto alg_ref = ctx4().make_algorithm(c.algorithm, {}, k.num_vcs,
                                                 c.strategy);
      const auto traffic_ref = make_traffic_for(c);
      Simulator ref(ctx4().topo(), *alg_ref, *traffic_ref, k, {}, c.timeline,
                    InFlightPolicy::reroute);
      const SimResults expected = ref.run();
      EXPECT_GT(expected.packets_created, 0u);
      if (c.timeline != nullptr) {
        EXPECT_GT(expected.fault_window_created, 0u);
      }

      const auto alg_step = ctx4().make_algorithm(c.algorithm, {},
                                                  k.num_vcs, c.strategy);
      const auto traffic_step = make_traffic_for(c);
      Simulator sim(ctx4().topo(), *alg_step, *traffic_step, k, {},
                    c.timeline, InFlightPolicy::reroute);
      SimWorkspace ws;
      SimStepper stepper;
      stepper.start(sim, ws);
      Cycle cap = 1;
      while (!stepper.advance(cap)) {
        ++cap;
      }
      expect_identical(stepper.finish(), expected);
    }
  }
}

TEST(Snapshot, RoundTripReproducesGoldenDigests) {
  // Interior pause points across all three phases (warmup ends at 500,
  // the measurement window at 2000): golden digests must survive a
  // snapshot at any of them.
  const Cycle pauses[] = {137, 500, 1250, 1999};
  for (const Scenario& s : kScenarios) {
    SCOPED_TRACE(s.name);
    const std::uint64_t expected =
        s.expected_digest != 0 ? s.expected_digest : straight_digest(s);
    for (const Cycle pause : pauses) {
      SCOPED_TRACE(pause);
      const std::vector<std::uint8_t> image = snapshot_at(s, pause);
      EXPECT_EQ(resumed_digest(s, image), expected);
    }
  }
}

TEST(Snapshot, ApplicationTrafficRestoresBitIdentically) {
  // The generator's burst flags, the NIs' reply FIFOs and own-event
  // cycles, and the reply wake-ups in the heap are all in the image, so a
  // paused application run resumes exactly. (Before format v3 the burst
  // flags and the reply queues stayed outside the image, and each of
  // these restores finished with different packet counts and flit hops.)
  for (const Scenario* s : {&kApplication, &kStFl}) {
    SCOPED_TRACE(s->name);
    auto straight = make_run(*s);
    straight->stepper.start(*straight->sim, straight->ws);
    straight->stepper.advance();
    const SimResults& expected = straight->stepper.finish();
    EXPECT_EQ(digest(expected), s->expected_digest);
    for (const Cycle pause : {Cycle{300}, Cycle{700}, Cycle{1200}}) {
      SCOPED_TRACE(pause);
      auto resumed = make_run(*s);
      restore_snapshot(snapshot_at(*s, pause), *resumed->sim,
                       resumed->stepper, resumed->ws);
      resumed->stepper.advance();
      expect_identical(resumed->stepper.finish(), expected);
    }
  }
}

TEST(Snapshot, RestoredRunResumesAtThePausedCycle) {
  const Scenario& s = kScenarios[0];
  const std::vector<std::uint8_t> image = snapshot_at(s, 1250);
  auto run = make_run(s);
  restore_snapshot(image, *run->sim, run->stepper, run->ws);
  EXPECT_EQ(run->stepper.now(), 1250);
  EXPECT_FALSE(run->stepper.done());
}

TEST(Snapshot, SaveAfterRestoreIsByteIdentical) {
  // Stronger than digest equality: re-serializing a restored run must
  // reproduce the image byte for byte (no state is lost or reordered by
  // a round trip), also when the restore spreads the run over four
  // shards.
  for (const Scenario& s : {kScenarios[2], kScenarios[4], kScenarios[6]}) {
    const std::vector<std::uint8_t> image = snapshot_at(s, 777);
    for (const int shards : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << s.name << " restored at "
                                        << shards << " shards");
      auto run = make_run(s, shards);
      restore_snapshot(image, *run->sim, run->stepper, run->ws);
      EXPECT_EQ(save_snapshot(run->stepper), image);
    }
  }
}

TEST(Snapshot, RepeatedSnapshotsAlongOneRunAgree) {
  // Snapshot-restore-snapshot-restore along one run: each leg must land
  // on the same final digest (checkpoints compose).
  const Scenario& s = kScenarios[5];
  const std::vector<std::uint8_t> first = snapshot_at(s, 400);
  auto mid = make_run(s);
  restore_snapshot(first, *mid->sim, mid->stepper, mid->ws);
  mid->stepper.advance(1600);
  const std::vector<std::uint8_t> second = save_snapshot(mid->stepper);
  EXPECT_EQ(resumed_digest(s, second), s.expected_digest);
}

TEST(Snapshot, RestoredRunsMatchShardedExecution) {
  // An image holds no execution shape, so a run paused at one shard count
  // resumes at any other: pause at two and at four shards, at two interior
  // cycles, and restore each image at one, two and four shards. Every
  // resumed run must finish on the golden digest.
  const Scenario& s = kScenarios[5];
  for (const Cycle pause : {Cycle{650}, Cycle{1111}}) {
    for (const int saved_at : {2, 4}) {
      const std::vector<std::uint8_t> image = snapshot_at(s, pause, saved_at);
      for (const int restored_at : {1, 2, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << "paused at " << pause << " on " << saved_at
                     << " shards, restored on " << restored_at);
        EXPECT_EQ(resumed_digest(s, image, restored_at), s.expected_digest);
      }
    }
  }
}

TEST(Snapshot, GridRunPausedAtFourShardsRestoresAtOneAndTwo) {
  // SimShardedCounter.SixtyFourChipletGridMatchesSerial's configuration
  // (2,048 routers, counter-mode DeFT-Random), paused mid-measure at four
  // shards: restored at one shard and at two, it finishes on that test's
  // pinned digest.
  static const ExperimentContext ctx(make_grid_spec(8, 8, 4, 4));
  SimKnobs knobs;
  knobs.warmup = 100;
  knobs.measure = 300;
  knobs.drain_max = 1500;
  knobs.seed = 11;
  knobs.rng_mode = RngMode::counter;
  struct GridRun {
    std::unique_ptr<RoutingAlgorithm> algorithm;
    UniformTraffic traffic;
    Simulator sim;
    SimWorkspace ws;
    SimStepper stepper;
    GridRun(const SimKnobs& k, int shards)
        : algorithm(ctx.make_algorithm(Algorithm::deft, {}, k.num_vcs,
                                       VlStrategy::random)),
          traffic(ctx.topo(), 0.003),
          sim(ctx.topo(), *algorithm, traffic, with_shards(k, shards)) {}
    static SimKnobs with_shards(SimKnobs k, int shards) {
      k.shards = shards;
      return k;
    }
  };
  GridRun paused(knobs, 4);
  paused.stepper.start(paused.sim, paused.ws);
  paused.stepper.advance(250);
  const std::vector<std::uint8_t> image = save_snapshot(paused.stepper);
  for (const int shards : {1, 2}) {
    SCOPED_TRACE(shards);
    GridRun resumed(knobs, shards);
    restore_snapshot(image, resumed.sim, resumed.stepper, resumed.ws);
    EXPECT_EQ(resumed.stepper.now(), 250);
    resumed.stepper.advance();
    const std::uint64_t d = digest(resumed.stepper.finish());
    EXPECT_EQ(d, 0x44a5156fc77341afULL) << "0x" << std::hex << d;
  }
}

TEST(Snapshot, CounterRngStreamStateRoundTrips) {
  // Counter mode adds per-NI route-stream draw counters to the image
  // (format v2): a mid-run restore must resume every NI's stream at the
  // exact draw it was paused on. deft_random is the one configuration
  // that consumes those streams - its counter-mode golden must survive
  // the round trip.
  const Scenario& s = kCounterRandom;
  EXPECT_EQ(straight_digest(s), s.expected_digest);
  for (const Cycle pause : {Cycle{137}, Cycle{1250}}) {
    SCOPED_TRACE(pause);
    EXPECT_EQ(resumed_digest(s, snapshot_at(s, pause)), s.expected_digest);
  }

  // rng_mode is part of the configuration fingerprint: the serial-mode
  // image of the same scenario is a different run and must be rejected.
  const std::vector<std::uint8_t> serial_image =
      snapshot_at(kScenarios[2], 600);
  auto counter_run = make_run(s);
  EXPECT_THROW(restore_snapshot(serial_image, *counter_run->sim,
                                counter_run->stepper, counter_run->ws),
               SnapshotError);
}

TEST(Snapshot, ImageBytesArePinned) {
  // The image format is a contract across builds: a checkpoint written
  // before an upgrade must restore after it. Each case reaches a section
  // the golden digests only see indirectly - RC units, trace cursors,
  // per-NI counter-stream draws, the fault surgeon mid-window, reply
  // FIFOs and burst flags. Each is saved at one, two and four shards and
  // must give the same bytes: no execution shape is left in the image. A
  // failure here means the image changed: bump kSnapshotVersion and
  // re-pin. Last re-pinned for format v4.
  struct Pin {
    const Scenario* scenario;
    Cycle pause;
    std::size_t size;
    std::uint64_t fnv;
  };
  const Pin pins[] = {
      {&kScenarios[4], 777, 112464, 0x0c3f89cc0f9df069ULL},
      {&kScenarios[7], 777, 146653, 0xc01b526766b70720ULL},
      {&kCounterRandom, 1250, 149474, 0x29d80dfb7ad8a45fULL},
      {&kFailRepair, 1000, 129853, 0xcc3f71ebc7f81646ULL},
      {&kApplication, 777, 69553, 0x47fec7be87490071ULL},
  };
  for (const Pin& pin : pins) {
    for (const int shards : {1, 2, 4}) {
      SCOPED_TRACE(::testing::Message() << pin.scenario->name << " at "
                                        << shards << " shards");
      const std::vector<std::uint8_t> image =
          snapshot_at(*pin.scenario, pin.pause, shards);
      const std::uint64_t fnv = snapshot_fnv1a(image.data(), image.size());
      EXPECT_EQ(image.size(), pin.size);
      EXPECT_EQ(fnv, pin.fnv) << "0x" << std::hex << fnv;
    }
  }
}

TEST(Snapshot, TruncatedPayloadIsRejectedAtEveryCut) {
  // Each cut is re-sealed (length and checksum rewritten), so the header
  // checks pass and the restore walk's own bounded reads must catch the
  // missing bytes - at every byte of both ends of the payload and about
  // every 100th byte in between.
  for (const Scenario* s :
       {&kScenarios[4], &kScenarios[7], &kFailRepair, &kApplication}) {
    SCOPED_TRACE(s->name);
    const std::vector<std::uint8_t> image = snapshot_at(*s, 777);
    // A failed restore spends its Simulator, so each cut gets a fresh one.
    // The algorithm, traffic and workspace are shared: every cut must
    // fail, whatever an earlier partial restore left in them.
    auto shared = make_run(*s);
    const std::size_t payload = image.size() - kSnapshotPayloadOffset;
    const auto next_cut = [payload](std::size_t cut) {
      return cut < 512 || cut + 512 >= payload
                 ? cut + 1
                 : std::min(cut + 97, payload - 512);
    };
    for (std::size_t cut = 0; cut < payload; cut = next_cut(cut)) {
      std::vector<std::uint8_t> truncated(
          image.begin(),
          image.begin() + static_cast<std::ptrdiff_t>(
                              kSnapshotPayloadOffset + cut));
      reseal(truncated);
      const std::unique_ptr<Simulator> sim = make_sim(*shared);
      SimStepper stepper;
      EXPECT_THROW(restore_snapshot(truncated, *sim, stepper, shared->ws),
                   SnapshotError)
          << "cut at payload byte " << cut;
    }
  }
}

TEST(Snapshot, StreamHookFailureIsASnapshotError) {
  // A checksum-valid image whose DeFT stream holds three words instead of
  // four: the algorithm's loader rejects it, and restore_snapshot() must
  // report that as SnapshotError - the only error a campaign catches
  // before restarting the run from cycle 0.
  std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  const std::size_t at = algorithm_stream_count_offset(image);
  ASSERT_EQ(image_u64(image, at), 4u);
  set_image_u64(image, at, 3);
  reseal(image);
  auto run = make_run(kScenarios[0]);
  try {
    restore_snapshot(image, *run->sim, run->stepper, run->ws);
    FAIL() << "short stream state restored";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("DeFT stream state underflow"),
              std::string::npos)
        << e.what();
  }
}

/// `image` with the 8-byte field at `at` set to `v`, resealed.
std::vector<std::uint8_t> with_u64(std::vector<std::uint8_t> image,
                                   std::size_t at, std::uint64_t v) {
  set_image_u64(image, at, v);
  reseal(image);
  return image;
}

/// The diagnostic restoring `image` into a fresh run of `s` raises, or ""
/// when the image restores.
std::string restore_error(const Scenario& s,
                          const std::vector<std::uint8_t>& image) {
  auto run = make_run(s);
  try {
    restore_snapshot(image, *run->sim, run->stepper, run->ws);
  } catch (const SnapshotError& e) {
    return e.what();
  }
  return "";
}

TEST(Snapshot, FaultSetPastTheTopologyIsRejected) {
  // The surgeon's section opens with its cursor and the fault set's 32
  // words; the last word's top bit is channel 2047.
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  const std::size_t last_word = surgeon_offset(image) + 8 + 31 * 8;
  ASSERT_EQ(image_u64(image, last_word), 0u);
  EXPECT_NE(restore_error(kScenarios[0],
                          with_u64(image, last_word, std::uint64_t{1} << 63))
                .find("fault set names VL channel 2047 of 32"),
            std::string::npos);
}

// The cycle indexes NIs by every pending event, so restore must admit
// only events the run itself could hold. Each edited image below is
// checksum-valid.

TEST(Snapshot, InjectionEventNamingAMissingNiIsRejected) {
  // Such an image used to restore; the first advance() then set a wake bit
  // far out of bounds.
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  const std::size_t at = events_offset(image);
  const std::uint64_t events = image_u64(image, at);
  ASSERT_GT(events, 0u);
  const std::size_t last_ni = at + 16 * events;
  EXPECT_NE(restore_error(kScenarios[0], with_u64(image, last_ni, 100000))
                .find("names NI 100000"),
            std::string::npos);
}

TEST(Snapshot, InjectionEventBeforeThePausedCycleIsRejected) {
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  const std::size_t at = events_offset(image);
  const std::uint64_t events = image_u64(image, at);
  ASSERT_GT(events, 0u);
  const std::size_t last_cycle = at + 16 * events - 8;
  EXPECT_NE(restore_error(kScenarios[0], with_u64(image, last_cycle, 599))
                .find("precedes the paused cycle 600"),
            std::string::npos);
}

// The NI records name the destinations of the packets the next cycles
// create (pre-drawn requests and queued replies), and their cycles must
// not be overdue. The application image paused at 700 holds both.

/// The first NI record in `image` whose `count_at` field is non-zero.
std::size_t first_ni_with(const std::vector<std::uint8_t>& image,
                          std::size_t NiRecord::*count_at) {
  for (const NiRecord& ni : ni_records(image)) {
    if (image_u64(image, ni.*count_at) > 0) {
      return ni.*count_at;
    }
  }
  throw std::runtime_error("no NI record holds such an entry");
}

TEST(Snapshot, RequestOrReplyNamingANonEndpointIsRejected) {
  // Packet creation indexes the topology by these ids unchecked; before
  // this check an image naming node 100000 restored. Node 1 is an
  // interposer router without an endpoint.
  const std::vector<std::uint8_t> image = snapshot_at(kApplication, 700);
  ASSERT_EQ(restore_error(kApplication, image), "");
  const std::size_t request = first_ni_with(image, &NiRecord::drawn) + 8;
  const std::size_t reply = first_ni_with(image, &NiRecord::replies) + 16;
  for (const std::uint32_t node : {100000u, 1u}) {
    SCOPED_TRACE(node);
    std::vector<std::uint8_t> edited = image;
    set_image_u32(edited, request, node);
    reseal(edited);
    EXPECT_NE(restore_error(kApplication, edited)
                  .find("pre-drawn request names node " +
                        std::to_string(node) + ", not an endpoint"),
              std::string::npos);
    edited = image;
    set_image_u32(edited, reply, node);
    reseal(edited);
    EXPECT_NE(restore_error(kApplication, edited)
                  .find("queued reply names node " + std::to_string(node) +
                        ", not an endpoint"),
              std::string::npos);
  }
}

TEST(Snapshot, QueuedReplyDueBeforeThePausedCycleIsRejected) {
  const std::vector<std::uint8_t> image = snapshot_at(kApplication, 700);
  const std::size_t due = first_ni_with(image, &NiRecord::replies) + 8;
  EXPECT_NE(restore_error(kApplication, with_u64(image, due, 699))
                .find("queued reply due at cycle 699 precedes the paused "
                      "cycle 700"),
            std::string::npos);
}

TEST(Snapshot, InjectionCycleBeforeThePausedCycleIsRejected) {
  // An own event in the past would never fire again, and front() would
  // never re-arm the NI.
  const std::vector<std::uint8_t> image = snapshot_at(kApplication, 700);
  const std::size_t at = ni_records(image).front().injection_at;
  EXPECT_NE(restore_error(kApplication, with_u64(image, at, 699))
                .find("NI injection event at cycle 699 precedes the paused "
                      "cycle 700"),
            std::string::npos);
}

TEST(Snapshot, BurstFlagsOfAnotherShapeAreRejected) {
  // The application generator's stream words: one 0/1 burst flag per
  // node. One word too few, one too many (the walk then reads the next
  // field's first word as a flag), and a flag of 2 are all rejected.
  const std::vector<std::uint8_t> image = snapshot_at(kApplication, 700);
  const std::size_t words = traffic_stream_count_offset(image);
  const auto nodes = static_cast<std::uint64_t>(ctx4().topo().num_nodes());
  ASSERT_EQ(image_u64(image, words), nodes);
  EXPECT_NE(restore_error(kApplication, with_u64(image, words, nodes - 1))
                .find("too few burst flags"),
            std::string::npos);
  EXPECT_NE(restore_error(kApplication, with_u64(image, words, nodes + 1))
                .find("traffic stream state not fully consumed"),
            std::string::npos);
  EXPECT_NE(restore_error(kApplication, with_u64(image, words + 8, 2))
                .find("burst flag is neither 0 nor 1"),
            std::string::npos);
}

// The cycle also indexes router state: occupancy bits name lanes (and
// put a router on its shard's worklist), owned bits name owner (port, VC)
// pairs, and route decisions and allocated VCs index per-port and per-VC
// arrays. Each edit below is made on an image paused
// at cycle 1, before the first packet, where the packet table is empty
// and every router record has its fixed empty size, and is resealed.
// Before these checks each edited image restored, and the first
// advance() indexed out of bounds.

/// `image` with the byte at `at` set to `v`, resealed.
std::vector<std::uint8_t> with_byte(std::vector<std::uint8_t> image,
                                    std::size_t at, std::uint8_t v) {
  image.at(at) = v;
  reseal(image);
  return image;
}

/// Offset of router `node`'s record in an empty-network image.
std::size_t router_record(const std::vector<std::uint8_t>& image,
                          std::size_t node) {
  return first_router_record(image) + node * kEmptyRouterBytes;
}

/// `image` with one flit (packet 0, a head-and-tail flit) buffered in
/// router `node`'s `lane` and the lane's occupancy bit set, resealed.
std::vector<std::uint8_t> with_buffered_flit(std::vector<std::uint8_t> image,
                                             std::size_t node, int lane) {
  const std::size_t record = router_record(image, node);
  const std::size_t occupancy = record + kRouterOccupancy;
  set_image_u64(image, occupancy,
                image_u64(image, occupancy) | std::uint64_t{1} << lane);
  const std::size_t count = record + static_cast<std::size_t>(lane);
  image.at(count) = 1;
  const std::uint8_t flit[kFlitBytes] = {0, 0, 0, 0, 0, 0,
                                         kFlitHead | kFlitTail};
  image.insert(image.begin() + static_cast<std::ptrdiff_t>(count + 1), flit,
               flit + kFlitBytes);
  reseal(image);
  return image;
}

TEST(Snapshot, OccupancyBitDisagreeingWithItsLaneIsRejected) {
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 1);
  const std::size_t occupancy = router_record(image, 5) + kRouterOccupancy;
  // An empty lane marked occupied, and a bit past the 32 lanes.
  for (const int bit : {4, 40}) {
    SCOPED_TRACE(bit);
    EXPECT_NE(restore_error(kScenarios[0],
                            with_u64(image, occupancy, std::uint64_t{1}
                                                           << bit))
                  .find("occupancy disagrees with its lane fill counts"),
              std::string::npos);
  }
  // A flit on VC 3 of a two-VC network: its credit return would index
  // the next router's credits.
  EXPECT_NE(restore_error(kScenarios[0], with_buffered_flit(image, 5, 3))
                .find("buffers flits on an unconfigured VC"),
            std::string::npos);
}

TEST(Snapshot, OwnedBitWithoutAnOwnerIsRejected) {
  // The switch allocator reads used_in[owner_port] for every owned bit.
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 1);
  const std::size_t owned = router_record(image, 5) + kRouterOwned;
  EXPECT_NE(restore_error(kScenarios[0], with_byte(image, owned, 0x10))
                .find("owned-output bit disagrees with its owner"),
            std::string::npos);
}

TEST(Snapshot, OutputVcOwnerOutOfRangeIsRejected) {
  // Output lane 4 (east, VC 0) owned by input (port, VC) pairs the router
  // does not have.
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 1);
  const std::size_t record = router_record(image, 5);
  const std::size_t owner = record + kRouterOutputVcs + 4 * 4;
  const std::vector<std::uint8_t> owned =
      with_byte(image, record + kRouterOwned, 0x10);
  const std::pair<std::uint8_t, std::uint8_t> owners[] = {
      {9, 0}, {1, 2}, {1, 0xff}};
  for (const auto& [port, vc] : owners) {
    SCOPED_TRACE(::testing::Message() << int{port} << "/" << int{vc});
    std::vector<std::uint8_t> edited = owned;
    edited.at(owner) = port;
    edited.at(owner + 1) = vc;
    reseal(edited);
    EXPECT_NE(restore_error(kScenarios[0], edited)
                  .find("output VC owner out of range"),
              std::string::npos);
  }
  // An unowned output VC must name no owner at all.
  EXPECT_NE(restore_error(kScenarios[0], with_byte(image, owner + 1, 1))
                .find("output VC owner out of range"),
            std::string::npos);
}

TEST(Snapshot, RouteDecisionPortOutOfRangeIsRejected) {
  // VC allocation indexes the per-port round-robin pointers by it.
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 1);
  const std::size_t port = router_record(image, 5) + kRouterInputVcs + 1;
  EXPECT_NE(restore_error(kScenarios[0], with_byte(image, port, 200))
                .find("route decision names port 200"),
            std::string::npos);
}

TEST(Snapshot, AllocatedOutputVcOutOfRangeIsRejected) {
  // Fault surgery indexes the output VCs by an input VC's allocation.
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 1);
  const std::size_t out_vc = router_record(image, 5) + kRouterInputVcs + 3;
  EXPECT_NE(restore_error(kScenarios[0], with_byte(image, out_vc, 2))
                .find("holds output VC 2 of 2"),
            std::string::npos);
  EXPECT_NE(restore_error(kScenarios[0], with_byte(image, out_vc, 0xfe))
                .find("holds output VC -2 of 2"),
            std::string::npos);
}

// The next cycle indexes the packet table by the packet id of every
// buffered flit (router lanes, RC unit buffers), queued and active NI
// packet, and RC request and grant. Before these checks an image naming
// packet 0x7fffffff restored, and the first advance() read far past the
// table. Only the fields where -1 means "no packet" (an NI's active packet,
// an RC unit's grant) admit it.

/// `image` with the 4-byte field at `at` set to `v`, resealed.
std::vector<std::uint8_t> with_u32(std::vector<std::uint8_t> image,
                                   std::size_t at, std::uint32_t v) {
  set_image_u32(image, at, v);
  reseal(image);
  return image;
}

TEST(Snapshot, RouterLaneNamingAMissingPacketIsRejected) {
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 700);
  const std::size_t flit = first_router_flit(image);
  EXPECT_NE(restore_error(kScenarios[0], with_u32(image, flit, 0x7fffffff))
                .find("router lane names packet 2147483647 of "),
            std::string::npos);
  EXPECT_NE(restore_error(kScenarios[0], with_u32(image, flit, 0xffffffff))
                .find("router lane names packet -1 of "),
            std::string::npos);
}

TEST(Snapshot, NiQueueNamingAMissingPacketIsRejected) {
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 700);
  const std::size_t queued = first_ni_with(image, &NiRecord::queue) + 8;
  EXPECT_NE(restore_error(kScenarios[0], with_u32(image, queued, 0x7fffffff))
                .find("NI queue names packet 2147483647 of "),
            std::string::npos);
  // The active packet follows the queue; -1 is an idle NI.
  std::size_t active = 0;
  for (const NiRecord& ni : ni_records(image)) {
    const std::size_t at = ni.queue + 8 + 4 * image_u64(image, ni.queue);
    if (static_cast<std::uint32_t>(image_u64(image, at)) != 0xffffffffu) {
      active = at;
      break;
    }
  }
  ASSERT_NE(active, 0u) << "no NI holds an active packet";
  EXPECT_NE(restore_error(kScenarios[0], with_u32(image, active, 0x7fffffff))
                .find("NI active packet names packet 2147483647 of "),
            std::string::npos);
  EXPECT_NE(restore_error(kScenarios[0], with_u32(image, active, 0xfffffffe))
                .find("NI active packet names packet -2 of "),
            std::string::npos);
}

TEST(Snapshot, RcUnitNamingAMissingPacketIsRejected) {
  // The RC configuration's units hold requests, a grant and buffered
  // flits at this cycle.
  const Scenario& rc = kScenarios[4];
  const std::vector<std::uint8_t> image = snapshot_at(rc, 700);
  std::size_t request = 0;
  std::size_t grant = 0;
  std::size_t buffered = 0;
  for (const RcUnitRecord& unit : rc_unit_records(image)) {
    if (request == 0 && image_u64(image, unit.requests) > 0) {
      request = unit.requests + 8 + 4;
    }
    if (grant == 0 && image.at(unit.grant) != 0) {
      grant = unit.grant + 5;
    }
    if (buffered == 0 && image_u64(image, unit.buffer) > 0) {
      buffered = unit.buffer + 8;
    }
  }
  ASSERT_NE(request, 0u);
  ASSERT_NE(grant, 0u);
  ASSERT_NE(buffered, 0u);
  EXPECT_NE(restore_error(rc, with_u32(image, request, 0x7fffffff))
                .find("RC unit request names packet 2147483647 of "),
            std::string::npos);
  EXPECT_NE(restore_error(rc, with_u32(image, grant, 0x7fffffff))
                .find("RC unit grant names packet 2147483647 of "),
            std::string::npos);
  EXPECT_NE(restore_error(rc, with_u32(image, buffered, 0x7fffffff))
                .find("RC unit buffer names packet 2147483647 of "),
            std::string::npos);
}

TEST(Snapshot, ApplicationImageIsIndependentOfTheWorkspaceHistory) {
  // A workspace that last ran a saturated run (busy NIs and full reply
  // and event buffers at its end) must write the same image as a fresh
  // one.
  const std::vector<std::uint8_t> fresh = snapshot_at(kApplication, 700);
  auto run = make_run(kApplication);
  {
    SimKnobs knobs;
    knobs.warmup = 50;
    knobs.measure = 200;
    knobs.drain_max = 100;
    const auto algorithm = ctx4().make_algorithm(Algorithm::deft);
    UniformTraffic saturated(ctx4().topo(), 0.3);
    Simulator warm(ctx4().topo(), *algorithm, saturated, knobs);
    EXPECT_FALSE(warm.run(run->ws).drained);
  }
  run->stepper.start(*run->sim, run->ws);
  run->stepper.advance(700);
  EXPECT_EQ(save_snapshot(run->stepper), fresh);
  EXPECT_EQ(restore_error(kApplication, fresh), "");
}

TEST(Snapshot, TruncatedImageIsRejected) {
  std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  image.resize(image.size() - 7);
  auto run = make_run(kScenarios[0]);
  EXPECT_THROW(
      restore_snapshot(image, *run->sim, run->stepper, run->ws),
      SnapshotError);
}

TEST(Snapshot, HeaderOnlyPrefixIsRejected) {
  std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  image.resize(11);
  auto run = make_run(kScenarios[0]);
  EXPECT_THROW(
      restore_snapshot(image, *run->sim, run->stepper, run->ws),
      SnapshotError);
}

TEST(Snapshot, CorruptPayloadIsRejectedByChecksum) {
  std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  image[image.size() / 2] ^= 0x40;
  auto run = make_run(kScenarios[0]);
  try {
    restore_snapshot(image, *run->sim, run->stepper, run->ws);
    FAIL() << "corrupt image restored";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(Snapshot, BadMagicIsRejected) {
  std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  image[0] = 'X';
  auto run = make_run(kScenarios[0]);
  EXPECT_THROW(
      restore_snapshot(image, *run->sim, run->stepper, run->ws),
      SnapshotError);
}

TEST(Snapshot, UnsupportedVersionIsRejected) {
  // A v3 checkpoint (slice 0's NI and router worklists) and one from a
  // future build both fail on the version, before any payload is read -
  // the error a campaign answers by restarting from cycle 0.
  ASSERT_EQ(kSnapshotVersion, 4u);
  for (const std::uint32_t version : {3u, kSnapshotVersion + 1}) {
    SCOPED_TRACE(version);
    std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
    image[8] = static_cast<std::uint8_t>(version);
    EXPECT_NE(restore_error(kScenarios[0], image)
                  .find("unsupported snapshot version " +
                        std::to_string(version) + " (expected 4)"),
              std::string::npos);
  }
}

TEST(Snapshot, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  image.push_back(0xab);
  auto run = make_run(kScenarios[0]);
  EXPECT_THROW(
      restore_snapshot(image, *run->sim, run->stepper, run->ws),
      SnapshotError);
}

TEST(Snapshot, WrongConfigurationIsRejected) {
  // A deft_table image must not restore into an MTR run (or any other
  // configuration): the fingerprint names both sides in the diagnostic.
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  auto run = make_run(kScenarios[3]);
  try {
    restore_snapshot(image, *run->sim, run->stepper, run->ws);
    FAIL() << "cross-configuration image restored";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DeFT"), std::string::npos) << what;
    EXPECT_NE(what.find("MTR"), std::string::npos) << what;
  }
}

TEST(Snapshot, VlStrategyAndTrafficRateAreInTheFingerprint) {
  // Before format v3 this DeFT/table image at uniform 0.02 restored into
  // all three runs below, which then ended at cycles 2,060, 2,129 and
  // 2,999 instead of failing.
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  Scenario faster = kScenarios[0];
  faster.uniform_rate = 0.03;
  for (const Scenario& other : {kScenarios[1], kScenarios[2], faster}) {
    SCOPED_TRACE(other.name);
    EXPECT_NE(restore_error(other, image).find("configuration mismatch"),
              std::string::npos);
  }
}

TEST(Snapshot, ApplicationMixIsInTheFingerprint) {
  // Before format v4 the fingerprint named every mix "application": this
  // ST+FL image restored into the BO+CA run at the same rate scale, which
  // then ended at cycle 2,022 instead of failing.
  const Scenario bo_ca = {"bo_ca_application", Algorithm::deft,
                          VlStrategy::table, 0, false, kBoCaDigest,
                          RngMode::serial, false, &kAppGoldens[2]};
  EXPECT_NE(restore_error(bo_ca, snapshot_at(kStFl, 600))
                .find("configuration mismatch"),
            std::string::npos);
}

TEST(Snapshot, UnstartedStepperCannotBeSaved) {
  SimStepper idle;
  EXPECT_THROW(save_snapshot(idle), SnapshotError);
}

TEST(Snapshot, FileRoundTripPreservesTheImage) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "deft_snapshot_test";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / "run.ckpt";
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 900);
  write_snapshot_file(path, image);
  EXPECT_EQ(read_snapshot_file(path), image);
  // Overwrite goes through the same temp + rename path.
  const std::vector<std::uint8_t> later = snapshot_at(kScenarios[0], 1500);
  write_snapshot_file(path, later);
  EXPECT_EQ(read_snapshot_file(path), later);
  EXPECT_THROW(read_snapshot_file(dir / "missing.ckpt"), SnapshotError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace deft
