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
// first: pausing at every cycle boundary changes nothing.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/runner.hpp"
#include "sim/snapshot.hpp"
#include "sim_results_checks.hpp"
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

std::vector<TraceRecord> golden_trace() {
  return record_uniform_trace(ctx4().topo(), 0.03, 1500);
}

struct Run {
  std::unique_ptr<RoutingAlgorithm> algorithm;
  std::unique_ptr<TrafficGenerator> traffic;
  std::unique_ptr<Simulator> sim;
  SimWorkspace ws;
  SimStepper stepper;
};

std::unique_ptr<Run> make_run(const Scenario& s) {
  auto run = std::make_unique<Run>();
  const SimKnobs knobs = golden_knobs();
  VlFaultSet faults;
  if (s.fault_count > 0) {
    faults = grid_fault_pattern(ctx4(), s.fault_count);
  }
  run->algorithm =
      ctx4().make_algorithm(s.algorithm, faults, knobs.num_vcs, s.strategy);
  if (s.trace) {
    run->traffic = std::make_unique<TraceReplayGenerator>(golden_trace());
  } else {
    run->traffic = std::make_unique<UniformTraffic>(ctx4().topo(), 0.02);
  }
  run->sim = std::make_unique<Simulator>(ctx4().topo(), *run->algorithm,
                                         *run->traffic, knobs, faults);
  return run;
}

std::uint64_t straight_digest(const Scenario& s) {
  auto run = make_run(s);
  run->stepper.start(*run->sim, run->ws);
  run->stepper.advance();
  return digest(run->stepper.finish());
}

/// Runs to `pause`, snapshots, and returns the image (the paused run is
/// discarded - the restore must not depend on it surviving).
std::vector<std::uint8_t> snapshot_at(const Scenario& s, Cycle pause) {
  auto run = make_run(s);
  run->stepper.start(*run->sim, run->ws);
  run->stepper.advance(pause);
  return save_snapshot(run->stepper);
}

std::uint64_t resumed_digest(const Scenario& s,
                             const std::vector<std::uint8_t>& image) {
  auto run = make_run(s);
  restore_snapshot(image, *run->sim, run->stepper, run->ws);
  run->stepper.advance();
  return digest(run->stepper.finish());
}

TEST(SimStepper, SingleCycleCapsMatchOneShotRun) {
  // The cap parameter itself: advancing a stepper one cycle at a time
  // must reproduce the uncapped run exactly, including the phase
  // transitions (warmup -> measure -> last measure cycle -> drain) that
  // the capped loop re-dispatches on every advance() call. The timeline
  // input adds a mid-run link failure and repair under reroute: fault
  // surgery is driven off the simulation clock, so its events must land
  // on the same cycles when every cycle is its own advance() call.
  SimKnobs knobs;
  knobs.warmup = 40;
  knobs.measure = 90;
  knobs.drain_max = 800;
  knobs.seed = 11;
  FaultTimeline fail_repair;
  fail_repair.add_transient(ctx4().topo().vl(2).down_vl_channel(), 60, 110);

  const FaultTimeline* const timelines[] = {nullptr, &fail_repair};
  for (const FaultTimeline* timeline : timelines) {
    SCOPED_TRACE(timeline == nullptr ? "no timeline" : "fail + repair");
    const auto alg_ref = ctx4().make_algorithm(Algorithm::deft);
    const auto traffic_ref = make_traffic(ctx4().topo(), "uniform", 0.02);
    Simulator ref(ctx4().topo(), *alg_ref, *traffic_ref, knobs, {}, timeline,
                  InFlightPolicy::reroute);
    const SimResults expected = ref.run();
    if (timeline != nullptr) {
      EXPECT_GT(expected.fault_window_created, 0u);
    }

    const auto alg_step = ctx4().make_algorithm(Algorithm::deft);
    const auto traffic_step = make_traffic(ctx4().topo(), "uniform", 0.02);
    Simulator sim(ctx4().topo(), *alg_step, *traffic_step, knobs, {},
                  timeline, InFlightPolicy::reroute);
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
  // a round trip).
  for (const Scenario& s : {kScenarios[2], kScenarios[4], kScenarios[6]}) {
    SCOPED_TRACE(s.name);
    const std::vector<std::uint8_t> image = snapshot_at(s, 777);
    auto run = make_run(s);
    restore_snapshot(image, *run->sim, run->stepper, run->ws);
    EXPECT_EQ(save_snapshot(run->stepper), image);
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
  // The stepper is always serial, and the sharded core pins its results
  // to the serial loop's bit for bit, so a serial snapshot resumes a
  // sharded run exactly. Assert the whole chain: restore at two interior
  // cycles, finish, and match the digest of shard-2 and shard-4 runs of
  // the same configuration directly.
  const Scenario& s = kScenarios[5];
  const VlFaultSet faults = grid_fault_pattern(ctx4(), s.fault_count);
  for (const Cycle pause : {Cycle{650}, Cycle{1111}}) {
    SCOPED_TRACE(pause);
    const std::uint64_t resumed =
        resumed_digest(s, snapshot_at(s, pause));
    for (int shards : {2, 4}) {
      SCOPED_TRACE(shards);
      SimKnobs knobs = golden_knobs();
      knobs.shards = shards;
      UniformTraffic traffic(ctx4().topo(), 0.02);
      const SimResults sharded = run_sim(ctx4(), s.algorithm, traffic,
                                         knobs, faults, s.strategy);
      EXPECT_EQ(digest(sharded), resumed);
    }
  }
}

TEST(Snapshot, CounterRngStreamStateRoundTrips) {
  // Counter mode adds per-NI route-stream draw counters to the image
  // (format v2): a mid-run restore must resume every NI's stream at the
  // exact draw it was paused on. deft_random is the one configuration
  // that consumes those streams, and its counter-mode golden is pinned
  // by test_sim_sharded.cpp - the digest must survive the round trip.
  const Scenario& s = kScenarios[2];
  ASSERT_STREQ(s.name, "deft_random");
  SimKnobs knobs = golden_knobs();
  knobs.rng_mode = RngMode::counter;
  // (`Run` unqualified inside a TEST body names testing::Test::Run.)
  using SnapshotRun = deft::Run;
  const auto make = [&] {
    auto run = std::make_unique<SnapshotRun>();
    run->algorithm =
        ctx4().make_algorithm(s.algorithm, {}, knobs.num_vcs, s.strategy);
    run->traffic = std::make_unique<UniformTraffic>(ctx4().topo(), 0.02);
    run->sim = std::make_unique<Simulator>(ctx4().topo(), *run->algorithm,
                                           *run->traffic, knobs, VlFaultSet{});
    return run;
  };
  auto straight = make();
  straight->stepper.start(*straight->sim, straight->ws);
  straight->stepper.advance();
  const std::uint64_t expected = digest(straight->stepper.finish());
  EXPECT_EQ(expected, 0x0df1a74aafdcf75bULL);

  for (const Cycle pause : {Cycle{137}, Cycle{1250}}) {
    SCOPED_TRACE(pause);
    auto paused = make();
    paused->stepper.start(*paused->sim, paused->ws);
    paused->stepper.advance(pause);
    const std::vector<std::uint8_t> image = save_snapshot(paused->stepper);
    auto resumed = make();
    restore_snapshot(image, *resumed->sim, resumed->stepper, resumed->ws);
    resumed->stepper.advance();
    EXPECT_EQ(digest(resumed->stepper.finish()), expected);
  }

  // rng_mode is part of the configuration fingerprint: the serial-mode
  // image of the same scenario is a different run and must be rejected.
  const std::vector<std::uint8_t> serial_image = snapshot_at(s, 600);
  auto counter_run = make();
  EXPECT_THROW(restore_snapshot(serial_image, *counter_run->sim,
                                counter_run->stepper, counter_run->ws),
               SnapshotError);
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
  std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  image[8] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
  auto run = make_run(kScenarios[0]);
  try {
    restore_snapshot(image, *run->sim, run->stepper, run->ws);
    FAIL() << "version-mismatched image restored";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
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
