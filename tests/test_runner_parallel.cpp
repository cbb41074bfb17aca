// Smoke tests for the multi-threaded sweep runner: grid expansion is
// deterministic, and a parallel run produces SimResults bit-identical to a
// serial run of the same grid for a fixed context seed.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/runner.hpp"
#include "sim_results_checks.hpp"

namespace deft {
namespace {

ExperimentGrid small_grid() {
  ExperimentGrid grid;
  grid.algorithms = {Algorithm::deft, Algorithm::mtr, Algorithm::rc};
  grid.traffic_patterns = {"uniform"};
  grid.fault_counts = {0, 2};
  grid.injection_rates = {0.006};
  return grid;
}

SimKnobs fast_knobs() {
  SimKnobs knobs;
  knobs.warmup = 200;
  knobs.measure = 400;
  knobs.drain_max = 1'000;
  return knobs;
}

TEST(ExperimentGrid, SizeAndExpansionOrder) {
  ExperimentGrid grid;
  grid.algorithms = {Algorithm::deft, Algorithm::rc};
  grid.vl_strategies = {VlStrategy::table};
  grid.traffic_patterns = {"uniform", "hotspot"};
  grid.fault_counts = {0};
  grid.injection_rates = {0.004, 0.008, 0.012};
  EXPECT_EQ(grid.size(), 12u);

  const ExperimentContext ctx = ExperimentContext::reference(4);
  const auto points = expand_grid(ctx, grid);
  ASSERT_EQ(points.size(), 12u);
  // Rate is the innermost axis, algorithm the outermost.
  EXPECT_EQ(points[0].algorithm, Algorithm::deft);
  EXPECT_EQ(points[0].traffic_pattern, "uniform");
  EXPECT_EQ(points[0].injection_rate, 0.004);
  EXPECT_EQ(points[1].injection_rate, 0.008);
  EXPECT_EQ(points[3].traffic_pattern, "hotspot");
  EXPECT_EQ(points[6].algorithm, Algorithm::rc);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
  }
}

TEST(ExperimentGrid, ExpansionIsDeterministicAndSeedsAreDistinct) {
  const ExperimentContext ctx = ExperimentContext::reference(4);
  const auto a = expand_grid(ctx, small_grid());
  const auto b = expand_grid(ctx, small_grid());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sim_seed, b[i].sim_seed);
    EXPECT_EQ(a[i].faults, b[i].faults);
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      EXPECT_NE(a[i].sim_seed, a[j].sim_seed);
    }
  }
  // Points sharing a fault count share the sampled pattern; fault-free
  // points carry the empty set.
  for (const auto& p : a) {
    EXPECT_EQ(p.faults, grid_fault_pattern(ctx, p.fault_count));
    if (p.fault_count == 0) {
      EXPECT_TRUE(p.faults.empty());
    }
  }
}

TEST(SweepRunner, ParallelMatchesSerialBitExactly) {
  const ExperimentContext ctx = ExperimentContext::reference(4);
  const ExperimentGrid grid = small_grid();
  const SimKnobs knobs = fast_knobs();

  const auto serial = SweepRunner(1).run(ctx, grid, knobs);
  const auto parallel = SweepRunner(4).run(ctx, grid, knobs);

  ASSERT_EQ(serial.size(), grid.size());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].point.index, parallel[i].point.index);
    EXPECT_EQ(serial[i].point.algorithm, parallel[i].point.algorithm);
    EXPECT_EQ(serial[i].point.sim_seed, parallel[i].point.sim_seed);
    EXPECT_EQ(serial[i].point.faults, parallel[i].point.faults);
    expect_identical(serial[i].results, parallel[i].results);
  }
}

TEST(SweepRunner, CapsPoolWidthForShardedRuns) {
  // A sweep of sharded simulations must not oversubscribe silently: with
  // knobs.shards = S each concurrent point occupies S threads, so the
  // sweep runs at most max(1, hardware / S) points at once (never more
  // than the configured width, and always at least one - a single
  // sharded run may own the whole machine).
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  for (int threads : {1, 2, 8}) {
    const SweepRunner runner(threads);
    EXPECT_EQ(runner.effective_workers(1), threads);
    for (int shards : {2, 4, 64}) {
      const int workers = runner.effective_workers(shards);
      EXPECT_GE(workers, 1);
      EXPECT_LE(workers, threads);
      // The cap: beyond the single-run floor, shards x workers fits the
      // hardware.
      if (workers > 1) {
        EXPECT_LE(workers * shards, hw);
      }
    }
  }
}

TEST(SweepRunner, ShardedSweepMatchesSerialBitExactly) {
  // Sharded grid points through the capped pool must reproduce the
  // serial unsharded sweep bit for bit (the sharded core's contract,
  // composed with the sweep runner's).
  const ExperimentContext ctx = ExperimentContext::reference(4);
  ExperimentGrid grid;
  grid.algorithms = {Algorithm::deft, Algorithm::rc};
  grid.traffic_patterns = {"uniform"};
  grid.fault_counts = {0, 2};
  grid.injection_rates = {0.006};
  const SimKnobs serial_knobs = fast_knobs();
  SimKnobs sharded_knobs = fast_knobs();
  sharded_knobs.shards = 2;

  const auto serial = SweepRunner(1).run(ctx, grid, serial_knobs);
  const auto sharded = SweepRunner(4).run(ctx, grid, sharded_knobs);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i].results, sharded[i].results);
  }
}

TEST(SweepRunner, ParallelMapOrdersResultsAndPropagatesExceptions) {
  const SweepRunner runner(4);
  const auto values = runner.parallel_map<std::size_t>(
      100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(values.size(), 100u);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], i * i);
  }
  EXPECT_THROW(runner.parallel_map<int>(8,
                                        [](std::size_t i) -> int {
                                          if (i == 5) {
                                            throw std::runtime_error("boom");
                                          }
                                          return static_cast<int>(i);
                                        }),
               std::runtime_error);
}

}  // namespace
}  // namespace deft
