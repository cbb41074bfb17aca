// Microbenchmarks (google-benchmark) of the library's hot kernels: route
// computation for the three algorithms, a full simulation cycle under
// load, VL-selection optimization, CDG construction/verification, and the
// per-pattern reachability evaluation that Fig. 7 amortizes millions of
// times.
//
// Invoked with --perf-json[=PATH] the binary instead runs the perf-matrix
// harness: a scenario matrix spanning the 4-chiplet reference and the
// 6-chiplet system, uniform + hotspot + trace-replay traffic, and 0/2/4
// faulty vertical channels, each timed under both simulation cores (the
// active-set worklist core and the full-scan reference), plus a
// short-run sweep scenario (many 1k-cycle fault points through the sweep
// runner, where the reusable SimWorkspace matters most) timed with and
// without workspace reuse, plus the many-chiplet grid scenarios (16- and
// 36-chiplet make_grid_spec systems) timed under the partitioned core at
// several shard counts - their "<scenario>/shardsN" ratios are serial
// time over N-shard time, so they only exceed 1 on hosts with at least N
// cores (the gate script skips them on smaller hosts). --shards N caps
// the largest shard count tried. Everything is written as JSON with
// per-scenario speedup ratios (BENCH_PR5.json is the tracked baseline;
// CI's perf-smoke job fails on regressions against it - see
// docs/performance.md). --list-scenarios enumerates the matrix without
// running it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "routing/cdg.hpp"
#include "traffic/trace.hpp"

namespace deft {
namespace {

const ExperimentContext& ctx4() {
  static const ExperimentContext ctx = ExperimentContext::reference(4);
  return ctx;
}

void BM_RouteComputation(benchmark::State& state,
                         Algorithm algorithm) {
  const auto alg = ctx4().make_algorithm(algorithm);
  const Topology& topo = ctx4().topo();
  PacketRoute route;
  route.src = topo.chiplet_node_at(0, 1, 1);
  route.dst = topo.chiplet_node_at(3, 2, 2);
  require(alg->prepare_packet(route), "pair must be routable");
  const RouterView view{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        alg->route(route.src, Port::local, 0, route, view));
  }
}
BENCHMARK_CAPTURE(BM_RouteComputation, deft, Algorithm::deft);
BENCHMARK_CAPTURE(BM_RouteComputation, mtr, Algorithm::mtr);
BENCHMARK_CAPTURE(BM_RouteComputation, rc, Algorithm::rc);

void BM_PreparePacket(benchmark::State& state, Algorithm algorithm) {
  const auto alg = ctx4().make_algorithm(algorithm);
  const Topology& topo = ctx4().topo();
  PacketRoute route;
  route.src = topo.chiplet_node_at(0, 1, 1);
  route.dst = topo.chiplet_node_at(3, 2, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg->prepare_packet(route));
  }
}
BENCHMARK_CAPTURE(BM_PreparePacket, deft, Algorithm::deft);
BENCHMARK_CAPTURE(BM_PreparePacket, rc, Algorithm::rc);

void BM_SimulationCycles(benchmark::State& state, SimCore core) {
  // Cost of whole simulated cycles at a moderately loaded operating point
  // (items processed = cycles; compare against wall clock for cycles/s).
  for (auto _ : state) {
    state.PauseTiming();
    UniformTraffic traffic(ctx4().topo(), 0.012);
    SimKnobs knobs;
    knobs.warmup = 0;
    knobs.measure = static_cast<Cycle>(state.range(0));
    knobs.drain_max = 0;
    knobs.core = core;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        run_sim(ctx4(), Algorithm::deft, traffic, knobs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_SimulationCycles, active_set, SimCore::active_set)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulationCycles, full_scan, SimCore::full_scan)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

/// The 16 routers of a 4x4 chiplet, row-major.
std::vector<Coord> chiplet4x4_routers() {
  std::vector<Coord> routers;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      routers.push_back({x, y});
    }
  }
  return routers;
}

void BM_VlSelectionComposition(benchmark::State& state) {
  // Algorithm 2's exact solver for one 16-router / 4-VL chiplet scenario.
  const VlSelectionProblem p = VlSelectionProblem::uniform(
      chiplet4x4_routers(), {{1, 0}, {3, 2}, {2, 3}, {0, 1}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_composition(p));
  }
}
BENCHMARK(BM_VlSelectionComposition)->Unit(benchmark::kMillisecond);

void BM_VlSelectionExhaustive(benchmark::State& state) {
  // Literal Algorithm 2 over all 2^16 selections: what a table build runs
  // for each two-alive-VL mask of a 4x4 chiplet, its costliest scenarios.
  const VlSelectionProblem p =
      VlSelectionProblem::uniform(chiplet4x4_routers(), {{1, 0}, {2, 3}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_exhaustive(p));
  }
}
BENCHMARK(BM_VlSelectionExhaustive)->Unit(benchmark::kMillisecond);

void BM_SystemVlTables(benchmark::State& state) {
  // Every down and up table of a reference system (Arg: chiplets), as a
  // context builds them on its first DeFT table-strategy run.
  const Topology topo(make_reference_spec(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    Rng rng(1);
    benchmark::DoNotOptimize(SystemVlTables::build(topo, rng));
  }
}
BENCHMARK(BM_SystemVlTables)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_VlSelectionAnneal(benchmark::State& state) {
  std::vector<Coord> routers;
  std::vector<double> traffic;
  Rng gen(5);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      routers.push_back({x, y});
      traffic.push_back(0.01 + gen.uniform_real() * 0.05);
    }
  }
  VlSelectionProblem p;
  p.routers = routers;
  p.traffic = traffic;
  p.vls = {{1, 0}, {3, 2}, {2, 3}, {0, 1}};
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_anneal(p, rng, 2, 5000));
  }
}
BENCHMARK(BM_VlSelectionAnneal)->Unit(benchmark::kMillisecond);

void BM_CdgVerification(benchmark::State& state) {
  // Building DeFT's rule-level CDG and proving it acyclic, as the test
  // suite does per fault scenario.
  for (auto _ : state) {
    const auto cdg = build_cdg(ctx4().topo(), 2, deft_dependency_oracle(1));
    benchmark::DoNotOptimize(is_acyclic(cdg));
  }
}
BENCHMARK(BM_CdgVerification)->Unit(benchmark::kMillisecond);

void BM_ReachabilityPerPattern(benchmark::State& state, Algorithm algorithm) {
  const ReachabilityAnalyzer analyzer(ctx4(), algorithm);
  Rng rng(3);
  const auto faults = sample_fault_scenario(ctx4().topo(), 6, rng);
  require(faults.has_value(), "sampling failed");
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.reachability(*faults));
  }
}
BENCHMARK_CAPTURE(BM_ReachabilityPerPattern, deft, Algorithm::deft);
BENCHMARK_CAPTURE(BM_ReachabilityPerPattern, mtr, Algorithm::mtr);

void BM_MtrPlanSynthesis(benchmark::State& state) {
  // The turn-restriction synthesis of a reference system (Arg: chiplets).
  // Ref-4 converges first-fit; ref-6 wedges and takes the seeded restarts.
  const Topology topo(make_reference_spec(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MtrPlan(topo));
  }
}
BENCHMARK(BM_MtrPlanSynthesis)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Perf-matrix harness (--perf-json): the tracked end-to-end numbers.

/// One cell of the scenario matrix: system size x traffic x fault count x
/// algorithm. The rate sits below each configuration's saturation knee so
/// the active-set advantage (cost proportional to traffic, not system
/// size) is what the ratio measures.
struct Scenario {
  const char* name;  ///< stable JSON key: "<sys>/<traffic>/f<n>/<alg>"
  int chiplets;      ///< 4 = reference system, 6 = the paper's big system
  const char* traffic;  ///< "uniform" | "hotspot" | "trace"
  int faults;           ///< faulty vertical channels (grid_fault_pattern)
  Algorithm algorithm;
  double rate;  ///< packets/cycle/core (trace: rate of the recorded trace)
};

/// The matrix. DeFT and MTR run every cell (MTR is the table-driven
/// routing whose credit-bucketed cache PR 3 added; its fault cells also
/// exercise set_faults() invalidation). RC joins on the fault-free uniform
/// cells to keep the PR 2 coverage.
constexpr Scenario kScenarios[] = {
    {"ref4/uniform/f0/DeFT", 4, "uniform", 0, Algorithm::deft, 0.010},
    {"ref4/uniform/f0/MTR", 4, "uniform", 0, Algorithm::mtr, 0.010},
    {"ref4/uniform/f0/RC", 4, "uniform", 0, Algorithm::rc, 0.010},
    {"ref4/uniform/f2/DeFT", 4, "uniform", 2, Algorithm::deft, 0.010},
    {"ref4/uniform/f2/MTR", 4, "uniform", 2, Algorithm::mtr, 0.010},
    {"ref4/uniform/f4/DeFT", 4, "uniform", 4, Algorithm::deft, 0.010},
    {"ref4/uniform/f4/MTR", 4, "uniform", 4, Algorithm::mtr, 0.010},
    {"ref4/hotspot/f0/DeFT", 4, "hotspot", 0, Algorithm::deft, 0.008},
    {"ref4/hotspot/f0/MTR", 4, "hotspot", 0, Algorithm::mtr, 0.008},
    {"ref4/hotspot/f2/DeFT", 4, "hotspot", 2, Algorithm::deft, 0.008},
    {"ref4/hotspot/f2/MTR", 4, "hotspot", 2, Algorithm::mtr, 0.008},
    {"ref4/hotspot/f4/DeFT", 4, "hotspot", 4, Algorithm::deft, 0.008},
    {"ref4/hotspot/f4/MTR", 4, "hotspot", 4, Algorithm::mtr, 0.008},
    {"ref4/trace/f0/DeFT", 4, "trace", 0, Algorithm::deft, 0.015},
    {"ref4/trace/f0/MTR", 4, "trace", 0, Algorithm::mtr, 0.015},
    {"ref4/trace/f2/DeFT", 4, "trace", 2, Algorithm::deft, 0.015},
    {"ref4/trace/f2/MTR", 4, "trace", 2, Algorithm::mtr, 0.015},
    {"ref4/trace/f4/DeFT", 4, "trace", 4, Algorithm::deft, 0.015},
    {"ref4/trace/f4/MTR", 4, "trace", 4, Algorithm::mtr, 0.015},
    {"sys6/uniform/f0/DeFT", 6, "uniform", 0, Algorithm::deft, 0.008},
    {"sys6/uniform/f0/MTR", 6, "uniform", 0, Algorithm::mtr, 0.008},
    {"sys6/uniform/f0/RC", 6, "uniform", 0, Algorithm::rc, 0.008},
    {"sys6/uniform/f2/DeFT", 6, "uniform", 2, Algorithm::deft, 0.008},
    {"sys6/uniform/f2/MTR", 6, "uniform", 2, Algorithm::mtr, 0.008},
    {"sys6/uniform/f4/DeFT", 6, "uniform", 4, Algorithm::deft, 0.008},
    {"sys6/uniform/f4/MTR", 6, "uniform", 4, Algorithm::mtr, 0.008},
    {"sys6/hotspot/f0/DeFT", 6, "hotspot", 0, Algorithm::deft, 0.006},
    {"sys6/hotspot/f0/MTR", 6, "hotspot", 0, Algorithm::mtr, 0.006},
    {"sys6/hotspot/f2/DeFT", 6, "hotspot", 2, Algorithm::deft, 0.006},
    {"sys6/hotspot/f2/MTR", 6, "hotspot", 2, Algorithm::mtr, 0.006},
    {"sys6/hotspot/f4/DeFT", 6, "hotspot", 4, Algorithm::deft, 0.006},
    {"sys6/hotspot/f4/MTR", 6, "hotspot", 4, Algorithm::mtr, 0.006},
    {"sys6/trace/f0/DeFT", 6, "trace", 0, Algorithm::deft, 0.010},
    {"sys6/trace/f0/MTR", 6, "trace", 0, Algorithm::mtr, 0.010},
    {"sys6/trace/f2/DeFT", 6, "trace", 2, Algorithm::deft, 0.010},
    {"sys6/trace/f2/MTR", 6, "trace", 2, Algorithm::mtr, 0.010},
    {"sys6/trace/f4/DeFT", 6, "trace", 4, Algorithm::deft, 0.010},
    {"sys6/trace/f4/MTR", 6, "trace", 4, Algorithm::mtr, 0.010},
};
constexpr std::size_t kNumScenarios = std::size(kScenarios);

/// The matrix simulation windows (shorter than the Fig. 4 windows: 38
/// scenarios x 2 cores x kPerfRepeats runs have to fit a CI smoke job).
constexpr Cycle kPerfWarmup = 1000;
constexpr Cycle kPerfMeasure = 3000;
constexpr Cycle kPerfDrainMax = 6000;
/// Wall-clock repeats per point; the minimum is reported (standard
/// benchmarking practice: the minimum estimates the noise-free cost).
constexpr int kPerfRepeats = 3;

/// Cycles/sec of the PR 3 active-set core (commit 511c16b, before the
/// interned route plane and the reusable SimWorkspace landed) on this
/// same scenario matrix, measured on the reference 1-core container
/// interleaved best-of-5 with the current core. A historical artifact
/// like the golden digests: speedup_vs_pr3 is only meaningful on
/// comparable hardware, while the full_scan/active_set ratios in
/// "speedup" cancel machine speed and are what CI tracks. Order matches
/// kScenarios.
constexpr double kPr3CyclesPerSec[kNumScenarios] = {
    200797,  // ref4/uniform/f0/DeFT
    147705,  // ref4/uniform/f0/MTR
    175274,  // ref4/uniform/f0/RC
    195011,  // ref4/uniform/f2/DeFT
    147565,  // ref4/uniform/f2/MTR
    191230,  // ref4/uniform/f4/DeFT
    145624,  // ref4/uniform/f4/MTR
    249049,  // ref4/hotspot/f0/DeFT
    196884,  // ref4/hotspot/f0/MTR
    243940,  // ref4/hotspot/f2/DeFT
    199034,  // ref4/hotspot/f2/MTR
    238043,  // ref4/hotspot/f4/DeFT
    194888,  // ref4/hotspot/f4/MTR
    130628,  // ref4/trace/f0/DeFT
    128873,  // ref4/trace/f0/MTR
    126864,  // ref4/trace/f2/DeFT
    174840,  // ref4/trace/f2/MTR
    120393,  // ref4/trace/f4/DeFT
    155353,  // ref4/trace/f4/MTR
    142292,  // sys6/uniform/f0/DeFT
    103454,  // sys6/uniform/f0/MTR
    122670,  // sys6/uniform/f0/RC
    140723,  // sys6/uniform/f2/DeFT
    101844,  // sys6/uniform/f2/MTR
    137706,  // sys6/uniform/f4/DeFT
    100052,  // sys6/uniform/f4/MTR
    188333,  // sys6/hotspot/f0/DeFT
    136612,  // sys6/hotspot/f0/MTR
    187253,  // sys6/hotspot/f2/DeFT
    133921,  // sys6/hotspot/f2/MTR
    182990,  // sys6/hotspot/f4/DeFT
    132099,  // sys6/hotspot/f4/MTR
    116494,  // sys6/trace/f0/DeFT
    84671,   // sys6/trace/f0/MTR
    113187,  // sys6/trace/f2/DeFT
    86164,   // sys6/trace/f2/MTR
    111510,  // sys6/trace/f4/DeFT
    84236,   // sys6/trace/f4/MTR
};

// --------------------------------------------------------------------------
// Dynamic-fault scenario: the f2 pattern applied as a mid-run fail +
// repair timeline (reroute policy) instead of a static pre-installed
// set, so the timed path covers the fault surgeon - incremental table
// invalidation, in-flight extraction, NI-order rerouting - under both
// cores. Same gating as the matrix scenarios: the active-set/full-scan
// ratio within one process.

constexpr char kDynScenario[] = "ref4/uniform/dynfault/DeFT";

// --------------------------------------------------------------------------
// Short-run sweep scenario: the Fig. 7/8-shaped workload of many 1k-cycle
// fault points, where per-run state construction dominates and the
// reusable SimWorkspace matters most. The in-binary ratio compares the
// sweep runner's workspace path against executing the identical expanded
// grid with a fresh allocating Simulator per point (the PR 3 execution
// model); both produce field-identical results (test_workspace.cpp).

constexpr char kSweepScenario[] = "sweep1k/deft";

// --------------------------------------------------------------------------
// Many-chiplet grid scenarios: the workload the partitioned core opens.
// make_grid_spec systems far beyond the paper's 4-6 chiplets, DeFT under
// the distance VL strategy (table synthesis for dozens of chiplets is
// design-time work the sharding measurement should not absorb), timed at
// power-of-two shard counts up to each scenario's cap. The 16- and
// 36-chiplet scenarios keep the exact configuration their tracked
// baselines were recorded under (serial rng, shards <= 4); the 64- to
// 256-chiplet scenarios run rng_mode = counter - per-NI route streams
// move packet materialization into the parallel phases, which is what
// lets shard counts up to 8 keep scaling - over shorter windows so the
// bigger systems still fit the CI smoke job. The recorded ratios are
// wall-clock serial/sharded within one process, so they are
// machine-portable only between hosts of equal core count - the JSON
// records hardware_concurrency and the gate skips shard ratios the host
// cannot express.

struct GridScenario {
  const char* name;
  int cols;
  int rows;
  double rate;  ///< packets/cycle/core (below the large-system knee)
  int max_shards;
  RngMode rng_mode;
  Cycle warmup;
  Cycle measure;
  Cycle drain_max;
};

constexpr Cycle kGridWarmup = 300;
constexpr Cycle kGridMeasure = 1200;
constexpr Cycle kGridDrainMax = 4000;
/// Shorter windows for the 64-256-chiplet systems (their per-cycle cost
/// is 4-16x the small grids').
constexpr Cycle kBigGridWarmup = 200;
constexpr Cycle kBigGridMeasure = 800;
constexpr Cycle kBigGridDrainMax = 2500;

constexpr GridScenario kGridScenarios[] = {
    {"grid16/uniform/f0/DeFT", 4, 4, 0.006, 4, RngMode::serial,
     kGridWarmup, kGridMeasure, kGridDrainMax},
    {"grid36/uniform/f0/DeFT", 6, 6, 0.0045, 4, RngMode::serial,
     kGridWarmup, kGridMeasure, kGridDrainMax},
    {"grid64/uniform/f0/DeFT", 8, 8, 0.003, 8, RngMode::counter,
     kBigGridWarmup, kBigGridMeasure, kBigGridDrainMax},
    {"grid144/uniform/f0/DeFT", 12, 12, 0.0025, 8, RngMode::counter,
     kBigGridWarmup, kBigGridMeasure, kBigGridDrainMax},
    {"grid256/uniform/f0/DeFT", 16, 16, 0.002, 8, RngMode::counter,
     kBigGridWarmup, kBigGridMeasure, kBigGridDrainMax},
};

/// Largest shard count the grid scenarios try (--shards overrides).
int g_max_shards = 8;

const ExperimentContext& grid_ctx(int cols, int rows) {
  static const ExperimentContext g16(make_grid_spec(4, 4, 4, 4));
  static const ExperimentContext g36(make_grid_spec(6, 6, 4, 4));
  static const ExperimentContext g64(make_grid_spec(8, 8, 4, 4));
  static const ExperimentContext g144(make_grid_spec(12, 12, 4, 4));
  static const ExperimentContext g256(make_grid_spec(16, 16, 4, 4));
  switch (cols * rows) {
    case 16: return g16;
    case 36: return g36;
    case 64: return g64;
    case 144: return g144;
    default: return g256;
  }
}

/// Shard counts one grid scenario measures: powers of two from 1 up to
/// min(scenario cap, --shards), so --shards 1 measures serial only.
std::vector<int> grid_shard_counts(const GridScenario& s) {
  std::vector<int> counts{1};
  const int cap = std::min(s.max_shards, g_max_shards);
  for (int c = 2; c <= cap; c *= 2) {
    counts.push_back(c);
  }
  return counts;
}

ExperimentGrid sweep_grid() {
  ExperimentGrid grid;
  grid.algorithms = {Algorithm::deft};
  grid.traffic_patterns = {"uniform", "hotspot"};
  grid.fault_counts = {0, 1, 2, 3, 4};
  grid.injection_rates = {0.004, 0.008, 0.012};
  return grid;  // 30 points
}

SimKnobs sweep_knobs() {
  SimKnobs knobs;
  knobs.warmup = 100;
  knobs.measure = 1000;
  knobs.drain_max = 400;
  return knobs;
}

/// Sweep points/sec of the PR 3 core (commit 511c16b) on this workload,
/// recorded interleaved best-of-5 on the reference 1-core container (same
/// caveats as kPr3CyclesPerSec).
constexpr double kPr3SweepPointsPerSec = 206.9;

struct SweepMeasure {
  std::size_t points = 0;
  Cycle cycles = 0;
  double seconds = 0.0;
};

const ExperimentContext& perf_ctx(int chiplets) {
  static const ExperimentContext c4 = ExperimentContext::reference(4);
  static const ExperimentContext c6 = ExperimentContext::reference(6);
  return chiplets == 4 ? c4 : c6;
}

struct PerfPoint {
  Cycle cycles = 0;
  std::uint64_t flit_hops = 0;
  double seconds = 0.0;
};

SweepMeasure measure_sweep(bool workspace) {
  const ExperimentContext& ctx = perf_ctx(4);
  const ExperimentGrid grid = sweep_grid();
  const SimKnobs knobs = sweep_knobs();
  SweepMeasure best;
  for (int rep = 0; rep < kPerfRepeats; ++rep) {
    SweepMeasure m;
    const auto t0 = std::chrono::steady_clock::now();
    if (workspace) {
      // The production path: SweepRunner reuses one workspace per worker
      // (one worker here, so wall clock is comparable to the serial loop).
      const auto sweep = SweepRunner(1).run(ctx, grid, knobs);
      m.points = sweep.size();
      for (const SweepResult& r : sweep) {
        m.cycles += r.results.cycles_run;
      }
    } else {
      // The PR 3 execution model: a fresh Simulator (and packet table,
      // network, NIs, ...) per grid point.
      const auto points = expand_grid(ctx, grid);
      m.points = points.size();
      for (const ExperimentPoint& point : points) {
        const auto traffic = make_traffic(ctx.topo(), point.traffic_pattern,
                                          point.injection_rate);
        SimKnobs point_knobs = knobs;
        point_knobs.seed = point.sim_seed;
        const SimResults r = run_sim(ctx, point.algorithm, *traffic,
                                     point_knobs, point.faults,
                                     point.vl_strategy);
        m.cycles += r.cycles_run;
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    m.seconds = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || m.seconds < best.seconds) {
      best = m;
    }
  }
  return best;
}

/// Times one scenario under `core`. The active-set measurement reuses a
/// workspace across repeats and scenarios - the production configuration
/// (how SweepRunner workers execute); the full-scan reference keeps the
/// allocating path. Results are bit-identical either way.
PerfPoint measure_point(const Scenario& s, SimCore core, SimWorkspace* ws) {
  const ExperimentContext& ctx = perf_ctx(s.chiplets);
  VlFaultSet faults;
  if (s.faults > 0) {
    faults = grid_fault_pattern(ctx, s.faults);
  }
  SimKnobs knobs;
  knobs.warmup = kPerfWarmup;
  knobs.measure = kPerfMeasure;
  knobs.drain_max = kPerfDrainMax;
  knobs.core = core;
  PerfPoint best;
  for (int rep = 0; rep < kPerfRepeats; ++rep) {
    // Traffic generators are consumed by a run (trace cursors advance, RNG
    // draws are taken), so each repeat gets a fresh instance.
    std::unique_ptr<TrafficGenerator> traffic;
    if (std::string_view(s.traffic) == "trace") {
      // Deterministic replay workload: a uniform run at `rate` recorded
      // over the warmup + measurement window.
      traffic = std::make_unique<TraceReplayGenerator>(record_uniform_trace(
          ctx.topo(), s.rate, kPerfWarmup + kPerfMeasure));
    } else {
      traffic = make_traffic(ctx.topo(), s.traffic, s.rate);
    }
    Cycle cycles = 0;
    std::uint64_t flit_hops = 0;
    const auto t0 = std::chrono::steady_clock::now();
    if (ws != nullptr) {
      const SimResults& r =
          run_sim(*ws, ctx, s.algorithm, *traffic, knobs, faults);
      cycles = r.cycles_run;
      flit_hops = r.flit_hops;
    } else {
      const SimResults r = run_sim(ctx, s.algorithm, *traffic, knobs, faults);
      cycles = r.cycles_run;
      flit_hops = r.flit_hops;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || seconds < best.seconds) {
      best = {cycles, flit_hops, seconds};
    }
  }
  return best;
}

/// Times the dynamic-fault scenario under `core` (see kDynScenario).
PerfPoint measure_dyn_point(SimCore core, SimWorkspace* ws) {
  const ExperimentContext& ctx = perf_ctx(4);
  const VlFaultSet pattern = grid_fault_pattern(ctx, 2);
  FaultTimeline timeline;
  for (int c = 0; c < ctx.topo().num_vl_channels(); ++c) {
    if (pattern.is_faulty(c)) {
      timeline.add_transient(c, kPerfWarmup + kPerfMeasure / 3,
                             kPerfWarmup + 2 * kPerfMeasure / 3);
    }
  }
  SimKnobs knobs;
  knobs.warmup = kPerfWarmup;
  knobs.measure = kPerfMeasure;
  knobs.drain_max = kPerfDrainMax;
  knobs.core = core;
  PerfPoint best;
  for (int rep = 0; rep < kPerfRepeats; ++rep) {
    UniformTraffic traffic(ctx.topo(), 0.010);
    Cycle cycles = 0;
    std::uint64_t flit_hops = 0;
    const auto t0 = std::chrono::steady_clock::now();
    if (ws != nullptr) {
      const SimResults& r =
          run_sim(*ws, ctx, Algorithm::deft, traffic, knobs, {},
                  VlStrategy::table, &timeline, InFlightPolicy::reroute);
      cycles = r.cycles_run;
      flit_hops = r.flit_hops;
    } else {
      const SimResults r =
          run_sim(ctx, Algorithm::deft, traffic, knobs, {},
                  VlStrategy::table, &timeline, InFlightPolicy::reroute);
      cycles = r.cycles_run;
      flit_hops = r.flit_hops;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || seconds < best.seconds) {
      best = {cycles, flit_hops, seconds};
    }
  }
  return best;
}

/// Times one grid scenario at one shard count. The workspace is reused
/// across repeats, shard counts and scenarios (its worker pool persists),
/// matching how a long-lived service would run the partitioned core.
PerfPoint measure_grid_point(const GridScenario& s, int shards,
                             SimWorkspace& ws) {
  const ExperimentContext& ctx = grid_ctx(s.cols, s.rows);
  SimKnobs knobs;
  knobs.warmup = s.warmup;
  knobs.measure = s.measure;
  knobs.drain_max = s.drain_max;
  knobs.shards = shards;
  knobs.rng_mode = s.rng_mode;
  PerfPoint best;
  for (int rep = 0; rep < kPerfRepeats; ++rep) {
    UniformTraffic traffic(ctx.topo(), s.rate);
    const auto t0 = std::chrono::steady_clock::now();
    const SimResults& r = run_sim(ws, ctx, Algorithm::deft, traffic, knobs,
                                  {}, VlStrategy::distance);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || seconds < best.seconds) {
      best = {r.cycles_run, r.flit_hops, seconds};
    }
  }
  return best;
}

int run_perf_core(const std::string& json_path) {
  perf_ctx(4).prewarm();
  perf_ctx(6).prewarm();

  PerfPoint full[kNumScenarios];
  PerfPoint active[kNumScenarios];
  SimWorkspace ws;  // reused across every active-set measurement
  for (std::size_t i = 0; i < kNumScenarios; ++i) {
    const Scenario& s = kScenarios[i];
    full[i] = measure_point(s, SimCore::full_scan, nullptr);
    active[i] = measure_point(s, SimCore::active_set, &ws);
    std::printf("%-22s %7lld cycles  full %9.0f cyc/s  active %9.0f cyc/s "
                " (%.2fx)\n",
                s.name, static_cast<long long>(active[i].cycles),
                static_cast<double>(full[i].cycles) / full[i].seconds,
                static_cast<double>(active[i].cycles) / active[i].seconds,
                full[i].seconds / active[i].seconds);
  }

  const PerfPoint dyn_full = measure_dyn_point(SimCore::full_scan, nullptr);
  const PerfPoint dyn_active = measure_dyn_point(SimCore::active_set, &ws);
  std::printf("%-22s %7lld cycles  full %9.0f cyc/s  active %9.0f cyc/s "
              " (%.2fx)\n",
              kDynScenario, static_cast<long long>(dyn_active.cycles),
              static_cast<double>(dyn_full.cycles) / dyn_full.seconds,
              static_cast<double>(dyn_active.cycles) / dyn_active.seconds,
              dyn_full.seconds / dyn_active.seconds);

  const SweepMeasure sweep_fresh = measure_sweep(/*workspace=*/false);
  const SweepMeasure sweep_ws = measure_sweep(/*workspace=*/true);
  std::printf("%-22s %5zu points  fresh %6.1f pts/s  workspace %6.1f pts/s "
              " (%.2fx)\n",
              kSweepScenario, sweep_ws.points,
              static_cast<double>(sweep_fresh.points) / sweep_fresh.seconds,
              static_cast<double>(sweep_ws.points) / sweep_ws.seconds,
              sweep_fresh.seconds / sweep_ws.seconds);

  // Many-chiplet grid scenarios under the partitioned core.
  constexpr std::size_t kNumGrid = std::size(kGridScenarios);
  std::vector<std::vector<int>> grid_counts(kNumGrid);
  std::vector<std::vector<PerfPoint>> grid(kNumGrid);
  {
    SimWorkspace grid_ws;
    for (std::size_t g = 0; g < kNumGrid; ++g) {
      grid_counts[g] = grid_shard_counts(kGridScenarios[g]);
      for (const int shards : grid_counts[g]) {
        grid[g].push_back(
            measure_grid_point(kGridScenarios[g], shards, grid_ws));
      }
      const PerfPoint& serial = grid[g].front();
      const PerfPoint& widest = grid[g].back();
      std::printf("%-22s %7lld cycles  1 shard %9.0f cyc/s  %d shards "
                  "%9.0f cyc/s  (%.2fx)\n",
                  kGridScenarios[g].name,
                  static_cast<long long>(serial.cycles),
                  static_cast<double>(serial.cycles) / serial.seconds,
                  grid_counts[g].back(),
                  static_cast<double>(widest.cycles) / widest.seconds,
                  serial.seconds / widest.seconds);
    }
  }

  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"deft-perf-matrix\",\n");
  std::fprintf(out,
               "  \"config\": {\"systems\": [\"reference-4\", "
               "\"reference-6\"], \"traffics\": [\"uniform\", \"hotspot\", "
               "\"trace\"], \"fault_counts\": [0, 2, 4], \"warmup\": %lld, "
               "\"measure\": %lld, \"drain_max\": %lld, \"repeats\": %d, "
               "\"hardware_concurrency\": %u, "
               "\"sweep_scenario\": {\"name\": \"%s\", \"points\": %zu, "
               "\"warmup\": %lld, \"measure\": %lld, \"drain_max\": %lld}, "
               "\"grid_scenarios\": {\"systems\": [\"grid-16\", "
               "\"grid-36\", \"grid-64\", \"grid-144\", \"grid-256\"], "
               "\"vl_strategy\": \"distance\", \"warmup\": "
               "%lld, \"measure\": %lld, \"drain_max\": %lld, "
               "\"big_warmup\": %lld, \"big_measure\": %lld, "
               "\"big_drain_max\": %lld, \"big_rng_mode\": \"counter\", "
               "\"max_shards\": %d}},\n",
               static_cast<long long>(kPerfWarmup),
               static_cast<long long>(kPerfMeasure),
               static_cast<long long>(kPerfDrainMax), kPerfRepeats,
               std::thread::hardware_concurrency(), kSweepScenario,
               sweep_ws.points,
               static_cast<long long>(sweep_knobs().warmup),
               static_cast<long long>(sweep_knobs().measure),
               static_cast<long long>(sweep_knobs().drain_max),
               static_cast<long long>(kGridWarmup),
               static_cast<long long>(kGridMeasure),
               static_cast<long long>(kGridDrainMax),
               static_cast<long long>(kBigGridWarmup),
               static_cast<long long>(kBigGridMeasure),
               static_cast<long long>(kBigGridDrainMax), g_max_shards);
  std::fprintf(out, "  \"points\": [\n");
  for (std::size_t i = 0; i < kNumScenarios; ++i) {
    const Scenario& s = kScenarios[i];
    for (const char* core : {"full_scan", "active_set"}) {
      const PerfPoint& p =
          std::string_view(core) == "full_scan" ? full[i] : active[i];
      std::fprintf(
          out,
          "    {\"scenario\": \"%s\", \"system\": \"%s\", \"traffic\": "
          "\"%s\", \"faults\": %d, \"algorithm\": \"%s\", \"rate\": %.3f, "
          "\"core\": \"%s\", \"cycles\": %lld, \"flit_hops\": %llu, "
          "\"seconds\": %.6f, \"cycles_per_sec\": %.0f, "
          "\"flit_hops_per_sec\": %.0f},\n",
          s.name, s.chiplets == 4 ? "reference-4" : "reference-6", s.traffic,
          s.faults, algorithm_name(s.algorithm), s.rate, core,
          static_cast<long long>(p.cycles),
          static_cast<unsigned long long>(p.flit_hops), p.seconds,
          static_cast<double>(p.cycles) / p.seconds,
          static_cast<double>(p.flit_hops) / p.seconds);
    }
  }
  for (std::size_t g = 0; g < kNumGrid; ++g) {
    for (std::size_t c = 0; c < grid_counts[g].size(); ++c) {
      const PerfPoint& p = grid[g][c];
      std::fprintf(
          out,
          "    {\"scenario\": \"%s\", \"system\": \"grid-%d\", \"traffic\": "
          "\"uniform\", \"faults\": 0, \"algorithm\": \"DeFT\", \"rate\": "
          "%.4f, \"core\": \"active_set\", \"rng_mode\": \"%s\", "
          "\"shards\": %d, \"cycles\": "
          "%lld, \"flit_hops\": %llu, \"seconds\": %.6f, "
          "\"cycles_per_sec\": %.0f, \"flit_hops_per_sec\": %.0f},\n",
          kGridScenarios[g].name,
          kGridScenarios[g].cols * kGridScenarios[g].rows,
          kGridScenarios[g].rate, rng_mode_name(kGridScenarios[g].rng_mode),
          grid_counts[g][c],
          static_cast<long long>(p.cycles),
          static_cast<unsigned long long>(p.flit_hops), p.seconds,
          static_cast<double>(p.cycles) / p.seconds,
          static_cast<double>(p.flit_hops) / p.seconds);
    }
  }
  for (const char* core : {"full_scan", "active_set"}) {
    const PerfPoint& p =
        std::string_view(core) == "full_scan" ? dyn_full : dyn_active;
    std::fprintf(
        out,
        "    {\"scenario\": \"%s\", \"system\": \"reference-4\", "
        "\"traffic\": \"uniform\", \"faults\": 2, \"fault_events\": true, "
        "\"algorithm\": \"DeFT\", \"rate\": 0.010, \"core\": \"%s\", "
        "\"cycles\": %lld, \"flit_hops\": %llu, \"seconds\": %.6f, "
        "\"cycles_per_sec\": %.0f, \"flit_hops_per_sec\": %.0f},\n",
        kDynScenario, core, static_cast<long long>(p.cycles),
        static_cast<unsigned long long>(p.flit_hops), p.seconds,
        static_cast<double>(p.cycles) / p.seconds,
        static_cast<double>(p.flit_hops) / p.seconds);
  }
  for (const char* mode : {"fresh_sim", "workspace"}) {
    const bool last = std::string_view(mode) == "workspace";
    const SweepMeasure& m = last ? sweep_ws : sweep_fresh;
    std::fprintf(
        out,
        "    {\"scenario\": \"%s\", \"mode\": \"%s\", \"points\": %zu, "
        "\"cycles\": %lld, \"seconds\": %.6f, \"points_per_sec\": %.1f, "
        "\"cycles_per_sec\": %.0f}%s\n",
        kSweepScenario, mode, m.points, static_cast<long long>(m.cycles),
        m.seconds, static_cast<double>(m.points) / m.seconds,
        static_cast<double>(m.cycles) / m.seconds,
        last ? "" : ",");
  }
  // Per-scenario in-binary ratios: active-set/full-scan for the matrix,
  // workspace/fresh-Simulator for the sweep scenario. Both sides of each
  // ratio run in the same process on the same host, so these are
  // machine-portable and are what the CI perf gate tracks. "overall" is
  // the time-weighted matrix ratio (the sweep scenario is gated through
  // its own key).
  std::fprintf(out, "  ],\n  \"speedup\": {\n");
  double all_full = 0.0;
  double all_active = 0.0;
  for (std::size_t i = 0; i < kNumScenarios; ++i) {
    all_full += full[i].seconds;
    all_active += active[i].seconds;
    std::fprintf(out, "    \"%s\": %.3f,\n", kScenarios[i].name,
                 full[i].seconds / active[i].seconds);
  }
  std::fprintf(out, "    \"%s\": %.3f,\n", kDynScenario,
               dyn_full.seconds / dyn_active.seconds);
  std::fprintf(out, "    \"%s\": %.3f,\n", kSweepScenario,
               sweep_fresh.seconds / sweep_ws.seconds);
  // Grid shard ratios: serial wall clock over N-shard wall clock within
  // this run. Only meaningful on hosts with >= N cores; the gate script
  // reads hardware_concurrency and skips ratios the host cannot express.
  for (std::size_t g = 0; g < kNumGrid; ++g) {
    const PerfPoint& serial = grid[g].front();
    for (std::size_t c = 1; c < grid_counts[g].size(); ++c) {
      const PerfPoint& p = grid[g][c];
      std::fprintf(out, "    \"%s/shards%d\": %.3f,\n",
                   kGridScenarios[g].name, grid_counts[g][c],
                   serial.seconds / p.seconds);
    }
  }
  std::fprintf(out, "    \"overall\": %.3f\n  },\n", all_full / all_active);

  // Speedup of this run's active-set core over the recorded PR 3 core on
  // the same matrix (identical seeds: cycles_run matches exactly, so the
  // cycles/sec ratio is the wall-clock ratio). "geomean" covers the 38
  // matrix scenarios; the sweep scenario compares points/sec.
  std::fprintf(out,
               "  \"pr3_core_baseline\": {\"machine\": \"reference 1-core "
               "container (commit 511c16b)\", \"sweep_points_per_sec\": "
               "%.1f, \"cycles_per_sec\": {\n",
               kPr3SweepPointsPerSec);
  for (std::size_t i = 0; i < kNumScenarios; ++i) {
    std::fprintf(out, "    \"%s\": %.0f%s\n", kScenarios[i].name,
                 kPr3CyclesPerSec[i], i + 1 < kNumScenarios ? "," : "");
  }
  std::fprintf(out, "  }},\n  \"speedup_vs_pr3\": {\n");
  double pr3_total_sec = 0.0;
  double active_total_sec = 0.0;
  double log_sum = 0.0;
  for (std::size_t i = 0; i < kNumScenarios; ++i) {
    const double active_cps =
        static_cast<double>(active[i].cycles) / active[i].seconds;
    pr3_total_sec +=
        static_cast<double>(active[i].cycles) / kPr3CyclesPerSec[i];
    active_total_sec += active[i].seconds;
    log_sum += std::log(active_cps / kPr3CyclesPerSec[i]);
    std::fprintf(out, "    \"%s\": %.3f,\n", kScenarios[i].name,
                 active_cps / kPr3CyclesPerSec[i]);
  }
  const double sweep_vs_pr3 =
      (static_cast<double>(sweep_ws.points) / sweep_ws.seconds) /
      kPr3SweepPointsPerSec;
  const double geomean_vs_pr3 =
      std::exp(log_sum / static_cast<double>(kNumScenarios));
  std::fprintf(out, "    \"%s\": %.3f,\n", kSweepScenario, sweep_vs_pr3);
  std::fprintf(out, "    \"geomean\": %.3f,\n", geomean_vs_pr3);
  std::fprintf(out, "    \"overall\": %.3f\n  }\n}\n",
               pr3_total_sec / active_total_sec);
  std::fclose(out);
  std::printf("active-set vs in-binary full scan: %.2fx; vs recorded PR 3 "
              "core: %.2fx geomean (matrix), %.2fx (sweep) -> %s\n",
              all_full / all_active, geomean_vs_pr3, sweep_vs_pr3,
              json_path.c_str());
  return 0;
}

int list_scenarios() {
  for (const Scenario& s : kScenarios) {
    std::printf("%s\n", s.name);
  }
  std::printf("%s\n", kDynScenario);
  std::printf("%s\n", kSweepScenario);
  for (const GridScenario& s : kGridScenarios) {
    for (int c : grid_shard_counts(s)) {
      if (c > 1) {
        std::printf("%s/shards%d\n", s.name, c);
      }
    }
  }
  return 0;
}

/// --grid-smoke: one 256-chiplet point through the partitioned counter-
/// mode core (serial + 2 shards, one repeat's worth of window) - a fast
/// CI check that the biggest scenario builds its topology, partitions,
/// and runs to completion, without the full matrix's cost.
int run_grid_smoke() {
  const GridScenario& s = kGridScenarios[std::size(kGridScenarios) - 1];
  SimWorkspace ws;
  for (const int shards : {1, std::min(2, g_max_shards)}) {
    const PerfPoint p = measure_grid_point(s, shards, ws);
    require(p.cycles > 0, "grid smoke: run produced no cycles");
    std::printf("%-22s shards %d  %7lld cycles  %9.0f cyc/s\n", s.name,
                shards, static_cast<long long>(p.cycles),
                static_cast<double>(p.cycles) / p.seconds);
  }
  return 0;
}

}  // namespace
}  // namespace deft

int main(int argc, char** argv) {
  bool perf = false;
  std::string perf_path = "BENCH_PR5.json";
  bool list = false;
  bool grid_smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-scenarios") {
      // Enumerates the perf-matrix scenario keys (one per line, matching
      // the JSON "speedup" table) without running anything.
      list = true;
    } else if (arg == "--grid-smoke") {
      // One 256-chiplet grid point (serial + 2 shards), no JSON.
      grid_smoke = true;
    } else if (arg == "--shards" && i + 1 < argc) {
      // Caps the largest shard count the grid scenarios measure.
      deft::g_max_shards =
          std::clamp(std::atoi(argv[++i]), 1, deft::kMaxSimShards);
    } else if (arg.starts_with("--shards=")) {
      deft::g_max_shards = std::clamp(
          std::atoi(argv[i] + sizeof("--shards=") - 1), 1,
          deft::kMaxSimShards);
    } else if (arg == "--perf-json" || arg.starts_with("--perf-json=")) {
      perf = true;
      if (arg != "--perf-json") {
        perf_path = std::string(arg.substr(sizeof("--perf-json=") - 1));
      }
    }
  }
  if (list) {
    return deft::list_scenarios();
  }
  if (grid_smoke) {
    return deft::run_grid_smoke();
  }
  if (perf) {
    return deft::run_perf_core(perf_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  // Build the shared design-time artifacts up front so the first timed
  // benchmark does not absorb the one-off lazy construction.
  deft::ctx4().prewarm();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
