// SimWorkspace contract tests.
//
// Three guarantees of the reusable-arena rewrite:
//
//  1. Equivalence: a run through a reused workspace is field-identical to
//     a run through a fresh Simulator, including when one workspace hops
//     between topologies, algorithms, traffic patterns and knobs (reset
//     correctness: no state of run N may leak into run N+1).
//
//  2. Sweep equivalence: SweepRunner, whose pool workers each reuse one
//     workspace across all their points, produces results field-identical
//     to fresh-Simulator serial execution of the same grid.
//
//  3. Zero steady-state allocation: the second run(workspace) of an
//     identical scenario performs no heap allocations at all - asserted
//     with a counting global operator new. This is the property that
//     makes thousands-of-short-runs sweeps (the Fig. 7/8 workload) cheap.
//
// The same counter also bounds what building one routing instance
// allocates on the large grids, where an O(routers^2) structure would
// cost more than the simulation it routes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "app_traffic.hpp"
#include "core/runner.hpp"
#include "sim_results_checks.hpp"

// ---------------------------------------------------------------------------
// Counting operator new: calls and requested bytes. The counters only
// tick while armed, so gtest's own bookkeeping outside the measured
// window stays invisible. Replacing the global allocation functions is
// per-binary; this file owns them.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void count_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t size) {
  count_alloc(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  count_alloc(size);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t n = size == 0 ? a : (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, n);  // C11 wants size % align == 0
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
// Over-aligned forms: C++17 routes any type with alignment beyond
// __STDCPP_DEFAULT_NEW_ALIGNMENT__ through these, so they must count too
// or an aligned hot-path buffer could slip past the zero-alloc assertion.
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace deft {
namespace {

SimKnobs short_knobs() {
  SimKnobs knobs;
  knobs.warmup = 200;
  knobs.measure = 600;
  knobs.drain_max = 1'500;
  knobs.seed = 11;
  return knobs;
}

const ExperimentContext& ctx4() {
  static const ExperimentContext ctx = ExperimentContext::reference(4);
  return ctx;
}

const ExperimentContext& ctx6() {
  static const ExperimentContext ctx = ExperimentContext::reference(6);
  return ctx;
}

TEST(RouteStore, InternsValueIdenticalRoutesToOneId) {
  RouteStore store;
  PacketRoute a;
  a.src = 3;
  a.dst = 17;
  a.down_node = 5;
  a.up_exit = 40;
  a.initial_vcs = 0b11;
  PacketRoute b = a;
  PacketRoute c = a;
  c.up_exit = 41;
  const RouteId ia = store.intern(a);
  EXPECT_EQ(store.intern(b), ia);
  EXPECT_NE(store.intern(c), ia);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get(ia).up_exit, 40);
  // Ids are dense in first-appearance order; clear() forgets the routes
  // but re-interning reproduces the same assignment.
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.intern(c), 0);
  EXPECT_EQ(store.intern(a), 1);
}

TEST(RouteStore, SurvivesManyDistinctRoutes) {
  // Forces several growth rehashes and checks every id stays retrievable.
  RouteStore store;
  std::vector<RouteId> ids;
  for (int i = 0; i < 5'000; ++i) {
    PacketRoute r;
    r.src = i % 97;
    r.dst = i;
    r.down_node = i % 13;
    r.up_exit = i % 7;
    ids.push_back(store.intern(r));
  }
  EXPECT_EQ(store.size(), 5'000u);
  for (int i = 0; i < 5'000; ++i) {
    EXPECT_EQ(store.get(ids[static_cast<std::size_t>(i)]).dst, i);
  }
}

TEST(SimWorkspace, ReusedWorkspaceMatchesFreshSimulator) {
  // One workspace hops across systems, algorithms, VL strategies, traffic
  // patterns, fault sets and knobs; every run must equal a fresh
  // Simulator's on the same configuration. The sequence deliberately
  // alternates topologies so a reset bug (stale credits, leftover routes,
  // undersized planes) cannot hide.
  struct Config {
    const ExperimentContext* ctx;
    Algorithm algorithm;
    VlStrategy strategy;
    const char* pattern;
    double rate;
    int fault_count;
    int vl_serialization;
    SimCore core;
  };
  const Config configs[] = {
      {&ctx4(), Algorithm::deft, VlStrategy::table, "uniform", 0.02, 0, 1,
       SimCore::active_set},
      {&ctx6(), Algorithm::mtr, VlStrategy::table, "hotspot", 0.01, 2, 1,
       SimCore::active_set},
      {&ctx4(), Algorithm::rc, VlStrategy::table, "uniform", 0.012, 0, 1,
       SimCore::active_set},
      {&ctx4(), Algorithm::deft, VlStrategy::random, "transpose", 0.02, 4, 2,
       SimCore::active_set},
      {&ctx6(), Algorithm::deft, VlStrategy::table, "uniform", 0.015, 2, 1,
       SimCore::full_scan},
      {&ctx4(), Algorithm::deft, VlStrategy::table, "uniform", 0.02, 0, 1,
       SimCore::active_set},
  };
  SimWorkspace ws;
  for (const Config& cfg : configs) {
    SCOPED_TRACE(::testing::Message()
                 << cfg.pattern << "/f" << cfg.fault_count << "/core"
                 << static_cast<int>(cfg.core));
    VlFaultSet faults;
    if (cfg.fault_count > 0) {
      faults = grid_fault_pattern(*cfg.ctx, cfg.fault_count);
    }
    SimKnobs knobs = short_knobs();
    knobs.vl_serialization = cfg.vl_serialization;
    knobs.core = cfg.core;

    const auto traffic_ws =
        make_traffic(cfg.ctx->topo(), cfg.pattern, cfg.rate);
    const SimResults& reused = run_sim(ws, *cfg.ctx, cfg.algorithm,
                                       *traffic_ws, knobs, faults,
                                       cfg.strategy);

    const auto traffic_fresh =
        make_traffic(cfg.ctx->topo(), cfg.pattern, cfg.rate);
    const SimResults fresh = run_sim(*cfg.ctx, cfg.algorithm, *traffic_fresh,
                                     knobs, faults, cfg.strategy);
    expect_identical(reused, fresh);
  }
}

TEST(SimWorkspace, SweepRunnerWithWorkspacesMatchesFreshSerial) {
  // SweepRunner's pool workers each reuse one workspace across their
  // points. The aggregated sweep must be field-identical to executing
  // every expanded point with a fresh allocating Simulator, serially.
  ExperimentGrid grid;
  grid.algorithms = {Algorithm::deft, Algorithm::mtr, Algorithm::rc};
  grid.traffic_patterns = {"uniform", "hotspot"};
  grid.fault_counts = {0, 2};
  grid.injection_rates = {0.008};
  const SimKnobs knobs = short_knobs();

  const std::vector<ExperimentPoint> points = expand_grid(ctx4(), grid);
  std::vector<SimResults> fresh;
  for (const ExperimentPoint& point : points) {
    const auto traffic = make_traffic(ctx4().topo(), point.traffic_pattern,
                                      point.injection_rate);
    SimKnobs point_knobs = knobs;
    point_knobs.seed = point.sim_seed;
    fresh.push_back(run_sim(ctx4(), point.algorithm, *traffic, point_knobs,
                            point.faults, point.vl_strategy));
  }

  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const auto sweep = SweepRunner(threads).run(ctx4(), grid, knobs);
    ASSERT_EQ(sweep.size(), points.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      SCOPED_TRACE(i);
      expect_identical(sweep[i].results, fresh[i]);
    }
  }
}

TEST(SimWorkspace, SecondIdenticalRunPerformsZeroHeapAllocations) {
  // The steady-state guarantee: after one run warmed the workspace, an
  // identical run must never touch the heap - every plane (packet hot and
  // cold records, interned routes, router storage, NI queues, event heap,
  // latency samples, results vectors) is reused in place.
  const auto alg = ctx4().make_algorithm(Algorithm::deft);
  SimKnobs knobs = short_knobs();
  SimWorkspace ws;

  SimResults first;
  {
    UniformTraffic traffic(ctx4().topo(), 0.01);
    Simulator sim(ctx4().topo(), *alg, traffic, knobs);
    first = sim.run(ws);  // warms every buffer
  }

  UniformTraffic traffic(ctx4().topo(), 0.01);
  Simulator sim(ctx4().topo(), *alg, traffic, knobs);
  g_alloc_calls.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  const SimResults& second = sim.run(ws);  // the measured window
  g_count_allocs.store(false, std::memory_order_relaxed);
  const std::uint64_t allocs = g_alloc_calls.load(std::memory_order_relaxed);

  expect_identical(first, second);
  EXPECT_GT(second.packets_created, 0u);  // the run did real work
  EXPECT_EQ(allocs, 0u) << "steady-state run(workspace) touched the heap";
}

TEST(SimWorkspace, WarmFaultEventApplicationPerformsZeroHeapAllocations) {
  // Dynamic fault surgery rides the same steady-state guarantee: applying
  // a fail and a repair event mid-run - fault-table rebuild, head-route
  // invalidation, doomed-packet extraction, in-flight policy resolution -
  // must reuse the surgeon's grow-only scratch, not the heap. The
  // transient repairs inside the run, so the second run starts from the
  // same (empty) fault set and must be field-identical to the first.
  const auto alg = ctx4().make_algorithm(Algorithm::deft);
  SimKnobs knobs = short_knobs();
  FaultTimeline timeline;
  timeline.add_transient(ctx4().topo().vl(2).down_vl_channel(), 350, 550);
  SimWorkspace ws;

  SimResults first;
  {
    UniformTraffic traffic(ctx4().topo(), 0.01);
    Simulator sim(ctx4().topo(), *alg, traffic, knobs, {}, &timeline,
                  InFlightPolicy::drop);
    first = sim.run(ws);  // warms every buffer, surgeon scratch included
  }
  EXPECT_GT(first.fault_window_created, 0u);  // the events really fired

  UniformTraffic traffic(ctx4().topo(), 0.01);
  Simulator sim(ctx4().topo(), *alg, traffic, knobs, {}, &timeline,
                InFlightPolicy::drop);
  g_alloc_calls.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  const SimResults& second = sim.run(ws);
  g_count_allocs.store(false, std::memory_order_relaxed);
  const std::uint64_t allocs = g_alloc_calls.load(std::memory_order_relaxed);

  expect_identical(first, second);
  EXPECT_GT(second.packets_created, 0u);
  EXPECT_EQ(allocs, 0u) << "warm fault-event surgery touched the heap";
}

TEST(SimWorkspace, WarmApplicationRunPerformsZeroHeapAllocations) {
  // Application traffic adds per-NI reply FIFOs and a heap wake-up per
  // reply; both are grow-only, so an identical second run of a Fig. 6(b)
  // mix stays off the heap too. The generator holds per-run burst state,
  // so each run gets its own, built before the measured window.
  const auto alg = ctx4().make_algorithm(Algorithm::deft);
  SimKnobs knobs = short_knobs();
  SimWorkspace ws;

  SimResults first;
  {
    AppTrafficGenerator traffic = app_mix(ctx4().topo(), "ST", "FL", 2.5);
    Simulator sim(ctx4().topo(), *alg, traffic, knobs);
    first = sim.run(ws);
  }

  AppTrafficGenerator traffic = app_mix(ctx4().topo(), "ST", "FL", 2.5);
  Simulator sim(ctx4().topo(), *alg, traffic, knobs);
  g_alloc_calls.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  const SimResults& second = sim.run(ws);
  g_count_allocs.store(false, std::memory_order_relaxed);
  const std::uint64_t allocs = g_alloc_calls.load(std::memory_order_relaxed);

  expect_identical(first, second);
  EXPECT_GT(second.packets_created, 0u);
  EXPECT_EQ(allocs, 0u) << "warm application run touched the heap";
}

TEST(SimWorkspace, DistinctRoutesStayFarBelowPacketCount) {
  // The premise of the interned route plane: packets heavily repeat
  // (src, dst, VL choice) tuples, so the dense RouteId array stays small
  // and cache-resident even as the packet count grows.
  const auto alg = ctx4().make_algorithm(Algorithm::deft);
  UniformTraffic traffic(ctx4().topo(), 0.02);
  SimKnobs knobs = short_knobs();
  knobs.measure = 12'000;
  SimWorkspace ws;
  Simulator sim(ctx4().topo(), *alg, traffic, knobs);
  const SimResults& r = sim.run(ws);
  ASSERT_GT(r.packets_created, 10'000u);
  // Uniform traffic draws core -> core pairs and the table VL strategy is
  // a pure function of the pair, so the route population is bounded by
  // the pair count no matter how many packets the run creates...
  const std::size_t cores = ctx4().topo().core_endpoints().size();
  EXPECT_LE(ws.distinct_routes(), cores * (cores - 1));
  // ...which is what keeps the interned plane far smaller than the
  // packet table once a run is longer than a few thousand packets.
  EXPECT_LT(ws.distinct_routes(), r.packets_created / 2);
}

TEST(AlgorithmFootprint, GridRoutingAllocatesLinearlyInRouters) {
  // DeFT and RC route every XY leg from the two routers' mesh
  // coordinates, so building an instance allocates per-chiplet and
  // per-router state only - nothing per router pair. On the 256-chiplet
  // grid (8,192 routers) a node x node next-hop table would be 64 MiB,
  // about 8 KiB per router.
  const ExperimentContext ctx(make_grid_spec(16, 16, 4, 4));
  const std::uint64_t routers =
      static_cast<std::uint64_t>(ctx.topo().num_nodes());
  for (Algorithm algorithm : {Algorithm::deft, Algorithm::rc}) {
    SCOPED_TRACE(algorithm_name(algorithm));
    g_alloc_bytes.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    const auto alg =
        ctx.make_algorithm(algorithm, {}, 2, VlStrategy::distance);
    g_count_allocs.store(false, std::memory_order_relaxed);
    const std::uint64_t bytes = g_alloc_bytes.load(std::memory_order_relaxed);
    ASSERT_NE(alg, nullptr);
    EXPECT_LT(bytes, 64 * routers)
        << bytes << " bytes for " << routers << " routers";
  }
}

}  // namespace
}  // namespace deft
