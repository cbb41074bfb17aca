// Experiment runner: shared design-time context, single-run driver, and
// the multi-threaded sweep runner.
//
// Three layers, lowest to highest:
//
//  * ExperimentContext - one topology plus the (expensive, immutable)
//    design-time artifacts the routing algorithms need: DeFT's
//    per-fault-scenario VL tables and MTR's synthesized turn restrictions.
//    Both are built lazily (thread-safely) and shared across every fault
//    scenario and simulation run; prewarm() forces them up front so pool
//    workers never serialize on the first build.
//
//  * run_sim - builds a routing-algorithm instance for one fault scenario
//    and runs one simulation. A run is a pure function of
//    (context seed, algorithm, traffic, knobs, faults, strategy): equal
//    inputs give bit-identical SimResults on any machine or thread.
//
//  * SweepRunner + ExperimentGrid - shards the cross product of
//    {algorithm x VL strategy x traffic pattern x fault count x injection
//    rate} across a std::thread pool and collects SimResults in grid
//    order. Each grid point gets its own simulation seed (derived from the
//    context seed via common/rng's SplitMix64) and each fault count gets
//    one representative non-disconnecting fault pattern (sampled from the
//    context seed), so the aggregated results are bit-identical no matter
//    how many worker threads execute the sweep.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/worker_pool.hpp"
#include "fault/scenario.hpp"
#include "routing/mtr_routing.hpp"
#include "routing/rc_routing.hpp"
#include "topology/builder.hpp"

namespace deft {

class ExperimentContext {
 public:
  explicit ExperimentContext(SystemSpec spec, std::uint64_t seed = 42);

  /// Context over the paper's 4- or 6-chiplet reference system.
  static ExperimentContext reference(int num_chiplets,
                                     std::uint64_t seed = 42);

  const Topology& topo() const { return topo_; }
  std::uint64_t seed() const { return seed_; }

  std::shared_ptr<const SystemVlTables> vl_tables() const;
  std::shared_ptr<const MtrPlan> mtr_plan() const;

  /// Forces construction of the lazy design-time artifacts. Lazy init is
  /// thread-safe on its own; prewarming before a multi-threaded sweep just
  /// keeps pool workers from serializing on the first build.
  void prewarm(bool deft_tables = true, bool mtr = true) const;

  /// Builds a routing-algorithm instance for one fault scenario. Cheap -
  /// the design-time artifacts are shared - except MTR under a non-empty
  /// fault set, which rebuilds its fault-aware distance tables.
  std::unique_ptr<RoutingAlgorithm> make_algorithm(
      Algorithm algorithm, VlFaultSet faults = {}, int num_vcs = 2,
      VlStrategy strategy = VlStrategy::table) const;

 private:
  Topology topo_;
  std::uint64_t seed_;
  mutable std::shared_ptr<const SystemVlTables> vl_tables_;
  mutable std::shared_ptr<const MtrPlan> mtr_plan_;
};

/// Builds the algorithm and runs one simulation. A non-null `timeline`
/// schedules dynamic fault events on top of the static `faults` set,
/// resolved under `policy` (see FaultTimeline / FaultSurgeon).
SimResults run_sim(const ExperimentContext& ctx, Algorithm algorithm,
                   TrafficGenerator& traffic, const SimKnobs& knobs,
                   VlFaultSet faults = {},
                   VlStrategy strategy = VlStrategy::table,
                   const FaultTimeline* timeline = nullptr,
                   InFlightPolicy policy = InFlightPolicy::drop);

/// Workspace-reusing variant: bit-identical results to the allocating
/// overload, but the simulation state lives in `ws` (warm buffers run
/// allocation-free). The returned reference is into `ws` and valid until
/// its next run.
const SimResults& run_sim(SimWorkspace& ws, const ExperimentContext& ctx,
                          Algorithm algorithm, TrafficGenerator& traffic,
                          const SimKnobs& knobs, VlFaultSet faults = {},
                          VlStrategy strategy = VlStrategy::table,
                          const FaultTimeline* timeline = nullptr,
                          InFlightPolicy policy = InFlightPolicy::drop);

/// Builds a synthetic traffic generator by pattern name: "uniform",
/// "localized", "hotspot", "transpose" or "bit-complement". Throws on an
/// unknown name.
std::unique_ptr<TrafficGenerator> make_traffic(const Topology& topo,
                                               const std::string& pattern,
                                               double rate);

/// Whether make_traffic() builds `pattern`.
bool is_traffic_pattern(const std::string& pattern);

/// The cross product of experiment axes a sweep covers. Every axis must be
/// non-empty. Expansion order (outermost to innermost loop): algorithm,
/// VL strategy, traffic pattern, fault count, injection rate, fault
/// timeline - the timeline axis is innermost (and defaults to the single
/// static-faults-only entry), so grids that do not sweep timelines keep
/// the historical point indices and per-point seeds.
struct ExperimentGrid {
  std::vector<Algorithm> algorithms = {Algorithm::deft};
  std::vector<VlStrategy> vl_strategies = {VlStrategy::table};
  std::vector<std::string> traffic_patterns = {"uniform"};
  std::vector<int> fault_counts = {0};  ///< faulty VL channels; 0 = none
  std::vector<double> injection_rates = {0.01};
  /// Dynamic fault-event timelines layered on top of each point's static
  /// fault pattern; nullptr = static faults only. Pointees must outlive
  /// the sweep.
  std::vector<const FaultTimeline*> fault_timelines = {nullptr};
  /// In-flight resolution policy for every timeline point of the grid.
  InFlightPolicy in_flight_policy = InFlightPolicy::drop;

  std::size_t size() const;
};

/// One fully-resolved grid point: the axis values plus the concrete fault
/// pattern and the per-point simulation seed.
struct ExperimentPoint {
  std::size_t index = 0;  ///< position in grid expansion order
  Algorithm algorithm = Algorithm::deft;
  VlStrategy vl_strategy = VlStrategy::table;
  std::string traffic_pattern = "uniform";
  int fault_count = 0;
  double injection_rate = 0.0;
  VlFaultSet faults;       ///< sampled representative pattern (empty if 0)
  /// Dynamic fault-event timeline of this point (nullptr = static only).
  const FaultTimeline* timeline = nullptr;
  std::uint64_t sim_seed = 0;  ///< per-point seed fed to SimKnobs::seed
};

struct SweepResult {
  ExperimentPoint point;
  SimResults results;
};

/// The representative non-disconnecting fault pattern a sweep uses for
/// `fault_count` faulty VL channels: a pure function of the context seed
/// and the fault count, so every algorithm/strategy/rate in a grid sees
/// identical faults. Throws if no valid pattern exists.
VlFaultSet grid_fault_pattern(const ExperimentContext& ctx, int fault_count);

/// Resolves a grid into its points (in expansion order), sampling fault
/// patterns and assigning per-point seeds. Deterministic: depends only on
/// the context seed and the grid.
std::vector<ExperimentPoint> expand_grid(const ExperimentContext& ctx,
                                         const ExperimentGrid& grid);

/// Runs embarrassingly-parallel experiment shards on a std::thread pool.
///
/// Determinism contract: job results are stored by index, so the output
/// vector is independent of thread count and scheduling as long as each
/// job is a pure function of its index. run() satisfies this by deriving
/// every random decision (fault patterns, simulation seeds) from the
/// context seed and the point index - never from worker identity.
class SweepRunner {
 public:
  /// num_threads = 0 picks std::thread::hardware_concurrency().
  explicit SweepRunner(int num_threads = 0);

  int num_threads() const { return num_threads_; }

  /// Runs the whole grid and returns results in grid expansion order.
  /// Prewarms the context's design-time artifacts before sharding.
  /// Each pool worker reuses one SimWorkspace across all the points it
  /// executes, so steady-state sweep execution stays off the heap; the
  /// results are still bit-identical to fresh-Simulator serial execution
  /// (tests/test_workspace.cpp). With knobs.shards > 1 on the active-set
  /// core every point runs sharded, so the pool narrows to
  /// effective_workers(shards).
  std::vector<SweepResult> run(const ExperimentContext& ctx,
                               const ExperimentGrid& grid,
                               const SimKnobs& knobs) const;

  /// Concurrent *sharded* simulations the sweep admits for a given per-run shard
  /// count: the configured pool width, capped so that
  /// `workers x shards <= hardware concurrency` (floored at one run at a
  /// time - a single sharded simulation is allowed to use every core).
  /// Results never depend on this value, only wall clock does.
  int effective_workers(int shards) const {
    if (shards <= 1) {
      return num_threads_;
    }
    const int hw = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    return std::clamp(hw / shards, 1, num_threads_);
  }

  /// Generic ordered fan-out: evaluates job(0..n-1) on the pool and
  /// returns the results indexed by job id. The first job exception (if
  /// any) is rethrown on the calling thread after the pool drains.
  /// Jobs sharing an ExperimentContext must prewarm() it first.
  template <typename T>
  std::vector<T> parallel_map(
      std::size_t n, const std::function<T(std::size_t)>& job) const {
    return parallel_map_workers<T>(
        n, [&job](int, std::size_t i) { return job(i); });
  }

  /// Worker-identity-aware fan-out: job(worker, i) with worker in
  /// [0, workers). Work stays dynamically scheduled (results depend
  /// only on i); the worker id exists solely so jobs can reuse per-worker
  /// scratch state such as a SimWorkspace. Serial execution (one worker,
  /// or n == 1) runs everything as worker 0. The two-argument overload
  /// uses the full configured pool width; the three-argument form caps it
  /// (how sharded sweeps bound their total thread footprint).
  template <typename T>
  std::vector<T> parallel_map_workers(
      std::size_t n, const std::function<T(int, std::size_t)>& job) const {
    return parallel_map_workers<T>(n, num_threads_, job);
  }

  template <typename T>
  std::vector<T> parallel_map_workers(
      std::size_t n, int max_workers,
      const std::function<T(int, std::size_t)>& job) const {
    std::vector<T> results(n);
    if (n == 0) {
      return results;
    }
    const int workers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(std::max(1, max_workers)), n));
    if (workers <= 1) {
      for (std::size_t i = 0; i < n; ++i) {
        results[i] = job(0, i);
      }
      return results;
    }
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    // WorkerPool rethrows the first job exception after the pool drains;
    // `failed` just stops scheduling further points once one throws.
    WorkerPool pool(workers - 1);
    pool.run(workers, [&](int w) {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n || failed.load()) {
          return;
        }
        try {
          results[i] = job(w, i);
        } catch (...) {
          failed.store(true);
          throw;
        }
      }
    });
    return results;
  }

 private:
  int num_threads_;
};

}  // namespace deft
