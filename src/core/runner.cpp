#include "core/runner.hpp"

#include <algorithm>

#include "fault/scenario.hpp"
#include "traffic/patterns.hpp"

namespace deft {

ExperimentContext::ExperimentContext(SystemSpec spec, std::uint64_t seed)
    : topo_(std::move(spec)), seed_(seed) {}

ExperimentContext ExperimentContext::reference(int num_chiplets,
                                               std::uint64_t seed) {
  return ExperimentContext(make_reference_spec(num_chiplets), seed);
}

namespace {
// Guards all contexts' lazy artifact construction. A process-wide mutex
// (rather than a member) keeps ExperimentContext copyable; contention is
// irrelevant next to the cost of a build or a simulation.
std::mutex& lazy_init_mutex() {
  static std::mutex mu;
  return mu;
}
}  // namespace

std::shared_ptr<const SystemVlTables> ExperimentContext::vl_tables() const {
  const std::lock_guard<std::mutex> lock(lazy_init_mutex());
  if (!vl_tables_) {
    Rng rng(seed_);
    vl_tables_ =
        std::make_shared<const SystemVlTables>(SystemVlTables::build(topo_, rng));
  }
  return vl_tables_;
}

std::shared_ptr<const MtrPlan> ExperimentContext::mtr_plan() const {
  const std::lock_guard<std::mutex> lock(lazy_init_mutex());
  if (!mtr_plan_) {
    mtr_plan_ = std::make_shared<const MtrPlan>(topo_);
  }
  return mtr_plan_;
}

void ExperimentContext::prewarm(bool deft_tables, bool mtr) const {
  if (deft_tables) {
    vl_tables();
  }
  if (mtr) {
    mtr_plan();
  }
}

std::unique_ptr<RoutingAlgorithm> ExperimentContext::make_algorithm(
    Algorithm algorithm, VlFaultSet faults, int num_vcs,
    VlStrategy strategy) const {
  switch (algorithm) {
    case Algorithm::deft:
      return std::make_unique<DeftRouting>(
          topo_, strategy == VlStrategy::table ? vl_tables() : nullptr,
          faults, num_vcs, strategy, seed_ ^ 0x5eed);
    case Algorithm::mtr:
      return std::make_unique<MtrRouting>(mtr_plan(), faults, num_vcs);
    case Algorithm::rc:
      return std::make_unique<RcRouting>(topo_, faults, num_vcs);
  }
  require(false, "make_algorithm: bad algorithm");
  return nullptr;
}

SimResults run_sim(const ExperimentContext& ctx, Algorithm algorithm,
                   TrafficGenerator& traffic, const SimKnobs& knobs,
                   VlFaultSet faults, VlStrategy strategy,
                   const FaultTimeline* timeline, InFlightPolicy policy) {
  const auto alg = ctx.make_algorithm(algorithm, faults, knobs.num_vcs,
                                      strategy);
  Simulator sim(ctx.topo(), *alg, traffic, knobs, faults, timeline, policy);
  return sim.run();
}

const SimResults& run_sim(SimWorkspace& ws, const ExperimentContext& ctx,
                          Algorithm algorithm, TrafficGenerator& traffic,
                          const SimKnobs& knobs, VlFaultSet faults,
                          VlStrategy strategy, const FaultTimeline* timeline,
                          InFlightPolicy policy) {
  const auto alg = ctx.make_algorithm(algorithm, faults, knobs.num_vcs,
                                      strategy);
  Simulator sim(ctx.topo(), *alg, traffic, knobs, faults, timeline, policy);
  return sim.run(ws);
}

namespace {

template <class Pattern>
std::unique_ptr<TrafficGenerator> build(const Topology& topo, double rate) {
  return std::make_unique<Pattern>(topo, rate);
}

/// Every synthetic pattern make_traffic() builds, by name.
constexpr std::pair<const char*, decltype(&build<UniformTraffic>)>
    kPatterns[] = {
        {"uniform", build<UniformTraffic>},
        {"localized", build<LocalizedTraffic>},
        {"hotspot", build<HotspotTraffic>},
        {"transpose", build<TransposeTraffic>},
        {"bit-complement", build<BitComplementTraffic>},
};

}  // namespace

bool is_traffic_pattern(const std::string& pattern) {
  return std::ranges::any_of(
      kPatterns, [&](const auto& p) { return pattern == p.first; });
}

std::unique_ptr<TrafficGenerator> make_traffic(const Topology& topo,
                                               const std::string& pattern,
                                               double rate) {
  for (const auto& [name, build_pattern] : kPatterns) {
    if (pattern == name) {
      return build_pattern(topo, rate);
    }
  }
  require(false, "make_traffic: unknown pattern " + pattern);
  return nullptr;
}

std::size_t ExperimentGrid::size() const {
  return algorithms.size() * vl_strategies.size() * traffic_patterns.size() *
         fault_counts.size() * injection_rates.size() *
         fault_timelines.size();
}

VlFaultSet grid_fault_pattern(const ExperimentContext& ctx, int fault_count) {
  if (fault_count <= 0) {
    return {};
  }
  // One stream per fault count, forked from the context seed: every point
  // in a grid that shares a fault count (and every re-expansion of the
  // same grid) sees the identical pattern.
  Rng rng = Rng(ctx.seed()).fork(0xFA17ULL + static_cast<std::uint64_t>(
                                                 fault_count));
  const auto faults = sample_fault_scenario(ctx.topo(), fault_count, rng);
  require(faults.has_value(),
          "grid_fault_pattern: no non-disconnecting pattern with " +
              std::to_string(fault_count) + " faults");
  return *faults;
}

std::vector<ExperimentPoint> expand_grid(const ExperimentContext& ctx,
                                         const ExperimentGrid& grid) {
  require(!grid.algorithms.empty() && !grid.vl_strategies.empty() &&
              !grid.traffic_patterns.empty() && !grid.fault_counts.empty() &&
              !grid.injection_rates.empty() && !grid.fault_timelines.empty(),
          "expand_grid: every grid axis must be non-empty");

  // Fault patterns are sampled once per distinct fault count, up front and
  // on the calling thread, so expansion cost does not depend on grid size
  // and sampling order does not depend on scheduling.
  std::vector<std::pair<int, VlFaultSet>> patterns;
  patterns.reserve(grid.fault_counts.size());
  for (int k : grid.fault_counts) {
    patterns.emplace_back(k, grid_fault_pattern(ctx, k));
  }
  const auto pattern_for = [&patterns](int k) -> const VlFaultSet& {
    for (const auto& [count, faults] : patterns) {
      if (count == k) {
        return faults;
      }
    }
    require(false, "expand_grid: unsampled fault count");
    return patterns.front().second;
  };

  std::vector<ExperimentPoint> points;
  points.reserve(grid.size());
  for (Algorithm algorithm : grid.algorithms) {
    for (VlStrategy strategy : grid.vl_strategies) {
      for (const std::string& pattern : grid.traffic_patterns) {
        for (int fault_count : grid.fault_counts) {
          for (double rate : grid.injection_rates) {
            for (const FaultTimeline* timeline : grid.fault_timelines) {
              ExperimentPoint point;
              point.index = points.size();
              point.algorithm = algorithm;
              point.vl_strategy = strategy;
              point.traffic_pattern = pattern;
              point.fault_count = fault_count;
              point.injection_rate = rate;
              point.faults = pattern_for(fault_count);
              point.timeline = timeline;
              // Per-point simulation seed via SplitMix64 (common/rng): a
              // pure function of (context seed, grid index), never of the
              // worker that happens to execute the point.
              std::uint64_t state =
                  ctx.seed() ^ (0x9e3779b97f4a7c15ULL * (point.index + 1));
              point.sim_seed = split_mix64(state);
              points.push_back(std::move(point));
            }
          }
        }
      }
    }
  }
  return points;
}

SweepRunner::SweepRunner(int num_threads) : num_threads_(num_threads) {
  if (num_threads_ <= 0) {
    num_threads_ =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
}

std::vector<SweepResult> SweepRunner::run(const ExperimentContext& ctx,
                                          const ExperimentGrid& grid,
                                          const SimKnobs& knobs) const {
  const std::vector<ExperimentPoint> points = expand_grid(ctx, grid);

  bool wants_tables = false;
  bool wants_mtr = false;
  for (const ExperimentPoint& point : points) {
    wants_tables |= point.algorithm == Algorithm::deft &&
                    point.vl_strategy == VlStrategy::table;
    wants_mtr |= point.algorithm == Algorithm::mtr;
  }
  ctx.prewarm(wants_tables, wants_mtr);

  // One workspace per pool worker: a worker's simulation state is reused
  // across every point it executes (reset, not reallocated, between
  // points), which is where the sweep's many-short-runs cost went. Sharded
  // points (the active-set core at shards > 1) each own a `shards`-wide
  // worker pool, so the sweep runs at most effective_workers(shards) of
  // them at a time, keeping shards x concurrent runs within the hardware.
  const int workers = effective_workers(
      knobs.core == SimCore::active_set ? knobs.shards : 1);
  std::vector<SimWorkspace> workspaces(static_cast<std::size_t>(workers));
  std::vector<SimResults> results = parallel_map_workers<SimResults>(
      points.size(), workers, [&](int worker, std::size_t i) {
        const ExperimentPoint& point = points[i];
        const auto traffic = make_traffic(ctx.topo(), point.traffic_pattern,
                                          point.injection_rate);
        SimKnobs point_knobs = knobs;
        point_knobs.seed = point.sim_seed;
        return run_sim(workspaces[static_cast<std::size_t>(worker)], ctx,
                       point.algorithm, *traffic, point_knobs, point.faults,
                       point.vl_strategy, point.timeline,
                       grid.in_flight_policy);
      });

  std::vector<SweepResult> sweep;
  sweep.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    sweep.push_back(SweepResult{points[i], std::move(results[i])});
  }
  return sweep;
}

}  // namespace deft
