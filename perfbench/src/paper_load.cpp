// paper_load: the paper's congested operating points, run long on one
// thread with one reused SimWorkspace. The 6-chiplet reference runs
// uniform traffic at 0.008 and hotspot at 0.006 (Fig. 4); the 4-chiplet
// reference runs the two-application PARSEC-profile mixes ST+FL and BO+CA
// at rate scale 2.5 (Fig. 6(b)), which take AppTrafficGenerator's polling
// path. Each for DeFT, MTR and RC. The router pipeline, NIs and RC units
// do nearly all the work, and the working set stays in a core's L2.
#include <memory>

#include "core/runner.hpp"
#include "simrun.hpp"
#include "topology/builder.hpp"
#include "traffic/app_profiles.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Context seed of the reference designs (ExperimentContext's default).
constexpr std::uint64_t kReferenceSeed = 42;

struct Config {
  std::string name;  ///< pin key
  int chiplets = 4;
  deft::Algorithm algorithm = deft::Algorithm::deft;
  std::string traffic;  ///< "uniform", "hotspot", or an "AA+BB" app mix
  double rate = 0.0;    ///< pattern rate, or the app mix's rate scale
  deft::SimKnobs knobs;
};

/// Twelve configurations with seed-derived simulation seeds, in a
/// seed-shuffled order.
std::vector<Config> make_configs(std::uint64_t seed) {
  struct Point {
    int chiplets;
    const char* traffic;
    double rate;
  };
  const Point points[] = {{6, "uniform", 0.008},
                          {6, "hotspot", 0.006},
                          {4, "ST+FL", 2.5},
                          {4, "BO+CA", 2.5}};
  deft::Rng rng(seed);
  std::vector<Config> configs;
  for (const Point& p : points) {
    for (const deft::Algorithm a :
         {deft::Algorithm::deft, deft::Algorithm::mtr, deft::Algorithm::rc}) {
      Config c;
      c.name = "sys" + std::to_string(p.chiplets) + "/" + p.traffic + "/" +
               deft::algorithm_name(a);
      c.chiplets = p.chiplets;
      c.algorithm = a;
      c.traffic = p.traffic;
      c.rate = p.rate;
      c.knobs.warmup = 2'000;
      c.knobs.measure = 10'000;
      c.knobs.drain_max = 8'000;
      c.knobs.seed = rng.next() >> 1;
      configs.push_back(c);
    }
  }
  for (std::size_t i = configs.size() - 1; i > 0; --i) {
    std::swap(configs[i], configs[rng.uniform(i + 1)]);
  }
  return configs;
}

std::unique_ptr<deft::TrafficGenerator> build_traffic(
    const Config& c, const deft::Topology& topo) {
  if (c.traffic.find('+') == std::string::npos) {
    return deft::make_traffic(topo, c.traffic, c.rate);
  }
  // Fig. 6(b): the first application on chiplets 0-1, the second on 2-3.
  auto assign = [&](const std::string& code, int first_chiplet) {
    deft::AppAssignment a{deft::profile_by_code(code), {}};
    for (int chip = first_chiplet; chip < first_chiplet + 2; ++chip) {
      const auto& nodes = topo.chiplet_nodes(chip);
      a.cores.insert(a.cores.end(), nodes.begin(), nodes.end());
    }
    return a;
  };
  return std::make_unique<deft::AppTrafficGenerator>(
      topo,
      std::vector<deft::AppAssignment>{assign(c.traffic.substr(0, 2), 0),
                                       assign(c.traffic.substr(3, 2), 2)},
      c.rate);
}

class PaperLoad {
 public:
  explicit PaperLoad(const Options& options)
      : options_(options),
        book_(options),
        tracer_(options.trace),
        configs_(make_configs(options.seed)) {}

  WorkloadResult run();

 private:
  /// Reference contexts with their design-time artifacts, then one
  /// untimed warm-up pass over every configuration.
  void setup();
  const deft::ExperimentContext& context(const Config& c) const {
    return c.chiplets == 4 ? *ref4_ : *ref6_;
  }
  /// One untraced run, verified; returns its results or nullptr.
  const deft::SimResults* run_plain(const Config& c);
  void trace_phase();

  const Options& options_;
  OutputBook book_;
  Tracer tracer_;
  std::vector<Config> configs_;
  std::unique_ptr<deft::ExperimentContext> ref4_;
  std::unique_ptr<deft::ExperimentContext> ref6_;
  deft::SimWorkspace ws_;
  WorkloadResult result_;
};

void PaperLoad::setup() {
  ref4_.reset();
  ref6_.reset();
  ws_ = deft::SimWorkspace();
  for (auto [ctx, chiplets] :
       {std::pair{&ref4_, 4}, std::pair{&ref6_, 6}}) {
    {
      ScopedSpan span(tracer_, "topology.build", 0);
      *ctx = std::make_unique<deft::ExperimentContext>(
          deft::make_reference_spec(chiplets), kReferenceSeed);
    }
    {
      ScopedSpan span(tracer_, "vlsel.tables", 0);
      (*ctx)->vl_tables();
    }
    {
      ScopedSpan span(tracer_, "routing.mtr_plan", 0);
      (*ctx)->mtr_plan();
    }
  }
  for (const Config& c : configs_) {
    run_plain(c);
  }
}

const deft::SimResults* PaperLoad::run_plain(const Config& c) {
  const deft::SimResults* results = nullptr;
  result_.ops.add(guarded(c.name, [&] {
    const deft::ExperimentContext& ctx = context(c);
    const std::unique_ptr<deft::TrafficGenerator> traffic =
        build_traffic(c, ctx.topo());
    results = &deft::run_sim(ws_, ctx, c.algorithm, *traffic, c.knobs);
    return book_.check(c.name, sim_digest(*results));
  }));
  return results;
}

void PaperLoad::trace_phase() {
  // Each configuration runs untraced (the end-to-end path) and traced,
  // back to back in alternating order, so host drift hits both alike.
  double untraced_s = 0.0;
  SimTotals totals;
  std::uint32_t run_id = 0;
  for (int pass = 0; pass < options_.trace_passes(); ++pass) {
    for (const Config& c : configs_) {
      ++run_id;
      auto untraced = [&] {
        const Clock::time_point t0 = Clock::now();
        run_plain(c);
        untraced_s += seconds_between(t0, Clock::now());
      };
      if (run_id % 2 == 1) {
        untraced();
      }
      result_.ops.add(guarded(c.name, [&] {
        ScopedSpan run_span(tracer_, "run", run_id);
        const deft::ExperimentContext& ctx = context(c);
        std::unique_ptr<deft::RoutingAlgorithm> algorithm;
        {
          ScopedSpan span(tracer_, "routing.algorithm_build", run_id);
          algorithm = ctx.make_algorithm(c.algorithm, {}, c.knobs.num_vcs);
        }
        std::unique_ptr<deft::TrafficGenerator> traffic;
        {
          ScopedSpan span(tracer_, "traffic.build", run_id);
          traffic = build_traffic(c, ctx.topo());
        }
        deft::Simulator sim(ctx.topo(), *algorithm, *traffic, c.knobs);
        const deft::SimResults& r =
            run_stepped(tracer_, run_id, sim, ws_, c.knobs);
        totals.add(r);
        return book_.check(c.name, sim_digest(r));
      }));
      if (run_id % 2 == 0) {
        untraced();
      }
    }
  }

  LayerMetrics& layers = result_.layers;
  layers.set("topology.build_ms", tracer_.total_ns("topology.build") / 1e6);
  layers.set("vlsel.tables_s", tracer_.total_ns("vlsel.tables") / 1e9);
  layers.set("routing.mtr_plan_s", tracer_.total_ns("routing.mtr_plan") / 1e9);
  layers.set("routing.algorithm_build_ms",
             median(tracer_.durations("routing.algorithm_build")) / 1e6);
  layers.set("routing.algorithm_builds",
             static_cast<double>(
                 tracer_.durations("routing.algorithm_build").size()));
  layers.set("traffic.build_ms",
             median(tracer_.durations("traffic.build")) / 1e6);
  emit_stepped_metrics(tracer_, totals.flit_hops, layers);
  totals.emit(layers);
  layers.set("trace.overhead_pct",
             overhead_pct(tracer_.total_ns("run") / 1e9, untraced_s));
}

WorkloadResult PaperLoad::run() {
  result_.e2e.setup_s = timed_setups(options_, [this] { setup(); });
  if (options_.trace) {
    trace_phase();
  } else {
    timed_passes(options_, configs_.size(),
                 [this](std::size_t i) { return run_plain(configs_[i]); },
                 result_.e2e);
  }
  book_.save();
  if (tracer_.enabled()) {
    write_trace(options_, tracer_);
  }
  return std::move(result_);
}

}  // namespace

WorkloadResult run_paper_load(const Options& options) {
  return PaperLoad(options).run();
}

}  // namespace perfbench
