// grid64_shards2: a 64-chiplet make_grid_spec(8, 8, 4, 4) system, DeFT
// with the distance VL strategy (no design-time tables), counter-mode
// route streams and uniform traffic below the knee, run through
// Simulator::run(ws) at two shards with one reused workspace whose worker
// pool persists. The only workload that runs the partitioned core, and
// its working set spills a core's L2.
#include <memory>

#include "core/runner.hpp"
#include "simrun.hpp"
#include "topology/builder.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kRuns = 4;  ///< configurations: seed-derived simulation seeds
constexpr double kRate = 0.003;

struct Config {
  std::string name;
  deft::SimKnobs knobs;
};

std::vector<Config> make_configs(std::uint64_t seed) {
  deft::Rng rng(seed);
  std::vector<Config> configs;
  for (int i = 0; i < kRuns; ++i) {
    Config c;
    c.name = "grid64/uniform/run" + std::to_string(i);
    c.knobs.warmup = 500;
    c.knobs.measure = 2'000;
    c.knobs.drain_max = 4'000;
    c.knobs.shards = 2;
    c.knobs.rng_mode = deft::RngMode::counter;
    c.knobs.seed = rng.next() >> 1;
    configs.push_back(c);
  }
  return configs;
}

class Grid64 {
 public:
  explicit Grid64(const Options& options)
      : options_(options),
        book_(options),
        tracer_(options.trace),
        configs_(make_configs(options.seed)) {}

  WorkloadResult run();

 private:
  /// The 64-chiplet topology, then one untimed warm-up pass that grows
  /// the workspace and starts its shard worker.
  void setup();
  /// One untraced two-shard run, verified; returns its results or nullptr.
  const deft::SimResults* run_plain(const Config& c);
  void trace_phase();

  const Options& options_;
  OutputBook book_;
  Tracer tracer_;
  std::vector<Config> configs_;
  std::unique_ptr<deft::ExperimentContext> ctx_;
  deft::SimWorkspace ws_;
  WorkloadResult result_;
};

void Grid64::setup() {
  ctx_.reset();
  ws_ = deft::SimWorkspace();
  {
    ScopedSpan span(tracer_, "topology.build", 0);
    ctx_ = std::make_unique<deft::ExperimentContext>(
        deft::make_grid_spec(8, 8, 4, 4));
  }
  for (const Config& c : configs_) {
    run_plain(c);
  }
}

const deft::SimResults* Grid64::run_plain(const Config& c) {
  const deft::SimResults* results = nullptr;
  result_.ops.add(guarded(c.name, [&] {
    deft::UniformTraffic traffic(ctx_->topo(), kRate);
    results = &deft::run_sim(ws_, *ctx_, deft::Algorithm::deft, traffic,
                             c.knobs, {}, deft::VlStrategy::distance);
    return book_.check(c.name, sim_digest(*results));
  }));
  return results;
}

void Grid64::trace_phase() {
  // Each configuration three times: untraced (the end-to-end path) and
  // traced two-shard, back to back in alternating order so host drift
  // hits both alike, then serially through SimStepper for the phase
  // split and the one-shard baseline. All must match the pinned digest.
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
        std::unique_ptr<deft::RoutingAlgorithm> algorithm;
        {
          ScopedSpan span(tracer_, "routing.algorithm_build", run_id);
          algorithm = ctx_->make_algorithm(deft::Algorithm::deft, {},
                                           c.knobs.num_vcs,
                                           deft::VlStrategy::distance);
        }
        std::unique_ptr<deft::TrafficGenerator> traffic;
        {
          ScopedSpan span(tracer_, "traffic.build", run_id);
          traffic = std::make_unique<deft::UniformTraffic>(ctx_->topo(), kRate);
        }
        deft::Simulator sim(ctx_->topo(), *algorithm, *traffic, c.knobs);
        ScopedSpan span(tracer_, "sim.run_shards2", run_id);
        const deft::SimResults& r = sim.run(ws_);
        totals.add(r);
        return book_.check(c.name, sim_digest(r));
      }));
      if (run_id % 2 == 0) {
        untraced();
      }
      result_.ops.add(guarded(c.name, [&] {
        ScopedSpan run_span(tracer_, "sim.run_serial", run_id);
        const auto algorithm = ctx_->make_algorithm(
            deft::Algorithm::deft, {}, c.knobs.num_vcs,
            deft::VlStrategy::distance);
        deft::UniformTraffic traffic(ctx_->topo(), kRate);
        deft::Simulator sim(ctx_->topo(), *algorithm, traffic, c.knobs);
        return book_.check(c.name, sim_digest(run_stepped(
                                       tracer_, run_id, sim, ws_, c.knobs)));
      }));
    }
  }

  LayerMetrics& layers = result_.layers;
  layers.set("topology.build_ms", tracer_.total_ns("topology.build") / 1e6);
  layers.set("routing.algorithm_build_ms",
             median(tracer_.durations("routing.algorithm_build")) / 1e6);
  layers.set("routing.algorithm_builds",
             static_cast<double>(
                 tracer_.durations("routing.algorithm_build").size()));
  layers.set("traffic.build_ms",
             median(tracer_.durations("traffic.build")) / 1e6);
  emit_stepped_metrics(tracer_, totals.flit_hops, layers);
  totals.emit(layers);
  const double serial_ns = tracer_.total_ns("sim.run_serial");
  const double sharded_ns = tracer_.total_ns("sim.run_shards2");
  layers.set("sim.shard1_ns_per_cycle",
             totals.cycles > 0.0 ? serial_ns / totals.cycles : 0.0);
  layers.set("sim.shard2_speedup",
             sharded_ns > 0.0 ? serial_ns / sharded_ns : 0.0);
  layers.set("trace.overhead_pct",
             overhead_pct(sharded_ns / 1e9, untraced_s));
}

WorkloadResult Grid64::run() {
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

WorkloadResult run_grid64_shards2(const Options& options) {
  return Grid64(options).run();
}

}  // namespace perfbench
