// deft_sim: the command-line simulation driver (the Noxim-equivalent
// front door of the library).
//
//   $ ./deft_sim config.cfg              # run a configuration file
//   $ ./deft_sim                         # built-in default configuration
//   $ ./deft_sim --shards 4 config.cfg   # partitioned core on 4 threads
//   $ ./deft_sim --dump-default > a.cfg  # start from a template
//
// `--dump-default` prints every config key at its default with a one-line
// doc; the format rules are in src/core/config_file.hpp. `--shards N`
// overrides the config's `shards` key, with that key's range check
// (results are bit-identical for every shard count).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/config_file.hpp"
#include "topology/builder.hpp"

namespace {

/// Runs `config` and prints its report; returns the exit status (2 on a
/// detected deadlock).
int simulate(const deft::SimulationConfig& config) {
  using namespace deft;
  const ExperimentContext ctx(make_reference_spec(config.chiplets),
                              config.knobs.seed);
  const Topology& topo = ctx.topo();
  const VlFaultSet faults = config.faults(topo);
  const FaultTimeline timeline = config.fault_events(topo);
  const FaultTimeline* timeline_ptr = timeline.empty() ? nullptr : &timeline;
  std::printf("deft_sim: %d chiplets, %s routing (%s VL selection), %s "
              "traffic @ %.4f pkt/cyc/core",
              config.chiplets, algorithm_name(config.algorithm),
              vl_strategy_name(config.vl_strategy), config.traffic.c_str(),
              config.rate);
  if (config.knobs.shards > 1) {
    std::printf(", %d shards", config.knobs.shards);
  }
  if (!faults.empty()) {
    std::printf(", faults %s", faults.to_string().c_str());
  }
  if (timeline_ptr != nullptr) {
    std::printf(", %zu fault events (policy %s)", timeline.size(),
                in_flight_policy_name(config.fault_policy));
  }
  std::puts("");

  const auto traffic = config.make_traffic(topo);
  const SimResults r =
      run_sim(ctx, config.algorithm, *traffic, config.knobs, faults,
              config.vl_strategy, timeline_ptr, config.fault_policy);

  std::printf("cycles simulated:     %lld\n",
              static_cast<long long>(r.cycles_run));
  std::printf("packets measured:     %llu created, %llu delivered\n",
              static_cast<unsigned long long>(r.packets_created_measured),
              static_cast<unsigned long long>(r.packets_delivered_measured));
  std::printf("unroutable packets:   %llu\n",
              static_cast<unsigned long long>(r.packets_dropped_unroutable));
  if (timeline_ptr != nullptr || !faults.empty()) {
    std::printf("fault window:         %llu lost, %.4f delivery ratio",
                static_cast<unsigned long long>(r.packets_lost),
                r.fault_window_delivery_ratio());
    if (r.reconvergence_latency >= 0) {
      std::printf(", reconverged in %lld cycles",
                  static_cast<long long>(r.reconvergence_latency));
    }
    std::puts("");
  }
  std::printf("network latency:      %.2f avg / %.1f p50 / %.1f p95 / %.0f "
              "max (cycles)\n",
              r.network_latency.mean, r.network_latency.p50,
              r.network_latency.p95, r.network_latency.max);
  std::printf("end-to-end latency:   %.2f avg (cycles)\n",
              r.total_latency.mean);
  std::printf("throughput:           %.4f flits/cycle/endpoint\n",
              r.throughput(static_cast<int>(topo.endpoints().size())));
  for (int region = 0; region <= topo.num_chiplets(); ++region) {
    std::printf("VC utilization %-9s",
                region == topo.num_chiplets()
                    ? "intrpsr:"
                    : ("chip-" + std::to_string(region) + ":").c_str());
    for (int vc = 0; vc < config.knobs.num_vcs; ++vc) {
      std::printf(" %5.1f%%", 100.0 * r.vc_utilization(region, vc));
    }
    std::puts("");
  }
  std::printf("status:               %s%s\n", r.drained ? "drained" : "not drained (saturated)",
              r.deadlock_detected ? ", DEADLOCK DETECTED" : "");
  return r.deadlock_detected ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deft;
  // Every failure - a bad option or config, an unreadable trace_file, a
  // fault list the topology rejects - is reported on stderr with exit
  // status 1.
  try {
    const char* config_path = nullptr;
    const char* shards = nullptr;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--dump-default") == 0) {
        std::fputs(config_template().c_str(), stdout);
        return 0;
      }
      if (std::strcmp(argv[i], "--shards") == 0) {
        require(i + 1 < argc && *argv[i + 1] != '\0',
                "--shards needs a value");
        shards = argv[++i];
        continue;
      }
      require(config_path == nullptr,
              std::string("one config path expected, got a second: ") +
                  argv[i]);
      config_path = argv[i];
    }
    SimulationConfig config;
    if (config_path != nullptr) {
      std::ifstream file(config_path);
      require(file.good(), std::string("cannot open ") + config_path);
      config = parse_simulation_config(file);
    }
    if (shards != nullptr) {
      apply_config_line(config, {0, "shards", shards});
    }
    return simulate(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
