// deft_sim: the command-line simulation driver (the Noxim-equivalent
// front door of the library).
//
//   $ ./deft_sim config.cfg              # run a configuration file
//   $ ./deft_sim                         # built-in default configuration
//   $ ./deft_sim --shards 4 config.cfg   # partitioned core on 4 threads
//   $ ./deft_sim --dump-default > a.cfg  # start from a template
//
// The configuration format is documented in src/core/config_file.hpp.
// `--shards N` overrides the config's `shards` key (results are
// bit-identical for every shard count).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/config_file.hpp"
#include "topology/builder.hpp"

namespace {

constexpr const char* kDefaultConfig = R"(# deft_sim configuration
chiplets   = 4          # 4 or 6 (the paper's reference systems)
algorithm  = deft       # deft | mtr | rc
vl_strategy = table     # table | distance | random (DeFT only)
traffic    = uniform    # uniform | localized | hotspot | transpose |
                        # bit-complement | trace (see trace_file below)
rate       = 0.008      # packets/cycle/core
vcs        = 2
buffer_depth = 4
packet_size  = 8
vl_serialization = 1    # >1 models serialized (narrower) vertical links
warmup     = 10000
measure    = 30000
drain_max  = 100000
seed       = 1
shards     = 1          # worker threads of the partitioned core
faults     =            # e.g.: 0v 3^ 12v  (<vl>v = down half, <vl>^ = up)
fault_events =          # mid-run events, e.g.: 15000:2v 25000:2v:repair
fault_policy = drop     # drop | reroute (in-flight packets on a fail event)
trace_file =            # traffic = trace: replay this `cycle src dst app` file
trace_cycles =          # ... or record a uniform workload over N cycles
)";

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
  const char* config_path = nullptr;
  int shards_override = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dump-default") == 0) {
      std::fputs(kDefaultConfig, stdout);
      return 0;
    }
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards_override = std::atoi(argv[++i]);  // validated below
      continue;
    }
    config_path = argv[i];
  }

  // Every failure - a bad config, an unreadable trace_file, a fault list
  // the topology rejects - is reported on stderr with exit status 1.
  try {
    SimulationConfig config;
    if (config_path != nullptr) {
      std::ifstream file(config_path);
      require(file.good(), std::string("cannot open ") + config_path);
      config = parse_simulation_config(file);
    } else {
      config = parse_simulation_config(std::string(kDefaultConfig));
    }
    if (shards_override != 0) {
      require(shards_override >= 1 && shards_override <= kMaxSimShards,
              "--shards must be in [1, " + std::to_string(kMaxSimShards) +
                  "]");
      config.knobs.shards = shards_override;
    }
    return simulate(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
