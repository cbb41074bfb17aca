// perfbench: runs one named workload and prints its metrics, with
// the result JSON as the last line of stdout. run.py builds and invokes it.
//
//   perfbench --workload <paper_load|fault_campaign|grid64_shards2>
//             --seed N --seconds S --trace 0|1 --work-dir DIR --pins-dir DIR
//             [--smoke] [--record-pins FILE]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --pins-dir DIR "
               "[--smoke] [--record-pins FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.process_start = Clock::now();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--pins-dir") {
      options.pins_dir = value;
    } else if (arg == "--record-pins") {
      options.record_pins = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (options.work_dir.empty() || options.pins_dir.empty()) {
    return usage("--work-dir and --pins-dir are required");
  }

  WorkloadResult result;
  if (options.workload == "paper_load") {
    result = run_paper_load(options);
  } else if (options.workload == "fault_campaign") {
    result = run_fault_campaign(options);
  } else if (options.workload == "grid64_shards2") {
    result = run_grid64_shards2(options);
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }
  print_result(options, result);
  return 0;
}
