#include "core/config_file.hpp"

#include <fstream>
#include <istream>
#include <limits>
#include <sstream>

#include "traffic/trace.hpp"

namespace deft {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) {
    return "";
  }
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

long parse_int(const std::string& key, const std::string& value, long lo,
               long hi) {
  std::size_t used = 0;
  long parsed = 0;
  try {
    parsed = std::stol(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  require(used == value.size(),
          "config: key '" + key + "' expects an integer, got '" + value + "'");
  require(parsed >= lo && parsed <= hi,
          "config: key '" + key + "' out of range [" + std::to_string(lo) +
              ", " + std::to_string(hi) + "]");
  return parsed;
}

double parse_double(const std::string& key, const std::string& value,
                    double lo, double hi) {
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  require(used == value.size(),
          "config: key '" + key + "' expects a number, got '" + value + "'");
  require(parsed >= lo && parsed <= hi,
          "config: key '" + key + "' out of range");
  return parsed;
}

/// Rethrows `e` as "config: line N: <what>", dropping a leading
/// "config: " from the inner message so the prefix never doubles up.
[[noreturn]] void rethrow_with_line(int line_no, const std::exception& e) {
  std::string what = e.what();
  constexpr const char* kPrefix = "config: ";
  if (what.rfind(kPrefix, 0) == 0) {
    what.erase(0, std::string(kPrefix).size());
  }
  throw std::invalid_argument("config: line " + std::to_string(line_no) +
                              ": " + what);
}

}  // namespace

VlFaultSet SimulationConfig::faults(const Topology& topo) const {
  try {
    VlFaultSet set;
    std::istringstream in(fault_spec);
    std::string token;
    while (in >> token) {
      require(token.size() >= 2 &&
                  (token.back() == 'v' || token.back() == '^'),
              "config: fault channel '" + token + "' must be <vl>v or <vl>^");
      const long vl =
          parse_int("faults", token.substr(0, token.size() - 1), 0,
                    topo.num_vls() - 1);
      set.set_faulty(token.back() == 'v'
                         ? topo.vl(static_cast<VlId>(vl)).down_vl_channel()
                         : topo.vl(static_cast<VlId>(vl)).up_vl_channel());
    }
    return set;
  } catch (const std::exception& e) {
    if (fault_spec_line > 0) {
      rethrow_with_line(fault_spec_line, e);
    }
    throw;
  }
}

FaultTimeline SimulationConfig::fault_events(const Topology& topo) const {
  if (fault_events_spec.empty()) {
    return {};
  }
  try {
    return FaultTimeline::parse(fault_events_spec, topo);
  } catch (const std::exception& e) {
    if (fault_events_line > 0) {
      rethrow_with_line(fault_events_line, e);
    }
    throw;
  }
}

std::unique_ptr<TrafficGenerator> SimulationConfig::make_traffic(
    const Topology& topo) const {
  if (traffic != "trace") {
    return deft::make_traffic(topo, traffic, rate);
  }
  if (!trace_file.empty()) {
    std::ifstream in(trace_file);
    require(in.good(), "config: cannot open trace_file '" + trace_file + "'");
    return std::make_unique<TraceReplayGenerator>(parse_trace(in));
  }
  require(trace_cycles > 0,
          "config: traffic = trace needs trace_file or trace_cycles");
  // The synthetic replay workload the perf matrix uses: a uniform run at
  // `rate` recorded over the requested window.
  return std::make_unique<TraceReplayGenerator>(
      record_uniform_trace(topo, rate, trace_cycles));
}

SimulationConfig parse_simulation_config(std::istream& in) {
  SimulationConfig config;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto comment = line.find('#');
    if (comment != std::string::npos) {
      line.resize(comment);
    }
    const std::string trimmed = trim(line);
    if (trimmed.empty()) {
      continue;
    }
    const auto eq = trimmed.find('=');
    require(eq != std::string::npos, "config: line " +
                                         std::to_string(line_no) +
                                         " is not 'key = value'");
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    require(!key.empty(),
            "config: empty key on line " + std::to_string(line_no));
    if (value.empty()) {
      // An empty value means "keep the default" (it lets templates list
      // optional keys like `faults =`).
      continue;
    }

    try {
    if (key == "chiplets") {
      require(value == "4" || value == "6",
              "config: key 'chiplets' must be 4 or 6, got '" + value + "'");
      config.chiplets = std::stoi(value);
    } else if (key == "algorithm") {
      config.algorithm = parse_algorithm(value);
    } else if (key == "vl_strategy") {
      config.vl_strategy = parse_vl_strategy(value);
    } else if (key == "traffic") {
      require(value == "trace" || is_traffic_pattern(value),
              "config: unknown traffic pattern '" + value + "'");
      config.traffic = value;
    } else if (key == "rate") {
      config.rate = parse_double(key, value, 0.0, 1.0);
    } else if (key == "vcs") {
      config.knobs.num_vcs = static_cast<int>(parse_int(key, value, 1, 4));
    } else if (key == "buffer_depth") {
      config.knobs.buffer_depth =
          static_cast<int>(parse_int(key, value, 1, 8));
    } else if (key == "packet_size") {
      config.knobs.packet_size =
          static_cast<int>(parse_int(key, value, 1, 64));
    } else if (key == "vl_serialization") {
      config.knobs.vl_serialization =
          static_cast<int>(parse_int(key, value, 1, 32));
    } else if (key == "warmup") {
      config.knobs.warmup = parse_int(key, value, 0, 100'000'000);
    } else if (key == "measure") {
      config.knobs.measure = parse_int(key, value, 1, 100'000'000);
    } else if (key == "drain_max") {
      config.knobs.drain_max = parse_int(key, value, 0, 100'000'000);
    } else if (key == "seed") {
      config.knobs.seed = static_cast<std::uint64_t>(
          parse_int(key, value, 0, std::numeric_limits<long>::max()));
    } else if (key == "faults") {
      config.fault_spec = value;
      config.fault_spec_line = line_no;
    } else if (key == "fault_events") {
      config.fault_events_spec = value;
      config.fault_events_line = line_no;
    } else if (key == "fault_policy") {
      if (value == "drop") {
        config.fault_policy = InFlightPolicy::drop;
      } else if (value == "reroute") {
        config.fault_policy = InFlightPolicy::reroute;
      } else {
        require(false, "config: fault_policy must be drop or reroute, got '" +
                           value + "'");
      }
    } else if (key == "shards") {
      config.knobs.shards =
          static_cast<int>(parse_int(key, value, 1, kMaxSimShards));
    } else if (key == "rng_mode") {
      if (value == "serial") {
        config.knobs.rng_mode = RngMode::serial;
      } else if (value == "counter") {
        config.knobs.rng_mode = RngMode::counter;
      } else {
        require(false, "config: rng_mode must be serial or counter, got '" +
                           value + "'");
      }
    } else if (key == "trace_file") {
      config.trace_file = value;
    } else if (key == "trace_cycles") {
      config.trace_cycles = parse_int(key, value, 1, 100'000'000);
    } else {
      require(false, "config: unknown key '" + key + "'");
    }
    } catch (const std::exception& e) {
      rethrow_with_line(line_no, e);
    }
  }
  return config;
}

SimulationConfig parse_simulation_config(const std::string& text) {
  std::istringstream in(text);
  return parse_simulation_config(in);
}

}  // namespace deft
