#include "core/config_file.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <functional>
#include <istream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

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

/// Rethrows `e`, the exception being handled, as "config: line N: <what>",
/// dropping a leading "config: " from the inner message so the prefix
/// never doubles up. Without a line (0) `e` is rethrown as it is.
[[noreturn]] void rethrow_with_line(int line_no, const std::exception& e) {
  if (line_no <= 0) {
    throw;
  }
  std::string what = e.what();
  constexpr const char* kPrefix = "config: ";
  if (what.rfind(kPrefix, 0) == 0) {
    what.erase(0, std::string(kPrefix).size());
  }
  throw std::invalid_argument("config: line " + std::to_string(line_no) +
                              ": " + what);
}

/// One config key: its name, a one-line doc, how a line's value is parsed
/// into a SimulationConfig, and how a config's setting prints back as a
/// value ("" = unset).
struct ConfigKey {
  std::string name;
  std::string doc;
  std::function<void(SimulationConfig&, const ConfigLine&)> parse;
  std::function<std::string(const SimulationConfig&)> print;
};

/// A key's field in a config: a member of the config itself or of its
/// knobs.
template <typename Config, typename T>
auto& at(Config& config, T SimulationConfig::*field) {
  return config.*field;
}
template <typename Config, typename T>
auto& at(Config& config, T SimKnobs::*field) {
  return config.knobs.*field;
}

/// A key whose value `parse` converts into `field`, and whose setting
/// `print` turns back into text.
template <typename Part, typename T, typename Parse, typename Print>
ConfigKey field_key(std::string name, T Part::*field, Parse parse,
                    Print print, std::string doc) {
  return {std::move(name), std::move(doc),
          [=](SimulationConfig& c, const ConfigLine& line) {
            at(c, field) = parse(line.value);
          },
          [=](const SimulationConfig& c) {
            return std::string(print(at(c, field)));
          }};
}

/// An integer or number key in [lo, hi], printed as the shortest text that
/// parses back to the same value. Zero prints empty: trace_cycles = 0
/// means unset.
template <typename Part, typename T>
ConfigKey ranged(const std::string& name, T Part::*field, long lo, long hi,
                 std::string doc) {
  return field_key(
      name, field,
      [=](const std::string& value) {
        if constexpr (std::is_integral_v<T>) {
          return static_cast<T>(parse_int(name, value, lo, hi));
        } else {
          return parse_double(name, value, lo, hi);
        }
      },
      [](T setting) {
        char buf[32];
        char* end = std::to_chars(buf, buf + sizeof(buf), setting).ptr;
        return setting == T{} ? std::string() : std::string(buf, end);
      },
      std::move(doc));
}

/// A key spelled `a` or `b`.
template <typename Part, typename T>
ConfigKey named(const std::string& name, T Part::*field,
                std::pair<std::string, T> a, std::pair<std::string, T> b,
                std::string doc) {
  return field_key(
      name, field,
      [=](const std::string& value) {
        require(value == a.first || value == b.first,
                "config: key '" + name + "' must be " + a.first + " or " +
                    b.first + ", got '" + value + "'");
        return value == a.first ? a.second : b.second;
      },
      [=](T setting) { return setting == a.second ? a.first : b.first; },
      std::move(doc));
}

/// A fault list, resolved against the topology after parsing; `line`
/// records its source line so that resolution errors keep it.
ConfigKey fault_list(std::string name, std::string SimulationConfig::*field,
                     int SimulationConfig::*line, std::string doc) {
  return {std::move(name), std::move(doc),
          [=](SimulationConfig& c, const ConfigLine& l) {
            c.*field = l.value;
            c.*line = l.number;
          },
          [=](const SimulationConfig& c) { return c.*field; }};
}

/// Every config key, in template order. This is the only place a key is
/// declared.
const std::vector<ConfigKey>& config_keys() {
  using C = SimulationConfig;
  using K = SimKnobs;
  static const std::vector<ConfigKey> keys = {
      named("chiplets", &C::chiplets, {"4", 4}, {"6", 6},
            "4 | 6 (the paper's reference systems)"),
      field_key("algorithm", &C::algorithm, parse_algorithm, algorithm_name,
                "deft | mtr | rc (any case)"),
      field_key("vl_strategy", &C::vl_strategy, parse_vl_strategy,
                vl_strategy_name, "table | distance | random (DeFT only)"),
      field_key(
          "traffic", &C::traffic,
          [](const std::string& value) {
            require(value == "trace" || is_traffic_pattern(value),
                    "config: unknown traffic pattern '" + value + "'");
            return value;
          },
          std::identity(),
          "uniform | localized | hotspot | transpose | bit-complement | trace"),
      ranged("rate", &C::rate, 0, 1, "packets/cycle/core"),
      ranged("vcs", &K::num_vcs, 1, 4, "virtual channels per port"),
      ranged("buffer_depth", &K::buffer_depth, 1, 8, "flits per VC buffer"),
      ranged("packet_size", &K::packet_size, 1, 64, "flits per packet"),
      ranged("vl_serialization", &K::vl_serialization, 1, 32,
             ">1 models serialized (narrower) vertical links"),
      ranged("warmup", &K::warmup, 0, 100'000'000, "cycles before measuring"),
      ranged("measure", &K::measure, 1, 100'000'000, "measured cycles"),
      ranged("drain_max", &K::drain_max, 0, 100'000'000,
             "most cycles spent draining after measure"),
      ranged("seed", &K::seed, 0, std::numeric_limits<long>::max(),
             "seeds traffic and routing randomness"),
      ranged("shards", &K::shards, 1, kMaxSimShards,
             "worker threads of the partitioned core"),
      named("rng_mode", &K::rng_mode, {"serial", RngMode::serial},
            {"counter", RngMode::counter},
            "serial | counter (per-NI route streams)"),
      fault_list("faults", &C::fault_spec, &C::fault_spec_line,
                 "faulty VL channels, e.g. 0v 3^ (<vl>v = down, <vl>^ = up)"),
      fault_list("fault_events", &C::fault_events_spec, &C::fault_events_line,
                 "mid-run events, e.g. 15000:2v 25000:2v:repair"),
      named("fault_policy", &C::fault_policy, {"drop", InFlightPolicy::drop},
            {"reroute", InFlightPolicy::reroute},
            "drop | reroute (in-flight packets on a fail event)"),
      field_key("trace_file", &C::trace_file, std::identity(),
                std::identity(),
                "traffic = trace: replay this `cycle src dst app` file"),
      ranged("trace_cycles", &C::trace_cycles, 1, 100'000'000,
             "... or record uniform traffic at `rate` for N cycles"),
  };
  return keys;
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
    rethrow_with_line(fault_spec_line, e);
  }
}

FaultTimeline SimulationConfig::fault_events(const Topology& topo) const {
  if (fault_events_spec.empty()) {
    return {};
  }
  try {
    return FaultTimeline::parse(fault_events_spec, topo);
  } catch (const std::exception& e) {
    rethrow_with_line(fault_events_line, e);
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

bool next_config_line(std::istream& in, ConfigLine& line) {
  std::string text;
  while (std::getline(in, text)) {
    ++line.number;
    text = trim(text.substr(0, text.find('#')));
    if (text.empty()) {
      continue;
    }
    const auto eq = text.find('=');
    require(eq != std::string::npos, "config: line " +
                                         std::to_string(line.number) +
                                         " is not 'key = value'");
    line.key = trim(text.substr(0, eq));
    line.value = trim(text.substr(eq + 1));
    require(!line.key.empty(),
            "config: empty key on line " + std::to_string(line.number));
    return true;
  }
  return false;
}

void apply_config_line(SimulationConfig& config, const ConfigLine& line) {
  try {
    const std::vector<ConfigKey>& keys = config_keys();
    const auto key = std::ranges::find(keys, line.key, &ConfigKey::name);
    require(key != keys.end(), "config: unknown key '" + line.key + "'");
    if (!line.value.empty()) {
      key->parse(config, line);
    }
  } catch (const std::exception& e) {
    rethrow_with_line(line.number, e);
  }
}

SimulationConfig parse_simulation_config(std::istream& in) {
  SimulationConfig config;
  ConfigLine line;
  while (next_config_line(in, line)) {
    apply_config_line(config, line);
  }
  return config;
}

SimulationConfig parse_simulation_config(const std::string& text) {
  std::istringstream in(text);
  return parse_simulation_config(in);
}

std::string config_template() {
  const SimulationConfig defaults;
  std::string text =
      "# deft_sim configuration: every key at its default. `#` starts a\n"
      "# comment, and an empty value keeps the default.\n";
  for (const ConfigKey& key : config_keys()) {
    std::string line = key.name + " = " + key.print(defaults);
    line.resize(std::max<std::size_t>(line.size() + 1, 22), ' ');
    text += line + "# " + key.doc + "\n";
  }
  return text;
}

}  // namespace deft
