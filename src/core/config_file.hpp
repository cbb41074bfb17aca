// Minimal key=value configuration files for the CLI simulation driver and
// the campaign service's spool requests.
//
// Format: one `key = value` per line; `#` starts a comment; whitespace
// around keys and values is ignored. An empty value keeps the key's
// default, so a template can list optional keys as `faults =`. Unknown
// keys are an error (typos should not silently fall back to defaults),
// and every error names its source line.
//
// Each key is declared once, in the key table in config_file.cpp: its
// name, a one-line doc, its parser and its printer. config_template()
// prints every key at its default with its doc, and
// `example_deft_sim --dump-default` writes it out as the template to
// start a config from.
#pragma once

#include <iosfwd>
#include <string>

#include "core/runner.hpp"

namespace deft {

/// A fully parsed simulation configuration.
struct SimulationConfig {
  int chiplets = 4;
  Algorithm algorithm = Algorithm::deft;
  VlStrategy vl_strategy = VlStrategy::table;
  std::string traffic = "uniform";
  double rate = 0.008;
  SimKnobs knobs;
  std::string fault_spec;  ///< raw channel list, resolved against the topo
  /// Raw dynamic fault-event list, resolved against the topology by
  /// fault_events(); empty = no timeline.
  std::string fault_events_spec;
  InFlightPolicy fault_policy = InFlightPolicy::drop;
  /// Source line numbers of the raw `faults` / `fault_events` values (0 =
  /// not set from a file). faults() and fault_events() resolve those
  /// strings against a topology long after parsing, so they carry the
  /// line here to keep *resolution* errors line-numbered too.
  int fault_spec_line = 0;
  int fault_events_line = 0;

  // Trace-replay workload source (traffic == "trace"): a trace file, or -
  // when empty - a uniform workload at `rate` recorded over trace_cycles.
  std::string trace_file;
  Cycle trace_cycles = 0;

  /// Resolves the fault channel list ("0v 3^ ...") for a topology.
  VlFaultSet faults(const Topology& topo) const;

  /// Resolves the dynamic fault-event list ("1000:2v 3000:2v:repair ...")
  /// for a topology; empty timeline when fault_events_spec is empty.
  FaultTimeline fault_events(const Topology& topo) const;

  /// Builds the configured traffic generator. Trace replay consumes its
  /// cursors, so each run needs its own.
  std::unique_ptr<TrafficGenerator> make_traffic(const Topology& topo) const;
};

/// One `key = value` line of a config text, comment stripped and trimmed.
struct ConfigLine {
  int number = 0;  ///< 1-based source line; 0 = not from a file
  std::string key;
  std::string value;  ///< may be empty
};

/// Reads the next non-blank line of a config text into `line`, advancing
/// `line.number` past every line read (start it at 0). Returns false at
/// the end of the text. A line without `=` or with an empty key throws
/// std::invalid_argument naming its line; reading can go on after it.
bool next_config_line(std::istream& in, ConfigLine& line);

/// Applies one line to `config` through the key table; an empty value
/// keeps the current setting. Throws std::invalid_argument on an unknown
/// key or a bad value, prefixed "config: line N: " when `line.number` is
/// set.
void apply_config_line(SimulationConfig& config, const ConfigLine& line);

/// Parses `key = value` lines. Throws std::invalid_argument on malformed
/// lines, unknown keys, or out-of-range values (a system size other than
/// 4 or 6 chiplets, an unknown traffic pattern); every message is
/// line-numbered ("config: line N: ...", matching parse_trace's style) so
/// a campaign request can be rejected with an actionable per-line error.
SimulationConfig parse_simulation_config(std::istream& in);

/// Convenience: parse from a string.
SimulationConfig parse_simulation_config(const std::string& text);

/// A config text that sets every key in the key table to its default,
/// one line per key with the key's doc as a comment.
std::string config_template();

}  // namespace deft
