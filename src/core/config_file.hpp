// Minimal key=value configuration files for the CLI simulation driver.
//
// Format: one `key = value` per line; `#` starts a comment; whitespace is
// ignored. Unknown keys are an error (typos should not silently fall back
// to defaults).
//
//   # 4-chiplet reference system, DeFT, uniform traffic
//   chiplets   = 4           # 4 | 6 (the paper's reference systems)
//   algorithm  = deft        # deft | mtr | rc
//   traffic    = uniform     # uniform | localized | hotspot | transpose |
//                            # bit-complement | trace
//   rate       = 0.008       # packets/cycle/core
//   vcs        = 2
//   buffer_depth = 4
//   packet_size  = 8
//   warmup     = 10000
//   measure    = 30000
//   seed       = 1
//   shards     = 1           # worker threads of the partitioned core
//   rng_mode   = serial      # serial | counter (per-NI route streams)
//   vl_strategy = table      # table | distance | random (DeFT only)
//   faults     = 0v 3^       # faulty VL channels: <vl>v (down) / <vl>^ (up)
//   vl_serialization = 1
//
// Dynamic fault events (fault/scenario.hpp's FaultTimeline syntax) layer
// mid-run link failures and repairs on top of `faults`:
//   fault_events = 1000:2v 3000:2v:repair   # CYCLE:<vl>v|^[:fail|:repair]
//   fault_policy = drop      # drop | reroute (in-flight resolution)
//
// Trace-replay workloads (`traffic = trace`) come from one of:
//   trace_file   = path/to.trace   # `cycle src dst app` lines (trace.hpp)
//   trace_cycles = 11000           # or: record a uniform workload at
//                                  # `rate` over that many cycles and
//                                  # replay it (record_uniform_trace)
#pragma once

#include <iosfwd>
#include <map>
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

/// Parses `key = value` lines. Throws std::invalid_argument on malformed
/// lines, unknown keys, or out-of-range values (a system size other than
/// 4 or 6 chiplets, an unknown traffic pattern); every message is
/// line-numbered ("config: line N: ...", matching parse_trace's style) so
/// a campaign request can be rejected with an actionable per-line error.
SimulationConfig parse_simulation_config(std::istream& in);

/// Convenience: parse from a string.
SimulationConfig parse_simulation_config(const std::string& text);

}  // namespace deft
