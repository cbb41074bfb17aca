// Simulation statistics: latency summaries, VC utilization, VL loads.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace deft {

inline constexpr int kMaxVcsStats = 4;

/// How a simulation run terminated, as data: `completed` covers every run
/// that reached its configured end (including non-drained saturation
/// runs - see SimResults::drained for that distinction); `deadlocked`
/// means the no-progress watchdog tripped and the run was cut short.
/// Downstream consumers (the campaign service, the CLI driver's JSON
/// output) branch on this instead of re-deriving it from the flags.
enum class RunOutcome : std::uint8_t {
  completed,
  deadlocked,
};

/// Stable lowercase name ("completed" / "deadlocked") for reports.
const char* run_outcome_name(RunOutcome outcome);

/// Order statistics over a sample of latencies.
struct LatencySummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  /// Consumes (sorts) the sample.
  static LatencySummary from_samples(std::vector<std::uint32_t>& samples);

  friend bool operator==(const LatencySummary&,
                         const LatencySummary&) = default;
};

/// Everything a single simulation run reports.
struct SimResults {
  LatencySummary network_latency;  ///< head injected -> tail ejected
  LatencySummary total_latency;    ///< created -> tail ejected (incl. queue)

  std::uint64_t packets_created = 0;
  std::uint64_t packets_created_measured = 0;
  std::uint64_t packets_delivered_measured = 0;
  std::uint64_t packets_dropped_unroutable = 0;
  std::uint64_t flits_ejected_in_window = 0;
  /// Committed flit movements over the whole run (all phases); the perf
  /// harness divides by wall clock for flit-hops/second.
  std::uint64_t flit_hops = 0;

  Cycle cycles_run = 0;
  Cycle measure_cycles = 0;
  bool deadlock_detected = false;
  bool drained = false;  ///< all measured packets were delivered
  /// Structured termination state; always consistent with
  /// deadlock_detected (the watchdog is the only deadlocked producer).
  RunOutcome outcome = RunOutcome::completed;

  /// Flits forwarded per (region, VC) during the measurement window.
  /// Region r < num_chiplets is chiplet r; region num_chiplets is the
  /// interposer.
  std::vector<std::array<std::uint64_t, kMaxVcsStats>> region_vc_flits;

  /// Flits forwarded per unidirectional VL channel during the window.
  std::vector<std::uint64_t> vl_channel_flits;

  // Dynamic-fault metrics (fault-event timelines; docs/architecture.md).
  // All zero / -1 for runs without a timeline, except the fault-window
  // counters, which also cover static fault sets (the window is every
  // cycle with a non-empty current fault set, so a static faulty run's
  // window is the whole run).
  /// Packets extracted or dropped by fault events (all phases).
  std::uint64_t packets_lost = 0;
  /// ...of which created inside the measurement window.
  std::uint64_t packets_lost_measured = 0;
  /// Packets created while at least one channel was faulty.
  std::uint64_t fault_window_created = 0;
  /// ...of which delivered by the end of the run.
  std::uint64_t fault_window_delivered = 0;
  /// Cycles from the first fail event to the first tail delivery of a
  /// packet on an affected route at or after that event; -1 when the run
  /// had no fail events or no affected route delivered again.
  Cycle reconvergence_latency = -1;

  /// Delivered / created among packets created during the fault window;
  /// 1.0 when the window saw no packets.
  double fault_window_delivery_ratio() const {
    if (fault_window_created == 0) {
      return 1.0;
    }
    return static_cast<double>(fault_window_delivered) /
           static_cast<double>(fault_window_created);
  }

  /// Fraction of flit traffic in `region` carried by VC `vc` (Fig. 5).
  double vc_utilization(int region, int vc) const;

  /// Delivered measured flits / cycle / endpoint.
  double throughput(int num_endpoints) const {
    if (measure_cycles <= 0 || num_endpoints <= 0) {
      return 0.0;
    }
    return static_cast<double>(flits_ejected_in_window) /
           static_cast<double>(measure_cycles) / num_endpoints;
  }

  /// Delivered / created among measured packets; 1.0 when nothing was
  /// dropped and the drain completed.
  double delivery_ratio() const;
};

}  // namespace deft
