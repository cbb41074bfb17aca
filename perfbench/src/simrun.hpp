// Traced simulation helpers shared by the workloads: a phase-stepped run
// through SimStepper, the sim-layer metrics derived from its spans, and
// exact per-run counts.
#pragma once

#include <functional>

#include "harness.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

/// The campaign engine's checkpoint schedule: the first checkpoint at
/// max(min_cycles, every), then every `every` cycles while the run lasts.
struct CheckpointPolicy {
  deft::Cycle min_cycles = 0;
  deft::Cycle every = 0;
  std::function<void(const deft::SimStepper&)> save;
};

/// Runs `sim` to completion in `ws` through SimStepper: start, advance to
/// the end of warmup, to the end of measure, to completion, then finish.
/// Each step is a span (sim.start, sim.warmup, sim.measure, sim.drain,
/// sim.finish) whose work is the cycles it advanced. `checkpoints`, when
/// given, is invoked at its boundaries inside the phase spans.
const deft::SimResults& run_stepped(Tracer& tracer, std::uint32_t run,
                                    deft::Simulator& sim,
                                    deft::SimWorkspace& ws,
                                    const deft::SimKnobs& knobs,
                                    CheckpointPolicy* checkpoints = nullptr);

/// One verified run of configuration `i`: its results, or nullptr when it
/// threw (already counted as a failed op).
using RunOne = std::function<const deft::SimResults*(std::size_t i)>;

/// The untraced timed phase of the direct-library workloads: whole passes
/// over the `n` configurations until options.seconds have passed (one
/// pass under --smoke). Each run is one row; its latency is the call's
/// duration.
void timed_passes(const Options& options, std::size_t n, const RunOne& run,
                  EndToEnd& e2e);

/// Exact simulated counts summed over runs.
struct SimTotals {
  double cycles = 0.0;
  double flit_hops = 0.0;
  double delivered = 0.0;
  double unroutable = 0.0;
  double lost = 0.0;
  double undrained = 0.0;
  double deadlocked = 0.0;

  void add(const deft::SimResults& r);
  void emit(LayerMetrics& layers) const;
};

/// sim.start_us, sim.{warmup,measure,drain}_ns_per_cycle,
/// sim.ns_per_flit_hop and sim.finish_us from run_stepped's spans (phase
/// figures use self time, so checkpoint spans inside a phase are not
/// charged to it).
void emit_stepped_metrics(const Tracer& tracer, double flit_hops,
                          LayerMetrics& layers);

/// 100 * (traced / untraced - 1): the tracing overhead of equal work.
double overhead_pct(double traced_s, double untraced_s);

}  // namespace perfbench
