#include "simrun.hpp"

#include <algorithm>

namespace perfbench {

namespace {

/// Advances to `cap` (or the run's end), pausing at checkpoint boundaries.
void advance_to(deft::SimStepper& stepper, deft::Cycle cap,
                CheckpointPolicy* checkpoints, deft::Cycle& next_checkpoint) {
  while (!stepper.done() && stepper.now() < cap) {
    const deft::Cycle stop =
        checkpoints != nullptr ? std::min(cap, next_checkpoint) : cap;
    stepper.advance(stop);
    if (checkpoints != nullptr && !stepper.done() &&
        stepper.now() >= next_checkpoint) {
      checkpoints->save(stepper);
      next_checkpoint = stepper.now() + checkpoints->every;
    }
  }
}

}  // namespace

const deft::SimResults& run_stepped(Tracer& tracer, std::uint32_t run,
                                    deft::Simulator& sim,
                                    deft::SimWorkspace& ws,
                                    const deft::SimKnobs& knobs,
                                    CheckpointPolicy* checkpoints) {
  deft::SimStepper stepper;
  {
    ScopedSpan span(tracer, "sim.start", run);
    stepper.start(sim, ws);
  }
  deft::Cycle next_checkpoint =
      checkpoints != nullptr
          ? std::max(checkpoints->min_cycles, checkpoints->every)
          : 0;
  const deft::Cycle caps[] = {knobs.warmup, knobs.warmup + knobs.measure,
                              deft::SimStepper::kNoCycleCap};
  const char* names[] = {"sim.warmup", "sim.measure", "sim.drain"};
  for (int phase = 0; phase < 3; ++phase) {
    const deft::Cycle from = stepper.now();
    ScopedSpan span(tracer, names[phase], run);
    advance_to(stepper, caps[phase], checkpoints, next_checkpoint);
    span.set_work(stepper.now() - from);
  }
  ScopedSpan span(tracer, "sim.finish", run);
  return stepper.finish();
}

void timed_passes(const Options& options, std::size_t n, const RunOne& run,
                  EndToEnd& e2e) {
  TimedPhase& phase = e2e.phase;
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point t0 = Clock::now();
      const deft::SimResults* r = run(i);
      if (r != nullptr) {
        phase.latencies_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        phase.cycles += static_cast<double>(r->cycles_run);
        phase.runs += 1.0;
      }
    }
    phase.seconds = seconds_between(start, Clock::now());
  } while (!options.smoke && phase.seconds < options.seconds);
}

void SimTotals::add(const deft::SimResults& r) {
  cycles += static_cast<double>(r.cycles_run);
  flit_hops += static_cast<double>(r.flit_hops);
  delivered += static_cast<double>(r.packets_delivered_measured);
  unroutable += static_cast<double>(r.packets_dropped_unroutable);
  lost += static_cast<double>(r.packets_lost);
  undrained += r.drained ? 0.0 : 1.0;
  deadlocked += r.outcome == deft::RunOutcome::deadlocked ? 1.0 : 0.0;
}

void SimTotals::emit(LayerMetrics& layers) const {
  layers.set("sim.cycles", cycles);
  layers.set("sim.flit_hops", flit_hops);
  layers.set("sim.hops_per_cycle", cycles > 0.0 ? flit_hops / cycles : 0.0);
  layers.set("sim.packets_delivered", delivered);
  layers.set("sim.unroutable_dropped", unroutable);
  layers.set("sim.packets_lost", lost);
  layers.set("sim.undrained_runs", undrained);
  layers.set("sim.deadlocked_runs", deadlocked);
}

void emit_stepped_metrics(const Tracer& tracer, double flit_hops,
                          LayerMetrics& layers) {
  layers.set("sim.start_us", median(tracer.durations("sim.start")) / 1e3);
  layers.set("sim.finish_us", median(tracer.durations("sim.finish")) / 1e3);
  double phase_ns = 0.0;
  for (const char* phase : {"sim.warmup", "sim.measure", "sim.drain"}) {
    const double self = tracer.self_ns(phase);
    const double cycles = tracer.total_work(phase);
    phase_ns += self;
    layers.set(std::string(phase) + "_ns_per_cycle",
               cycles > 0.0 ? self / cycles : 0.0);
  }
  layers.set("sim.ns_per_flit_hop",
             flit_hops > 0.0 ? phase_ns / flit_hops : 0.0);
}

double overhead_pct(double traced_s, double untraced_s) {
  return untraced_s > 0.0 ? 100.0 * (traced_s / untraced_s - 1.0) : 0.0;
}

}  // namespace perfbench
