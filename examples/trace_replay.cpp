// Trace record & replay: capture the packets of one simulation into the
// text trace format, replay them bit-exactly, and show how an external
// trace (e.g. converted from gem5 traffic dumps) plugs into the simulator.
//
//   $ ./trace_replay                 # record + replay round trip; exits 1
//                                    # when the replay diverges
//   $ ./trace_replay mytrace.txt     # replay an external trace file
//
// RecordingGenerator implements only tick(), so the simulator pre-draws
// it through TrafficGenerator's default next_injection loop.
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <tuple>

#include "core/experiment.hpp"
#include "traffic/trace.hpp"

namespace {

/// A recording wrapper: forwards an inner generator and logs every packet.
class RecordingGenerator final : public deft::TrafficGenerator {
 public:
  RecordingGenerator(deft::TrafficGenerator& inner,
                     deft::TraceRecorder& recorder)
      : inner_(&inner), recorder_(&recorder) {}
  const char* name() const override { return "recording"; }
  void tick(deft::NodeId src, deft::Cycle cycle, deft::Rng& rng,
            std::vector<deft::PacketRequest>& out) override {
    const std::size_t before = out.size();
    inner_->tick(src, cycle, rng, out);
    for (std::size_t i = before; i < out.size(); ++i) {
      recorder_->record(cycle, src, out[i].dst, out[i].app);
    }
  }

 private:
  deft::TrafficGenerator* inner_;
  deft::TraceRecorder* recorder_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace deft;
  const ExperimentContext ctx = ExperimentContext::reference(4);
  SimKnobs knobs;
  knobs.warmup = 1000;
  knobs.measure = 5000;

  std::vector<TraceRecord> records;
  std::optional<SimResults> original;  // the recorded run
  if (argc > 1) {
    std::ifstream file(argv[1]);
    require(file.good(), std::string("cannot open ") + argv[1]);
    records = parse_trace(file);
    std::printf("loaded %zu records from %s\n", records.size(), argv[1]);
  } else {
    // Record a hotspot-traffic run. The simulator draws each source's
    // next injection ahead of time, so the recording may hold requests
    // past the run's end that never became packets; they replay the same.
    HotspotTraffic inner(ctx.topo(), 0.006);
    TraceRecorder recorder;
    RecordingGenerator recording(inner, recorder);
    original = run_sim(ctx, Algorithm::deft, recording, knobs);
    std::printf("recorded %llu packets, original latency %.2f cycles\n",
                static_cast<unsigned long long>(original->packets_created),
                original->total_latency.mean);
    std::ostringstream text;
    recorder.write(text);
    std::istringstream in(text.str());
    records = parse_trace(in);  // full serialize/parse round trip
  }

  TraceReplayGenerator replay(std::move(records));
  const SimResults replayed = run_sim(ctx, Algorithm::deft, replay, knobs);
  std::printf("replayed: %llu measured packets, latency %.2f cycles\n",
              static_cast<unsigned long long>(
                  replayed.packets_delivered_measured),
              replayed.total_latency.mean);
  if (!original) {
    return 0;
  }
  const auto key = [](const SimResults& r) {
    return std::tie(r.packets_created, r.packets_delivered_measured,
                    r.flit_hops, r.network_latency, r.total_latency);
  };
  const bool same = key(replayed) == key(*original);
  std::puts(same ? "replay is bit-exact: packets, deliveries, flit hops and "
                   "latencies match the recorded run"
                 : "replay DIVERGED from the recorded run");
  return same ? 0 : 1;
}
