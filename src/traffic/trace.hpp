// Traffic-trace record and replay.
//
// The trace format is one record per line: `cycle src dst app`. Recorded
// traces are bit-exact to replay (the simulator is deterministic), and the
// reader accepts externally produced traces - e.g. converted gem5 traffic
// dumps - so real-application traffic can be swapped in for the synthetic
// profiles.
#pragma once

#include <iosfwd>
#include <string>

#include "traffic/patterns.hpp"

namespace deft {

struct TraceRecord {
  Cycle cycle = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint8_t app = 0;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Accumulates records and serializes them, ordered by (cycle, src).
class TraceRecorder {
 public:
  void record(Cycle cycle, NodeId src, NodeId dst, std::uint8_t app);
  void write(std::ostream& out) const;

 private:
  std::vector<TraceRecord> records_;
};

/// Parses a trace stream. Throws std::invalid_argument on malformed input.
std::vector<TraceRecord> parse_trace(std::istream& in);

/// Records the request stream a uniform-random workload at `rate` would
/// inject over [0, cycles) - one forked RNG stream per core endpoint -
/// as a replayable trace. The perf matrix and the trace-equivalence
/// goldens share this construction so both describe the same workload.
std::vector<TraceRecord> record_uniform_trace(const Topology& topo,
                                              double rate, Cycle cycles,
                                              std::uint64_t seed = 0x7ace);

/// Replays a trace as a TrafficGenerator. Records must be sorted by cycle
/// (ties in any order); each is injected at its source when its cycle is
/// reached. Records are bucketed per source at construction and each
/// source's cursor advances independently, so a source's next injection
/// cycle is a cursor read rather than a per-cycle poll.
class TraceReplayGenerator final : public TrafficGenerator {
 public:
  explicit TraceReplayGenerator(std::vector<TraceRecord> records);

  const char* name() const override { return "trace"; }
  void tick(NodeId src, Cycle cycle, Rng& rng,
            std::vector<PacketRequest>& out) override;
  Cycle next_injection(NodeId src, Cycle from, Cycle limit, Rng& rng,
                       std::vector<PacketRequest>& out) override;

  /// True once every record has been replayed.
  bool exhausted() const;

  /// Checkpointing: the per-source replay cursors are the generator's only
  /// per-run mutable state.
  void save_stream_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(cursor_.size());
    for (const std::size_t c : cursor_) {
      out.push_back(c);
    }
  }
  void load_stream_state(const std::vector<std::uint64_t>& in,
                         std::size_t& cursor) override {
    require(cursor < in.size() && in[cursor] == cursor_.size(),
            "trace stream state mismatch");
    ++cursor;
    require(cursor + cursor_.size() <= in.size(),
            "trace stream state underflow");
    for (std::size_t i = 0; i < cursor_.size(); ++i) {
      cursor_[i] = static_cast<std::size_t>(in[cursor + i]);
    }
    cursor += cursor_.size();
  }

 private:
  /// The records bucketed per source, each bucket in cycle order.
  std::vector<std::vector<TraceRecord>> per_source_;
  std::vector<std::size_t> cursor_;
};

}  // namespace deft
