#include "traffic/trace.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

namespace deft {

void TraceRecorder::record(Cycle cycle, NodeId src, NodeId dst,
                           std::uint8_t app) {
  records_.push_back({cycle, src, dst, app});
}

void TraceRecorder::write(std::ostream& out) const {
  std::vector<TraceRecord> sorted = records_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.cycle != b.cycle ? a.cycle < b.cycle
                                               : a.src < b.src;
                   });
  for (const TraceRecord& r : sorted) {
    out << r.cycle << ' ' << r.src << ' ' << r.dst << ' '
        << static_cast<int>(r.app) << '\n';
  }
}

std::vector<TraceRecord> parse_trace(std::istream& in) {
  std::vector<TraceRecord> records;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') {
      continue;
    }
    std::istringstream fields(line);
    TraceRecord r;
    int app = 0;
    if (!(fields >> r.cycle >> r.src >> r.dst >> app)) {
      throw std::invalid_argument("parse_trace: malformed line " +
                                  std::to_string(line_no));
    }
    r.app = static_cast<std::uint8_t>(app);
    records.push_back(r);
  }
  return records;
}

std::vector<TraceRecord> record_uniform_trace(const Topology& topo,
                                              double rate, Cycle cycles,
                                              std::uint64_t seed) {
  UniformTraffic gen(topo, rate);
  std::vector<TraceRecord> records;
  Rng root(seed);
  std::vector<PacketRequest> out;
  for (NodeId n : topo.core_endpoints()) {
    Rng rng = root.fork(static_cast<std::uint64_t>(n));
    for (Cycle c = 0; c < cycles; ++c) {
      out.clear();
      gen.tick(n, c, rng, out);
      for (const PacketRequest& r : out) {
        records.push_back({c, n, r.dst, r.app});
      }
    }
  }
  return records;
}

TraceReplayGenerator::TraceReplayGenerator(std::vector<TraceRecord> records) {
  NodeId max_node = 0;
  for (const TraceRecord& r : records) {
    require(r.src >= 0 && r.dst >= 0, "TraceReplayGenerator: bad node id");
    max_node = std::max({max_node, r.src, r.dst});
  }
  per_source_.assign(static_cast<std::size_t>(max_node) + 1, {});
  cursor_.assign(static_cast<std::size_t>(max_node) + 1, 0);
  std::stable_sort(records.begin(), records.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.cycle < b.cycle;
                   });
  for (const TraceRecord& r : records) {
    per_source_[static_cast<std::size_t>(r.src)].push_back(r);
  }
}

void TraceReplayGenerator::tick(NodeId src, Cycle cycle, Rng& /*rng*/,
                                std::vector<PacketRequest>& out) {
  if (static_cast<std::size_t>(src) >= per_source_.size()) {
    return;
  }
  auto& queue = per_source_[static_cast<std::size_t>(src)];
  auto& cur = cursor_[static_cast<std::size_t>(src)];
  while (cur < queue.size() && queue[cur].cycle <= cycle) {
    out.push_back({queue[cur].dst, queue[cur].app});
    ++cur;
  }
}

Cycle TraceReplayGenerator::next_injection(NodeId src, Cycle from, Cycle limit,
                                           Rng& /*rng*/,
                                           std::vector<PacketRequest>& out) {
  // Replay draws nothing from the RNG, so the pre-draw only has to mirror
  // tick()'s cursor movement: the next event is the first unconsumed
  // record's cycle (or `from`, if that record is already overdue), and the
  // event batches every record up to and including that cycle - exactly
  // what a tick() at the returned cycle would have emitted.
  if (static_cast<std::size_t>(src) >= per_source_.size()) {
    return limit;
  }
  auto& queue = per_source_[static_cast<std::size_t>(src)];
  auto& cur = cursor_[static_cast<std::size_t>(src)];
  if (cur >= queue.size()) {
    return limit;  // source exhausted: silent forever
  }
  const Cycle event = std::max(queue[cur].cycle, from);
  if (event >= limit) {
    return limit;  // nothing due inside [from, limit)
  }
  while (cur < queue.size() && queue[cur].cycle <= event) {
    out.push_back({queue[cur].dst, queue[cur].app});
    ++cur;
  }
  return event;
}

bool TraceReplayGenerator::exhausted() const {
  for (std::size_t s = 0; s < per_source_.size(); ++s) {
    if (cursor_[s] < per_source_[s].size()) {
      return false;
    }
  }
  return true;
}

}  // namespace deft
