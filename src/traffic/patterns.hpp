// Synthetic traffic patterns (Section IV-A/B).
//
// Rates are in packets/cycle/endpoint, matching the paper's x-axes. Only
// core endpoints generate synthetic traffic; DRAM endpoints participate as
// hotspot sinks (and as sources under application traffic, exercising
// Algorithm 1's interposer-source case).
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "topology/topology.hpp"

namespace deft {

/// PacketRequest::reply_at of a request nobody answers.
inline constexpr Cycle kNoReply = -1;

/// A packet the generator wants injected at a given source this cycle.
struct PacketRequest {
  NodeId dst = kInvalidNode;
  std::uint8_t app = 0;  ///< traffic class (application id)
  /// Cycle at which `dst` sends the source a reply (same app), or
  /// kNoReply. The reply is queued at dst's NI when the request
  /// materializes, even if the request itself is unroutable.
  Cycle reply_at = kNoReply;
};

/// Stateful traffic source shared by all NIs, drawing from each NI's
/// private RNG stream. A source's draws may touch only that source's own
/// generator state, never another source's: the simulator pre-draws each
/// NI's next injection (next_injection) while the other sources run
/// ahead or behind it. Sources couple only through data - a request's
/// `reply_at` schedules a reply at its destination's NI.
class TrafficGenerator {
 public:
  virtual ~TrafficGenerator() = default;
  virtual const char* name() const = 0;
  /// The per-cycle oracle: appends this cycle's requests for endpoint
  /// `src` to `out`. The full-scan reference core calls it at every NI
  /// every cycle.
  virtual void tick(NodeId src, Cycle cycle, Rng& rng,
                    std::vector<PacketRequest>& out) = 0;

  /// Pre-draws source `src`'s next injection event. Consumes `rng` and
  /// the source's generator state exactly as successive tick() calls for
  /// the cycles `from`, `from + 1`, ... would - so scheduled and
  /// per-cycle execution see bit-identical request streams - and returns
  /// the first cycle < `limit` whose tick() produces requests, appending
  /// them to `out`. Returns `limit` (with `out` untouched) when no
  /// injection happens in [from, limit). The default loops over tick();
  /// generators override it to skip the per-cycle dispatch.
  virtual Cycle next_injection(NodeId src, Cycle from, Cycle limit, Rng& rng,
                               std::vector<PacketRequest>& out);

  /// Injection rate in packets/cycle/core (an application mix's rate
  /// scale; 0 for trace replay), named in checkpoint fingerprints.
  virtual double rate() const { return 0.0; }

  /// Simulation checkpointing (sim/snapshot.hpp): generators holding
  /// per-run mutable state beyond the NI RNG streams (trace replay's
  /// per-source cursors, application traffic's burst flags) expose it
  /// here so a restored run resumes mid-stream. The five synthetic
  /// patterns are stateless per run and keep the empty defaults; save and
  /// load must round-trip (load consumes exactly the words save
  /// appended).
  virtual void save_stream_state(
      std::vector<std::uint64_t>& /*out*/) const {}
  virtual void load_stream_state(const std::vector<std::uint64_t>& /*in*/,
                                 std::size_t& /*cursor*/) {}
};

/// Uniform random: every core sends to a uniformly random other core.
class UniformTraffic final : public TrafficGenerator {
 public:
  UniformTraffic(const Topology& topo, double rate);
  const char* name() const override { return "uniform"; }
  void tick(NodeId src, Cycle cycle, Rng& rng,
            std::vector<PacketRequest>& out) override;
  Cycle next_injection(NodeId src, Cycle from, Cycle limit, Rng& rng,
                       std::vector<PacketRequest>& out) override;
  double rate() const override { return rate_; }

 private:
  const Topology* topo_;
  double rate_;
};

/// Localized: a fraction of packets (40% in Fig. 4b) stay on the source
/// chiplet; the rest go to a uniformly random core on another chiplet.
class LocalizedTraffic final : public TrafficGenerator {
 public:
  LocalizedTraffic(const Topology& topo, double rate,
                   double intra_fraction = 0.4);
  const char* name() const override { return "localized"; }
  void tick(NodeId src, Cycle cycle, Rng& rng,
            std::vector<PacketRequest>& out) override;
  Cycle next_injection(NodeId src, Cycle from, Cycle limit, Rng& rng,
                       std::vector<PacketRequest>& out) override;
  double rate() const override { return rate_; }

 private:
  void emit_destination(NodeId src, Rng& rng, std::vector<PacketRequest>& out);

  const Topology* topo_;
  double rate_;
  double intra_fraction_;
};

/// Hotspot: each packet targets one of the hotspot endpoints with the
/// given per-hotspot probability (3 hotspots at 10% each in Fig. 4c),
/// otherwise a uniformly random core. Hotspots default to DRAM endpoints.
class HotspotTraffic final : public TrafficGenerator {
 public:
  HotspotTraffic(const Topology& topo, double rate,
                 std::vector<NodeId> hotspots = {},
                 double per_hotspot_fraction = 0.10);
  const char* name() const override { return "hotspot"; }
  void tick(NodeId src, Cycle cycle, Rng& rng,
            std::vector<PacketRequest>& out) override;
  Cycle next_injection(NodeId src, Cycle from, Cycle limit, Rng& rng,
                       std::vector<PacketRequest>& out) override;
  double rate() const override { return rate_; }
  const std::vector<NodeId>& hotspots() const { return hotspots_; }

 private:
  void emit_destination(NodeId src, Rng& rng, std::vector<PacketRequest>& out);

  const Topology* topo_;
  double rate_;
  std::vector<NodeId> hotspots_;
  double per_hotspot_fraction_;
};

/// Transpose: core at global (x, y) sends to the node at (y, x).
class TransposeTraffic final : public TrafficGenerator {
 public:
  TransposeTraffic(const Topology& topo, double rate);
  const char* name() const override { return "transpose"; }
  void tick(NodeId src, Cycle cycle, Rng& rng,
            std::vector<PacketRequest>& out) override;
  Cycle next_injection(NodeId src, Cycle from, Cycle limit, Rng& rng,
                       std::vector<PacketRequest>& out) override;
  double rate() const override { return rate_; }

 private:
  const Topology* topo_;
  double rate_;
  std::vector<NodeId> partner_;  ///< per node; kInvalidNode = silent
};

/// Bit-complement: core at global (x, y) sends to (W-1-x, H-1-y).
class BitComplementTraffic final : public TrafficGenerator {
 public:
  BitComplementTraffic(const Topology& topo, double rate);
  const char* name() const override { return "bit-complement"; }
  void tick(NodeId src, Cycle cycle, Rng& rng,
            std::vector<PacketRequest>& out) override;
  Cycle next_injection(NodeId src, Cycle from, Cycle limit, Rng& rng,
                       std::vector<PacketRequest>& out) override;
  double rate() const override { return rate_; }

 private:
  const Topology* topo_;
  double rate_;
  std::vector<NodeId> partner_;
};

/// Helper: node at global grid coordinate, searching chiplets first, else
/// the interposer node (used by permutation patterns).
NodeId node_at_global(const Topology& topo, Coord global);

}  // namespace deft
