// DeFT: deadlock-free and fault-tolerant routing (Section III).
//
// Deadlock freedom comes from two virtual networks obeying the three rules
// of Fig. 2, assigned per Algorithm 1:
//   * intra-chiplet packets, interposer-injected packets, and packets
//     injected at their own descending boundary router round-robin over
//     both VNs;
//   * other inter-chiplet packets start in VN.0 and stay there while
//     crossing their source chiplet;
//   * at the Down hop the VN is re-assigned round-robin (both VNs
//     admissible; the VC allocator's round-robin realizes the balance);
//   * on the interposer packets stay in their VN;
//   * at the Up hop packets switch to / remain in VN.1 and stay there on
//     the destination chiplet.
//
// Fault tolerance comes from free VL selection (Theorems III.3/III.4): the
// per-fault-scenario look-up tables built by Algorithm 2 pick the
// load-balanced VL; distance-based and random selection strategies are
// provided as the Fig. 8 ablations.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "routing/routing.hpp"
#include "vlsel/table.hpp"

namespace deft {

/// How the two intermediate destinations (down VL, up VL) are selected.
enum class VlStrategy : std::uint8_t {
  table,     ///< DeFT: offline-optimized per-fault-scenario tables
  distance,  ///< DeFT-Dis.: closest alive VL
  random,    ///< DeFT-Ran.: uniformly random alive VL, per packet
};

const char* vl_strategy_name(VlStrategy s);

class DeftRouting final : public RoutingAlgorithm {
 public:
  /// `tables` may be shared across instances (it is fault-scenario-indexed
  /// and therefore immutable under fault injection). `num_vcs` must be
  /// even: the lower half serves VN.0, the upper half VN.1.
  DeftRouting(const Topology& topo,
              std::shared_ptr<const SystemVlTables> tables, VlFaultSet faults,
              int num_vcs, VlStrategy strategy, std::uint64_t seed);

  const char* name() const override { return "DeFT"; }
  int num_vcs() const override { return num_vcs_; }
  bool prepare_packet(PacketRoute& route,
                      CounterRng* stream = nullptr) override;
  RouteDecision route(NodeId node, Port in_port, int in_vc,
                      const PacketRoute& route,
                      const RouterView& view) const override;
  bool pair_reachable(NodeId src, NodeId dst) const override;
  std::uint64_t pair_combo_mask(NodeId src, NodeId dst) const override;
  /// DeFT's per-hop decision is oblivious: a pure function of the packet
  /// route and the VN carried by the input VC.
  bool uses_router_view() const override { return false; }
  /// Dynamic fault events: in-place rebuild of the per-chiplet masks and
  /// alive-VL lists (capacity-reusing, rng_ untouched).
  void set_faults(const VlFaultSet& faults) override;
  bool hop_viable(NodeId node, Port in_port,
                  const PacketRoute& rt) const override;

  const VlFaultSet& faults() const { return faults_; }
  VlStrategy strategy() const { return strategy_; }

  /// Checkpointing: the VL-selection RNG is the only per-run stream DeFT
  /// owns (consumed by VlStrategy::random at prepare_packet time).
  void save_stream_state(std::vector<std::uint64_t>& out) const override {
    const auto& s = rng_.state();
    out.insert(out.end(), s.begin(), s.end());
  }
  void load_stream_state(const std::vector<std::uint64_t>& in,
                         std::size_t& cursor) override {
    require(cursor + 4 <= in.size(), "DeFT stream state underflow");
    rng_.set_state({in[cursor], in[cursor + 1], in[cursor + 2],
                    in[cursor + 3]});
    cursor += 4;
  }

  /// VN of a VC index under this configuration.
  int vn_of(int vc) const { return vc / (num_vcs_ / 2); }

 private:
  VcMask vn_vcs(int vn) const;
  VcMask all_vcs() const { return all_vcs_mask(num_vcs_); }

  /// Selected down-side VL (chiplet-VL index) for packets of `src`, or -1.
  /// `stream`, when non-null, supplies the randomness for
  /// VlStrategy::random instead of the shared rng_ (counter mode).
  int select_down_vl(NodeId src, CounterRng* stream);
  /// Selected up-side VL (chiplet-VL index) for packets to `dst`, or -1.
  int select_up_vl(NodeId dst, CounterRng* stream);

  const Topology* topo_;
  std::shared_ptr<const SystemVlTables> tables_;
  VlFaultSet faults_;
  int num_vcs_;
  VlStrategy strategy_;
  Rng rng_;
  /// Per chiplet: faulty down/up masks and alive VL index lists.
  std::vector<std::uint32_t> down_mask_;
  std::vector<std::uint32_t> up_mask_;
  std::vector<std::vector<int>> alive_down_;
  std::vector<std::vector<int>> alive_up_;
};

}  // namespace deft
