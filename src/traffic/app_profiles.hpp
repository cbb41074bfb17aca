// Application traffic profiles - the substitution for gem5-captured PARSEC
// traces (see DESIGN.md).
//
// The paper replays PARSEC full-system traffic (64 x86 cores, 4 coherence
// directories, 4 shared L2 banks, private L1s) through its chiplet-enabled
// Noxim. Offline we model each application as an on/off Markov-modulated
// injection process per core with a destination mix over the L2 banks,
// directories, DRAM endpoints and peer cores, plus request->reply flows so
// that directories/L2/DRAM endpoints answer back (replies from DRAM
// exercise Algorithm 1's interposer-source case). Replies are open-loop:
// a request's draw fixes its reply cycle (PacketRequest::reply_at), so
// each core is drawn ahead like any other source.
//
// Per-application average rates are chosen so that the two-application
// combinations of Fig. 6(b) sort exactly in the paper's reported
// low-to-high traffic order: FA+FL < CA+FA < FL+DE < DE+FA < BO+CA <
// BL+DE < SW+CA < ST+FL.
#pragma once

#include <string>

#include "traffic/patterns.hpp"

namespace deft {

struct AppProfile {
  const char* code;  ///< two-letter code used on the paper's x-axis
  const char* name;
  double rate;      ///< packets/cycle/core averaged over on+off periods
  double on_to_off; ///< per-cycle probability of leaving a burst
  double off_to_on; ///< per-cycle probability of entering a burst
  /// Destination mix (sums to 1): shared L2 banks, directories, DRAM,
  /// peer cores of the same application.
  double frac_l2;
  double frac_dir;
  double frac_dram;
  double frac_peer;

  /// Fraction of cycles spent bursting.
  double duty() const { return off_to_on / (off_to_on + on_to_off); }
};

/// The eight PARSEC applications used in Fig. 6.
const std::vector<AppProfile>& parsec_profiles();

/// Profile by two-letter code ("BL", "ST", ...). Throws on unknown codes.
const AppProfile& profile_by_code(const std::string& code);

/// Multi-application workload: each entry runs one application on a set of
/// cores (the paper: one app on all 64 cores, or two apps on 32+32 split
/// by chiplet).
struct AppAssignment {
  AppProfile profile;
  std::vector<NodeId> cores;
};

class AppTrafficGenerator final : public TrafficGenerator {
 public:
  /// `rate_scale` multiplies every profile rate (sweep knob). Shared L2
  /// banks and directories are placed on the centre cores of the first
  /// four chiplets; DRAM endpoints come from the topology. A request to
  /// one of them is answered with probability `reply_fraction`,
  /// `service_delay` cycles (at least one) after it was drawn.
  AppTrafficGenerator(const Topology& topo, std::vector<AppAssignment> apps,
                      double rate_scale = 1.0, double reply_fraction = 0.5,
                      Cycle service_delay = 20);

  const char* name() const override { return "application"; }
  void tick(NodeId src, Cycle cycle, Rng& rng,
            std::vector<PacketRequest>& out) override;
  Cycle next_injection(NodeId src, Cycle from, Cycle limit, Rng& rng,
                       std::vector<PacketRequest>& out) override;
  double rate() const override { return rate_scale_; }

  /// Checkpointing: the burst flags are the generator's only per-run
  /// state, one 0/1 word per node.
  void save_stream_state(std::vector<std::uint64_t>& out) const override;
  void load_stream_state(const std::vector<std::uint64_t>& in,
                         std::size_t& cursor) override;

  const std::vector<AppAssignment>& apps() const { return apps_; }
  const std::vector<NodeId>& l2_banks() const { return l2_banks_; }
  const std::vector<NodeId>& directories() const { return directories_; }

 private:
  struct CoreState {
    int app = -1;    ///< index into apps_, -1 = not running anything
    bool on = false; ///< burst state
  };

  NodeId pick_destination(int app_index, NodeId src, Rng& rng) const;

  const Topology* topo_;
  std::vector<AppAssignment> apps_;
  double rate_scale_;
  double reply_fraction_;
  Cycle service_delay_;
  std::vector<NodeId> l2_banks_;
  std::vector<NodeId> directories_;
  std::vector<CoreState> core_state_;  ///< indexed by node id
};

}  // namespace deft
