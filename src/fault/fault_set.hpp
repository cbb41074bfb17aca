// Vertical-link fault model.
//
// Faults are injected on unidirectional vertical channels (the up- and
// down-halves of a bidirectional VL fail independently), matching the VL
// counts used in Fig. 7 of the paper: the 4-chiplet system has 16
// bidirectional VLs = 32 faultable channels.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "topology/topology.hpp"

namespace deft {

/// A set of faulty unidirectional VL channels, stored as a fixed-size
/// bitmask over every channel id a Topology admits (kMaxVlChannels), so
/// copies never allocate.
class VlFaultSet {
 public:
  VlFaultSet() = default;

  /// Builds a fault set from explicit channel ids.
  static VlFaultSet of(std::initializer_list<VlChannelId> channels);

  void set_faulty(VlChannelId c) { words_[word(c)] |= bit(c); }
  void clear(VlChannelId c) { words_[word(c)] &= ~bit(c); }
  bool is_faulty(VlChannelId c) const {
    return (words_[word(c)] & bit(c)) != 0;
  }
  bool empty() const { return words_ == decltype(words_){}; }
  int count() const;

  /// Faulty-channel ids in increasing order.
  std::vector<VlChannelId> channels() const;

  /// Mask of this chiplet's faulty *down* channels, as a bitmask over the
  /// chiplet's VL indices (bit i = chiplet's i-th VL). Used to key the
  /// per-scenario VL-selection tables.
  std::uint32_t chiplet_down_mask(const Topology& topo, int chiplet) const;

  /// Same for the chiplet's *up* channels.
  std::uint32_t chiplet_up_mask(const Topology& topo, int chiplet) const;

  /// True if any chiplet has lost all of its down channels or all of its
  /// up channels, i.e. the chiplet can no longer send or no longer receive
  /// inter-chiplet traffic. The paper excludes such patterns ("those that
  /// disconnected chiplets completely").
  bool disconnects_any_chiplet(const Topology& topo) const;

  std::string to_string() const;

  friend bool operator==(const VlFaultSet&, const VlFaultSet&) = default;

 private:
  /// Checkpointing stores the words verbatim (sim/snapshot.hpp).
  friend class SnapshotAccess;

  static std::size_t word(VlChannelId c) {
    return static_cast<std::size_t>(c) / 64;
  }
  static std::uint64_t bit(VlChannelId c) {
    return std::uint64_t{1} << (static_cast<unsigned>(c) % 64);
  }

  std::array<std::uint64_t, kMaxVlChannels / 64> words_{};
};

}  // namespace deft
