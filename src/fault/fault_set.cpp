#include "fault/fault_set.hpp"

#include <bit>
#include <sstream>

namespace deft {

VlFaultSet VlFaultSet::of(std::initializer_list<VlChannelId> channels) {
  VlFaultSet f;
  for (VlChannelId c : channels) {
    require(c >= 0 && c < kMaxVlChannels,
            "VlFaultSet: channel id out of range");
    f.set_faulty(c);
  }
  return f;
}

int VlFaultSet::count() const {
  int n = 0;
  for (const std::uint64_t w : words_) {
    n += std::popcount(w);
  }
  return n;
}

std::vector<VlChannelId> VlFaultSet::channels() const {
  std::vector<VlChannelId> out;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    for (std::uint64_t w = words_[i]; w != 0; w &= w - 1) {
      out.push_back(static_cast<VlChannelId>(64 * i) + std::countr_zero(w));
    }
  }
  return out;
}

std::uint32_t VlFaultSet::chiplet_down_mask(const Topology& topo,
                                            int chiplet) const {
  std::uint32_t mask = 0;
  const auto& vls = topo.chiplet_vls(chiplet);
  for (std::size_t i = 0; i < vls.size(); ++i) {
    if (is_faulty(topo.vl(vls[i]).down_vl_channel())) {
      mask |= 1u << i;
    }
  }
  return mask;
}

std::uint32_t VlFaultSet::chiplet_up_mask(const Topology& topo,
                                          int chiplet) const {
  std::uint32_t mask = 0;
  const auto& vls = topo.chiplet_vls(chiplet);
  for (std::size_t i = 0; i < vls.size(); ++i) {
    if (is_faulty(topo.vl(vls[i]).up_vl_channel())) {
      mask |= 1u << i;
    }
  }
  return mask;
}

bool VlFaultSet::disconnects_any_chiplet(const Topology& topo) const {
  for (int c = 0; c < topo.num_chiplets(); ++c) {
    const std::uint32_t all =
        (1u << topo.chiplet_vls(c).size()) - 1u;
    if (chiplet_down_mask(topo, c) == all || chiplet_up_mask(topo, c) == all) {
      return true;
    }
  }
  return false;
}

std::string VlFaultSet::to_string() const {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (VlChannelId c : channels()) {
    if (!first) {
      out << ',';
    }
    first = false;
    // Even channel ids are down-halves, odd are up-halves of VL (c / 2).
    out << (c / 2) << (c % 2 == 0 ? "v" : "^");
  }
  out << '}';
  return out.str();
}

}  // namespace deft
