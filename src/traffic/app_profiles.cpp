#include "traffic/app_profiles.hpp"

#include <algorithm>

namespace deft {

const std::vector<AppProfile>& parsec_profiles() {
  // Relative rates (see header): FL < FA < CA < BL < DE = BO < SW < ST,
  // scaled to packets/cycle/core. Burstiness loosely follows published
  // PARSEC NoC characterisations: streaming apps (ST, FL) burst long,
  // compute-bound apps (BL, SW) burst short and rarely.
  static const std::vector<AppProfile> profiles = {
      // code  name             rate     on->off  off->on  l2    dir   dram  peer
      {"FL", "fluidanimate",    0.0008,  0.010,   0.010,   0.45, 0.20, 0.15, 0.20},
      {"FA", "facesim",         0.0016,  0.008,   0.008,   0.50, 0.20, 0.20, 0.10},
      {"CA", "canneal",         0.0020,  0.005,   0.015,   0.40, 0.15, 0.30, 0.15},
      {"BL", "blackscholes",    0.0024,  0.020,   0.005,   0.55, 0.20, 0.15, 0.10},
      {"DE", "dedup",           0.0032,  0.010,   0.020,   0.40, 0.20, 0.25, 0.15},
      {"BO", "bodytrack",       0.0032,  0.012,   0.018,   0.45, 0.25, 0.20, 0.10},
      {"SW", "swaptions",       0.0040,  0.015,   0.010,   0.55, 0.25, 0.10, 0.10},
      {"ST", "streamcluster",   0.0056,  0.004,   0.020,   0.35, 0.15, 0.35, 0.15},
  };
  return profiles;
}

const AppProfile& profile_by_code(const std::string& code) {
  for (const AppProfile& p : parsec_profiles()) {
    if (code == p.code) {
      return p;
    }
  }
  require(false, "profile_by_code: unknown application code " + code);
  return parsec_profiles().front();
}

AppTrafficGenerator::AppTrafficGenerator(const Topology& topo,
                                         std::vector<AppAssignment> apps,
                                         double rate_scale,
                                         double reply_fraction,
                                         Cycle service_delay)
    : topo_(&topo),
      apps_(std::move(apps)),
      rate_scale_(rate_scale),
      reply_fraction_(reply_fraction),
      service_delay_(service_delay) {
  require(!apps_.empty(), "AppTrafficGenerator: need at least one app");
  require(reply_fraction_ >= 0.0 && reply_fraction_ <= 1.0,
          "AppTrafficGenerator: bad reply fraction");
  // A reply due in its request's cycle would reach a lower-indexed
  // responder the per-cycle walk already passed; no pre-draw can match.
  require(service_delay_ >= 1,
          "AppTrafficGenerator: service delay must be at least one cycle");

  // Shared L2 banks and coherence directories sit on the centre cores of
  // the first (up to) four chiplets, mirroring the paper's 4-bank/4-dir
  // full-system configuration.
  const int homes = std::min(4, topo.num_chiplets());
  for (int c = 0; c < homes; ++c) {
    const ChipletSpec& spec = topo.spec().chiplets[static_cast<std::size_t>(c)];
    l2_banks_.push_back(
        topo.chiplet_node_at(c, spec.width / 2, spec.height / 2));
    directories_.push_back(
        topo.chiplet_node_at(c, spec.width / 2 - 1, spec.height / 2 - 1));
  }

  core_state_.assign(static_cast<std::size_t>(topo.num_nodes()), {});
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    for (NodeId core : apps_[a].cores) {
      require(topo.node(core).endpoint == EndpointKind::core,
              "AppTrafficGenerator: app cores must be core endpoints");
      auto& state = core_state_[static_cast<std::size_t>(core)];
      require(state.app == -1,
              "AppTrafficGenerator: core assigned to two applications");
      state.app = static_cast<int>(a);
    }
  }
}

NodeId AppTrafficGenerator::pick_destination(int app_index, NodeId src,
                                             Rng& rng) const {
  const AppProfile& p = apps_[static_cast<std::size_t>(app_index)].profile;
  const auto pick_from = [&](const std::vector<NodeId>& pool) -> NodeId {
    if (pool.empty()) {
      return kInvalidNode;
    }
    return pool[static_cast<std::size_t>(
        rng.uniform(static_cast<std::uint64_t>(pool.size())))];
  };
  const double roll = rng.uniform_real();
  NodeId dst = kInvalidNode;
  if (roll < p.frac_l2) {
    dst = pick_from(l2_banks_);
  } else if (roll < p.frac_l2 + p.frac_dir) {
    dst = pick_from(directories_);
  } else if (roll < p.frac_l2 + p.frac_dir + p.frac_dram) {
    dst = pick_from(topo_->dram_endpoints());
  } else {
    dst = pick_from(apps_[static_cast<std::size_t>(app_index)].cores);
  }
  return dst == src ? kInvalidNode : dst;
}

void AppTrafficGenerator::tick(NodeId src, Cycle cycle, Rng& rng,
                               std::vector<PacketRequest>& out) {
  next_injection(src, cycle, cycle + 1, rng, out);
}

Cycle AppTrafficGenerator::next_injection(NodeId src, Cycle from, Cycle limit,
                                          Rng& rng,
                                          std::vector<PacketRequest>& out) {
  CoreState& state = core_state_[static_cast<std::size_t>(src)];
  if (state.app < 0) {
    return limit;  // endpoints running no application never draw
  }
  const AppProfile& p = apps_[static_cast<std::size_t>(state.app)].profile;
  // On/off burst modulation; the *average* rate equals p.rate, so bursts
  // inject at rate / duty while on.
  const double burst_rate = std::min(1.0, p.rate * rate_scale_ / p.duty());
  // Requests to service endpoints produce a reply after a service delay.
  const auto serves = [this](NodeId dst) {
    const auto in = [dst](const std::vector<NodeId>& pool) {
      return std::find(pool.begin(), pool.end(), dst) != pool.end();
    };
    return topo_->node(dst).endpoint == EndpointKind::dram ||
           in(l2_banks_) || in(directories_);
  };
  for (Cycle c = from; c < limit; ++c) {
    if (state.on) {
      if (rng.bernoulli(p.on_to_off)) {
        state.on = false;
      }
    } else if (rng.bernoulli(p.off_to_on)) {
      state.on = true;
    }
    if (!state.on || !rng.bernoulli(burst_rate)) {
      continue;
    }
    const NodeId dst = pick_destination(state.app, src, rng);
    if (dst == kInvalidNode) {
      continue;
    }
    out.push_back({dst, static_cast<std::uint8_t>(state.app)});
    if (serves(dst) && rng.bernoulli(reply_fraction_)) {
      out.back().reply_at = c + service_delay_;
    }
    return c;
  }
  return limit;
}

void AppTrafficGenerator::save_stream_state(
    std::vector<std::uint64_t>& out) const {
  for (const CoreState& state : core_state_) {
    out.push_back(state.on);
  }
}

void AppTrafficGenerator::load_stream_state(
    const std::vector<std::uint64_t>& in, std::size_t& cursor) {
  require(in.size() - cursor >= core_state_.size(),
          "application stream state: too few burst flags");
  for (CoreState& state : core_state_) {
    require(in[cursor] <= 1,
            "application stream state: burst flag is neither 0 nor 1");
    state.on = in[cursor++] == 1;
  }
}

}  // namespace deft
