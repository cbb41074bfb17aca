// Application-traffic workloads shared by the simulator test suites, and
// the golden digests test_sim_equivalence.cpp, test_sim_sharded.cpp and
// test_snapshot.cpp pin them to.
//
// The digests were captured while the active-set core still polled
// AppTrafficGenerator at every NI every cycle: DeFT (table strategy) on
// the 4-chiplet reference system, 500 warm-up, 1,500 measurement and at
// most 3,000 drain cycles, seed 7.
#pragma once

#include <cstdint>

#include "topology/topology.hpp"
#include "traffic/app_profiles.hpp"

namespace deft {

/// BL (blackscholes) on every core.
inline constexpr std::uint64_t kBlDigest = 0x591763cf083352a3ULL;
/// The Fig. 6(b) mixes ST+FL and BO+CA at rate scale 2.5.
inline constexpr std::uint64_t kStFlDigest = 0x95367cb470a8ac63ULL;
inline constexpr std::uint64_t kBoCaDigest = 0x75e08f876ce67c76ULL;

inline AppTrafficGenerator bl_traffic(const Topology& topo) {
  return AppTrafficGenerator(topo,
                             {{profile_by_code("BL"), topo.core_endpoints()}});
}

/// A Fig. 6(b) two-application mix: `first` on chiplets 0-1, `second` on
/// chiplets 2-3.
inline AppTrafficGenerator app_mix(const Topology& topo, const char* first,
                                   const char* second, double rate_scale) {
  const auto on = [&](const char* code, int chiplet) {
    AppAssignment a{profile_by_code(code), {}};
    for (int c = chiplet; c < chiplet + 2; ++c) {
      a.cores.insert(a.cores.end(), topo.chiplet_nodes(c).begin(),
                     topo.chiplet_nodes(c).end());
    }
    return a;
  };
  return AppTrafficGenerator(topo, {on(first, 0), on(second, 2)},
                             rate_scale);
}

/// One pinned application workload.
struct AppGolden {
  const char* name;
  AppTrafficGenerator (*make)(const Topology& topo);
  std::uint64_t expected_digest;
};

inline constexpr AppGolden kAppGoldens[] = {
    {"BL", bl_traffic, kBlDigest},
    {"ST+FL",
     [](const Topology& topo) { return app_mix(topo, "ST", "FL", 2.5); },
     kStFlDigest},
    {"BO+CA",
     [](const Topology& topo) { return app_mix(topo, "BO", "CA", 2.5); },
     kBoCaDigest},
};

}  // namespace deft
