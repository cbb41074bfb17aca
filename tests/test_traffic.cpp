// Traffic-generator tests: rates and destination distributions of the
// synthetic patterns, application-profile properties (including the paper's
// Fig. 6(b) load ordering), and trace record/replay round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "topology/builder.hpp"
#include "traffic/app_profiles.hpp"
#include "traffic/trace.hpp"

namespace deft {
namespace {

class TrafficTest : public ::testing::Test {
 protected:
  Topology topo_{make_reference_spec(4)};
  Rng rng_{11};

  /// Drives `gen` for `cycles` cycles on every core and returns all
  /// generated requests keyed by source.
  std::map<NodeId, std::vector<PacketRequest>> drive(TrafficGenerator& gen,
                                                     int cycles) {
    std::map<NodeId, std::vector<PacketRequest>> out;
    std::vector<PacketRequest> scratch;
    for (int c = 0; c < cycles; ++c) {
      for (NodeId n : topo_.endpoints()) {
        scratch.clear();
        gen.tick(n, c, rng_, scratch);
        if (!scratch.empty()) {
          auto& dst = out[n];
          dst.insert(dst.end(), scratch.begin(), scratch.end());
        }
      }
    }
    return out;
  }

  static std::size_t total(
      const std::map<NodeId, std::vector<PacketRequest>>& m) {
    std::size_t t = 0;
    for (const auto& [src, reqs] : m) {
      t += reqs.size();
    }
    return t;
  }
};

TEST_F(TrafficTest, UniformRateMatchesConfiguration) {
  UniformTraffic gen(topo_, 0.01);
  const auto requests = drive(gen, 5000);
  // 64 cores x 5000 cycles x 0.01.
  EXPECT_NEAR(static_cast<double>(total(requests)), 3200.0, 3200.0 * 0.1);
}

TEST_F(TrafficTest, UniformCoversAllDestinations) {
  UniformTraffic gen(topo_, 0.05);
  const auto requests = drive(gen, 3000);
  std::map<NodeId, int> dst_counts;
  for (const auto& [src, reqs] : requests) {
    EXPECT_EQ(topo_.node(src).endpoint, EndpointKind::core);
    for (const PacketRequest& r : reqs) {
      EXPECT_NE(r.dst, src);  // never self-addressed
      ++dst_counts[r.dst];
    }
  }
  EXPECT_EQ(dst_counts.size(), 64u);  // every core is hit
}

TEST_F(TrafficTest, LocalizedFractionMatchesPaper) {
  // Fig. 4(b): 40% of packets stay on the source chiplet.
  LocalizedTraffic gen(topo_, 0.02, 0.4);
  const auto requests = drive(gen, 5000);
  std::size_t intra = 0;
  std::size_t all = 0;
  for (const auto& [src, reqs] : requests) {
    for (const PacketRequest& r : reqs) {
      ++all;
      intra += topo_.node(r.dst).chiplet == topo_.node(src).chiplet;
    }
  }
  ASSERT_GT(all, 1000u);
  EXPECT_NEAR(static_cast<double>(intra) / all, 0.4, 0.03);
}

TEST_F(TrafficTest, HotspotFractionsMatchPaper) {
  // Fig. 4(c): 3 hotspot points with a 10% rate each.
  HotspotTraffic gen(topo_, 0.02);
  ASSERT_EQ(gen.hotspots().size(), 3u);
  const auto requests = drive(gen, 5000);
  std::map<NodeId, std::size_t> hotspot_hits;
  std::size_t all = 0;
  for (const auto& [src, reqs] : requests) {
    for (const PacketRequest& r : reqs) {
      ++all;
      for (NodeId h : gen.hotspots()) {
        hotspot_hits[h] += r.dst == h;
      }
    }
  }
  ASSERT_GT(all, 1000u);
  for (NodeId h : gen.hotspots()) {
    EXPECT_NEAR(static_cast<double>(hotspot_hits[h]) / all, 0.10, 0.02);
  }
}

TEST_F(TrafficTest, TransposeIsAnInvolutionOnCores) {
  TransposeTraffic gen(topo_, 1.0);
  const auto requests = drive(gen, 1);
  for (const auto& [src, reqs] : requests) {
    for (const PacketRequest& r : reqs) {
      const Coord s = topo_.node(src).global;
      const Coord d = topo_.node(r.dst).global;
      EXPECT_EQ(d.x, s.y);
      EXPECT_EQ(d.y, s.x);
    }
  }
}

TEST_F(TrafficTest, BitComplementTargetsOppositeCorner) {
  BitComplementTraffic gen(topo_, 1.0);
  const auto requests = drive(gen, 1);
  for (const auto& [src, reqs] : requests) {
    for (const PacketRequest& r : reqs) {
      const Coord s = topo_.node(src).global;
      const Coord d = topo_.node(r.dst).global;
      EXPECT_EQ(d.x, 7 - s.x);
      EXPECT_EQ(d.y, 7 - s.y);
    }
  }
}

TEST(AppProfiles, EightApplicationsWithPaperOrdering) {
  const auto& profiles = parsec_profiles();
  ASSERT_EQ(profiles.size(), 8u);
  const auto rate = [&](const char* code) {
    return profile_by_code(code).rate;
  };
  // Fig. 6(b)'s x-axis sorts the two-app combinations by traffic load,
  // low to high: FA+FL < CA+FA < FL+DE < DE+FA < BO+CA < BL+DE < SW+CA
  // < ST+FL.
  const double combos[] = {
      rate("FA") + rate("FL"), rate("CA") + rate("FA"),
      rate("FL") + rate("DE"), rate("DE") + rate("FA"),
      rate("BO") + rate("CA"), rate("BL") + rate("DE"),
      rate("SW") + rate("CA"), rate("ST") + rate("FL"),
  };
  for (std::size_t i = 0; i + 1 < std::size(combos); ++i) {
    EXPECT_LT(combos[i], combos[i + 1] + 1e-12) << "combo " << i;
  }
  for (const AppProfile& p : profiles) {
    EXPECT_GT(p.duty(), 0.0);
    EXPECT_LE(p.duty(), 1.0);
    EXPECT_NEAR(p.frac_l2 + p.frac_dir + p.frac_dram + p.frac_peer, 1.0,
                1e-9);
  }
  EXPECT_THROW(profile_by_code("ZZ"), std::invalid_argument);
}

TEST(AppProfiles, GeneratorRespectsAssignmentAndRates) {
  const Topology topo(make_reference_spec(4));
  Rng rng(3);
  // Two-app split: chiplets {0,1} run ST, {2,3} run FL.
  AppAssignment st{profile_by_code("ST"), {}};
  AppAssignment fl{profile_by_code("FL"), {}};
  for (int c = 0; c < 2; ++c) {
    for (NodeId n : topo.chiplet_nodes(c)) {
      st.cores.push_back(n);
    }
  }
  for (int c = 2; c < 4; ++c) {
    for (NodeId n : topo.chiplet_nodes(c)) {
      fl.cores.push_back(n);
    }
  }
  AppTrafficGenerator gen(topo, {st, fl}, 1.0, /*reply_fraction=*/0.0);
  std::vector<PacketRequest> scratch;
  double st_packets = 0;
  double fl_packets = 0;
  const int cycles = 30000;
  for (int c = 0; c < cycles; ++c) {
    for (NodeId n : topo.endpoints()) {
      scratch.clear();
      gen.tick(n, c, rng, scratch);
      const int chiplet = topo.node(n).chiplet;
      for (const PacketRequest& r : scratch) {
        (void)r;
        if (chiplet == 0 || chiplet == 1) {
          ++st_packets;
        } else {
          ++fl_packets;
        }
      }
    }
  }
  // 32 cores per app; expected = rate * cores * cycles (on/off averaged).
  const double st_expected = profile_by_code("ST").rate * 32 * cycles;
  const double fl_expected = profile_by_code("FL").rate * 32 * cycles;
  EXPECT_NEAR(st_packets, st_expected, st_expected * 0.25);
  EXPECT_NEAR(fl_packets, fl_expected, fl_expected * 0.25);
  EXPECT_GT(st_packets, fl_packets * 2);
}

TEST(AppProfiles, RepliesComeFromServiceEndpoints) {
  // A request to an L2 bank, a directory or a DRAM endpoint carries the
  // cycle its reply is due (reply_fraction 1: every one), and the
  // simulator queues that reply at the responder. Requests to DRAM thus
  // produce interposer-source traffic (Algorithm 1's interposer-source
  // case in system runs).
  const Topology topo(make_reference_spec(4));
  Rng rng(5);
  AppAssignment app{profile_by_code("CA"), topo.core_endpoints()};
  AppTrafficGenerator gen(topo, {app}, 1.0, /*reply_fraction=*/1.0,
                          /*service_delay=*/5);
  const auto serves = [&](NodeId n) {
    const auto in = [n](const std::vector<NodeId>& pool) {
      return std::find(pool.begin(), pool.end(), n) != pool.end();
    };
    return topo.node(n).endpoint == EndpointKind::dram ||
           in(gen.l2_banks()) || in(gen.directories());
  };
  std::vector<PacketRequest> scratch;
  std::size_t dram_replies = 0;
  for (int c = 0; c < 20000; ++c) {
    for (NodeId n : topo.endpoints()) {
      scratch.clear();
      gen.tick(n, c, rng, scratch);
      for (const PacketRequest& r : scratch) {
        EXPECT_EQ(r.reply_at != kNoReply, serves(r.dst));
        if (r.reply_at != kNoReply) {
          EXPECT_EQ(r.reply_at, c + 5);
          dram_replies += topo.node(r.dst).endpoint == EndpointKind::dram;
        }
      }
    }
  }
  EXPECT_GT(dram_replies, 50u);
}

TEST(AppProfiles, RejectsAServiceDelayBelowOneCycle) {
  // A reply due in its request's own cycle has no place in a pre-drawn
  // schedule (see the constructor).
  const Topology topo(make_reference_spec(4));
  AppAssignment app{profile_by_code("CA"), topo.core_endpoints()};
  EXPECT_THROW(AppTrafficGenerator(topo, {app}, 1.0, 0.5, 0),
               std::invalid_argument);
  EXPECT_NO_THROW(AppTrafficGenerator(topo, {app}, 1.0, 0.5, 1));
}

TEST(Trace, RoundTripThroughText) {
  TraceRecorder recorder;
  recorder.record(30, 2, 7, 1);
  recorder.record(10, 5, 3, 0);
  recorder.record(10, 1, 2, 2);
  std::ostringstream out;
  recorder.write(out);
  std::istringstream in(out.str());
  const auto records = parse_trace(in);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], (TraceRecord{10, 1, 2, 2}));
  EXPECT_EQ(records[1], (TraceRecord{10, 5, 3, 0}));
  EXPECT_EQ(records[2], (TraceRecord{30, 2, 7, 1}));
}

TEST(Trace, ParserRejectsGarbage) {
  std::istringstream in("10 3 bad 0\n");
  EXPECT_THROW(parse_trace(in), std::invalid_argument);
}

TEST(Trace, ParserSkipsCommentsAndBlankLines) {
  std::istringstream in("# header\n\n5 1 2 0\n");
  const auto records = parse_trace(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].cycle, 5);
}

TEST(Trace, ReplayDeliversAtConfiguredCycles) {
  TraceReplayGenerator gen({{5, 3, 9, 0}, {5, 3, 10, 1}, {8, 4, 1, 0}});
  Rng rng(1);
  std::vector<PacketRequest> out;
  gen.tick(3, 4, rng, out);
  EXPECT_TRUE(out.empty());
  gen.tick(3, 5, rng, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].dst, 9);
  EXPECT_EQ(out[1].dst, 10);
  out.clear();
  gen.tick(4, 20, rng, out);  // late tick still flushes pending records
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(gen.exhausted());
}

}  // namespace
}  // namespace deft
