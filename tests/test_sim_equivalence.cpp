// Step-equivalence of the active-set simulation core.
//
// Two layers of protection for the hot-path rewrite:
//
//  1. Golden digests: the full-scan reference core must reproduce, bit for
//     bit, the SimResults the pre-rewrite simulator produced (the digests
//     below were captured from the original walk-everything core before
//     the active-set rewrite landed). This pins the reference loop to the
//     historical semantics.
//
//  2. Cross-core equality: for every algorithm / VL strategy / traffic
//     pattern / fault / serialization configuration, SimCore::active_set
//     (worklists, pre-drawn injections and scheduled replies, phase-
//     segmented loops, compile-time sinks) must produce field-identical
//     SimResults to
//     SimCore::full_scan for the same seed.
#include <gtest/gtest.h>

#include "app_traffic.hpp"
#include "core/runner.hpp"
#include "sim_results_checks.hpp"
#include "traffic/trace.hpp"

namespace deft {
namespace {

SimKnobs golden_knobs(SimCore core) {
  SimKnobs k;
  k.warmup = 500;
  k.measure = 1500;
  k.drain_max = 3000;
  k.seed = 7;
  k.core = core;
  return k;
}

const ExperimentContext& ctx4() {
  static const ExperimentContext ctx = ExperimentContext::reference(4);
  return ctx;
}

const ExperimentContext& ctx6() {
  static const ExperimentContext ctx = ExperimentContext::reference(6);
  return ctx;
}

/// Deterministic replay workload for the trace-equivalence configs:
/// uniform-random draws at 0.03 pkt/cycle/core recorded over the warmup +
/// measurement window of golden_knobs (record_uniform_trace is the same
/// construction the perf matrix uses; the digests below depend on it).
std::vector<TraceRecord> golden_trace(const Topology& topo) {
  return record_uniform_trace(topo, 0.03, 1500);
}

struct GoldenConfig {
  const char* name;
  Algorithm algorithm;
  VlStrategy strategy;
  int fault_count;
  std::uint64_t expected_digest;  ///< captured from the pre-rewrite core
};

// Uniform traffic at 0.02 pkt/cycle/core, knobs above, seed 7. The five
// algorithm configurations of the figure series (DeFT under all three VL
// strategies, MTR, RC) plus DeFT under a 4-fault scenario.
const GoldenConfig kGoldens[] = {
    {"deft_table", Algorithm::deft, VlStrategy::table, 0,
     0xaeb4ff9aedc7445eULL},
    {"deft_distance", Algorithm::deft, VlStrategy::distance, 0,
     0xaeb4ff9aedc7445eULL},
    {"deft_random", Algorithm::deft, VlStrategy::random, 0,
     0x0112fd2b81d6daf1ULL},
    {"mtr", Algorithm::mtr, VlStrategy::table, 0, 0x336aabf23e3f7c66ULL},
    {"rc", Algorithm::rc, VlStrategy::table, 0, 0x38e4d1328d56a047ULL},
    {"deft_table_f4", Algorithm::deft, VlStrategy::table, 4,
     0x9efd33fa70237ed8ULL},
};

SimResults run_config(const GoldenConfig& cfg, SimCore core) {
  UniformTraffic traffic(ctx4().topo(), 0.02);
  VlFaultSet faults;
  if (cfg.fault_count > 0) {
    faults = grid_fault_pattern(ctx4(), cfg.fault_count);
  }
  return run_sim(ctx4(), cfg.algorithm, traffic, golden_knobs(core), faults,
                 cfg.strategy);
}

TEST(SimEquivalence, FullScanReproducesPreRewriteGoldens) {
  for (const GoldenConfig& cfg : kGoldens) {
    SCOPED_TRACE(cfg.name);
    const SimResults r = run_config(cfg, SimCore::full_scan);
    EXPECT_EQ(digest(r), cfg.expected_digest);
  }
}

TEST(SimEquivalence, ActiveSetMatchesFullScanOnGoldenConfigs) {
  for (const GoldenConfig& cfg : kGoldens) {
    SCOPED_TRACE(cfg.name);
    const SimResults full = run_config(cfg, SimCore::full_scan);
    const SimResults active = run_config(cfg, SimCore::active_set);
    expect_identical(full, active);
    EXPECT_EQ(digest(active), cfg.expected_digest);
  }
}

TEST(SimEquivalence, ActiveSetMatchesFullScanAcrossTrafficPatterns) {
  // Exercises every next_injection implementation (localized, hotspot,
  // transpose, bit-complement) plus a serialized-VL fault scenario. The
  // digests pin the results themselves, so a change in code both cores
  // share cannot pass by agreement alone.
  struct PatternConfig {
    const char* pattern;
    int fault_count;
    int vl_serialization;
    std::uint64_t expected_digest;
  };
  const PatternConfig configs[] = {
      {"localized", 0, 1, 0xa2e111325e554f35ULL},
      {"hotspot", 0, 1, 0xbd90ba7c7597f0d8ULL},
      {"transpose", 0, 1, 0x17fa70ed74b6f154ULL},
      {"bit-complement", 0, 1, 0x8c5e4943109a8c17ULL},
      {"uniform", 6, 2, 0xcfad1031e9d0ecc7ULL},
  };
  for (const PatternConfig& cfg : configs) {
    SCOPED_TRACE(cfg.pattern);
    VlFaultSet faults;
    if (cfg.fault_count > 0) {
      faults = grid_fault_pattern(ctx4(), cfg.fault_count);
    }
    SimResults results[2];
    for (SimCore core : {SimCore::full_scan, SimCore::active_set}) {
      const auto traffic = make_traffic(ctx4().topo(), cfg.pattern, 0.015);
      SimKnobs knobs = golden_knobs(core);
      knobs.vl_serialization = cfg.vl_serialization;
      results[core == SimCore::active_set] =
          run_sim(ctx4(), Algorithm::deft, *traffic, knobs, faults);
    }
    expect_identical(results[0], results[1]);
    EXPECT_EQ(digest(results[1]), cfg.expected_digest)
        << "0x" << std::hex << digest(results[1]);
  }
}

// 6-chiplet fault scenarios from the PR 3 perf matrix. Uniform traffic at
// 0.02 pkt/cycle/core, golden_knobs, seed 7; digests captured from the
// pre-SoA core (commit 9de0b1c) - they pin the flit-storage rewrite on
// the big system exactly as kGoldens pins it on the reference system.
const GoldenConfig kGoldens6[] = {
    {"deft6_f0", Algorithm::deft, VlStrategy::table, 0,
     0xf248820a903e160cULL},
    {"deft6_f2", Algorithm::deft, VlStrategy::table, 2,
     0x0c790fafe5f9eeaeULL},
    {"deft6_f4", Algorithm::deft, VlStrategy::table, 4,
     0x1ce90bf5c3df4299ULL},
    {"mtr6_f0", Algorithm::mtr, VlStrategy::table, 0, 0x07d054c492ae5657ULL},
    {"mtr6_f4", Algorithm::mtr, VlStrategy::table, 4, 0xb433898a2fb129bcULL},
};

SimResults run_config6(const GoldenConfig& cfg, SimCore core) {
  UniformTraffic traffic(ctx6().topo(), 0.02);
  VlFaultSet faults;
  if (cfg.fault_count > 0) {
    faults = grid_fault_pattern(ctx6(), cfg.fault_count);
  }
  return run_sim(ctx6(), cfg.algorithm, traffic, golden_knobs(core), faults,
                 cfg.strategy);
}

TEST(SimEquivalence, SixChipletFaultScenariosMatchAcrossCores) {
  for (const GoldenConfig& cfg : kGoldens6) {
    SCOPED_TRACE(cfg.name);
    const SimResults full = run_config6(cfg, SimCore::full_scan);
    const SimResults active = run_config6(cfg, SimCore::active_set);
    expect_identical(full, active);
    EXPECT_EQ(digest(full), cfg.expected_digest);
  }
}

TEST(SimEquivalence, SixChipletHotspotMatchesAcrossCores) {
  // Hotspot at 0.012 on the 6-chiplet system, fault-free and 2-fault
  // (digests captured from the pre-SoA core).
  struct HotspotGolden {
    int fault_count;
    std::uint64_t expected_digest;
  };
  const HotspotGolden goldens[] = {
      {0, 0xbf6f111bf3e363e4ULL},
      {2, 0xd0888228b2650ef9ULL},
  };
  for (const HotspotGolden& g : goldens) {
    SCOPED_TRACE(g.fault_count);
    VlFaultSet faults;
    if (g.fault_count > 0) {
      faults = grid_fault_pattern(ctx6(), g.fault_count);
    }
    SimResults results[2];
    for (SimCore core : {SimCore::full_scan, SimCore::active_set}) {
      HotspotTraffic traffic(ctx6().topo(), 0.012);
      results[core == SimCore::active_set] = run_sim(
          ctx6(), Algorithm::deft, traffic, golden_knobs(core), faults);
    }
    expect_identical(results[0], results[1]);
    EXPECT_EQ(digest(results[0]), g.expected_digest);
  }
}

TEST(SimEquivalence, TraceReplayLookaheadMatchesPollingAcrossCores) {
  // The active-set core pre-draws TraceReplayGenerator's per-source
  // cursors; the full-scan reference still polls tick() every cycle. Both
  // must reproduce the digests captured before the pre-draw existed (when
  // every core polled traces), for DeFT and MTR, fault-free and under
  // faults.
  struct TraceGolden {
    const char* name;
    Algorithm algorithm;
    int fault_count;
    std::uint64_t expected_digest;
  };
  const TraceGolden goldens[] = {
      {"trace_deft_f0", Algorithm::deft, 0, 0xf03ff11403a277d5ULL},
      {"trace_deft_f2", Algorithm::deft, 2, 0xe9db7514cb7cc6e5ULL},
      {"trace_mtr_f0", Algorithm::mtr, 0, 0x6fddd8a00a890274ULL},
      {"trace_mtr_f2", Algorithm::mtr, 2, 0xd48e63dd7ca05101ULL},
  };
  const std::vector<TraceRecord> records = golden_trace(ctx4().topo());
  for (const TraceGolden& g : goldens) {
    SCOPED_TRACE(g.name);
    VlFaultSet faults;
    if (g.fault_count > 0) {
      faults = grid_fault_pattern(ctx4(), g.fault_count);
    }
    SimResults results[2];
    for (SimCore core : {SimCore::full_scan, SimCore::active_set}) {
      // Replay consumes the generator's cursors: fresh instance per run.
      TraceReplayGenerator traffic(records);
      results[core == SimCore::active_set] =
          run_sim(ctx4(), g.algorithm, traffic, golden_knobs(core), faults);
    }
    expect_identical(results[0], results[1]);
    EXPECT_EQ(digest(results[0]), g.expected_digest);
  }
}

TEST(SimEquivalence, TraceLookaheadConsumesCursorsExactlyLikePolling) {
  // The trace analogue of LookaheadConsumesRngExactlyLikePolling: for
  // every source, alternating next_injection() calls must visit the same
  // (cycle, requests) sequence per-cycle tick() polling produces,
  // including batched same-cycle records and overdue records (cycle <
  // `from`), and leave the cursors in the same state.
  const std::vector<TraceRecord> records = golden_trace(ctx4().topo());
  TraceReplayGenerator polled(records);
  TraceReplayGenerator batched(records);
  Rng rng(1);  // unused by replay; required by the interface
  const Cycle limit = 2000;
  for (NodeId src :
       {ctx4().topo().core_endpoints()[3], ctx4().topo().core_endpoints()[17]}) {
    SCOPED_TRACE(src);
    Cycle from = 0;
    while (from < limit) {
      std::vector<PacketRequest> expected;
      Cycle expected_cycle = limit;
      for (Cycle c = from; c < limit && expected.empty(); ++c) {
        polled.tick(src, c, rng, expected);
        if (!expected.empty()) {
          expected_cycle = c;
        }
      }
      std::vector<PacketRequest> got;
      const Cycle got_cycle =
          batched.next_injection(src, from, limit, rng, got);
      EXPECT_EQ(got_cycle, expected_cycle);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].dst, expected[i].dst);
        EXPECT_EQ(got[i].app, expected[i].app);
      }
      from = got_cycle + 1;
    }
  }
  // A record already overdue at `from` fires immediately at `from`.
  TraceReplayGenerator overdue({{5, ctx4().topo().core_endpoints()[0],
                                 ctx4().topo().core_endpoints()[1], 0}});
  std::vector<PacketRequest> out;
  EXPECT_EQ(overdue.next_injection(ctx4().topo().core_endpoints()[0], 40,
                                   100, rng, out),
            40);
  ASSERT_EQ(out.size(), 1u);
}

TEST(SimEquivalence, ActiveSetMatchesFullScanOnApplicationTraffic) {
  // Application traffic couples sources through request/reply flows: the
  // active-set core queues each reply at its responder's NI when the
  // request materializes, the reference core polls tick() at every NI.
  // Both must match each other and the digests of the polling era
  // (app_traffic.hpp).
  for (const AppGolden& g : kAppGoldens) {
    SCOPED_TRACE(g.name);
    SimResults results[2];
    for (SimCore core : {SimCore::full_scan, SimCore::active_set}) {
      AppTrafficGenerator traffic = g.make(ctx4().topo());
      results[core == SimCore::active_set] =
          run_sim(ctx4(), Algorithm::deft, traffic, golden_knobs(core));
    }
    expect_identical(results[0], results[1]);
    EXPECT_EQ(digest(results[1]), g.expected_digest)
        << "0x" << std::hex << digest(results[1]);
  }
}

TEST(SimEquivalence, LookaheadConsumesRngExactlyLikePolling) {
  // The contract that makes scheduled injection bit-identical: for every
  // stationary pattern, next_injection() must return the first emitting
  // cycle and leave the RNG in the same state as per-cycle tick() calls.
  const Topology& topo = ctx4().topo();
  const char* patterns[] = {"uniform", "localized", "hotspot", "transpose",
                            "bit-complement"};
  for (const char* name : patterns) {
    SCOPED_TRACE(name);
    const auto gen = make_traffic(topo, name, 0.03);
    for (NodeId src : {topo.core_endpoints()[5], topo.dram_endpoints()[0]}) {
      Rng polled(99);
      Rng batched(99);
      const Cycle limit = 2000;
      std::vector<PacketRequest> expected;
      Cycle expected_cycle = limit;
      for (Cycle c = 0; c < limit && expected.empty(); ++c) {
        gen->tick(src, c, polled, expected);
        if (!expected.empty()) {
          expected_cycle = c;
        }
      }
      std::vector<PacketRequest> got;
      const Cycle got_cycle = gen->next_injection(src, 0, limit, batched, got);
      EXPECT_EQ(got_cycle, expected_cycle);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].dst, expected[i].dst);
        EXPECT_EQ(got[i].app, expected[i].app);
      }
      // Identical stream consumption: the next draws must agree.
      EXPECT_EQ(polled.next(), batched.next());
    }
  }

  // Application traffic carries per-core burst state and reply cycles:
  // successive next_injection() calls on one generator must visit the
  // (cycle, requests) sequence tick() polling produces on a twin - the
  // reply cycles included - and leave the RNG where polling leaves it.
  // A short service delay and full reply fraction make replies frequent.
  const std::vector<AppAssignment> apps = {
      {profile_by_code("ST"), topo.core_endpoints()}};
  AppTrafficGenerator polled_gen(topo, apps, 2.5, 1.0, 5);
  AppTrafficGenerator batched_gen(topo, apps, 2.5, 1.0, 5);
  for (NodeId src : {topo.core_endpoints()[5], topo.core_endpoints()[40],
                     topo.dram_endpoints()[0]}) {
    SCOPED_TRACE(src);
    Rng polled(99);
    Rng batched(99);
    const Cycle limit = 3000;
    std::size_t replies = 0;
    for (Cycle from = 0; from < limit;) {
      std::vector<PacketRequest> expected;
      Cycle expected_cycle = limit;
      for (Cycle c = from; c < limit && expected.empty(); ++c) {
        polled_gen.tick(src, c, polled, expected);
        if (!expected.empty()) {
          expected_cycle = c;
        }
      }
      std::vector<PacketRequest> got;
      const Cycle got_cycle =
          batched_gen.next_injection(src, from, limit, batched, got);
      ASSERT_EQ(got_cycle, expected_cycle);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].dst, expected[i].dst);
        EXPECT_EQ(got[i].app, expected[i].app);
        EXPECT_EQ(got[i].reply_at, expected[i].reply_at);
        if (got[i].reply_at != kNoReply) {
          EXPECT_EQ(got[i].reply_at, got_cycle + 5);
          ++replies;
        }
      }
      from = got_cycle + 1;
    }
    EXPECT_EQ(polled.next(), batched.next());
    if (topo.node(src).endpoint == EndpointKind::core) {
      EXPECT_GT(replies, 0u);
    }
  }
}

}  // namespace
}  // namespace deft
