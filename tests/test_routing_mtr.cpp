// MTR baseline tests: synthesized turn restrictions keep the turn graph
// acyclic and the network connected; routes follow minimal allowed paths;
// fault reachability via combo masks is cross-validated against direct
// BFS over the allowed-turn graph with faulty channels removed.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "core/runner.hpp"
#include "fault/scenario.hpp"
#include "routing/cdg.hpp"
#include "sim_results_checks.hpp"
#include "topology/builder.hpp"

namespace deft {
namespace {

bool channel_is_vertical(const Channel& c) {
  return c.src_port == Port::up || c.src_port == Port::down;
}

/// Ground truth for reachability under faults: BFS over the allowed-turn
/// line graph with edges into/out of faulty vertical channels removed.
bool bfs_reachable(const MtrPlan& plan, const VlFaultSet& faults, NodeId src,
                   NodeId dst) {
  const Topology& topo = plan.topo();
  const LineGraph& graph = plan.line_graph();
  std::vector<char> faulty_channel(
      static_cast<std::size_t>(topo.num_channels()), 0);
  for (VlChannelId vc = 0; vc < topo.num_vl_channels(); ++vc) {
    if (faults.is_faulty(vc)) {
      faulty_channel[static_cast<std::size_t>(
          topo.vl_channel_to_channel(vc))] = 1;
    }
  }
  std::vector<char> seen(static_cast<std::size_t>(graph.size()), 0);
  std::deque<int> queue{graph.injection_node(src)};
  seen[static_cast<std::size_t>(graph.injection_node(src))] = 1;
  while (!queue.empty()) {
    const int cur = queue.front();
    queue.pop_front();
    if (cur == graph.ejection_node(dst)) {
      return true;
    }
    for (int next : graph.successors(cur)) {
      if (graph.is_channel(next) &&
          faulty_channel[static_cast<std::size_t>(next)]) {
        continue;
      }
      if (!seen[static_cast<std::size_t>(next)]) {
        seen[static_cast<std::size_t>(next)] = 1;
        queue.push_back(next);
      }
    }
  }
  return false;
}

/// The plan's channel turn graph: channel -> every channel it may turn
/// into.
std::vector<std::vector<int>> allowed_turn_adjacency(const MtrPlan& plan) {
  const Topology& topo = plan.topo();
  std::vector<std::vector<int>> adj(
      static_cast<std::size_t>(topo.num_channels()));
  for (ChannelId in = 0; in < topo.num_channels(); ++in) {
    for (int p = 0; p < kNumPorts; ++p) {
      const ChannelId out =
          topo.out_channel(topo.channel(in).dst, static_cast<Port>(p));
      if (out != kInvalidChannel && plan.turn_allowed(in, out)) {
        adj[static_cast<std::size_t>(in)].push_back(out);
      }
    }
  }
  return adj;
}

class MtrTest : public ::testing::TestWithParam<int> {
 protected:
  MtrTest() : ctx_(ExperimentContext::reference(GetParam())) {}
  ExperimentContext ctx_;
};

TEST_P(MtrTest, SynthesisRestrictsOnlyVerticalAdjacentTurns) {
  const auto plan = ctx_.mtr_plan();
  const Topology& topo = ctx_.topo();
  EXPECT_GT(plan->restricted_turn_count(), 0);
  int restricted_seen = 0;
  for (ChannelId in = 0; in < topo.num_channels(); ++in) {
    const Channel& cin = topo.channel(in);
    for (int p = 0; p < kNumPorts; ++p) {
      const ChannelId out = topo.out_channel(cin.dst, static_cast<Port>(p));
      if (out == kInvalidChannel) {
        continue;
      }
      const Channel& cout = topo.channel(out);
      const bool both_horizontal =
          is_horizontal(cin.src_port) && is_horizontal(cout.src_port);
      if (both_horizontal && xy_turn_allowed(cin, cout)) {
        // Modularity: intra-mesh XY turns are never restricted.
        EXPECT_TRUE(plan->turn_allowed(in, out));
      }
      if (!plan->turn_allowed(in, out) && both_horizontal &&
          xy_turn_allowed(cin, cout)) {
        ++restricted_seen;  // would be a modularity violation
      }
    }
  }
  EXPECT_EQ(restricted_seen, 0);
}

TEST_P(MtrTest, AllowedTurnGraphIsAcyclic) {
  EXPECT_TRUE(is_acyclic(allowed_turn_adjacency(*ctx_.mtr_plan())))
      << "MTR turn graph has a dependency cycle";
}

TEST_P(MtrTest, FaultFreeDistancesAreFiniteForAllPairs) {
  const auto plan = ctx_.mtr_plan();
  const Topology& topo = ctx_.topo();
  for (NodeId s : topo.endpoints()) {
    const int inj = plan->line_graph().injection_node(s);
    for (NodeId d : topo.endpoints()) {
      if (s != d) {
        EXPECT_NE(plan->distance(inj, d), MtrPlan::kUnreachable);
      }
    }
  }
}

TEST_P(MtrTest, RoutesFollowMinimalAllowedPaths) {
  const auto alg = ctx_.make_algorithm(Algorithm::mtr);
  const auto plan = ctx_.mtr_plan();
  const Topology& topo = ctx_.topo();
  const RouterView view{};
  const auto& cores = topo.core_endpoints();
  for (std::size_t i = 0; i < cores.size(); i += 7) {
    for (std::size_t j = 1; j < cores.size(); j += 7) {
      const NodeId src = cores[i];
      const NodeId dst = cores[j];
      if (src == dst) {
        continue;
      }
      PacketRoute r;
      r.src = src;
      r.dst = dst;
      ASSERT_TRUE(alg->prepare_packet(r));
      NodeId node = src;
      Port in_port = Port::local;
      const int expected =
          plan->distance(plan->line_graph().injection_node(src), dst);
      int hops = 0;
      while (hops <= expected + 1) {
        const RouteDecision d = alg->route(node, in_port, 0, r, view);
        if (d.out_port == Port::local) {
          break;
        }
        const ChannelId ch = topo.out_channel(node, d.out_port);
        if (ch == kInvalidChannel) {
          ADD_FAILURE() << "missing port";
          return;
        }
        node = topo.channel(ch).dst;
        in_port = topo.channel(ch).dst_port;
        ++hops;
      }
      EXPECT_EQ(node, dst);
      // Minimal within the allowed-turn graph: line-graph distance counts
      // the ejection hop as the final channel, so in-network hops are
      // distance - 1.
      EXPECT_EQ(hops, expected - 1);
    }
  }
}

TEST_P(MtrTest, AdaptiveChoicePrefersCredits) {
  const auto alg = ctx_.make_algorithm(Algorithm::mtr);
  const Topology& topo = ctx_.topo();
  // A corner-to-corner interposer pair has two minimal first hops from a
  // DRAM source; bias the view and expect the choice to follow it.
  const NodeId src = topo.dram_endpoints()[0];   // (0,0)
  const NodeId dst = topo.dram_endpoints()[3];   // (W-1,H-1)
  PacketRoute r;
  r.src = src;
  r.dst = dst;
  ASSERT_TRUE(alg->prepare_packet(r));
  RouterView view{};
  view.free_credits[port_index(Port::east)] = 1;
  view.free_credits[port_index(Port::south)] = 5;
  const RouteDecision a = alg->route(src, Port::local, 0, r, view);
  view.free_credits[port_index(Port::east)] = 5;
  view.free_credits[port_index(Port::south)] = 1;
  const RouteDecision b = alg->route(src, Port::local, 0, r, view);
  // Both decisions are minimal; if both directions are allowed they should
  // differ with the congestion bias.
  if (a.out_port != b.out_port) {
    EXPECT_EQ(a.out_port, Port::south);
    EXPECT_EQ(b.out_port, Port::east);
  }
}

TEST_P(MtrTest, AdaptiveChoiceIsTheFirstCandidateWithTheMostCredits) {
  // Every hop with more than one minimal continuation, fault-free. The
  // candidates are the line-graph successors one step closer to the
  // destination, in successor order; route() must answer the first of
  // them whose port has the most free credits, whatever the other ports
  // hold.
  const auto alg = ctx_.make_algorithm(Algorithm::mtr);
  const auto plan = ctx_.mtr_plan();
  const Topology& topo = ctx_.topo();
  const LineGraph& graph = plan->line_graph();
  Rng rng(17);
  const auto random_view = [&](int max_credits) {
    RouterView view;
    for (int& credits : view.free_credits) {
      credits = static_cast<int>(
          rng.uniform(static_cast<std::uint64_t>(max_credits) + 1));
    }
    view.free_credits[port_index(Port::local)] = 4 * 0x3fff;
    return view;
  };
  int hops = 0;
  int three_way = 0;
  std::vector<Port> ports;
  for (NodeId dst : topo.endpoints()) {
    PacketRoute rt;
    rt.dst = dst;
    // Channel nodes, then injection nodes (ejection nodes route nowhere).
    for (int l = 0; l < topo.num_channels() + topo.num_nodes(); ++l) {
      const std::uint16_t here = plan->distance(l, dst);
      if (here == 0 || here == MtrPlan::kUnreachable) {
        continue;
      }
      ports.clear();
      bool eject = false;
      for (int s : graph.successors(l)) {
        if (plan->distance(s, dst) == here - 1) {
          if (!graph.is_channel(s)) {
            eject = true;
            break;
          }
          ports.push_back(topo.channel(s).src_port);
        }
      }
      if (eject || ports.size() < 2) {
        continue;
      }
      ++hops;
      three_way += ports.size() == 3 ? 1 : 0;
      const bool injection = !graph.is_channel(l);
      const NodeId node =
          injection ? l - topo.num_channels() : topo.channel(l).dst;
      const Port in_port =
          injection ? Port::local : topo.channel(l).dst_port;
      SCOPED_TRACE(::testing::Message()
                   << "line node " << l << " -> " << dst);
      ASSERT_TRUE(alg->route_needs_view(node, in_port, rt));
      const auto choice = [&](const RouterView& view) {
        return alg->route(node, in_port, 0, rt, view).out_port;
      };
      // All candidates equal: the first wins.
      RouterView view = random_view(32);
      const int level = view.free_credits[port_index(ports.front())];
      for (Port p : ports) {
        view.free_credits[port_index(p)] = level;
      }
      EXPECT_EQ(choice(view), ports.front());
      // The last candidate leads by one credit: it wins.
      view = random_view(31);
      int best = 0;
      for (Port p : ports) {
        best = std::max(best, view.free_credits[port_index(p)]);
      }
      view.free_credits[port_index(ports.back())] = best + 1;
      EXPECT_EQ(choice(view), ports.back());
      // Random views, narrow enough for frequent ties.
      for (int round = 0; round < 8; ++round) {
        view = random_view(round % 2 == 0 ? 3 : 32);
        Port expected = ports.front();
        for (Port p : ports) {
          if (view.free_credits[port_index(p)] >
              view.free_credits[port_index(expected)]) {
            expected = p;
          }
        }
        EXPECT_EQ(choice(view), expected);
      }
    }
  }
  // About 5% of the non-ejecting route-cache entries; the three-way hops
  // are all on the 6-chiplet system.
  EXPECT_EQ(hops, GetParam() == 4 ? 1151 : 2240);
  EXPECT_EQ(three_way, GetParam() == 4 ? 0 : 7);
}

TEST_P(MtrTest, ComboReachabilityImpliesBfsReachability) {
  const auto plan = ctx_.mtr_plan();
  const Topology& topo = ctx_.topo();
  Rng rng(13);
  int combo_true = 0;
  int mismatches_unsound = 0;
  int mismatches_conservative = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int k = 1 + static_cast<int>(rng.uniform(6));
    const auto faults = sample_fault_scenario(topo, k, rng);
    ASSERT_TRUE(faults.has_value());
    const MtrRouting alg(plan, *faults, 2);
    const auto& cores = topo.core_endpoints();
    for (std::size_t i = 0; i < cores.size(); i += 5) {
      for (std::size_t j = 2; j < cores.size(); j += 5) {
        if (cores[i] == cores[j]) {
          continue;
        }
        const bool combo = alg.pair_reachable(cores[i], cores[j]);
        const bool bfs = bfs_reachable(*plan, *faults, cores[i], cores[j]);
        combo_true += combo;
        if (combo && !bfs) {
          ++mismatches_unsound;  // would be a false "reachable" claim
        }
        if (!combo && bfs) {
          ++mismatches_conservative;  // third-chiplet detour not modelled
        }
      }
    }
  }
  EXPECT_EQ(mismatches_unsound, 0);
  EXPECT_GT(combo_true, 0);
  // The leg-restricted model may be conservative, but only rarely.
  EXPECT_LT(mismatches_conservative, combo_true / 20 + 5);
}

TEST_P(MtrTest, FaultFreePairsAllReachable) {
  const auto alg = ctx_.make_algorithm(Algorithm::mtr);
  const Topology& topo = ctx_.topo();
  for (NodeId s : topo.endpoints()) {
    for (NodeId d : topo.endpoints()) {
      if (s != d) {
        EXPECT_TRUE(alg->pair_reachable(s, d));
      }
    }
  }
}

TEST_P(MtrTest, SomePairLosesReachabilityUnderFewFaults) {
  // MTR cannot re-select VLs freely: there exists a small fault pattern
  // that makes some pair unreachable (this is what Fig. 7 measures; DeFT
  // never loses a pair under non-disconnecting patterns).
  const Topology& topo = ctx_.topo();
  Rng rng(7);
  bool found = false;
  for (int trial = 0; trial < 200 && !found; ++trial) {
    const auto faults = sample_fault_scenario(topo, 4, rng);
    ASSERT_TRUE(faults.has_value());
    const MtrRouting alg(ctx_.mtr_plan(), *faults, 2);
    const auto& cores = topo.core_endpoints();
    for (std::size_t i = 0; i < cores.size() && !found; ++i) {
      for (std::size_t j = 0; j < cores.size() && !found; ++j) {
        if (i != j && !alg.pair_reachable(cores[i], cores[j])) {
          found = true;
        }
      }
    }
  }
  EXPECT_TRUE(found);
}

INSTANTIATE_TEST_SUITE_P(ReferenceSystems, MtrTest, ::testing::Values(4, 6));

TEST_P(MtrTest, SetFaultsMatchesFreshlyConstructedInstance) {
  // The invalidation path of the memoized route-candidate cache: re-
  // targeting an instance at a new fault scenario must give the same
  // decisions (and reachability) as constructing it for that scenario.
  ctx_.prewarm(/*deft_tables=*/false, /*mtr=*/true);
  Rng rng(11);
  const auto faults = sample_fault_scenario(ctx_.topo(), 4, rng);
  ASSERT_TRUE(faults.has_value());

  MtrRouting reused(ctx_.mtr_plan(), {}, 2);
  reused.set_faults(*faults);  // was fault-free; rebuild in place
  MtrRouting fresh(ctx_.mtr_plan(), *faults, 2);

  const RouterView view{};
  for (NodeId src : ctx_.topo().endpoints()) {
    for (NodeId dst : ctx_.topo().endpoints()) {
      if (src == dst) {
        continue;
      }
      ASSERT_EQ(reused.pair_reachable(src, dst), fresh.pair_reachable(src, dst));
      PacketRoute route;
      route.src = src;
      route.dst = dst;
      if (!fresh.prepare_packet(route)) {
        continue;
      }
      const RouteDecision a = reused.route(src, Port::local, 0, route, view);
      const RouteDecision b = fresh.route(src, Port::local, 0, route, view);
      EXPECT_EQ(a.out_port, b.out_port);
      EXPECT_EQ(a.vcs, b.vcs);
    }
  }
}

TEST(MtrHetero, SynthesizesOnHeterogeneousSystem) {
  ExperimentContext ctx(make_two_chiplet_spec());
  const auto plan = ctx.mtr_plan();
  const Topology& topo = ctx.topo();
  for (NodeId s : topo.endpoints()) {
    for (NodeId d : topo.endpoints()) {
      if (s != d) {
        EXPECT_NE(plan->distance(plan->line_graph().injection_node(s), d),
                  MtrPlan::kUnreachable);
      }
    }
  }
}

/// FNV-1a over a plan: its restriction count, the verdict on every turn
/// (each channel into each output port of its router), every endpoint
/// pair's combos and every distance row.
std::uint64_t plan_digest(const MtrPlan& plan) {
  const Topology& topo = plan.topo();
  Digest d;
  d.mix(static_cast<std::uint64_t>(plan.restricted_turn_count()));
  for (ChannelId in = 0; in < topo.num_channels(); ++in) {
    for (int p = 0; p < kNumPorts; ++p) {
      const ChannelId out =
          topo.out_channel(topo.channel(in).dst, static_cast<Port>(p));
      if (out != kInvalidChannel) {
        d.mix(std::uint64_t{plan.turn_allowed(in, out)});
      }
    }
  }
  for (NodeId s : topo.endpoints()) {
    for (NodeId dst : topo.endpoints()) {
      d.mix(plan.pair_combos(s, dst));
    }
  }
  const auto line_nodes = static_cast<std::size_t>(plan.line_graph().size());
  for (std::size_t e = 0; e < topo.endpoints().size(); ++e) {
    const std::uint16_t* row = plan.distance_row(e);
    for (std::size_t l = 0; l < line_nodes; ++l) {
      d.mix(std::uint64_t{row[l]});
    }
  }
  return d.value();
}

TEST(MtrPlanTest, PlansArePinned) {
  // Every plan of five systems, pinned: the reference systems, the
  // heterogeneous pair and two grids. A failure means the synthesis now
  // restricts other turns, so MTR routes (and its Fig. 7 combos) change.
  struct Pin {
    SystemSpec spec;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {make_reference_spec(4), 0xfd2eb0f0e65d962eULL},
      {make_reference_spec(6), 0x43452563711267f4ULL},
      {make_two_chiplet_spec(), 0x7a35cae9cd8771a5ULL},
      {make_grid_spec(2, 2, 3, 3), 0xa3a03fd4a3a8c59fULL},
      {make_grid_spec(3, 3, 4, 4), 0x94e2ba414b89d919ULL},
  };
  for (const Pin& pin : pins) {
    const Topology topo(pin.spec);
    SCOPED_TRACE(topo.spec().name + " " +
                 std::to_string(topo.spec().interposer_width) + "x" +
                 std::to_string(topo.spec().interposer_height));
    const std::uint64_t digest = plan_digest(MtrPlan(topo));
    EXPECT_EQ(digest, pin.digest) << "0x" << std::hex << digest;
  }
}

TEST(MtrPlanTest, BuildsPastSixtyFourVls) {
  // 20 chiplets with 4 VLs each: VL ids run past one 64-bit word.
  const Topology topo(make_grid_spec(5, 4, 2, 2));
  ASSERT_GT(topo.num_vls(), 64);
  const MtrPlan plan(topo);
  EXPECT_TRUE(is_acyclic(allowed_turn_adjacency(plan)))
      << "MTR turn graph has a dependency cycle";
  for (NodeId s : topo.endpoints()) {
    const int inj = plan.line_graph().injection_node(s);
    for (NodeId d : topo.endpoints()) {
      if (topo.node(s).chiplet == topo.node(d).chiplet) {
        continue;
      }
      EXPECT_NE(plan.pair_combos(s, d), 0u) << s << " -> " << d;
      EXPECT_NE(plan.distance(inj, d), MtrPlan::kUnreachable)
          << s << " -> " << d;
    }
  }
}

}  // namespace
}  // namespace deft
