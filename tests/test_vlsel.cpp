// VL-selection tests: cost model (eqs. 1-6) against the paper's Fig. 3
// examples, optimizer optimality and cross-validation, and the
// per-fault-scenario tables of Algorithm 2, pinned selection by selection.
#include <gtest/gtest.h>

#include <bit>

#include "sim_results_checks.hpp"
#include "topology/builder.hpp"
#include "vlsel/table.hpp"

namespace deft {
namespace {

/// The 4x4 chiplet of Fig. 3 with the paper's four border VLs (our
/// pinwheel positions): north (1,0), east (3,2), south (2,3), west (0,1).
std::vector<Coord> fig3_routers() {
  std::vector<Coord> routers;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      routers.push_back({x, y});
    }
  }
  return routers;
}

std::vector<Coord> fig3_vls() { return {{1, 0}, {3, 2}, {2, 3}, {0, 1}}; }

TEST(VlCost, LoadFollowsEquationOne) {
  VlSelectionProblem p;
  p.routers = {{0, 0}, {1, 0}, {2, 0}};
  p.traffic = {0.1, 0.2, 0.3};
  p.vls = {{0, 0}, {2, 0}};
  const VlSelection s = {0, 0, 1};
  EXPECT_DOUBLE_EQ(vl_load(p, s, 0), 0.3);
  EXPECT_DOUBLE_EQ(vl_load(p, s, 1), 0.3);
  EXPECT_DOUBLE_EQ(average_vl_load(p, s), 0.3);
  EXPECT_DOUBLE_EQ(vl_load_cost(p, s, 0), 0.0);
}

TEST(VlCost, DistanceFollowsEquationsFourFive) {
  VlSelectionProblem p = VlSelectionProblem::uniform(
      {{0, 0}, {3, 3}}, {{1, 0}, {0, 1}});
  const VlSelection s = {0, 1};
  // Router (0,0) -> VL (1,0): 1 hop; router (3,3) -> VL (0,1): 5 hops.
  EXPECT_DOUBLE_EQ(vl_distance_cost(p, s, 0), 1.0);
  EXPECT_DOUBLE_EQ(vl_distance_cost(p, s, 1), 5.0);
}

TEST(VlCost, ZeroTrafficHasZeroLoadCost) {
  VlSelectionProblem p;
  p.routers = {{0, 0}};
  p.traffic = {0.0};
  p.vls = {{0, 0}, {1, 0}};
  const VlSelection s = {0};
  EXPECT_DOUBLE_EQ(vl_load_cost(p, s, 0), 0.0);
  EXPECT_DOUBLE_EQ(selection_cost(p, s), 0.0);
}

TEST(VlCost, RejectsMalformedSelections) {
  VlSelectionProblem p = VlSelectionProblem::uniform({{0, 0}}, {{0, 0}});
  EXPECT_THROW(selection_cost(p, {}), std::invalid_argument);
  EXPECT_THROW(selection_cost(p, {1}), std::invalid_argument);
  // A problem is one chiplet's alive VLs, so it has at most
  // kMaxVlsPerChiplet of them.
  const VlSelectionProblem wide = VlSelectionProblem::uniform(
      {{0, 0}}, std::vector<Coord>(kMaxVlsPerChiplet + 1, Coord{0, 0}));
  EXPECT_THROW(selection_cost(wide, {0}), std::invalid_argument);
}

/// Eq. 6 summed term by term from the per-VL reference functions, in VL
/// order: the value selection_cost must reproduce bit for bit.
double per_term_cost(const VlSelectionProblem& p, const VlSelection& s) {
  double cost = 0.0;
  for (int v = 0; v < p.num_vls(); ++v) {
    cost += p.rho * vl_distance_cost(p, s, v) + vl_load_cost(p, s, v);
  }
  return cost;
}

/// Literal Algorithm 2 over per_term_cost: the same odometer order and
/// strict-improvement rule as solve_exhaustive.
VlSelectionResult per_term_exhaustive(const VlSelectionProblem& p) {
  const int R = p.num_routers();
  const int V = p.num_vls();
  VlSelection current(static_cast<std::size_t>(R), 0);
  VlSelectionResult best;
  best.selection = current;
  best.cost = per_term_cost(p, current);
  while (true) {
    int pos = R - 1;
    while (pos >= 0 && current[static_cast<std::size_t>(pos)] == V - 1) {
      current[static_cast<std::size_t>(pos)] = 0;
      --pos;
    }
    if (pos < 0) {
      return best;
    }
    ++current[static_cast<std::size_t>(pos)];
    const double cost = per_term_cost(p, current);
    if (cost < best.cost) {
      best.cost = cost;
      best.selection = current;
    }
  }
}

TEST(VlCost, SelectionCostIsBitIdenticalToPerTermSum) {
  // Random problems with R 2-9 and V 1-4, uniform (including all-zero)
  // and non-uniform traffic, at the paper's rho and a large one. Every
  // cost must equal the per-term sum exactly, and the exhaustive solver
  // must pick the same selection with the same cost bits.
  Rng gen(2022);
  for (int trial = 0; trial < 120; ++trial) {
    VlSelectionProblem p;
    const int R = 2 + static_cast<int>(gen.uniform(8));
    const int V = 1 + static_cast<int>(gen.uniform(4));
    p.rho = trial % 2 == 0 ? 0.01 : 0.37;
    const double uniform_rate = (trial / 2) % 3 == 0 ? 0.0 : 0.013;
    const bool uniform = trial % 4 < 2;
    for (int r = 0; r < R; ++r) {
      p.routers.push_back({static_cast<int>(gen.uniform(5)),
                           static_cast<int>(gen.uniform(5))});
      p.traffic.push_back(uniform ? uniform_rate
                                  : 0.001 + gen.uniform_real() * 0.3);
    }
    for (int v = 0; v < V; ++v) {
      p.vls.push_back({static_cast<int>(gen.uniform(5)),
                       static_cast<int>(gen.uniform(5))});
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    for (int k = 0; k < 16; ++k) {
      VlSelection s(static_cast<std::size_t>(R));
      for (int& v : s) {
        v = static_cast<int>(gen.uniform(static_cast<std::uint64_t>(V)));
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(selection_cost(p, s)),
                std::bit_cast<std::uint64_t>(per_term_cost(p, s)));
    }
    const VlSelectionResult fast = solve_exhaustive(p);
    const VlSelectionResult reference = per_term_exhaustive(p);
    EXPECT_EQ(fast.selection, reference.selection);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.cost),
              std::bit_cast<std::uint64_t>(reference.cost));
  }
}

TEST(VlCost, Fig3cDistanceBasedLoadsMatchPaper) {
  // Fig. 3(c): non-uniform traffic where distance-based selection puts
  // l_blue = 0.5, l_red = 0, l_green = 0.3, l_purple = 0.2. We reproduce
  // the *structure*: distance-based selection concentrates half the load
  // on one VL and leaves another idle under a skewed traffic profile.
  VlSelectionProblem p;
  p.routers = fig3_routers();
  p.vls = fig3_vls();
  // Traffic concentrated around the north VL's quadrant.
  p.traffic.assign(16, 0.0);
  p.traffic[0] = 0.1;   // (0,0)
  p.traffic[1] = 0.2;   // (1,0) - at the north VL
  p.traffic[2] = 0.2;   // (2,0)
  p.traffic[5] = 0.1;   // (1,1)
  p.traffic[11] = 0.2;  // (3,2) - at the east VL
  p.traffic[13] = 0.2;  // (1,3)
  const VlSelection dist = select_distance_based(p);
  const double total = 1.0;
  double max_load = 0.0;
  double min_load = 1.0;
  for (int v = 0; v < 4; ++v) {
    max_load = std::max(max_load, vl_load(p, dist, v));
    min_load = std::min(min_load, vl_load(p, dist, v));
  }
  EXPECT_GE(max_load, 0.4 * total);  // one VL takes a large share
  // The optimizer balances it strictly better.
  Rng rng(5);
  const VlSelectionResult opt = solve_anneal(p, rng);
  EXPECT_LT(opt.cost, selection_cost(p, dist));
}

TEST(VlOptimizer, ExhaustiveFindsGlobalOptimumOnTinyInstance) {
  VlSelectionProblem p = VlSelectionProblem::uniform(
      {{0, 0}, {1, 0}, {2, 0}, {3, 0}}, {{0, 0}, {3, 0}});
  const VlSelectionResult r = solve_exhaustive(p);
  // Balanced 2/2 split with minimal distance: routers 0,1 -> VL0 and
  // 2,3 -> VL1.
  EXPECT_EQ(r.selection, (VlSelection{0, 0, 1, 1}));
}

TEST(VlOptimizer, ExhaustiveRefusesHugeInstances) {
  VlSelectionProblem p = VlSelectionProblem::uniform(
      fig3_routers(), fig3_vls());  // 4^16 states
  EXPECT_THROW(solve_exhaustive(p), std::invalid_argument);
}

TEST(VlOptimizer, CompositionMatchesExhaustiveOnUniformInstances) {
  // Cross-validation on all-small instances: the composition solver must
  // equal brute force wherever brute force is feasible.
  for (int routers = 2; routers <= 6; ++routers) {
    for (int vls = 2; vls <= 3; ++vls) {
      std::vector<Coord> rpos;
      for (int r = 0; r < routers; ++r) {
        rpos.push_back({r % 3, r / 3});
      }
      std::vector<Coord> vpos;
      for (int v = 0; v < vls; ++v) {
        vpos.push_back({v, 2});
      }
      VlSelectionProblem p = VlSelectionProblem::uniform(rpos, vpos);
      const double exhaustive = solve_exhaustive(p).cost;
      const double composition = solve_composition(p).cost;
      EXPECT_NEAR(exhaustive, composition, 1e-9)
          << routers << " routers, " << vls << " VLs";
    }
  }
}

TEST(VlOptimizer, AnnealMatchesExhaustiveOnSmallNonUniformInstances) {
  Rng rng(17);
  for (int seed = 0; seed < 5; ++seed) {
    VlSelectionProblem p;
    Rng gen(static_cast<std::uint64_t>(seed) + 100);
    for (int r = 0; r < 6; ++r) {
      p.routers.push_back({static_cast<int>(gen.uniform(4)),
                           static_cast<int>(gen.uniform(4))});
      p.traffic.push_back(0.05 + gen.uniform_real() * 0.2);
    }
    p.vls = {{0, 0}, {3, 3}};
    const double exhaustive = solve_exhaustive(p).cost;
    const double anneal = solve_anneal(p, rng).cost;
    EXPECT_NEAR(anneal, exhaustive, 1e-9) << "seed " << seed;
  }
}

TEST(VlOptimizer, BalancedSelectionBeatsDistanceUnderFault) {
  // Fig. 3(b): with one VL faulty, distance-based selection leaves an
  // 8/4/4 router split; the optimizer's split must be strictly more
  // balanced (6/5/5 up to rounding) at tiny distance cost.
  VlSelectionProblem p = VlSelectionProblem::uniform(fig3_routers(),
                                                     {{3, 2}, {2, 3}, {0, 1}});
  const VlSelection dist = select_distance_based(p);
  int dist_counts[3] = {};
  for (int v : dist) {
    ++dist_counts[v];
  }
  const int dist_max =
      std::max({dist_counts[0], dist_counts[1], dist_counts[2]});
  const VlSelectionResult opt = solve_composition(p);
  int opt_counts[3] = {};
  for (int v : opt.selection) {
    ++opt_counts[v];
  }
  const int opt_max = std::max({opt_counts[0], opt_counts[1], opt_counts[2]});
  EXPECT_GT(dist_max, 16 / 3 + 1);  // distance-based is imbalanced
  EXPECT_LE(opt_max, 6);            // optimizer balances (16 over 3 VLs)
  EXPECT_LT(opt.cost, selection_cost(p, dist));
}

TEST(VlOptimizer, OptimizeDispatchesToStrongestSolver) {
  Rng rng(3);
  VlSelectionProblem tiny =
      VlSelectionProblem::uniform({{0, 0}, {1, 1}}, {{0, 0}, {1, 0}});
  EXPECT_STREQ(optimize(tiny, rng).solver, "exhaustive");
  VlSelectionProblem uniform16 =
      VlSelectionProblem::uniform(fig3_routers(), fig3_vls());
  EXPECT_STREQ(optimize(uniform16, rng).solver, "composition");
  VlSelectionProblem skewed = uniform16;
  skewed.traffic[3] = 7.0;
  EXPECT_STREQ(optimize(skewed, rng).solver, "anneal");
}

TEST(VlOptimizer, RhoTradesDistanceAgainstBalance) {
  // With a huge rho the distance term dominates and the optimum collapses
  // to the distance-based selection.
  VlSelectionProblem p =
      VlSelectionProblem::uniform(fig3_routers(), fig3_vls());
  p.rho = 1000.0;
  const VlSelectionResult r = solve_composition(p);
  const VlSelection dist = select_distance_based(p);
  double r_dist = 0.0;
  double d_dist = 0.0;
  for (int v = 0; v < p.num_vls(); ++v) {
    r_dist += vl_distance_cost(p, r.selection, v);
    d_dist += vl_distance_cost(p, dist, v);
  }
  EXPECT_DOUBLE_EQ(r_dist, d_dist);
}

class VlTableTest : public ::testing::Test {
 protected:
  Topology topo_{make_reference_spec(4)};
  Rng rng_{42};
};

TEST_F(VlTableTest, StoresPaperScenarioCount) {
  const ChipletVlTable table =
      ChipletVlTable::build(topo_, 0, VlTableSide::down, rng_);
  // The paper: 14 faulty-VL combinations are saved per router (C(4,1) +
  // C(4,2) + C(4,3)); the all-faulty mask is invalid.
  EXPECT_EQ(table.faulty_entry_count(), 14);
  EXPECT_TRUE(table.valid_mask(0));
  EXPECT_FALSE(table.valid_mask(0b1111));
}

TEST_F(VlTableTest, SelectionsAvoidFaultyVls) {
  const ChipletVlTable table =
      ChipletVlTable::build(topo_, 1, VlTableSide::down, rng_);
  for (std::uint32_t mask = 0; mask < 15; ++mask) {
    for (NodeId r : topo_.chiplet_nodes(1)) {
      const int vl = table.selected_vl(mask, r);
      EXPECT_EQ((mask >> vl) & 1u, 0u)
          << "router " << r << " assigned faulty VL " << vl;
    }
  }
}

TEST_F(VlTableTest, FaultFreeSelectionIsBalanced) {
  const ChipletVlTable table =
      ChipletVlTable::build(topo_, 0, VlTableSide::down, rng_);
  int counts[4] = {};
  for (NodeId r : topo_.chiplet_nodes(0)) {
    ++counts[table.selected_vl(0, r)];
  }
  for (int c : counts) {
    EXPECT_EQ(c, 4);  // 16 routers over 4 VLs, uniform traffic
  }
}

TEST_F(VlTableTest, SingleSurvivorGetsEveryRouter) {
  const ChipletVlTable table =
      ChipletVlTable::build(topo_, 0, VlTableSide::down, rng_);
  // Mask 0b1110: only VL 0 alive.
  for (NodeId r : topo_.chiplet_nodes(0)) {
    EXPECT_EQ(table.selected_vl(0b1110, r), 0);
  }
}

TEST_F(VlTableTest, RejectsForeignRouters) {
  const ChipletVlTable table =
      ChipletVlTable::build(topo_, 0, VlTableSide::down, rng_);
  EXPECT_THROW(table.selected_vl(0, topo_.chiplet_nodes(1).front()),
               std::invalid_argument);
  EXPECT_THROW(table.selected_vl(0b1111, topo_.chiplet_nodes(0).front()),
               std::invalid_argument);
}

/// Two pinwheel 4x4 chiplets (0 and 3), a 4x4 chiplet with corner VLs and
/// a 3x3 chiplet: only chiplets 0 and 3 are congruent.
SystemSpec make_mixed_spec() {
  SystemSpec spec;
  spec.name = "mixed-congruence";
  spec.interposer_width = 15;
  spec.interposer_height = 4;
  const std::vector<Coord> pinwheel = {{1, 0}, {3, 1}, {2, 3}, {0, 2}};
  spec.chiplets = {
      {4, 4, {0, 0}, pinwheel},
      {4, 4, {4, 0}, {{0, 0}, {3, 0}, {3, 3}, {0, 3}}},
      {3, 3, {8, 0}, {{0, 0}, {2, 0}, {1, 2}, {0, 1}}},
      {4, 4, {11, 0}, pinwheel},
  };
  spec.dram_positions = {{0, 3}, {14, 3}};
  return spec;
}

TEST_F(VlTableTest, SystemTablesCoverAllChiplets) {
  // Every chiplet's down and up tables must equal a table built for that
  // chiplet and side alone, whichever chiplet's solve they share, and
  // answer only for that chiplet's routers.
  const Topology mixed(make_mixed_spec());
  const Topology* const topos[] = {&topo_, &mixed};
  for (const Topology* topo : topos) {
    Rng rng(7);
    const SystemVlTables tables = SystemVlTables::build(*topo, rng);
    for (int c = 0; c < topo->num_chiplets(); ++c) {
      SCOPED_TRACE(topo->spec().name + " chiplet " + std::to_string(c));
      for (const VlTableSide side : {VlTableSide::down, VlTableSide::up}) {
        const ChipletVlTable& table =
            side == VlTableSide::down ? tables.down(c) : tables.up(c);
        const ChipletVlTable alone =
            ChipletVlTable::build(*topo, c, side, rng);
        EXPECT_EQ(table.chiplet(), c);
        EXPECT_EQ(table.side(), side);
        EXPECT_EQ(table.num_vls(), alone.num_vls());
        EXPECT_EQ(table.faulty_entry_count(), (1 << table.num_vls()) - 2);
        for (std::uint32_t mask = 0; mask < (1u << alone.num_vls());
             ++mask) {
          ASSERT_EQ(table.valid_mask(mask), alone.valid_mask(mask));
          if (!alone.valid_mask(mask)) {
            continue;
          }
          for (NodeId r : topo->chiplet_nodes(c)) {
            EXPECT_EQ(table.selected_vl(mask, r), alone.selected_vl(mask, r))
                << "mask " << mask << " router " << r;
          }
        }
        for (int other = 0; other < topo->num_chiplets(); ++other) {
          if (other != c) {
            EXPECT_THROW(
                table.selected_vl(0, topo->chiplet_nodes(other).front()),
                std::invalid_argument)
                << "answers for chiplet " << other;
          }
        }
      }
    }
  }
}

/// FNV-1a over a system's tables: per chiplet and side, the table's
/// chiplet, side and faulty-scenario count, then every valid mask with
/// the selection of each of the chiplet's routers.
std::uint64_t tables_digest(const Topology& topo,
                            const SystemVlTables& tables) {
  Digest d;
  for (int c = 0; c < topo.num_chiplets(); ++c) {
    for (const ChipletVlTable* table : {&tables.down(c), &tables.up(c)}) {
      d.mix(static_cast<std::uint64_t>(table->chiplet()));
      d.mix(static_cast<std::uint64_t>(table->side()));
      d.mix(static_cast<std::uint64_t>(table->faulty_entry_count()));
      for (std::uint32_t mask = 0; mask < (1u << table->num_vls()); ++mask) {
        if (!table->valid_mask(mask)) {
          continue;
        }
        d.mix(std::uint64_t{mask});
        for (NodeId r : topo.chiplet_nodes(c)) {
          d.mix(static_cast<std::uint64_t>(table->selected_vl(mask, r)));
        }
      }
    }
  }
  return d.value();
}

TEST_F(VlTableTest, SelectionsArePinned) {
  // Every stored selection of five systems, pinned: the reference
  // systems, the heterogeneous pair, a grid whose 9-router chiplets solve
  // every mask exhaustively, and one whose 20-router chiplets put 2^20
  // states in each two-alive-VL mask. A failure means Algorithm 2 now
  // picks different VLs, so DeFT's table-strategy runs route differently.
  struct Pin {
    SystemSpec spec;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {make_reference_spec(4), 0x083045746ef26a03ULL},
      {make_reference_spec(6), 0x688ce8488656dfc3ULL},
      {make_two_chiplet_spec(), 0xdfc7ab95a4ceada3ULL},
      {make_grid_spec(2, 2, 3, 3), 0x19f093f1c26873c3ULL},
      {make_grid_spec(2, 1, 5, 4), 0x717b981e46800943ULL},
  };
  for (const Pin& pin : pins) {
    const Topology topo(pin.spec);
    SCOPED_TRACE(topo.spec().name + " " +
                 std::to_string(topo.spec().interposer_width) + "x" +
                 std::to_string(topo.spec().interposer_height));
    Rng rng(7);
    const std::uint64_t digest =
        tables_digest(topo, SystemVlTables::build(topo, rng));
    EXPECT_EQ(digest, pin.digest) << "0x" << std::hex << digest;
  }
}

TEST(VlTableHetero, WorksWithTwoVlChiplets) {
  const Topology topo(make_two_chiplet_spec());
  Rng rng(9);
  const ChipletVlTable table =
      ChipletVlTable::build(topo, 1, VlTableSide::up, rng);
  // 2 VLs: C(2,1) = 2 faulty scenarios stored.
  EXPECT_EQ(table.faulty_entry_count(), 2);
  EXPECT_FALSE(table.valid_mask(0b11));
}

}  // namespace
}  // namespace deft
