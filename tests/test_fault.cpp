// Fault-model tests: fault sets, chiplet masks, disconnection detection,
// scenario enumeration and sampling.
#include <gtest/gtest.h>

#include "common/combinatorics.hpp"
#include "core/runner.hpp"
#include "fault/scenario.hpp"
#include "topology/builder.hpp"

namespace deft {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  Topology topo_{make_reference_spec(4)};
};

TEST_F(FaultTest, SetAndClear) {
  VlFaultSet f;
  EXPECT_TRUE(f.empty());
  f.set_faulty(3);
  f.set_faulty(17);
  EXPECT_EQ(f.count(), 2);
  EXPECT_TRUE(f.is_faulty(3));
  EXPECT_FALSE(f.is_faulty(4));
  f.clear(3);
  EXPECT_EQ(f.count(), 1);
  EXPECT_EQ(f.channels(), std::vector<VlChannelId>{17});
}

TEST_F(FaultTest, ChipletMasksSeparateDownAndUp) {
  // Chiplet 0's VLs have global ids 0..3; down channels are even.
  const auto& vls = topo_.chiplet_vls(0);
  VlFaultSet f;
  f.set_faulty(topo_.vl(vls[1]).down_vl_channel());
  f.set_faulty(topo_.vl(vls[2]).up_vl_channel());
  EXPECT_EQ(f.chiplet_down_mask(topo_, 0), 0b0010u);
  EXPECT_EQ(f.chiplet_up_mask(topo_, 0), 0b0100u);
  EXPECT_EQ(f.chiplet_down_mask(topo_, 1), 0u);
  EXPECT_EQ(f.chiplet_up_mask(topo_, 1), 0u);
}

TEST_F(FaultTest, DisconnectionRequiresWholeDirection) {
  VlFaultSet f;
  const auto& vls = topo_.chiplet_vls(2);
  for (std::size_t i = 0; i < 3; ++i) {
    f.set_faulty(topo_.vl(vls[i]).down_vl_channel());
  }
  EXPECT_FALSE(f.disconnects_any_chiplet(topo_));
  f.set_faulty(topo_.vl(vls[3]).down_vl_channel());
  EXPECT_TRUE(f.disconnects_any_chiplet(topo_));
}

TEST_F(FaultTest, UpDirectionAloneCanDisconnect) {
  VlFaultSet f;
  for (VlId v : topo_.chiplet_vls(1)) {
    f.set_faulty(topo_.vl(v).up_vl_channel());
  }
  EXPECT_TRUE(f.disconnects_any_chiplet(topo_));
}

TEST_F(FaultTest, EnumerationCountsMatchBinomialMinusDisconnecting) {
  // k <= 3 faults cannot kill all four channels of one direction, so every
  // pattern is valid.
  for (int k = 1; k <= 3; ++k) {
    EXPECT_EQ(count_fault_scenarios(topo_, k),
              binomial(topo_.num_vl_channels(), k))
        << "k=" << k;
  }
  // k = 4: exactly the 8 all-of-one-direction patterns are excluded
  // (4 chiplets x {down, up}).
  EXPECT_EQ(count_fault_scenarios(topo_, 4),
            binomial(32, 4) - 8u);
}

TEST_F(FaultTest, EnumerationVisitsOnlyValidPatterns) {
  for_each_fault_scenario(topo_, 4, [&](const VlFaultSet& f) {
    EXPECT_EQ(f.count(), 4);
    EXPECT_FALSE(f.disconnects_any_chiplet(topo_));
    return true;
  });
}

TEST_F(FaultTest, SamplingProducesValidPatterns) {
  Rng rng(3);
  for (int k = 1; k <= 8; ++k) {
    for (int i = 0; i < 50; ++i) {
      const auto f = sample_fault_scenario(topo_, k, rng);
      ASSERT_TRUE(f.has_value());
      EXPECT_EQ(f->count(), k);
      EXPECT_FALSE(f->disconnects_any_chiplet(topo_));
    }
  }
}

TEST_F(FaultTest, VisitDriverEnumeratesSmallAndSamplesLarge) {
  Rng rng(1);
  // C(32,2) = 496 <= limit: exhaustive enumeration.
  std::uint64_t visited = visit_fault_scenarios(
      topo_, 2, 1000, 10, rng, [](const VlFaultSet&) {});
  EXPECT_EQ(visited, 496u);
  // C(32,6) > limit: Monte-Carlo with `samples` draws.
  visited = visit_fault_scenarios(topo_, 6, 1000, 37, rng,
                                  [](const VlFaultSet&) {});
  EXPECT_EQ(visited, 37u);
}

TEST_F(FaultTest, ToStringMarksDirections) {
  VlFaultSet f = VlFaultSet::of({0, 3});
  // Channel 0 = VL0 down, channel 3 = VL1 up.
  EXPECT_EQ(f.to_string(), "{0v,1^}");
}

TEST(FaultSet, ChannelsPastSixtyFourStayDistinct) {
  // A 3x3 grid of 4-VL chiplets has 72 channels. When the set was one
  // 64-bit word, channel 64 aliased channel 0: a fault on 64 took channel
  // 0 down instead (or, with a constant id, vanished).
  const ExperimentContext ctx(make_grid_spec(3, 3, 4, 4));
  const Topology& topo = ctx.topo();
  ASSERT_EQ(topo.num_vl_channels(), 72);
  VlFaultSet faults;
  for (VlChannelId c = 0; c < topo.num_vl_channels(); ++c) {
    if (c == 64) {  // a runtime id, as the simulator computes them
      faults.set_faulty(c);
    }
  }
  EXPECT_FALSE(faults.is_faulty(0));
  EXPECT_TRUE(faults.is_faulty(64));
  EXPECT_EQ(faults.count(), 1);
  EXPECT_EQ(faults.channels(), std::vector<VlChannelId>{64});
  EXPECT_EQ(faults.to_string(), "{32v}");
  EXPECT_EQ(faults.chiplet_down_mask(topo, 0), 0u);
  EXPECT_EQ(faults.chiplet_down_mask(topo, 8), 1u);

  // The network honours the same set: channel 64 carries nothing, and
  // channel 0 carries traffic.
  SimKnobs knobs;
  knobs.warmup = 200;
  knobs.measure = 800;
  knobs.drain_max = 2000;
  knobs.seed = 3;
  UniformTraffic traffic(topo, 0.01);
  const SimResults r =
      run_sim(ctx, Algorithm::deft, traffic, knobs, faults);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.vl_channel_flits[0], 0u);
  EXPECT_EQ(r.vl_channel_flits[64], 0u);
}

TEST(FaultSet, HoldsEveryChannelOfTheLargestGrid) {
  // The 256-chiplet grid's 2,048 channels fill the set exactly; a larger
  // system is rejected when its topology is built.
  const Topology grid256(make_grid_spec(16, 16, 4, 4));
  ASSERT_EQ(grid256.num_vl_channels(), kMaxVlChannels);
  VlFaultSet faults;
  faults.set_faulty(kMaxVlChannels - 1);
  EXPECT_EQ(faults.channels(),
            std::vector<VlChannelId>{kMaxVlChannels - 1});
  EXPECT_FALSE(faults.is_faulty(kMaxVlChannels - 1 - 64));
  EXPECT_THROW(Topology(make_grid_spec(17, 16, 4, 4)),
               std::invalid_argument);
}

TEST(FaultScenario, PaperFaultRates) {
  // Fig. 7's x-axis: 1..8 faulty VLs of 32 is a 3.125%..25% fault rate.
  const Topology topo(make_reference_spec(4));
  EXPECT_DOUBLE_EQ(1.0 / topo.num_vl_channels(), 0.03125);
  EXPECT_DOUBLE_EQ(8.0 / topo.num_vl_channels(), 0.25);
  // 6 chiplets: 1 fault of 48 ~= 2.1% (the rate quoted for MTR's limit).
  const Topology topo6(make_reference_spec(6));
  EXPECT_NEAR(1.0 / topo6.num_vl_channels(), 0.021, 0.001);
}

}  // namespace
}  // namespace deft
