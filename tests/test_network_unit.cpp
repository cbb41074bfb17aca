// Low-level unit tests of the network engine: the flit FIFO, credit
// accounting at injection, two-phase visibility, and backpressure through
// a single bottleneck channel.
#include <gtest/gtest.h>

#include <functional>

#include "core/runner.hpp"
#include "sim/network.hpp"

namespace deft {
namespace {

/// StatsSink recording ejections (the std::function hooks this replaced
/// are gone from the hot path; tests observe flits through sinks now).
struct EjectProbe : NullStatsSink {
  std::function<void(NodeId, const Flit&, Cycle)> fn;
  void eject(NodeId node, const Flit& flit, Cycle now) { fn(node, flit, now); }
};

TEST(FlitStore, FifoOrderAndWraparoundPerLane) {
  // Every (port, vc) lane is an independent FIFO over the shared SoA
  // planes; pushes into one lane must not disturb another, and the ring
  // must wrap cleanly across repeated fill/drain rounds.
  FlitStore store;
  const int lane_a = FlitStore::lane_of(port_index(Port::east), 0);
  const int lane_b = FlitStore::lane_of(port_index(Port::down), kMaxVcs - 1);
  EXPECT_TRUE(store.empty(lane_a));
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kMaxBufferDepth; ++i) {
      store.push(lane_a, {round * 100 + i, static_cast<std::uint16_t>(i),
                          flit_kind(static_cast<std::uint16_t>(i),
                                    kMaxBufferDepth)});
      store.push(lane_b, {round * 1000 + i, static_cast<std::uint16_t>(i),
                          flit_kind(static_cast<std::uint16_t>(i),
                                    kMaxBufferDepth)});
    }
    EXPECT_EQ(store.size(lane_a), kMaxBufferDepth);
    for (int i = 0; i < kMaxBufferDepth; ++i) {
      EXPECT_EQ(store.front_packet(lane_a), round * 100 + i);
      EXPECT_EQ((store.front_kind(lane_a) & kFlitHead) != 0, i == 0);
      const Flit a = store.pop(lane_a);
      EXPECT_EQ(a.seq, i);
      EXPECT_EQ(a.is_tail(), i + 1 == kMaxBufferDepth);
      const Flit b = store.pop(lane_b);
      EXPECT_EQ(b.packet, round * 1000 + i);
    }
    EXPECT_TRUE(store.empty(lane_a));
    EXPECT_TRUE(store.empty(lane_b));
  }
}

TEST(FlitStore, OccupiedMaskTracksPushPop) {
  FlitStore store;
  EXPECT_EQ(store.occupied_mask(), 0u);
  Flit flit{};
  const int a = FlitStore::lane_of(2, 1);
  const int b = FlitStore::lane_of(7, 3);
  store.push(a, flit);
  store.push(b, flit);
  store.push(b, flit);
  EXPECT_EQ(store.occupied_mask(),
            (std::uint32_t{1} << a) | (std::uint32_t{1} << b));
  store.pop(b);
  EXPECT_EQ(store.occupied_mask(),
            (std::uint32_t{1} << a) | (std::uint32_t{1} << b));
  store.pop(b);
  EXPECT_EQ(store.occupied_mask(), std::uint32_t{1} << a);
  store.pop(a);
  EXPECT_EQ(store.occupied_mask(), 0u);
}

TEST(FlitStore, OccupiedMaskReportsEachLaneOnItsOwn) {
  for (int lane = 0; lane < kNumLanes; ++lane) {
    SCOPED_TRACE(lane);
    FlitStore store;
    store.push(lane, Flit{});
    EXPECT_EQ(store.occupied_mask(), std::uint32_t{1} << lane);
    store.pop(lane);
    EXPECT_EQ(store.occupied_mask(), 0u);
  }
}

TEST(FlitStore, OccupiedMaskCoversAllLanes) {
  FlitStore store;
  for (int lane = 0; lane < kNumLanes; ++lane) {
    store.push(lane, Flit{});
  }
  EXPECT_EQ(store.occupied_mask(), 0xffffffffu);
  store.pop(kNumLanes - 1);
  EXPECT_EQ(store.occupied_mask(), 0x7fffffffu);
}

class NetworkUnitTest : public ::testing::Test {
 protected:
  NetworkUnitTest()
      : ctx_(ExperimentContext::reference(4)),
        alg_(ctx_.make_algorithm(Algorithm::deft)),
        net_(ctx_.topo(), *alg_, packets_, 2, 4, {}) {}

  PacketId make_packet(NodeId src, NodeId dst) {
    PacketRoute route;
    route.src = src;
    route.dst = dst;
    EXPECT_TRUE(alg_->prepare_packet(route));
    return packets_.create(route, 0, 8, 0, true);
  }

  ExperimentContext ctx_;
  PacketTable packets_;
  std::unique_ptr<RoutingAlgorithm> alg_;
  Network net_;
};

TEST_F(NetworkUnitTest, LocalCreditsDecreaseOnInjectAndRecoverOnForward) {
  const NodeId src = ctx_.topo().chiplet_node_at(0, 0, 0);
  const NodeId dst = ctx_.topo().chiplet_node_at(0, 3, 0);
  const PacketId pid = make_packet(src, dst);
  EXPECT_EQ(net_.local_free(src, 0), 4);
  net_.inject_local(src, 0, {pid, 0});
  EXPECT_EQ(net_.local_free(src, 0), 3);
  net_.apply(0);
  EXPECT_EQ(net_.flits_buffered(), 1u);
  // The router forwards the flit next cycle; the credit returns one cycle
  // after that.
  net_.step(1);
  EXPECT_EQ(net_.moves_last_cycle(), 1u);
  net_.apply(1);
  EXPECT_EQ(net_.local_free(src, 0), 4);
}

TEST_F(NetworkUnitTest, InjectWithoutCreditIsRejected) {
  const NodeId src = ctx_.topo().chiplet_node_at(0, 0, 0);
  const NodeId dst = ctx_.topo().chiplet_node_at(0, 3, 0);
  const PacketId pid = make_packet(src, dst);
  for (std::uint16_t i = 0; i < 4; ++i) {
    net_.inject_local(src, 0, {pid, i});
  }
  EXPECT_EQ(net_.local_free(src, 0), 0);
  EXPECT_THROW(net_.inject_local(src, 0, {pid, 4}), std::logic_error);
}

TEST_F(NetworkUnitTest, TwoPhaseVisibility) {
  // A staged flit is not visible to routers until apply().
  const NodeId src = ctx_.topo().chiplet_node_at(0, 0, 0);
  const NodeId dst = ctx_.topo().chiplet_node_at(0, 2, 0);
  const PacketId pid = make_packet(src, dst);
  net_.inject_local(src, 0, {pid, 0});
  net_.step(0);  // flit not yet in any buffer
  EXPECT_EQ(net_.moves_last_cycle(), 0u);
  net_.apply(0);
  net_.step(1);
  EXPECT_EQ(net_.moves_last_cycle(), 1u);
}

TEST_F(NetworkUnitTest, FlitAdvancesOneChannelPerCycle) {
  const Topology& topo = ctx_.topo();
  const NodeId src = topo.chiplet_node_at(0, 0, 0);
  const NodeId dst = topo.chiplet_node_at(0, 3, 0);
  const PacketId pid = make_packet(src, dst);
  NodeId ejected_at = kInvalidNode;
  Cycle eject_cycle = -1;
  EjectProbe probe;
  probe.fn = [&](NodeId node, const Flit&, Cycle now) {
    ejected_at = node;
    eject_cycle = now;
  };
  net_.inject_local(src, 0, {pid, 0});
  net_.apply(0, probe);
  for (Cycle now = 1; now <= 10 && ejected_at == kInvalidNode; ++now) {
    net_.step(now);
    net_.apply(now, probe);
  }
  EXPECT_EQ(ejected_at, dst);
  // 3 channels + ejection: visible in buffer at t=0, ejects at t=4.
  EXPECT_EQ(eject_cycle, 4);
}

TEST_F(NetworkUnitTest, WormholeKeepsPacketContiguousPerVc) {
  // Two packets from different sources converge on one channel; their
  // flits must not interleave within a VC (the tail releases the output
  // VC before the next head may claim it).
  const Topology& topo = ctx_.topo();
  const NodeId dst = topo.chiplet_node_at(0, 3, 1);
  const PacketId a = make_packet(topo.chiplet_node_at(0, 0, 1), dst);
  const PacketId b = make_packet(topo.chiplet_node_at(0, 1, 0), dst);
  std::vector<std::pair<PacketId, int>> ejected;
  EjectProbe probe;
  probe.fn = [&](NodeId, const Flit& f, Cycle) {
    ejected.push_back({f.packet, f.seq});
  };
  for (std::uint16_t i = 0; i < 8; ++i) {
    net_.inject_local(topo.node(topo.chiplet_node_at(0, 0, 1)).id, 0,
                      {a, i});
    net_.inject_local(topo.node(topo.chiplet_node_at(0, 1, 0)).id, 0,
                      {b, i});
    net_.apply(0, probe);
    net_.step(1);
  }
  for (Cycle now = 1; now < 80; ++now) {
    net_.step(now);
    net_.apply(now, probe);
  }
  ASSERT_EQ(ejected.size(), 16u);
  // Flits of each packet eject in order, and per-packet runs do not
  // interleave mid-packet on the same VC path... sequence per packet:
  int next_seq_a = 0;
  int next_seq_b = 0;
  for (const auto& [pid, seq] : ejected) {
    if (pid == a) {
      EXPECT_EQ(seq, next_seq_a++);
    } else {
      EXPECT_EQ(seq, next_seq_b++);
    }
  }
  EXPECT_EQ(next_seq_a, 8);
  EXPECT_EQ(next_seq_b, 8);
}

TEST_F(NetworkUnitTest, FaultyChannelTraversalIsAnError) {
  // Build a faulted network but hand it an algorithm that ignores faults:
  // crossing the dead channel must be caught, not silently simulated.
  const Topology& topo = ctx_.topo();
  VlFaultSet faults;
  faults.set_faulty(0);  // VL 0's down channel
  auto blind = ctx_.make_algorithm(Algorithm::deft);  // fault-oblivious
  Network net(topo, *blind, packets_, 2, 4, faults);
  const VerticalLink& vl = topo.vl(0);
  // A packet whose fault-free DeFT route descends exactly at VL 0.
  PacketRoute route;
  route.src = vl.chiplet_node;
  route.dst = topo.dram_endpoints()[0];
  ASSERT_TRUE(blind->prepare_packet(route));
  if (route.down_node != vl.chiplet_node) {
    GTEST_SKIP() << "table picked a different VL for this source";
  }
  const PacketId pid = packets_.create(route, 0, 1, 0, true);
  net.inject_local(route.src, 0, {pid, 0});
  net.apply(0);
  EXPECT_THROW(
      {
        for (Cycle now = 1; now < 5; ++now) {
          net.step(now);
          net.apply(now);
        }
      },
      std::logic_error);
}

}  // namespace
}  // namespace deft
