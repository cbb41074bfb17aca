// Shared SimResults checks for the simulator test suites.
//
// digest() is the FNV-1a hash every pinned golden constant in
// test_sim_equivalence.cpp, test_sim_sharded.cpp and test_snapshot.cpp
// was captured with. It covers the SimResults fields that predate the
// active-set rewrite; fields added since (flit_hops, outcome, the
// dynamic-fault metrics) are compared by expect_identical() instead, so
// the historical goldens never absorb them.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "stats/stats.hpp"

namespace deft {

/// FNV-1a accumulator over 64-bit words (doubles by bit pattern).
class Digest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ULL;
    }
  }
  void mix(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// Mixes both latency summaries, in field order.
inline void mix_latencies(Digest& d, const SimResults& r) {
  for (const LatencySummary* l : {&r.network_latency, &r.total_latency}) {
    d.mix(l->count);
    d.mix(l->mean);
    d.mix(l->min);
    d.mix(l->max);
    d.mix(l->p50);
    d.mix(l->p95);
    d.mix(l->p99);
  }
}

/// Mixes the per-(region, VC) and per-VL-channel flit counters.
inline void mix_flit_counters(Digest& d, const SimResults& r) {
  for (const auto& region : r.region_vc_flits) {
    for (std::uint64_t v : region) {
      d.mix(v);
    }
  }
  for (std::uint64_t v : r.vl_channel_flits) {
    d.mix(v);
  }
}

/// The golden digest over the pre-rewrite SimResults fields.
inline std::uint64_t digest(const SimResults& r) {
  Digest d;
  mix_latencies(d, r);
  d.mix(r.packets_created);
  d.mix(r.packets_created_measured);
  d.mix(r.packets_delivered_measured);
  d.mix(r.packets_dropped_unroutable);
  d.mix(r.flits_ejected_in_window);
  d.mix(static_cast<std::uint64_t>(r.cycles_run));
  d.mix(static_cast<std::uint64_t>(r.measure_cycles));
  d.mix(r.deadlock_detected ? std::uint64_t{1} : 0);
  d.mix(r.drained ? std::uint64_t{1} : 0);
  mix_flit_counters(d, r);
  return d.value();
}

/// Field-by-field equality over every SimResults field.
inline void expect_identical(const SimResults& a, const SimResults& b) {
  for (int which = 0; which < 2; ++which) {
    const LatencySummary& la =
        which == 0 ? a.network_latency : a.total_latency;
    const LatencySummary& lb =
        which == 0 ? b.network_latency : b.total_latency;
    EXPECT_EQ(la.count, lb.count);
    EXPECT_EQ(la.mean, lb.mean);
    EXPECT_EQ(la.min, lb.min);
    EXPECT_EQ(la.max, lb.max);
    EXPECT_EQ(la.p50, lb.p50);
    EXPECT_EQ(la.p95, lb.p95);
    EXPECT_EQ(la.p99, lb.p99);
  }
  EXPECT_EQ(a.packets_created, b.packets_created);
  EXPECT_EQ(a.packets_created_measured, b.packets_created_measured);
  EXPECT_EQ(a.packets_delivered_measured, b.packets_delivered_measured);
  EXPECT_EQ(a.packets_dropped_unroutable, b.packets_dropped_unroutable);
  EXPECT_EQ(a.flits_ejected_in_window, b.flits_ejected_in_window);
  EXPECT_EQ(a.flit_hops, b.flit_hops);
  EXPECT_EQ(a.cycles_run, b.cycles_run);
  EXPECT_EQ(a.measure_cycles, b.measure_cycles);
  EXPECT_EQ(a.deadlock_detected, b.deadlock_detected);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.packets_lost_measured, b.packets_lost_measured);
  EXPECT_EQ(a.fault_window_created, b.fault_window_created);
  EXPECT_EQ(a.fault_window_delivered, b.fault_window_delivered);
  EXPECT_EQ(a.reconvergence_latency, b.reconvergence_latency);
  EXPECT_EQ(a.region_vc_flits, b.region_vc_flits);
  EXPECT_EQ(a.vl_channel_flits, b.vl_channel_flits);
}

}  // namespace deft
