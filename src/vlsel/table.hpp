// Per-fault-scenario VL-selection tables (the offline half of DeFT's
// fault-tolerant congestion-aware VL selection, Section III-B).
//
// At design time, Algorithm 2 runs for every possible VL-fault scenario of
// a chiplet; the winning selections are stored in router look-up tables and
// indexed by the live fault mask at run time. For the baseline 4-VL chiplet
// the paper counts C(4,1)+C(4,2)+C(4,3) = 14 faulty scenarios (plus the
// fault-free one); the all-faulty mask disconnects the chiplet and has no
// entry.
//
// Two tables exist per chiplet:
//  * the "down" table keys on the chiplet's faulty *down* channels and maps
//    each source router to the VL it should descend through;
//  * the "up" table keys on faulty *up* channels and maps each destination
//    router to the VL through which packets should ascend (the selection
//    made on the interposer).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_set.hpp"
#include "vlsel/optimizer.hpp"

namespace deft {

/// Which unidirectional channel of each VL a table keys on.
enum class VlTableSide : std::uint8_t {
  down,  ///< source-side selection (chiplet -> interposer)
  up,    ///< destination-side selection (interposer -> chiplet)
};

/// Optimized VL selections for one chiplet under every fault scenario.
class ChipletVlTable {
 public:
  /// Runs Algorithm 2 for each non-disconnecting fault mask of the chiplet.
  /// `traffic` is the per-router inter-chiplet rate T_r, ordered like
  /// Topology::chiplet_nodes(chiplet); empty means uniform (the paper's
  /// offline assumption).
  static ChipletVlTable build(const Topology& topo, int chiplet,
                              VlTableSide side, Rng& rng,
                              const std::vector<double>& traffic = {},
                              double rho = 0.01);

  /// Selected VL (index into Topology::chiplet_vls(chiplet)) for `router`
  /// under faulty-VL bitmask `mask`. Requires valid_mask(mask).
  int selected_vl(std::uint32_t mask, NodeId router) const;

  /// False for masks that disconnect the chiplet (all VLs faulty).
  bool valid_mask(std::uint32_t mask) const;

  int num_vls() const { return num_vls_; }
  int chiplet() const { return chiplet_; }
  VlTableSide side() const { return side_; }

  /// Number of stored *faulty* scenarios, i.e. excluding the fault-free
  /// mask (the paper: 14 per router for a 4-VL chiplet).
  int faulty_entry_count() const;

 private:
  friend class SystemVlTables;

  /// A table addressed to `chiplet` and `side`, with no selections yet.
  static ChipletVlTable addressed(const Topology& topo, int chiplet,
                                  VlTableSide side);

  /// This table's selections, addressed to `chiplet` and `side`. The
  /// chiplet must have this table's geometry.
  ChipletVlTable copy_for(const Topology& topo, int chiplet,
                          VlTableSide side) const;

  int chiplet_ = 0;
  int num_vls_ = 0;
  VlTableSide side_ = VlTableSide::down;
  NodeId first_router_ = kInvalidNode;  ///< chiplet node ids are contiguous
  int num_routers_ = 0;
  /// per_mask_[mask][local router index] = selected chiplet-VL index, or -1
  /// for invalid masks.
  std::vector<std::vector<std::int8_t>> per_mask_;
};

/// Down and up tables for every chiplet of a system.
class SystemVlTables {
 public:
  /// Uniform-traffic tables, equal to ChipletVlTable::build per chiplet
  /// and side. Algorithm 2 runs once per distinct chiplet geometry (local
  /// router and VL coordinates); congruent chiplets and the up side get
  /// copies, each addressed to its own chiplet and side.
  static SystemVlTables build(const Topology& topo, Rng& rng,
                              double rho = 0.01);

  const ChipletVlTable& down(int chiplet) const {
    return down_[static_cast<std::size_t>(chiplet)];
  }
  const ChipletVlTable& up(int chiplet) const {
    return up_[static_cast<std::size_t>(chiplet)];
  }

 private:
  std::vector<ChipletVlTable> down_;
  std::vector<ChipletVlTable> up_;
};

}  // namespace deft
