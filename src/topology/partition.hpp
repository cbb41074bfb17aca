// Router partition for the sharded simulation core.
//
// A Partition assigns every router to one of `num_shards()` shards. The
// sharded Network/Simulator give each shard a private slice of the
// per-cycle state (router worklist, staging boxes, NI lists), run the
// step and commit passes shard-parallel, and exchange only the staged
// cross-shard arrivals and credit returns - so the partition's job is to
// keep shards balanced while cutting few channels.
//
// The unit is the 2.5D *column*: one chiplet plus every interposer router
// inside its footprint, so no vertical link ever crosses a column (a VL
// joins a boundary router to the interposer router directly beneath it).
// Interposer routers outside every footprint join the nearest footprint's
// column, the lowest chiplet index on a tie. Shards are runs of a
// serpentine walk over the columns - rows of chiplets (sharing a top
// edge) top to bottom, every other row right to left - so on a chiplet
// grid every shard is one contiguous region. Each column joins the run
// holding the midpoint of its routers along the walk, which keeps every
// shard within one column of the ideal router count. The partition is a
// pure function of (topology, target): the sharded core's
// bit-identical-to-serial contract holds for *any* partition, and
// balance only affects wall clock.
//
// A system runs at most one shard per column: the 4-chiplet reference
// system at most 4, whatever `shards` asks for. Very unequal columns can
// leave a run without a column midpoint; that run is dropped, not kept
// as an empty shard.
#pragma once

#include <vector>

#include "topology/topology.hpp"

namespace deft {

class Partition {
 public:
  /// A trivial single-shard partition (what serial execution uses).
  Partition() = default;

  /// (Re)computes the partition for `topo` with at most `target_shards`
  /// shards, reusing prior allocations. The effective shard count may be
  /// lower (see the header comment): it never exceeds the number of
  /// columns, and a target of <= 1 yields the trivial partition.
  void build(const Topology& topo, int target_shards);

  int num_shards() const { return num_shards_; }

  /// Shard owning router `node` (0 for the trivial partition).
  int shard_of(NodeId node) const {
    return num_shards_ == 1 ? 0
                            : shard_of_[static_cast<std::size_t>(node)];
  }

  /// Routers owned by shard `s` (balance introspection).
  int shard_node_count(int s) const {
    return node_count_[static_cast<std::size_t>(s)];
  }

 private:
  int num_shards_ = 1;
  std::vector<int> shard_of_;    ///< node -> shard (empty when trivial)
  std::vector<int> node_count_;  ///< shard -> owned routers

  // build() scratch, kept for allocation-free rebuilds.
  std::vector<int> column_;  ///< chiplet -> its column's routers, then shard
  std::vector<int> walk_;    ///< chiplets in serpentine order
};

/// Convenience wrapper over Partition::build.
Partition make_partition(const Topology& topo, int target_shards);

}  // namespace deft
