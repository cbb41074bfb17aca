#include "topology/partition.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <ranges>
#include <utility>

namespace deft {
namespace {

/// Manhattan distance from interposer cell `at` to `ch`'s footprint.
int footprint_distance(const ChipletSpec& ch, Coord at) {
  const int dx = std::max(
      {ch.origin.x - at.x, 0, at.x - (ch.origin.x + ch.width - 1)});
  const int dy = std::max(
      {ch.origin.y - at.y, 0, at.y - (ch.origin.y + ch.height - 1)});
  return dx + dy;
}

}  // namespace

void Partition::build(const Topology& topo, int target_shards) {
  num_shards_ = 1;
  shard_of_.clear();
  node_count_.assign(1, topo.num_nodes());
  const int columns = topo.num_chiplets();
  if (std::min(target_shards, columns) <= 1) {
    return;
  }
  const std::vector<ChipletSpec>& chiplets = topo.spec().chiplets;

  // --- Columns. Until the walk is cut, shard_of_ holds each router's
  // column (chiplet index): a chiplet's routers and the interposer routers
  // beneath them, then every margin router by its nearest footprint.
  shard_of_.assign(static_cast<std::size_t>(topo.num_nodes()), -1);
  for (int c = 0; c < columns; ++c) {
    for (NodeId n : topo.chiplet_nodes(c)) {
      const Coord at = topo.node(n).global;
      shard_of_[static_cast<std::size_t>(n)] = c;
      shard_of_[static_cast<std::size_t>(
          topo.interposer_node_at(at.x, at.y))] = c;
    }
  }
  column_.assign(static_cast<std::size_t>(columns), 0);
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    int& column = shard_of_[static_cast<std::size_t>(n)];
    if (column < 0) {
      column = *std::ranges::min_element(
          std::views::iota(0, columns), {}, [&](int c) {
            return footprint_distance(chiplets[static_cast<std::size_t>(c)],
                                      topo.node(n).global);
          });
    }
    ++column_[static_cast<std::size_t>(column)];
  }

  // --- The serpentine walk: rows by top edge, odd rows reversed.
  const auto origin = [&](int c) {
    const Coord o = chiplets[static_cast<std::size_t>(c)].origin;
    return std::pair(o.y, o.x);
  };
  walk_.resize(static_cast<std::size_t>(columns));
  std::iota(walk_.begin(), walk_.end(), 0);
  std::ranges::sort(walk_, {}, origin);
  bool reversed = false;
  for (auto row = walk_.begin(); row != walk_.end(); reversed = !reversed) {
    const int top = origin(*row).first;
    const auto end = std::find_if(
        row, walk_.end(), [&](int c) { return origin(c).first != top; });
    if (reversed) {
      std::reverse(row, end);
    }
    row = end;
  }

  // --- Cut the walk: each column joins the run holding the midpoint of
  // its routers along the walk; column_ turns from sizes into shards.
  const std::int64_t total = topo.num_nodes();
  const std::int64_t shards = std::min(target_shards, columns);
  std::int64_t before = 0;
  std::int64_t last = -1;
  int run = -1;
  for (int c : walk_) {
    int& column = column_[static_cast<std::size_t>(c)];
    const std::int64_t at = (2 * before + column) * shards / (2 * total);
    before += column;
    if (at != last) {
      ++run;
      last = at;
    }
    column = run;
  }
  num_shards_ = run + 1;
  node_count_.assign(static_cast<std::size_t>(num_shards_), 0);
  for (int& s : shard_of_) {
    s = column_[static_cast<std::size_t>(s)];
    ++node_count_[static_cast<std::size_t>(s)];
  }
}

Partition make_partition(const Topology& topo, int target_shards) {
  Partition p;
  p.build(topo, target_shards);
  return p;
}

}  // namespace deft
