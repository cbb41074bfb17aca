#include "vlsel/table.hpp"

#include <algorithm>

namespace deft {

namespace {

/// Chiplet-local router coordinates (in node order) and VL coordinates (in
/// chiplet VL order): everything a uniform-traffic table's problems are
/// built from.
struct ChipletGeometry {
  std::vector<Coord> routers;
  std::vector<Coord> vls;
  bool operator==(const ChipletGeometry&) const = default;
};

ChipletGeometry geometry(const Topology& topo, int chiplet) {
  ChipletGeometry g;
  for (NodeId r : topo.chiplet_nodes(chiplet)) {
    g.routers.push_back(topo.node(r).local);
  }
  for (VlId v : topo.chiplet_vls(chiplet)) {
    g.vls.push_back(topo.node(topo.vl(v).chiplet_node).local);
  }
  return g;
}

}  // namespace

ChipletVlTable ChipletVlTable::addressed(const Topology& topo, int chiplet,
                                         VlTableSide side) {
  ChipletVlTable table;
  table.chiplet_ = chiplet;
  table.side_ = side;
  const auto& routers = topo.chiplet_nodes(chiplet);
  table.num_vls_ = static_cast<int>(topo.chiplet_vls(chiplet).size());
  table.num_routers_ = static_cast<int>(routers.size());
  table.first_router_ = routers.front();
  // Chiplet nodes are created contiguously; selected_vl() relies on it.
  for (std::size_t i = 0; i < routers.size(); ++i) {
    check(routers[i] == table.first_router_ + static_cast<NodeId>(i),
          "ChipletVlTable: chiplet node ids are not contiguous");
  }
  return table;
}

ChipletVlTable ChipletVlTable::build(const Topology& topo, int chiplet,
                                     VlTableSide side, Rng& rng,
                                     const std::vector<double>& traffic,
                                     double rho) {
  ChipletVlTable table = addressed(topo, chiplet, side);
  const ChipletGeometry g = geometry(topo, chiplet);
  require(traffic.empty() || traffic.size() == g.routers.size(),
          "ChipletVlTable: traffic size must match the chiplet router count");

  const std::uint32_t num_masks = 1u << g.vls.size();
  table.per_mask_.assign(num_masks, {});
  for (std::uint32_t mask = 0; mask + 1 < num_masks; ++mask) {
    // Alive VLs under this mask; all-faulty (the last mask) stays invalid.
    VlSelectionProblem problem;
    problem.routers = g.routers;
    problem.traffic =
        traffic.empty() ? std::vector<double>(g.routers.size(), 1.0)
                        : traffic;
    problem.rho = rho;
    std::vector<int> alive_to_chiplet_vl;
    for (std::size_t v = 0; v < g.vls.size(); ++v) {
      if ((mask & (1u << v)) == 0) {
        problem.vls.push_back(g.vls[v]);
        alive_to_chiplet_vl.push_back(static_cast<int>(v));
      }
    }
    const VlSelectionResult result = optimize(problem, rng);
    std::vector<std::int8_t> row(g.routers.size());
    for (std::size_t r = 0; r < g.routers.size(); ++r) {
      row[r] = static_cast<std::int8_t>(
          alive_to_chiplet_vl[static_cast<std::size_t>(
              result.selection[r])]);
    }
    table.per_mask_[mask] = std::move(row);
  }
  return table;
}

ChipletVlTable ChipletVlTable::copy_for(const Topology& topo, int chiplet,
                                        VlTableSide side) const {
  ChipletVlTable copy = addressed(topo, chiplet, side);
  copy.per_mask_ = per_mask_;
  return copy;
}

int ChipletVlTable::selected_vl(std::uint32_t mask, NodeId router) const {
  require(valid_mask(mask), "selected_vl: disconnected fault mask");
  const int local = static_cast<int>(router - first_router_);
  require(local >= 0 && local < num_routers_,
          "selected_vl: router not on this chiplet");
  return per_mask_[mask][static_cast<std::size_t>(local)];
}

bool ChipletVlTable::valid_mask(std::uint32_t mask) const {
  return mask < per_mask_.size() && !per_mask_[mask].empty();
}

int ChipletVlTable::faulty_entry_count() const {
  int count = 0;
  for (std::size_t mask = 1; mask < per_mask_.size(); ++mask) {
    if (!per_mask_[mask].empty()) {
      ++count;
    }
  }
  return count;
}

SystemVlTables SystemVlTables::build(const Topology& topo, Rng& rng,
                                     double rho) {
  // Under uniform traffic optimize() runs the exhaustive or the composition
  // solver. Neither draws from rng, and equal problems get equal
  // selections. A chiplet's problems are fixed by its geometry, and the
  // up table poses the same ones as the down table, so sharing one solve
  // per distinct geometry is exact.
  SystemVlTables tables;
  std::vector<ChipletGeometry> geometries;
  for (int c = 0; c < topo.num_chiplets(); ++c) {
    geometries.push_back(geometry(topo, c));
    // The first chiplet with this geometry: an earlier one, or c itself.
    const auto first = static_cast<int>(
        std::find(geometries.begin(), geometries.end(), geometries.back()) -
        geometries.begin());
    tables.down_.push_back(
        first == c
            ? ChipletVlTable::build(topo, c, VlTableSide::down, rng, {}, rho)
            : tables.down(first).copy_for(topo, c, VlTableSide::down));
    tables.up_.push_back(
        tables.down_.back().copy_for(topo, c, VlTableSide::up));
  }
  return tables;
}

}  // namespace deft
