#include "vlsel/cost.hpp"

#include <array>
#include <cmath>

namespace deft {

VlSelectionProblem VlSelectionProblem::uniform(std::vector<Coord> routers,
                                               std::vector<Coord> vls,
                                               double rho) {
  VlSelectionProblem p;
  p.traffic.assign(routers.size(), 1.0);
  p.routers = std::move(routers);
  p.vls = std::move(vls);
  p.rho = rho;
  return p;
}

bool VlSelectionProblem::traffic_is_uniform() const {
  for (double t : traffic) {
    if (std::abs(t - traffic.front()) > 1e-12) {
      return false;
    }
  }
  return true;
}

void validate_selection(const VlSelectionProblem& p, const VlSelection& s) {
  require(static_cast<int>(s.size()) == p.num_routers(),
          "selection size must equal the router count");
  require(p.num_vls() >= 1, "selection problem needs at least one alive VL");
  require(p.num_vls() <= kMaxVlsPerChiplet,
          "selection problem has more VLs than a chiplet may have");
  require(p.routers.size() == p.traffic.size(),
          "traffic vector must match router count");
  for (int v : s) {
    require(v >= 0 && v < p.num_vls(), "selection references a bad VL index");
  }
}

double vl_load(const VlSelectionProblem& p, const VlSelection& s, int v) {
  double load = 0.0;
  for (int r = 0; r < p.num_routers(); ++r) {
    if (s[static_cast<std::size_t>(r)] == v) {
      load += p.traffic[static_cast<std::size_t>(r)];
    }
  }
  return load;
}

double average_vl_load(const VlSelectionProblem& p, const VlSelection& s) {
  double total = 0.0;
  for (int v = 0; v < p.num_vls(); ++v) {
    total += vl_load(p, s, v);
  }
  return total / p.num_vls();
}

double vl_load_cost(const VlSelectionProblem& p, const VlSelection& s, int v) {
  const double avg = average_vl_load(p, s);
  if (avg <= 0.0) {
    return 0.0;
  }
  return std::abs(vl_load(p, s, v) - avg) / avg;
}

double vl_distance_cost(const VlSelectionProblem& p, const VlSelection& s,
                        int v) {
  double dist = 0.0;
  for (int r = 0; r < p.num_routers(); ++r) {
    if (s[static_cast<std::size_t>(r)] == v) {
      dist += manhattan(p.routers[static_cast<std::size_t>(r)],
                        p.vls[static_cast<std::size_t>(v)]);
    }
  }
  return dist;
}

double selection_cost(const VlSelectionProblem& p, const VlSelection& s) {
  validate_selection(p, s);
  // One pass accumulates every VL's load (eq. 1) and distance (eq. 5).
  // Each sum adds its routers in router order, as vl_load and
  // vl_distance_cost do, so every term - and the cost - is bit-identical
  // to the per-VL functions' at O(R + V) instead of O(V^2 R).
  const std::size_t num_vls = p.vls.size();
  std::array<double, kMaxVlsPerChiplet> load{};
  std::array<double, kMaxVlsPerChiplet> dist{};
  for (std::size_t r = 0; r < s.size(); ++r) {
    const auto v = static_cast<std::size_t>(s[r]);
    load[v] += p.traffic[r];
    dist[v] += manhattan(p.routers[r], p.vls[v]);
  }
  double total = 0.0;
  for (std::size_t v = 0; v < num_vls; ++v) {
    total += load[v];
  }
  const double avg = total / p.num_vls();  // eq. 2
  double cost = 0.0;
  for (std::size_t v = 0; v < num_vls; ++v) {
    const double load_cost = avg <= 0.0 ? 0.0 : std::abs(load[v] - avg) / avg;
    cost += p.rho * dist[v] + load_cost;
  }
  return cost;
}

}  // namespace deft
