// Cost model for vertical-link selection (Section III-B, eqs. 1-6).
//
// Given the routers of one chiplet and the subset of its VLs that are
// currently alive, a *selection* assigns every router one VL to use for
// vertical routing. The paper scores a selection by
//
//   C_s = sum_v ( rho * D_v + L_v )                                (eq. 6)
//
// where L_v = |l_v - l_avg| / l_avg is the VL's normalized load imbalance
// (eqs. 1-3), D_v is the summed hop distance of the routers that selected
// v (eqs. 4-5), and rho (0.01 in the paper) trades distance against load
// balance.
#pragma once

#include <vector>

#include "topology/topology.hpp"

namespace deft {

/// One per-chiplet VL-selection problem instance.
struct VlSelectionProblem {
  std::vector<Coord> routers;   ///< chiplet-local coordinates of the routers
  std::vector<double> traffic;  ///< T_r: inter-chiplet traffic rate per router
  std::vector<Coord> vls;       ///< chiplet-local coordinates of *alive* VLs
                                ///< (at most kMaxVlsPerChiplet)
  double rho = 0.01;            ///< distance-vs-balance weight (paper: 0.01)

  int num_routers() const { return static_cast<int>(routers.size()); }
  int num_vls() const { return static_cast<int>(vls.size()); }

  /// Uniform-traffic instance (the paper's offline assumption).
  static VlSelectionProblem uniform(std::vector<Coord> routers,
                                    std::vector<Coord> vls, double rho = 0.01);

  /// True when every router has the same traffic rate (enables the exact
  /// composition-based solver).
  bool traffic_is_uniform() const;
};

/// A selection: selection[r] is the index into problem.vls chosen for
/// router r.
using VlSelection = std::vector<int>;

/// Load on VL v under the selection (eq. 1).
double vl_load(const VlSelectionProblem& p, const VlSelection& s, int v);

/// Average VL load (eq. 2).
double average_vl_load(const VlSelectionProblem& p, const VlSelection& s);

/// Normalized load-imbalance cost of VL v (eq. 3). Zero when total traffic
/// is zero.
double vl_load_cost(const VlSelectionProblem& p, const VlSelection& s, int v);

/// Summed hop distance of the routers selecting VL v (eq. 5).
double vl_distance_cost(const VlSelectionProblem& p, const VlSelection& s,
                        int v);

/// Overall selection cost (eq. 6) in one O(R + V) pass. Bit-identical to
/// summing rho * vl_distance_cost + vl_load_cost over the VLs in order.
double selection_cost(const VlSelectionProblem& p, const VlSelection& s);

/// Validates that `s` is a well-formed selection for `p`.
void validate_selection(const VlSelectionProblem& p, const VlSelection& s);

}  // namespace deft
