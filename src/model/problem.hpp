#pragma once
// PlaceProblem: the flat numeric view of a placement instance that the
// analytical engine operates on.
//
// Both the real Design and the clustered netlists of the multilevel flow
// lower to this structure, so one solver serves every level. Coordinates are
// node CENTERS in x[]/y[]. Fixed nodes participate in nets and in the fixed
// density map but are never moved.
//
// `inflate[v]` is the routability cell-inflation factor: the density model
// charges area[v] * inflate[v] instead of area[v] (wirelength is unaffected).

#include <vector>

#include "db/design.hpp"
#include "util/geometry.hpp"

namespace rp {

struct PlaceNode {
  double w = 0.0;
  double h = 0.0;
  bool fixed = false;
  bool macro = false;
  double area() const { return w * h; }
};

struct PlacePin {
  int node = -1;
  double ox = 0.0;  ///< Offset from node center.
  double oy = 0.0;
};

struct PlaceNet {
  int pin_begin = 0;  ///< Range into PlaceProblem::pins.
  int pin_end = 0;
  double weight = 1.0;
  int degree() const { return pin_end - pin_begin; }
};

struct PlaceProblem {
  Rect die;
  std::vector<PlaceNode> nodes;
  std::vector<PlacePin> pins;  ///< Grouped by net, net order.
  std::vector<PlaceNet> nets;
  std::vector<double> x;       ///< Node center x.
  std::vector<double> y;
  std::vector<double> inflate; ///< Density inflation per node (default 1.0).

  int num_nodes() const { return static_cast<int>(nodes.size()); }
  int num_nets() const { return static_cast<int>(nets.size()); }

  double movable_area() const;
  /// Exact HPWL at the current coordinates (weighted).
  double hpwl() const;
  /// Clamp every movable node center so the node stays inside the die.
  void clamp_to_die();
  /// Clamp movable node v's center so it stays inside the die.
  void clamp_node(std::size_t v);
  /// Internal-consistency checks (sizes match, pin node ids valid, ...).
  void validate() const;
};

/// Lower a finalized Design to a PlaceProblem. Node v corresponds to cell v
/// (same indexing); positions are taken from the design.
PlaceProblem make_problem(const Design& d);

/// Write problem coordinates back into design cell positions (centers).
void apply_solution(const PlaceProblem& p, Design& d);

}  // namespace rp
