#include "core/inflation.hpp"

#include <algorithm>
#include <cmath>

#include "util/logger.hpp"
#include "util/telemetry.hpp"

namespace rp {

double mean_inflation(const PlaceProblem& prob) {
  double a = 0.0, ai = 0.0;
  for (int v = 0; v < prob.num_nodes(); ++v) {
    const auto& n = prob.nodes[static_cast<std::size_t>(v)];
    if (n.fixed) continue;
    a += n.area();
    ai += n.area() * prob.inflate[static_cast<std::size_t>(v)];
  }
  return a > 0 ? ai / a : 1.0;
}

InflationResult apply_congestion_inflation(PlaceProblem& prob, const RoutingGrid& grid,
                                           double rate, double max_inflate,
                                           double max_total_budget) {
  const Grid2D<double> cong = grid.tile_congestion();
  const GridMap& m = grid.map();

  double movable_area = 0.0;
  double current_extra = 0.0;
  for (int v = 0; v < prob.num_nodes(); ++v) {
    const auto& n = prob.nodes[static_cast<std::size_t>(v)];
    if (n.fixed) continue;
    movable_area += n.area();
    current_extra += n.area() * (prob.inflate[static_cast<std::size_t>(v)] - 1.0);
  }
  const double budget_area = max_total_budget * movable_area;

  // Desired increments.
  std::vector<double> want(prob.nodes.size(), 0.0);
  double want_total = 0.0;
  for (int v = 0; v < prob.num_nodes(); ++v) {
    const auto& n = prob.nodes[static_cast<std::size_t>(v)];
    if (n.fixed || n.macro) continue;
    const double util = cong(m.ix_of(prob.x[static_cast<std::size_t>(v)]),
                             m.iy_of(prob.y[static_cast<std::size_t>(v)]));
    if (util <= 1.0) continue;
    const double cur = prob.inflate[static_cast<std::size_t>(v)];
    const double target = std::min(max_inflate, cur * (1.0 + rate * (util - 1.0)));
    if (target > cur) {
      want[static_cast<std::size_t>(v)] = (target - cur) * n.area();
      want_total += want[static_cast<std::size_t>(v)];
    }
  }

  // Budget scaling.
  double scale = 1.0;
  const double room = budget_area - current_extra;
  if (want_total > room) scale = room > 0 ? room / want_total : 0.0;

  InflationResult res;
  for (int v = 0; v < prob.num_nodes(); ++v) {
    if (want[static_cast<std::size_t>(v)] <= 0.0) continue;
    const auto& n = prob.nodes[static_cast<std::size_t>(v)];
    prob.inflate[static_cast<std::size_t>(v)] +=
        scale * want[static_cast<std::size_t>(v)] / n.area();
    ++res.cells_inflated;
  }
  res.mean_inflation = mean_inflation(prob);
  res.budget_used = movable_area > 0
                        ? (current_extra + scale * std::min(want_total, std::max(0.0, room))) /
                              movable_area
                        : 0.0;
  RP_COUNT("gp.cells_inflated", res.cells_inflated);
  RP_DEBUG("inflation: %d cells grown (scale %.2f), mean factor %.3f", res.cells_inflated,
           scale, res.mean_inflation);
  return res;
}

}  // namespace rp
