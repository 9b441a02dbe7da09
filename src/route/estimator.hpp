#pragma once
// Fast congestion estimation (no search), used inside the placement loop.
//
// Probabilistic L-route: each net is decomposed into 2-pin segments along
// its rectilinear minimum spanning tree; each segment charges the two
// one-bend (L) routes with probability 0.5 each. Produces per-EDGE track
// demand directly comparable with RoutingGrid capacities; this is what the
// routability-driven placer inflates cells against.
//
// The probabilistic estimator runs parallel over net chunks on the CSR
// netlist flattening (model/netlist_csr.hpp): each chunk deposits into its
// own pair of h/v demand grids, reduced into the RoutingGrid in ascending
// chunk order — bitwise identical for any thread count.

#include <utility>
#include <vector>

#include "db/design.hpp"
#include "model/netlist_csr.hpp"
#include "route/routegrid.hpp"
#include "util/geometry.hpp"

namespace rp {

/// Reusable per-thread scratch for net_topology (Prim state + segment list).
struct TopologyScratch {
  std::vector<bool> in;
  std::vector<double> dist;
  std::vector<int> from;
  std::vector<int> ord;
  std::vector<std::pair<int, int>> seg;
};

/// Rectilinear-MST segment list over pts[0..k). Prim's algorithm, O(k²); for
/// k > 128 falls back to a sorted-chain topology. The returned reference
/// aliases s.seg (valid until the next call with the same scratch).
const std::vector<std::pair<int, int>>& net_topology(const Point* pts, int k,
                                                     TopologyScratch& s);

/// Allocating convenience wrapper (tests / router).
std::vector<std::pair<int, int>> net_topology(const std::vector<Point>& pts);

/// Probabilistic L-route demand: clears `grid` usage and deposits each net's
/// expected track usage on the grid's h/v edges.
void estimate_probabilistic(const Design& d, RoutingGrid& grid);

/// Same, reusing a prebuilt CSR view of d's netlist (pin coordinates are
/// re-gathered from the design's current cell positions).
void estimate_probabilistic(const Design& d, NetlistCsr& csr, RoutingGrid& grid);

}  // namespace rp
