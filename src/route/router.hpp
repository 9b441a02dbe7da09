#pragma once
// Negotiation-based global router (PathFinder style), the in-repo stand-in
// for the contest evaluation router.
//
// Nets are decomposed into 2-pin segments along their rectilinear MST; each
// segment is routed by A* over the tile graph. Edge cost is
//
//     cost(e) = length(e) · (1 + hist(e)) · (1 + pres · overuse(e))
//
// After each iteration, history is raised on overflowed edges, the pressure
// factor grows, and only segments crossing overflowed edges are ripped up
// and rerouted — the classic negotiated-congestion loop. The router is used
// for FINAL placement evaluation (routed wirelength, overflow, ACE); the
// placement loop itself uses the cheap estimators in estimator.hpp.

#include <cstdint>
#include <utility>
#include <vector>

#include "db/design.hpp"
#include "route/routegrid.hpp"

namespace rp {

struct RouterOptions {
  // Effort defaults follow the contest evaluators: a bounded negotiation
  // budget, so genuinely over-demanded hotspots REMAIN overflowed instead of
  // being detoured into legality at unbounded wirelength cost. Raise
  // max_iterations/bbox growth for a "route at any cost" router.
  int max_iterations = 5;
  double pres_fac_init = 0.6;
  double pres_fac_mult = 1.7;
  double hist_incr = 0.35;
  int bbox_margin = 3;       ///< Tiles around a segment's bbox A* may use.
  int bbox_grow_per_iter = 2;
  double blocked_penalty = 64.0;  ///< Cost multiplier for ~zero-capacity edges.
};

struct RouteStats {
  double wirelength = 0.0;      ///< Routed WL in die units.
  double total_overflow = 0.0;  ///< Tracks over capacity, summed.
  double max_utilization = 0.0;
  int overflowed_edges = 0;
  int iterations = 0;
  int segments = 0;
  bool overflow_free = false;
};

class GlobalRouter {
 public:
  GlobalRouter(RoutingGrid& grid, RouterOptions opt = {});

  /// Route all nets of the design; leaves per-edge usage in the grid.
  RouteStats route(const Design& d);

 private:
  struct Segment {
    int x0, y0, x1, y1;
    int net;
  };
  /// Flat per-edge routing state. base = length·(1 + history), refreshed
  /// whenever history changes; use mirrors the grid's usage while routing
  /// and is written back to it when route() finishes.
  struct EdgeState {
    double base = 0.0;
    double use = 0.0;
    double cap = 0.0;
    bool blocked = false;  ///< cap ≈ 0: cost scaled by blocked_penalty.
  };
  using HeapEntry = std::pair<double, int>;  ///< (f = g + h, tile)

  /// Route one segment; appends traversed edge ids to path. Returns length.
  double route_segment(const Segment& s, std::vector<int>& path, int margin);

  // Edge-id encoding: h-edge (ix,iy) -> iy*(nx-1)+ix ;
  // v-edge (ix,iy) -> H + iy*nx + ix, where H = (nx-1)*ny.
  int h_id(int ix, int iy) const { return iy * (grid_.nx() - 1) + ix; }
  int v_id(int ix, int iy) const { return h_base_ + iy * grid_.nx() + ix; }
  bool is_h(int e) const { return e < h_base_; }
  /// (ix, iy) of edge e's lower-left tile.
  std::pair<int, int> edge_xy(int e) const {
    if (is_h(e)) return {e % (grid_.nx() - 1), e / (grid_.nx() - 1)};
    return {(e - h_base_) % grid_.nx(), (e - h_base_) / grid_.nx()};
  }
  double edge_cost(int e) const;
  void add_edge_usage(int e, double tracks) { edges_[static_cast<std::size_t>(e)].use += tracks; }
  void refresh_base(std::size_t e);

  RoutingGrid& grid_;
  RouterOptions opt_;
  int h_base_ = 0;
  double pres_fac_ = 0.0;
  std::vector<double> history_;
  std::vector<EdgeState> edges_;

  // A* scratch over the full tile grid (tile id = iy*nx + ix), reused by
  // every segment: a tile's dist_/came_ entries are live only while its
  // stamp_ equals epoch_, so starting a search is one increment.
  std::vector<int> tile_x_, tile_y_;  ///< tile id -> (ix, iy)
  std::vector<double> dist_;
  std::vector<int> came_;  ///< Edge the best path entered the tile by.
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<HeapEntry> open_;  ///< Min-heap on (f, tile).
};

}  // namespace rp
