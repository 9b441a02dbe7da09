#pragma once
// The 2-D global-routing grid: tiles, boundary edges, track capacities and
// usage. All routability machinery (estimators, the global router, the
// congestion metrics) operates on this structure.
//
// Geometry: the die is cut into nx × ny tiles. A HORIZONTAL edge h(ix,iy)
// connects tile (ix,iy) to (ix+1,iy) (x-going wires, ix in [0, nx-2]); a
// VERTICAL edge v(ix,iy) connects (ix,iy) to (ix,iy+1). Capacities start
// from the design's RouteGridInfo and are derated where macros / fixed
// blockages cover the edge's tile span: an edge fully under a macro keeps
// only `macro_porosity` of its tracks (over-the-cell routing on high layers).

#include <vector>

#include "db/design.hpp"
#include "util/grid.hpp"

namespace rp {

class RoutingGrid {
 public:
  /// Build from a finalized design; uses d.route_grid() for dimensions and
  /// base capacities and derates under fixed macros/blockages.
  /// If `include_movable_macros`, movable macros at their CURRENT positions
  /// also derate capacity (used when evaluating a finished placement).
  explicit RoutingGrid(const Design& d, bool include_movable_macros = true);

  /// Build a bare grid (tests).
  RoutingGrid(Rect die, int nx, int ny, double h_cap, double v_cap);

  int nx() const { return map_.nx(); }
  int ny() const { return map_.ny(); }
  const GridMap& map() const { return map_; }
  double tile_w() const { return map_.bin_w(); }
  double tile_h() const { return map_.bin_h(); }

  // --- capacities & usage (tracks) ---
  double h_cap(int ix, int iy) const { return hcap_(ix, iy); }
  double v_cap(int ix, int iy) const { return vcap_(ix, iy); }
  double h_use(int ix, int iy) const { return huse_(ix, iy); }
  double v_use(int ix, int iy) const { return vuse_(ix, iy); }
  void add_h(int ix, int iy, double tracks) { huse_(ix, iy) += tracks; }
  void add_v(int ix, int iy, double tracks) { vuse_(ix, iy) += tracks; }
  void clear_usage();

  // Whole-grid usage views for bulk writers (the parallel estimator reduces
  // per-chunk demand grids straight into these).
  Grid2D<double>& h_use_grid() { return huse_; }
  Grid2D<double>& v_use_grid() { return vuse_; }
  const Grid2D<double>& h_use_grid() const { return huse_; }
  const Grid2D<double>& v_use_grid() const { return vuse_; }

  int num_h_edges() const { return (nx() - 1) * ny(); }
  int num_v_edges() const { return nx() * (ny() - 1); }

  /// Manually derate an edge region (narrow-channel experiments).
  void scale_h_cap(int ix, int iy, double f) { hcap_(ix, iy) *= f; }
  void scale_v_cap(int ix, int iy, double f) { vcap_(ix, iy) *= f; }

  // --- aggregate congestion ---
  /// Total overflow: Σ_e max(0, use - cap), in tracks.
  double total_overflow() const;
  /// Max single-edge utilization (use/cap), blocked (cap≈0) edges skipped.
  double max_utilization() const;
  /// All edge utilizations (for ACE metrics); unusable edges excluded.
  std::vector<double> edge_utilizations() const;
  /// Routed wirelength implied by current usage (track-length units).
  double used_wirelength() const;

  /// Congestion of the tile at a die coordinate (max of its surrounding
  /// edges' utilization); for congestion maps & cell inflation.
  Grid2D<double> tile_congestion() const;

  // Per-tile spatial maps for snapshots/diagnostics: each tile aggregates
  // its adjacent h/v edges (sum of tracks), so demand − capacity mirrors
  // the per-edge overflow picture at tile resolution.
  Grid2D<double> tile_demand() const;    ///< Σ adjacent-edge usage.
  Grid2D<double> tile_capacity() const;  ///< Σ adjacent-edge capacity.
  Grid2D<double> tile_overflow() const;  ///< Σ adjacent-edge (use − cap)⁺.

 private:
  void derate_under_rect(const Rect& r, double porosity);

  GridMap map_;
  Grid2D<double> hcap_, vcap_;  // (nx-1) x ny and nx x (ny-1)
  Grid2D<double> huse_, vuse_;
};

}  // namespace rp
