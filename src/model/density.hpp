#pragma once
// Bin-based density model with the NTUplace bell-shaped potential.
//
// The die is divided into nx × ny bins. Every movable node v spreads its
// (inflated) area over nearby bins through a smooth, C1 "bell" potential
// px(d)·py(d) whose support extends two bins beyond the node edge, normalized
// so the node contributes exactly area(v)·inflate(v) in total. The penalty is
//
//     N(x, y) = Σ_b ( max(0, D_b - C_b) )²
//
// where C_b is the bin capacity: target_density × (bin free area), with the
// free area reduced by exactly-rasterized fixed objects, and optionally
// scaled per-bin (the narrow-channel handler derates channel bins).
//
// overflow() reports the standard total-density-overflow metric computed
// with EXACT rectangle rasterization (not the smoothed potential), so it is
// comparable across bin sizes and placers.

#include <span>

#include "model/problem.hpp"
#include "util/grid.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace rp {

struct DensityConfig {
  int nx = 0;                   ///< 0 = auto (~sqrt of movable count, power of 2).
  int ny = 0;
  double target_density = 1.0;  ///< Allowed area fraction of each bin's free space.
};

class DensityModel {
 public:
  /// Chunk layouts (and so the order of every floating-point combine): pass
  /// 1 and rasterization split nodes by plan_chunks(nodes, kNodeGrain,
  /// kGridChunkCap) — few, fat chunks, since each owns a full bin grid; the
  /// per-bin reduction and the penalty split bins by kBinGrain.
  static constexpr std::size_t kNodeGrain = 256;
  static constexpr int kGridChunkCap = 8;
  static constexpr std::size_t kBinGrain = 4096;

  DensityModel(const PlaceProblem& p, const DensityConfig& cfg);

  /// Penalty value; accumulates d(penalty)/dx into gx/gy (movable nodes only).
  double eval(const PlaceProblem& p, std::span<double> gx, std::span<double> gy);

  /// Exact total overflow: Σ_b (rasterized_D_b - C_b)^+ / movable area.
  double overflow(const PlaceProblem& p) const;

  /// Exact rasterized movable-density grid (area per bin, incl. inflation).
  Grid2D<double> rasterized_density(const PlaceProblem& p) const;

  const GridMap& grid() const { return grid_; }
  /// Per-bin capacity (free area × target density × scale).
  const Grid2D<double>& capacity() const { return cap_; }

  /// Multiply each bin's capacity by scale(b) in [0,1]; used by the
  /// narrow-channel handler to keep cells out of tight macro channels.
  void apply_capacity_scale(const Grid2D<double>& scale);

  /// Rebuild fixed-area map & capacities (after fixed nodes moved, e.g. when
  /// macros get legalized and frozen).
  void rebuild_fixed(const PlaceProblem& p);

 private:
  GridMap grid_;
  std::vector<double> xc_, yc_;  ///< Bin center coordinates (hot-loop cache).
  double target_density_ = 1.0;
  Grid2D<double> fixed_area_;  ///< Exact fixed-object area per bin.
  Grid2D<double> cap_;         ///< Capacity per bin.
  Grid2D<double> scale_;       ///< External capacity scaling (default 1).
  Grid2D<double> resid_;       ///< Scratch: (D-C)^+ per bin.
  // Pass-1 scratch: one accumulation grid per node CHUNK (chunking depends
  // only on the node count, so the chunk-ordered per-bin reduction is
  // bitwise identical for any thread count). rasterized_density() reuses
  // the same grids for its per-chunk partials.
  mutable std::vector<Grid2D<double>> chunk_dens_;
  std::vector<double> csum_;   ///< Per-node bell normalization (pass 1 → 2).

  // Per-worker sample buffers for the per-node simd kernels bell_splat and
  // bell_gather: one node's px, px' (nx each) and py, py' (ny each), each
  // sampled once per node and pass.
  std::vector<std::vector<double>> samples_;

  /// Node uv's bell window (its support plus one padding bin per side,
  /// clamped to the grid) and the bin index of the window's first bin.
  simd::BellWindow window(const PlaceProblem& p, std::size_t uv,
                          std::size_t* first_bin) const;
  /// The node chunk plan of pass 1 and rasterization, with chunk_dens_
  /// grown to one grid per chunk.
  parallel::ChunkPlan node_chunks(std::size_t nn) const;
  /// Node chunk ci's grid, zeroed.
  Grid2D<double>& zeroed_chunk_grid(int ci) const;
  void rebuild_capacity();
};

/// Choose a bin-grid edge count for n movable objects (power of two,
/// clamped to [8, 1024]).
int auto_bin_count(int num_movable);

}  // namespace rp
