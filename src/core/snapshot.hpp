#pragma once
// Spatial run snapshots: per-iteration convergence history and per-round /
// per-stage heatmaps, captured under `--snapshot-dir <dir>`.
//
// The recorder owns one output directory and produces:
//
//   <dir>/manifest.json        index of every captured map (stage, name,
//                              files, dims, value stats) + schema version
//   <dir>/convergence.json     one point per GP outer iteration (hpwl,
//                              overflow, lambda, gamma, inflation) and one
//                              record per routability round (ACE/RC,
//                              overflow, cells inflated)
//   <dir>/maps/NNN_<stage>_<name>.grid   compact binary grid (util/heatmap);
//                              scripts/render_report.py renders these
//
// Everything written is DETERMINISTIC — no wall-clock times, no absolute
// paths — so two runs with the same seed produce byte-identical snapshot
// trees; `rp_report_diff` and the determinism tests rely on this.
//
// Capture sites hold a nullable SnapshotRecorder*; with no recorder the
// whole subsystem is a pointer test per capture site (<1% overhead rule).

#include <memory>
#include <string>
#include <vector>

#include "core/global_placer.hpp"
#include "db/design.hpp"
#include "model/problem.hpp"
#include "route/metrics.hpp"
#include "util/heatmap.hpp"

namespace rp {

struct SnapshotOptions {
  std::string dir;        ///< Empty: snapshots disabled.
  int density_every = 0;  ///< >0: finest-level density map every N outers.
};

/// One routability round: the congestion picture that drove inflation.
struct SnapshotRoundRecord {
  int round = 0;  ///< 1-based.
  CongestionMetrics congestion;
  int cells_inflated = 0;
  double mean_inflation = 1.0;
};

class SnapshotRecorder {
 public:
  /// Creates dir and dir/maps; ok() is false (and the recorder inert) when
  /// the directories cannot be created.
  explicit SnapshotRecorder(SnapshotOptions opt);
  ~SnapshotRecorder();

  bool ok() const { return ok_; }
  const std::string& dir() const { return opt_.dir; }
  const SnapshotOptions& options() const { return opt_; }

  /// Capture a spatial map under `<stage>/<name>` ("round1"/"overflow", ...).
  /// Writes the grid immediately; the manifest entry is kept in memory until
  /// finalize().
  void record_grid(const std::string& stage, const std::string& name,
                   const Grid2D<double>& g);

  void record_round(const SnapshotRoundRecord& r);

  int num_maps() const { return static_cast<int>(maps_.size()); }

  /// Write manifest.json + convergence.json, whose points are `gp_trace`
  /// (the GP run's GlobalPlacer::trace()). Idempotent; called by the flow
  /// after GP. The destructor is a safety net for a flow that unwound early:
  /// it writes the maps and rounds with no points. Returns false on I/O
  /// errors.
  bool finalize(const std::vector<GpTracePoint>& gp_trace);

 private:
  struct MapEntry {
    int seq = 0;
    std::string stage, name;
    std::string grid_rel;  ///< Path relative to dir.
    int nx = 0, ny = 0;
    GridStats stats;
  };

  SnapshotOptions opt_;
  std::vector<MapEntry> maps_;
  std::vector<SnapshotRoundRecord> rounds_;
  int seq_ = 0;
  bool ok_ = false;
  bool finalized_ = false;
};

// ---- map builders shared by the capture sites ----

/// Per-bin area-weighted mean inflation factor of movable nodes (1.0 where
/// no movable area lands).
Grid2D<double> inflation_map(const PlaceProblem& p, const GridMap& gm);

/// Per-bin mean displacement of movable nodes from (x0, y0) to the problem's
/// current coordinates, binned at the CURRENT position.
Grid2D<double> displacement_map(const PlaceProblem& p, const std::vector<double>& x0,
                                const std::vector<double>& y0, const GridMap& gm);

/// Same, over a Design: displacement of movable cell centers from `before`
/// (indexed by CellId) to their current centers.
Grid2D<double> displacement_map(const Design& d, const std::vector<Point>& before,
                                const GridMap& gm);

}  // namespace rp
