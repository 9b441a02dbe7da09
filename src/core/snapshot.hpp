#pragma once
// Spatial run snapshots: per-round / per-stage heatmaps, captured under
// `--snapshot-dir <dir>`.
//
// The recorder owns one output directory and produces:
//
//   <dir>/manifest.json        index of every captured map (stage, name,
//                              files, dims, value stats) + schema version
//   <dir>/maps/NNN_<stage>_<name>.grid   compact binary grid (util/heatmap);
//                              scripts/render_report.py renders these
//
// The directory holds maps only: the per-iteration GP history and the
// per-round congestion records are the run report's gp_trace and gp_rounds.
//
// Everything written is DETERMINISTIC — no wall-clock times, no absolute
// paths — so two runs with the same seed produce byte-identical snapshot
// trees; scripts/report_diff.py and the determinism tests rely on this.
//
// Capture sites hold a nullable SnapshotRecorder*; with no recorder the
// whole subsystem is a pointer test per capture site (<1% overhead rule).

#include <string>
#include <vector>

#include "db/design.hpp"
#include "model/problem.hpp"
#include "util/grid.hpp"
#include "util/heatmap.hpp"

namespace rp {

struct SnapshotOptions {
  std::string dir;        ///< Empty: snapshots disabled.
  int density_every = 0;  ///< >0: finest-level density map every N outers.
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

  int num_maps() const { return static_cast<int>(maps_.size()); }

  /// Write manifest.json. Idempotent; called by the flow after eval. The
  /// destructor is a safety net for a flow that unwound early: it indexes
  /// the maps captured so far. Returns false on I/O errors.
  bool finalize();

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
