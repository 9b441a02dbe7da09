#pragma once
// The multilevel analytical global placer with the routability loop — the
// paper's primary contribution.
//
// Per level (coarsest → finest), minimize  WL_γ + λ·N  with nonlinear CG,
// raising λ geometrically until the density overflow target for the level is
// met, then project positions down a level. At the finest level, once the
// placement is mostly spread, the ROUTABILITY LOOP kicks in:
//
//   1. estimate congestion with the probabilistic L-router on the design's
//      routing grid (macros derate capacity);
//   2. INFLATE cells sitting in overflowed tiles (bounded total growth), so
//      the density force pushes neighbors away and frees routing tracks;
//   3. derate the density capacity of NARROW CHANNELS between macros, which
//      keeps cells out of corridors that own almost no routing resource;
//   4. continue spreading until the (inflated) overflow target holds again.
//
// The baseline wirelength-driven placer is this class with
// `routability.enable = false`.

#include <vector>

#include "cluster/multilevel.hpp"
#include "db/design.hpp"
#include "model/density.hpp"
#include "model/wirelength.hpp"
#include "util/timer.hpp"

namespace rp {

class SnapshotRecorder;

struct RoutabilityOptions {
  bool enable = true;
  bool cell_inflation = true;
  bool narrow_channels = true;
  int rounds = 3;                 ///< Congestion-estimate / inflate cycles.
  double inflate_rate = 0.45;     ///< Growth per unit of tile over-utilization.
  double max_inflate = 2.0;       ///< Per-cell inflation cap (area factor).
  double max_total_inflation = 0.10;  ///< Budget: Σ added area / movable area.
  double channel_width_rows = 6.0;    ///< Channels narrower than this derated.
  double channel_capacity_scale = 0.4;
};

struct GpOptions {
  std::string wl_model = "WA";     ///< "WA" (paper) or "LSE" (ablation).
  double gamma_init_bins = 4.0;    ///< Initial γ in bin widths.
  double gamma_final_bins = 0.75;
  double target_density = 1.0;
  double stop_overflow = 0.10;     ///< Finest-level density overflow target.
  double coarse_overflow = 0.18;   ///< Coarser levels stop earlier.
  int max_outer = 30;              ///< λ escalations per level.
  int reheat_outer = 10;           ///< Outer iterations after an inflation round.
  int cg_iters = 30;
  double lambda_mult = 2.1;
  double plateau_eps = 0.01;       ///< Stop a level when overflow improves < 1%
  int plateau_window = 3;          ///< over this many consecutive outers.
  double trust_bins = 1.0;         ///< CG trust radius in bin widths.
  // Watchdogs (0 = off). max_gp_iters caps TOTAL outer iterations across all
  // levels and reheat rounds (deterministic); max_seconds caps GP wall time
  // (inherently machine-dependent — never enable it under a determinism
  // gate). Both degrade gracefully: GP stops spreading and the flow
  // continues with the positions reached so far.
  int max_gp_iters = 0;
  double max_seconds = 0.0;
  ClusterOptions cluster;
  RoutabilityOptions routability;
  bool verbose = false;
  /// Non-owning spatial-snapshot sink (core/snapshot.hpp); nullptr disables
  /// all capture at the cost of one pointer test per site.
  SnapshotRecorder* snapshot = nullptr;
};

/// One record per outer iteration (Fig-5 convergence data; also what the
/// snapshot recorder writes to convergence.json).
struct GpTracePoint {
  int level = 0;  ///< Multilevel level (0 = finest); -r for reheat round r.
  int outer = 0;  ///< Outer iteration within the level/round.
  double hpwl = 0.0;
  double overflow = 0.0;
  double lambda = 0.0;
  double gamma = 0.0;      ///< WL smoothing width (the step-size schedule).
  double inflation = 1.0;  ///< Mean cell inflation at this point.
};

struct GpStats {
  double final_hpwl = 0.0;
  double final_overflow = 0.0;
  int total_outer = 0;
  int levels = 0;
  int inflation_rounds = 0;
  double mean_inflation = 1.0;
};

class GlobalPlacer {
 public:
  explicit GlobalPlacer(GpOptions opt = {}) : opt_(opt) {}

  /// Run on a finalized design; writes back cell positions.
  GpStats run(Design& d);

  const std::vector<GpTracePoint>& trace() const { return trace_; }

  /// Internal runtime breakdown ("clustering", "level<k>", "routability"),
  /// spliced into the flow's StageTimes under "global/".
  const StageTimes& times() const { return times_; }

 private:
  struct LevelResult {
    int outers = 0;
    double lambda = 0.0;  ///< λ at exit (continuation for reheat rounds).
  };
  /// λ-escalation loop on one problem; stops on the overflow target or a
  /// plateau. `lambda0 <= 0` auto-balances. `wl_warm_start` runs a
  /// wirelength-only pre-pass (coarsest level only — at finer levels it
  /// would undo the projected spreading).
  LevelResult place_level(PlaceProblem& prob, DensityModel& dens, WirelengthModel& wl,
                          double stop_overflow, int level_tag, double inflation_mean,
                          bool wl_warm_start, double lambda0, int max_outer);

  /// True once either watchdog (max_gp_iters / max_seconds) has fired;
  /// logs + counts on the firing call only.
  bool watchdog_tripped();

  GpOptions opt_;
  std::vector<GpTracePoint> trace_;
  StageTimes times_;
  Timer wall_;              ///< Started by run(); read by the seconds watchdog.
  int outers_done_ = 0;     ///< Total outer iterations (all levels + reheats).
  bool watchdog_fired_ = false;
};

}  // namespace rp
