#pragma once
// The complete placement flow — the public top-level API.
//
//   Design d = read_bookshelf(...) or generate_benchmark(...);
//   PlacementFlow flow(routability_driven_options());
//   FlowResult r = flow.run(d);
//
// Stages: multilevel global placement (with the routability loop) → macro
// legalization & freezing → standard-cell legalization (Abacus or Tetris) →
// detailed placement (optionally congestion-aware) → evaluation with the
// global router.
//
// `wirelength_driven_options()` is the baseline of the paper's comparisons:
// identical machinery with every routability feature disabled.

#include <memory>
#include <optional>
#include <string>

#include "core/global_placer.hpp"
#include "core/report.hpp"
#include "core/snapshot.hpp"
#include "dp/detailed.hpp"
#include "legal/legalizer.hpp"
#include "legal/macro_legalizer.hpp"
#include "util/obs_context.hpp"
#include "util/timer.hpp"

namespace rp {

struct FlowOptions {
  GpOptions gp;
  MacroLegalizeOptions macro_legal;
  LegalizeOptions legal;
  std::string legalizer = "abacus";  ///< "abacus" or "tetris".
  DetailedPlaceOptions dp;
  bool congestion_aware_dp = true;   ///< Routability lever #3.
  double dp_congestion_weight = 0.0; ///< 0 = auto (≈ 2 row heights).
  EvalOptions eval;
  bool skip_dp = false;
  bool skip_eval = false;
  SnapshotOptions snapshot;  ///< snapshot.dir empty: spatial capture off.

  /// Observability context for this run (counters, trace, events). The
  /// run binds it for its duration and never resets it, so state the
  /// caller accumulated before the flow (parse-repair counters, events)
  /// lands in the run report. Null: the run makes a fresh context
  /// of its own. Either way FlowResult::obs returns it, and concurrent runs
  /// on separate contexts share no observability state.
  std::shared_ptr<obs::ObsContext> obs;
};

/// The paper's configuration (all routability levers on).
FlowOptions routability_driven_options();
/// The comparison baseline (identical flow, routability off).
FlowOptions wirelength_driven_options();

struct FlowResult {
  GpStats gp;
  MacroLegalizeStats macro_legal;
  LegalizeStats legal;
  DetailedPlaceStats dp;
  EvalResult eval;
  /// The grid the eval stage routed (empty with skip_eval): its usage is
  /// the routed congestion `eval` scores, for congestion_ascii and the
  /// snapshot's final maps.
  std::optional<RoutingGrid> eval_grid;
  StageTimes times;
  std::vector<GpTracePoint> gp_trace;
  std::vector<GpRoundRecord> gp_rounds;  ///< One per routability round.
  std::string snapshot_dir;  ///< Where snapshots landed (empty: disabled).
  /// The context this run observed into (FlowOptions::obs, or the fresh one
  /// the run made). run_report_json reads counters and event totals through
  /// this, so building a report for run A while run B is bound stays correct.
  std::shared_ptr<obs::ObsContext> obs;
};

class PlacementFlow {
 public:
  explicit PlacementFlow(FlowOptions opt = routability_driven_options()) : opt_(opt) {}

  /// Place the design end to end (positions are modified in place; movable
  /// macros end up fixed).
  FlowResult run(Design& d);

  const FlowOptions& options() const { return opt_; }

 private:
  FlowOptions opt_;
};

}  // namespace rp
