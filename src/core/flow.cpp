#include "core/flow.hpp"

#include <memory>
#include <optional>
#include <stdexcept>

#include "route/estimator.hpp"
#include "util/error.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"

namespace rp {

namespace {

/// Run one flow stage: StageBegin/StageEnd events around a body timed under
/// `stage` in `times` and traced as a span of the same name. The interrupt
/// flag is polled at entry (a stage boundary is always a safe cancellation
/// point). An escaping rp::Error that does not yet know its stage gets
/// annotated with this stage's name (throw sites deep in a kernel often
/// cannot know which flow stage invoked them); an error leaves the stage
/// UNCLOSED in the event stream — the terminal error event explains why.
template <typename Fn>
void with_stage(const char* stage, StageTimes& times, Fn&& fn) {
  obs::check_interrupt();
  obs::EventBus& bus = obs::events();
  bus.emit(bus.make(obs::EventKind::StageBegin, stage));
  try {
    ScopedStage t(times, stage);
    fn();
  } catch (Error& e) {
    e.set_stage(stage);
    throw;
  }
  bus.emit(bus.make(obs::EventKind::StageEnd, stage));
}

}  // namespace

FlowOptions routability_driven_options() {
  FlowOptions o;
  o.gp.routability.enable = true;
  o.congestion_aware_dp = true;
  return o;
}

FlowOptions wirelength_driven_options() {
  FlowOptions o;
  o.gp.routability.enable = false;
  o.congestion_aware_dp = false;
  return o;
}

FlowResult PlacementFlow::run(Design& d) {
  FlowResult r;
  // The run observes into the caller's context, or a fresh one of its own,
  // bound for the run's duration and handed back in r.obs.
  r.obs = opt_.obs != nullptr ? opt_.obs : std::make_shared<obs::ObsContext>();
  obs::ScopedBind obs_bind(r.obs.get());
  {
    obs::EventBus& bus = obs::events();
    obs::Event e = bus.make(obs::EventKind::RunBegin, d.name().c_str());
    e.i0 = d.num_cells();
    e.i1 = d.num_nets();
    e.i2 = d.num_macros();
    bus.emit(e);
  }
  std::unique_ptr<SnapshotRecorder> snap;
  if (!opt_.snapshot.dir.empty()) {
    snap = std::make_unique<SnapshotRecorder>(opt_.snapshot);
    if (!snap->ok()) snap.reset();  // unwritable dir: run without snapshots
  }

  with_stage("global", r.times, [&] {
    GpOptions gpo = opt_.gp;
    gpo.snapshot = snap.get();
    GlobalPlacer gp(gpo);
    r.gp = gp.run(d);
    r.gp_trace = gp.trace();
    r.gp_rounds = gp.rounds();
    r.times.merge("global", gp.times());
  });

  // Positions at GP exit, for the final displacement map (GP → legal+DP).
  std::vector<Point> gp_pos;
  if (snap) {
    gp_pos.reserve(static_cast<std::size_t>(d.num_cells()));
    for (CellId c = 0; c < d.num_cells(); ++c) gp_pos.push_back(d.cell_center(c));
  }

  with_stage("macro_legal", r.times, [&] {
    r.macro_legal = legalize_macros(d, opt_.macro_legal);
    freeze_macros(d);
  });

  with_stage("legal", r.times, [&] {
    LegalizeStats ls;
    if (opt_.legalizer == "abacus") {
      AbacusLegalizer lg(opt_.legal);
      ls = lg.run(d);
    } else if (opt_.legalizer == "tetris") {
      TetrisLegalizer lg(opt_.legal);
      ls = lg.run(d);
    } else {
      RP_THROW(ErrorCode::ValidationError,
               "unknown legalizer '" + opt_.legalizer + "'");
    }
    r.legal = ls;
    RP_INFO("legalization (%s): %d cells, avg disp %.2f, max %.2f, %d failed",
            opt_.legalizer.c_str(), ls.cells, ls.avg_disp(), ls.max_disp, ls.failed);
  });

  if (!opt_.skip_dp) with_stage("detailed", r.times, [&] {
    DetailedPlaceOptions dpo = opt_.dp;
    std::optional<RoutingGrid> rg;
    if (opt_.congestion_aware_dp) {
      // Feed the DP the post-GP congestion picture.
      rg.emplace(d, true);
      {
        ScopedStage te(r.times, "estimate");
        estimate_probabilistic(d, *rg);
      }
      dpo.congestion_weight = opt_.dp_congestion_weight > 0.0 ? opt_.dp_congestion_weight
                                                              : 2.0 * d.row_height();
    }
    DetailedPlacer dp(dpo);
    if (rg) dp.set_congestion(rg->map(), rg->tile_congestion());
    r.dp = dp.run(d);
    RP_INFO("detailed placement: hpwl %.4e -> %.4e (%.2f%%), %ld swaps, %ld moves, "
            "%ld reorders, %ld ism",
            r.dp.hpwl_before, r.dp.hpwl_after, 100.0 * r.dp.improvement(), r.dp.swaps,
            r.dp.relocations, r.dp.reorders, r.dp.ism_moves);
  });

  if (!opt_.skip_eval) with_stage("eval", r.times, [&] {
    // Route on a grid the result keeps, so the ROUTED (not just estimated)
    // congestion picture lands in the snapshot and in congestion_ascii.
    const RoutingGrid& grid = r.eval_grid.emplace(d, /*include_movable_macros=*/true);
    r.eval = evaluate_placement(d, opt_.eval, *r.eval_grid);
    if (snap) {
      snap->record_grid("final", "demand", grid.tile_demand());
      snap->record_grid("final", "capacity", grid.tile_capacity());
      snap->record_grid("final", "overflow", grid.tile_overflow());
      snap->record_grid("final", "congestion", grid.tile_congestion());
      snap->record_grid("final", "displacement", displacement_map(d, gp_pos, grid.map()));
    }
    RP_INFO("eval: hpwl %.4e scaled %.4e RC %.1f overflow %.0f (%d edges) legal=%s",
            r.eval.hpwl, r.eval.scaled_hpwl, r.eval.congestion.rc,
            r.eval.congestion.total_overflow, r.eval.congestion.overflowed_edges,
            r.eval.legality.ok() ? "yes" : "NO");
  });
  if (snap) {
    snap->finalize();
    r.snapshot_dir = snap->dir();
  }
  {
    obs::EventBus& bus = obs::events();
    obs::Event e = bus.make(obs::EventKind::RunEnd);
    e.d0 = r.eval.hpwl;
    e.d1 = r.eval.scaled_hpwl;
    e.d2 = r.eval.congestion.total_overflow;
    e.i0 = r.eval.legality.ok() ? 1 : 0;
    bus.emit(e);
  }
  return r;
}

}  // namespace rp
