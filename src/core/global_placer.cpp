#include "core/global_placer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include <memory>
#include <string>

#include "core/channels.hpp"
#include "core/inflation.hpp"
#include "core/snapshot.hpp"
#include "route/estimator.hpp"
#include "route/metrics.hpp"
#include "solver/cg.hpp"
#include "model/objective.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace rp {

namespace {

/// Initial coordinates for a level's movable nodes: all gathered at the
/// centroid of fixed pins (or the die center) with a small deterministic
/// spread so nets have non-degenerate gradients.
void initial_positions(PlaceProblem& p, Rng& rng) {
  double fx = 0.0, fy = 0.0;
  int nf = 0;
  for (int v = 0; v < p.num_nodes(); ++v) {
    if (!p.nodes[static_cast<std::size_t>(v)].fixed) continue;
    fx += p.x[static_cast<std::size_t>(v)];
    fy += p.y[static_cast<std::size_t>(v)];
    ++nf;
  }
  Point c = nf > 0 ? Point{fx / nf, fy / nf} : p.die.center();
  // Keep the start strictly inside the die.
  c.x = std::clamp(c.x, p.die.lx + 0.3 * p.die.width(), p.die.hx - 0.3 * p.die.width());
  c.y = std::clamp(c.y, p.die.ly + 0.3 * p.die.height(), p.die.hy - 0.3 * p.die.height());
  const double rx = 0.12 * p.die.width(), ry = 0.12 * p.die.height();
  for (int v = 0; v < p.num_nodes(); ++v) {
    if (p.nodes[static_cast<std::size_t>(v)].fixed) continue;
    p.x[static_cast<std::size_t>(v)] = c.x + rng.uniform(-rx, rx);
    p.y[static_cast<std::size_t>(v)] = c.y + rng.uniform(-ry, ry);
  }
  p.clamp_to_die();
}

}  // namespace

GlobalPlacer::LevelResult GlobalPlacer::place_level(PlaceProblem& prob,
                                                    DensityModel& dens,
                                                    WirelengthModel& wl,
                                                    double stop_overflow, int level_tag,
                                                    double inflation_mean,
                                                    bool wl_warm_start, double lambda0,
                                                    int max_outer) {
  PlacementObjective obj(prob, wl, dens);
  const double bin_w = dens.grid().bin_w();
  const double bin_h = dens.grid().bin_h();

  // γ schedule across the outer loop.
  const double g0 = opt_.gamma_init_bins * std::max(bin_w, bin_h);
  const double g1 = opt_.gamma_final_bins * std::max(bin_w, bin_h);

  CgOptions cgo;
  cgo.max_iters = opt_.cg_iters;
  cgo.trust_radius = opt_.trust_bins * std::max(bin_w, bin_h);
  cgo.f_rel_tol = 1e-5;
  cgo.max_backtracks = 4;

  // Stage label for numeric-guard diagnostics ("gp/level2", "gp/reheat1").
  const std::string stage = level_tag >= 0
                                ? "gp/level" + std::to_string(level_tag)
                                : "gp/reheat" + std::to_string(-level_tag);

  // Wirelength-only warm start (few iterations, λ = 0).
  if (wl_warm_start) {
    wl.set_gamma(g0);
    obj.set_lambda(0.0);
    std::vector<double> z = obj.pack();
    CgOptions warm = cgo;
    warm.max_iters = opt_.cg_iters / 2;
    minimize_cg_guarded([&](std::span<const double> zz, std::span<double> g) {
      return obj.eval(zz, g);
    }, z, warm, stage + "/warm");
    obj.unpack(z);
  }

  double lambda = lambda0 > 0 ? lambda0 : 0.3 * obj.balanced_lambda();
  LevelResult res;
  std::vector<double> recent;  // overflow history for plateau detection
  int outer = 0;
  for (; outer < max_outer; ++outer) {
    obs::check_interrupt();  // one CG solve per outer: a cheap, safe poll point
    if (watchdog_tripped()) break;
    const double t = static_cast<double>(outer) / std::max(1, max_outer - 1);
    const double gamma = g0 * std::pow(g1 / g0, t);
    wl.set_gamma(gamma);
    obj.set_lambda(lambda);

    std::vector<double> z = obj.pack();
    minimize_cg_guarded([&](std::span<const double> zz, std::span<double> g) {
      return obj.eval(zz, g);
    }, z, cgo, stage);
    obj.unpack(z);

    ++outers_done_;
    RP_COUNT("gp.outer_iters", 1);
    const double ovfl = dens.overflow(prob);
    GpTracePoint tp;
    tp.level = level_tag;
    tp.outer = outer;
    tp.hpwl = prob.hpwl();
    tp.overflow = ovfl;
    tp.lambda = lambda;
    tp.gamma = gamma;
    tp.inflation = inflation_mean;
    trace_.push_back(tp);
    {
      // Convergence point on the event bus: the payload mirrors GpTracePoint
      // (pure function of the computation — deterministic across threads).
      obs::EventBus& bus = obs::events();
      char tag[24];
      if (level_tag >= 0) std::snprintf(tag, sizeof tag, "level%d", level_tag);
      else std::snprintf(tag, sizeof tag, "reheat%d", -level_tag);
      obs::Event e = bus.make(obs::EventKind::GpIter, tag);
      e.i0 = level_tag;
      e.i1 = outer;
      e.d0 = tp.hpwl;
      e.d1 = ovfl;
      e.d2 = lambda;
      e.d3 = inflation_mean;
      bus.emit(e);
    }
    if (opt_.snapshot != nullptr) {
      opt_.snapshot->record_point(tp);
      const int every = opt_.snapshot->options().density_every;
      if (every > 0 && level_tag == 0 && outer % every == 0) {
        char nm[48];
        std::snprintf(nm, sizeof nm, "density_o%03d", outer);
        opt_.snapshot->record_grid("level0", nm, dens.rasterized_density(prob));
      }
    }
    if (opt_.verbose)
      RP_INFO("  gp L%d outer %2d: hpwl %.3e overflow %.3f lambda %.2e", level_tag, outer,
              tp.hpwl, ovfl, lambda);
    if (ovfl <= stop_overflow) {
      ++outer;
      break;
    }
    // Plateau: density can no longer improve (e.g. the inflation budget or
    // channel derating makes the target unreachable) — stop escalating.
    recent.push_back(ovfl);
    if (static_cast<int>(recent.size()) > opt_.plateau_window) {
      const double old = recent[recent.size() - 1 - opt_.plateau_window];
      if (old - ovfl < opt_.plateau_eps * old) {
        ++outer;
        break;
      }
    }
    lambda *= opt_.lambda_mult;
  }
  res.outers = outer;
  res.lambda = lambda;
  return res;
}

bool GlobalPlacer::watchdog_tripped() {
  if (watchdog_fired_) return true;
  if (opt_.max_gp_iters > 0 && outers_done_ >= opt_.max_gp_iters) {
    RP_WARN("gp watchdog: --max-gp-iters %d reached; stopping global placement "
            "early (flow continues with the current positions)", opt_.max_gp_iters);
    RP_COUNT("guard.watchdog_gp_iters", 1);
    obs::Event e = obs::events().make(obs::EventKind::Watchdog, "gp_iters");
    e.d0 = opt_.max_gp_iters;
    obs::events().emit(e);
    watchdog_fired_ = true;
  } else if (opt_.max_seconds > 0 && wall_.seconds() >= opt_.max_seconds) {
    RP_WARN("gp watchdog: --max-seconds %.1f exceeded; stopping global placement "
            "early (flow continues with the current positions)", opt_.max_seconds);
    RP_COUNT("guard.watchdog_seconds", 1);
    obs::Event e = obs::events().make(obs::EventKind::Watchdog, "seconds");
    e.d0 = opt_.max_seconds;
    obs::events().emit(e);
    watchdog_fired_ = true;
  }
  return watchdog_fired_;
}

GpStats GlobalPlacer::run(Design& d) {
  RP_ASSERT(d.finalized(), "GlobalPlacer needs a finalized design");
  trace_.clear();
  times_ = StageTimes();
  wall_.reset();
  outers_done_ = 0;
  watchdog_fired_ = false;
  GpStats stats;
  Rng rng(12345);

  std::unique_ptr<Multilevel> ml_holder;
  {
    ScopedStage t(times_, "clustering");
    RP_TRACE_SPAN("gp/clustering");
    ml_holder = std::make_unique<Multilevel>(d, opt_.cluster);
  }
  Multilevel& ml = *ml_holder;
  stats.levels = ml.num_levels();
  RP_COUNT("gp.levels", stats.levels);

  // Coarsest level starts from scratch.
  initial_positions(ml.level(ml.top()).prob, rng);

  for (int l = ml.top(); l >= 0; --l) {
    ScopedStage lt(times_, "level" + std::to_string(l));
    RP_TRACE_SPAN("gp/level" + std::to_string(l));
    PlaceProblem& prob = ml.level(l).prob;
    DensityConfig dc;
    dc.target_density = opt_.target_density;
    DensityModel dens(prob, dc);
    auto wl = make_wirelength_model(opt_.wl_model, 1.0);

    const bool finest = l == 0;
    const double stop = finest ? opt_.stop_overflow : opt_.coarse_overflow;

    // Narrow-channel capacity derating (applies at every level; the channel
    // map only depends on FIXED macros, which exist at all levels).
    if (opt_.routability.enable && opt_.routability.narrow_channels) {
      const Grid2D<double> scale = narrow_channel_capacity_scale(
          d, dens.grid(), opt_.routability.channel_width_rows * d.row_height(),
          opt_.routability.channel_capacity_scale);
      if (count_channel_bins(scale) > 0) dens.apply_capacity_scale(scale);
    }

    const LevelResult lr =
        place_level(prob, dens, *wl, stop, l, mean_inflation(prob),
                    /*wl_warm_start=*/l == ml.top(), /*lambda0=*/0.0, opt_.max_outer);
    stats.total_outer += lr.outers;
    double lambda_cont = lr.lambda;

    // Routability loop at the finest level.
    if (finest && opt_.routability.enable && opt_.routability.cell_inflation) {
      for (int round = 0; round < opt_.routability.rounds; ++round) {
        if (watchdog_tripped()) break;
        ScopedStage rt(times_, "routability");
        RP_TRACE_SPAN("gp/routability/round" + std::to_string(round + 1));
        apply_solution(prob, d);
        RoutingGrid rg(d, /*include_movable_macros=*/true);
        estimate_probabilistic(d, rg);
        const std::string stage = "round" + std::to_string(round + 1);
        if (opt_.snapshot != nullptr) {
          // The congestion picture this round's inflation decisions see.
          opt_.snapshot->record_grid(stage, "demand", rg.tile_demand());
          opt_.snapshot->record_grid(stage, "capacity", rg.tile_capacity());
          opt_.snapshot->record_grid(stage, "overflow", rg.tile_overflow());
          opt_.snapshot->record_grid(stage, "congestion", rg.tile_congestion());
          opt_.snapshot->record_grid(stage, "density", dens.rasterized_density(prob));
        }
        const InflationResult ir = apply_congestion_inflation(
            prob, rg, opt_.routability.inflate_rate, opt_.routability.max_inflate,
            opt_.routability.max_total_inflation);
        ++stats.inflation_rounds;
        RP_COUNT("gp.inflation_rounds", 1);
        // Per-round congestion summary (computed unconditionally now: the
        // event bus wants it whether or not snapshots are on).
        const CongestionMetrics round_cm = congestion_metrics(rg);
        {
          obs::Event e = obs::events().make(obs::EventKind::RouteRound);
          e.i0 = round + 1;
          e.i1 = ir.cells_inflated;
          e.d0 = round_cm.total_overflow;
          e.d1 = round_cm.rc;
          e.d2 = ir.mean_inflation;
          obs::events().emit(e);
        }
        if (opt_.snapshot != nullptr) {
          opt_.snapshot->record_grid(stage, "inflation",
                                     inflation_map(prob, dens.grid()));
          SnapshotRoundRecord rr;
          rr.round = round + 1;
          rr.congestion = round_cm;
          rr.cells_inflated = ir.cells_inflated;
          rr.mean_inflation = ir.mean_inflation;
          opt_.snapshot->record_round(rr);
        }
        if (ir.cells_inflated == 0) break;
        RP_INFO("gp routability round %d: %d cells inflated, mean %.3f", round + 1,
                ir.cells_inflated, ir.mean_inflation);
        // Short re-spread with the inflated footprints, continuing from the
        // reached λ (a full cold escalation would be wasted work).
        std::vector<double> x0, y0;
        if (opt_.snapshot != nullptr) {
          x0 = prob.x;
          y0 = prob.y;
        }
        const LevelResult rr = place_level(
            prob, dens, *wl, stop, /*level_tag=*/-(round + 1), ir.mean_inflation,
            /*wl_warm_start=*/false, /*lambda0=*/lambda_cont * 0.5, opt_.reheat_outer);
        if (opt_.snapshot != nullptr)
          opt_.snapshot->record_grid(stage, "displacement",
                                     displacement_map(prob, x0, y0, dens.grid()));
        stats.total_outer += rr.outers;
        lambda_cont = rr.lambda;
      }
    }

    // End-of-level density picture (every level, both flow modes); the
    // finest level also records the final inflation state.
    if (opt_.snapshot != nullptr) {
      opt_.snapshot->record_grid("level" + std::to_string(l), "density",
                                 dens.rasterized_density(prob));
      if (finest)
        opt_.snapshot->record_grid("gp_final", "inflation",
                                   inflation_map(prob, dens.grid()));
    }

    if (l > 0) ml.project_down(l);
  }

  apply_solution(ml.level(0).prob, d);
  stats.final_hpwl = d.hpwl();
  {
    DensityConfig dc;
    dc.target_density = opt_.target_density;
    DensityModel dens(ml.level(0).prob, dc);
    stats.final_overflow = dens.overflow(ml.level(0).prob);
  }
  stats.mean_inflation = mean_inflation(ml.level(0).prob);
  RP_GAUGE("gp.final_hpwl", stats.final_hpwl);
  RP_GAUGE("gp.final_overflow", stats.final_overflow);
  RP_GAUGE("gp.mean_inflation", stats.mean_inflation);
  RP_INFO("global placement done: hpwl %.4e, overflow %.3f, %d outer iters, %d levels",
          stats.final_hpwl, stats.final_overflow, stats.total_outer, stats.levels);
  return stats;
}

}  // namespace rp
