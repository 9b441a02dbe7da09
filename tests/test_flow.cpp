// Integration tests: the complete placement flow end to end, baseline vs
// routability comparison on the same instance, determinism, bookshelf
// interop, and fence-region designs through the whole pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "core/flow.hpp"
#include "core/run_report.hpp"
#include "db/bookshelf.hpp"
#include "gen/generator.hpp"
#include "util/json.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/telemetry.hpp"

namespace rp {
namespace {

class FlowTest : public ::testing::Test {
 protected:
  void SetUp() override { Logger::set_level(LogLevel::Error); }
};

TEST_F(FlowTest, EndToEndLegalAndImproving) {
  Design d = generate_benchmark(tiny_spec(61));
  const double hpwl0 = d.hpwl();
  PlacementFlow flow(routability_driven_options());
  const FlowResult r = flow.run(d);
  EXPECT_TRUE(r.eval.legality.ok())
      << (r.eval.legality.messages.empty() ? "" : r.eval.legality.messages[0].c_str());
  EXPECT_LT(r.eval.hpwl, hpwl0);
  EXPECT_EQ(r.legal.failed, 0);
  EXPECT_GT(r.eval.route.wirelength, 0.0);
  EXPECT_GE(r.eval.scaled_hpwl, r.eval.hpwl);
  // Every stage reported a runtime.
  EXPECT_GT(r.times.get("global"), 0.0);
  EXPECT_GT(r.times.get("legal"), 0.0);
}

TEST_F(FlowTest, RoutabilityBeatsBaselineOnCongestion) {
  // The paper's headline shape: on a congestion-prone design, the
  // routability-driven flow yields lower overflow and RC than the
  // wirelength-driven baseline, at a bounded HPWL cost.
  BenchmarkSpec spec = tiny_spec(62);
  spec.track_supply = 1.1;  // make it tight

  Design base_d = generate_benchmark(spec);
  PlacementFlow base(wirelength_driven_options());
  const FlowResult rb = base.run(base_d);

  Design rdp_d = generate_benchmark(spec);
  PlacementFlow rdp(routability_driven_options());
  const FlowResult rr = rdp.run(rdp_d);

  EXPECT_TRUE(rb.eval.legality.ok());
  EXPECT_TRUE(rr.eval.legality.ok());
  EXPECT_LE(rr.eval.congestion.total_overflow, rb.eval.congestion.total_overflow * 1.05);
  // HPWL cost bounded (paper-style trade-off).
  EXPECT_LE(rr.eval.hpwl, rb.eval.hpwl * 1.35);
}

TEST_F(FlowTest, DeterministicAcrossRuns) {
  BenchmarkSpec spec = tiny_spec(63);
  Design a = generate_benchmark(spec);
  Design b = generate_benchmark(spec);
  PlacementFlow fa, fb;
  const FlowResult ra = fa.run(a);
  const FlowResult rb = fb.run(b);
  EXPECT_DOUBLE_EQ(ra.eval.hpwl, rb.eval.hpwl);
  EXPECT_DOUBLE_EQ(a.hpwl(), b.hpwl());
}

TEST_F(FlowTest, TetrisLegalizerVariant) {
  Design d = generate_benchmark(tiny_spec(64));
  FlowOptions opt = routability_driven_options();
  opt.legalizer = "tetris";
  PlacementFlow flow(opt);
  const FlowResult r = flow.run(d);
  EXPECT_TRUE(r.eval.legality.ok());
}

TEST_F(FlowTest, UnknownLegalizerThrows) {
  Design d = generate_benchmark(tiny_spec(64));
  FlowOptions opt;
  opt.legalizer = "warp9";
  PlacementFlow flow(opt);
  EXPECT_THROW(flow.run(d), std::runtime_error);
}

TEST_F(FlowTest, SkipFlagsShortenFlow) {
  Design d = generate_benchmark(tiny_spec(65));
  FlowOptions opt = wirelength_driven_options();
  opt.skip_dp = true;
  opt.skip_eval = true;
  PlacementFlow flow(opt);
  const FlowResult r = flow.run(d);
  EXPECT_DOUBLE_EQ(r.dp.hpwl_before, 0.0);  // DP never ran
  EXPECT_DOUBLE_EQ(r.eval.hpwl, 0.0);       // eval never ran
  EXPECT_FALSE(r.eval_grid.has_value());
  EXPECT_DOUBLE_EQ(r.times.get("detailed"), 0.0);
}

TEST_F(FlowTest, EvalGridIsTheGridEvalScored) {
  // --map, bench_fig6 and the snapshot's final maps read the grid the eval
  // stage routed instead of routing the placement again, so that grid must
  // be the routed picture `eval` scores, and routing the final placement
  // once more must reproduce it.
  Design d = generate_benchmark(tiny_spec(61));
  const FlowResult r = PlacementFlow(routability_driven_options()).run(d);
  ASSERT_TRUE(r.eval_grid.has_value());
  const CongestionMetrics m = congestion_metrics(*r.eval_grid);
  EXPECT_EQ(m.rc, r.eval.congestion.rc);
  EXPECT_EQ(m.total_overflow, r.eval.congestion.total_overflow);
  EXPECT_EQ(r.eval_grid->used_wirelength(), r.eval.route.wirelength);
  RoutingGrid again(d, /*include_movable_macros=*/true);
  GlobalRouter(again).route(d);
  EXPECT_EQ(congestion_ascii(d, *r.eval_grid, 48), congestion_ascii(d, again, 48));
}

TEST_F(FlowTest, MacrosEndUpFixedAndNonOverlapping) {
  Design d = generate_benchmark(tiny_spec(66));
  ASSERT_GT(d.num_movable_macros(), 0);
  PlacementFlow flow;
  flow.run(d);
  EXPECT_EQ(d.num_movable_macros(), 0);
  for (CellId a = 0; a < d.num_cells(); ++a) {
    if (!d.cell(a).is_macro()) continue;
    for (CellId b = a + 1; b < d.num_cells(); ++b) {
      if (!d.cell(b).is_macro()) continue;
      EXPECT_FALSE(d.cell_rect(a).overlaps(d.cell_rect(b)))
          << d.cell(a).name << " vs " << d.cell(b).name;
    }
  }
}

TEST_F(FlowTest, FenceRegionDesignStaysLegal) {
  BenchmarkSpec spec = tiny_spec(67);
  spec.num_fence_regions = 1;
  Design d = generate_benchmark(spec);
  PlacementFlow flow;
  const FlowResult r = flow.run(d);
  EXPECT_EQ(r.eval.legality.region_violations, 0);
  EXPECT_EQ(r.eval.legality.overlaps, 0);
}

TEST_F(FlowTest, BookshelfRoundTripThroughFlow) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "rp_flow_bs";
  fs::remove_all(dir);

  Design d0 = generate_benchmark(tiny_spec(68));
  write_bookshelf(d0, dir, "flowtest");
  Design d = read_bookshelf(dir / "flowtest.aux");
  PlacementFlow flow;
  const FlowResult r = flow.run(d);
  EXPECT_TRUE(r.eval.legality.ok());
  // Export the placement and reload it onto the original netlist.
  write_pl(d, dir / "flowtest.out.pl");
  read_pl_into(d0, dir / "flowtest.out.pl");
  EXPECT_NEAR(d0.hpwl(), d.hpwl(), 1e-6 * d.hpwl());
  fs::remove_all(dir);
}

TEST_F(FlowTest, RunReportMatchesEvaluation) {
  Design d = generate_benchmark(tiny_spec(70));
  PlacementFlow flow(routability_driven_options());
  const FlowResult r = flow.run(d);

  const RunReportMeta meta = make_report_meta(d, "generated", "routability", 70);
  const JsonValue doc =
      json_parse(run_report_json(meta, flow.options(), r));

  // The report's metrics are the same numbers evaluate_placement produced.
  EXPECT_DOUBLE_EQ(doc.at("eval").at("hpwl").num, r.eval.hpwl);
  EXPECT_DOUBLE_EQ(doc.at("eval").at("scaled_hpwl").num, r.eval.scaled_hpwl);
  EXPECT_DOUBLE_EQ(doc.at("eval").at("congestion").at("rc").num, r.eval.congestion.rc);
  EXPECT_EQ(doc.at("eval").at("legality").at("ok").b, r.eval.legality.ok());

  // Provenance & shape.
  EXPECT_EQ(doc.at("mode").str, "routability");
  EXPECT_EQ(doc.at("design").at("name").str, d.name());
  EXPECT_DOUBLE_EQ(doc.at("design").at("cells").num, d.num_cells());
  EXPECT_EQ(doc.at("gp_trace").arr.size(), r.gp_trace.size());
  EXPECT_DOUBLE_EQ(doc.at("gp").at("final_hpwl").num, r.gp.final_hpwl);

  // Stage times carry the nested GP breakdown.
  EXPECT_TRUE(doc.at("stage_times").has("global"));
  EXPECT_TRUE(doc.at("stage_times").has("global/level0"));

  // The flow populated the counter registry; the report snapshots it.
  EXPECT_GT(doc.at("counters").at("gp.outer_iters").num, 0.0);
  EXPECT_GT(doc.at("counters").at("solver.cg_iters").num, 0.0);
  EXPECT_DOUBLE_EQ(doc.at("legal").at("cells").num, r.legal.cells);
  EXPECT_GT(doc.at("peak_rss_kb").num, 0.0);
}

TEST_F(FlowTest, GpRoundsRecordEachRoutabilityRound) {
  // One report per run; the design is regenerated because a run places it.
  const auto report = [](const std::string& snapshot_dir) {
    Design d = generate_benchmark(tiny_spec(73));
    FlowOptions opt = routability_driven_options();
    opt.skip_dp = true;
    opt.snapshot.dir = snapshot_dir;
    PlacementFlow flow(opt);
    const FlowResult r = flow.run(d);
    EXPECT_EQ(static_cast<int>(r.gp_rounds.size()), r.gp.inflation_rounds);
    return json_parse(run_report_json(
        make_report_meta(d, "generated", "routability", 73), opt, r));
  };
  const JsonValue plain = report("");
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "rp_flow_gp_rounds";
  std::filesystem::remove_all(dir);
  const JsonValue snap = report(dir.string());
  std::filesystem::remove_all(dir);

  const std::vector<JsonValue>& rounds = plain.at("gp_rounds").arr;
  ASSERT_FALSE(rounds.empty());
  EXPECT_EQ(static_cast<double>(rounds.size()),
            plain.at("gp").at("inflation_rounds").num);
  // Recorded whether or not snapshots are captured.
  EXPECT_TRUE(snap.at("gp_rounds") == plain.at("gp_rounds"));

  // Round r's reheat points keep their level -r tag in gp_trace.
  const std::vector<JsonValue>& trace = plain.at("gp_trace").arr;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const int round = static_cast<int>(rounds[i].at("round").num);
    EXPECT_EQ(round, static_cast<int>(i) + 1);
    const auto tagged = std::count_if(trace.begin(), trace.end(), [&](const JsonValue& p) {
      return p.at("level").num == -round;
    });
    if (rounds[i].at("cells_inflated").num > 0)
      EXPECT_GT(tagged, 0) << "round " << round;
    else
      EXPECT_EQ(tagged, 0) << "round " << round;
  }
  for (const JsonValue& p : trace) {
    EXPECT_GE(p.at("level").num, -static_cast<double>(rounds.size()));
    EXPECT_GT(p.at("gamma").num, 0.0);
  }
}

TEST_F(FlowTest, CounterRegistryResetsBetweenRuns) {
  BenchmarkSpec spec = tiny_spec(71);
  Design a = generate_benchmark(spec);
  PlacementFlow fa;
  const FlowResult ra = fa.run(a);
  const std::int64_t outers_a = ra.obs->registry().counter_value("gp.outer_iters");
  ASSERT_GT(outers_a, 0);

  Design b = generate_benchmark(spec);
  PlacementFlow fb;
  const FlowResult rb = fb.run(b);
  // Same design, fresh context: the second run's count matches the first
  // instead of doubling (each run counts only itself).
  EXPECT_EQ(rb.obs->registry().counter_value("gp.outer_iters"), outers_a);
}

TEST_F(FlowTest, NullObsRunLeavesTheBoundContextAlone) {
  // A caller-bound context is not the run's: a flow with no FlowOptions::obs
  // observes into a fresh context of its own and hands it back in r.obs.
  obs::ObsContext caller;
  obs::ScopedBind bind(&caller);
  RP_COUNT("gp.outer_iters", 5);
  Design d = generate_benchmark(tiny_spec(72));
  PlacementFlow flow;
  const FlowResult r = flow.run(d);
  ASSERT_NE(r.obs, nullptr);
  EXPECT_NE(r.obs.get(), &caller);
  EXPECT_GT(r.obs->registry().counter_value("gp.outer_iters"), 0);
  EXPECT_EQ(caller.registry().counter_value("gp.outer_iters"), 5);
  EXPECT_EQ(caller.events().events_emitted(), 0u);
  EXPECT_EQ(&obs::current(), &caller);  // the caller's binding is restored
}

TEST_F(FlowTest, GpTraceExposedInResult) {
  Design d = generate_benchmark(tiny_spec(69));
  PlacementFlow flow;
  const FlowResult r = flow.run(d);
  EXPECT_FALSE(r.gp_trace.empty());
  EXPECT_GT(r.gp.total_outer, 0);
}

}  // namespace
}  // namespace rp
