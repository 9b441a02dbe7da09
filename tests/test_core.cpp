// Core routability machinery: cell inflation (budget, caps, targeting),
// narrow-channel detection, the global placer's spreading behaviour, and
// the reporting helpers.

#include <gtest/gtest.h>

#include <cmath>

#include "core/channels.hpp"
#include "core/global_placer.hpp"
#include "core/inflation.hpp"
#include "core/report.hpp"
#include "gen/generator.hpp"
#include "model/density.hpp"
#include "route/estimator.hpp"
#include "util/logger.hpp"

namespace rp {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  void SetUp() override { Logger::set_level(LogLevel::Error); }
};

// ---------------- inflation ----------------

/// Problem with cells split between a "hot" left half and "cool" right half,
/// plus a grid whose left-half edges are overloaded.
struct InflationFixture {
  PlaceProblem prob;
  RoutingGrid grid{Rect{0, 0, 100, 100}, 10, 10, 10, 10};

  InflationFixture() {
    prob.die = {0, 0, 100, 100};
    for (int i = 0; i < 40; ++i) {
      PlaceNode n;
      n.w = 4;
      n.h = 4;
      prob.nodes.push_back(n);
      prob.x.push_back(i < 20 ? 25.0 : 75.0);
      prob.y.push_back(50.0);
    }
    prob.inflate.assign(prob.nodes.size(), 1.0);
    // Overload horizontal edges in the left half.
    for (int iy = 0; iy < 10; ++iy)
      for (int ix = 0; ix < 4; ++ix) grid.add_h(ix, iy, 15.0);  // 150%
  }
};

TEST_F(CoreTest, InflationTargetsHotCells) {
  InflationFixture f;
  const InflationResult r =
      apply_congestion_inflation(f.prob, f.grid, 0.5, 2.0, 0.5);
  EXPECT_EQ(r.cells_inflated, 20);
  for (int i = 0; i < 40; ++i) {
    if (i < 20) EXPECT_GT(f.prob.inflate[static_cast<std::size_t>(i)], 1.0) << i;
    else EXPECT_DOUBLE_EQ(f.prob.inflate[static_cast<std::size_t>(i)], 1.0);
  }
}

TEST_F(CoreTest, InflationRespectsPerCellCap) {
  InflationFixture f;
  for (int round = 0; round < 20; ++round)
    apply_congestion_inflation(f.prob, f.grid, 2.0, 1.6, 10.0);
  for (int i = 0; i < 20; ++i)
    EXPECT_LE(f.prob.inflate[static_cast<std::size_t>(i)], 1.6 + 1e-9);
}

TEST_F(CoreTest, InflationRespectsGlobalBudget) {
  InflationFixture f;
  const double budget = 0.05;
  for (int round = 0; round < 10; ++round)
    apply_congestion_inflation(f.prob, f.grid, 5.0, 4.0, budget);
  double area = 0, extra = 0;
  for (int v = 0; v < f.prob.num_nodes(); ++v) {
    const auto& n = f.prob.nodes[static_cast<std::size_t>(v)];
    area += n.area();
    extra += n.area() * (f.prob.inflate[static_cast<std::size_t>(v)] - 1.0);
  }
  EXPECT_LE(extra / area, budget + 1e-9);
}

TEST_F(CoreTest, InflationNoOpWithoutCongestion) {
  InflationFixture f;
  f.grid.clear_usage();
  const InflationResult r = apply_congestion_inflation(f.prob, f.grid, 0.5, 2.0, 0.5);
  EXPECT_EQ(r.cells_inflated, 0);
  EXPECT_DOUBLE_EQ(mean_inflation(f.prob), 1.0);
}

TEST_F(CoreTest, MeanInflationIsAreaWeighted) {
  PlaceProblem p;
  p.die = {0, 0, 10, 10};
  PlaceNode big;
  big.w = big.h = 3;  // area 9
  PlaceNode small;
  small.w = small.h = 1;  // area 1
  p.nodes = {big, small};
  p.x = {2, 8};
  p.y = {2, 8};
  p.inflate = {2.0, 1.0};
  EXPECT_NEAR(mean_inflation(p), (9 * 2.0 + 1 * 1.0) / 10.0, 1e-12);
}

// ---------------- narrow channels ----------------

/// 200x200 die; two fixed macros in the lower half separated by a vertical
/// channel of the given width. The upper half (y > 80) stays wide open.
Design channel_design(double channel_w) {
  Design d;
  d.set_die({0, 0, 200, 200});
  for (int r = 0; r < 20; ++r) d.add_row(Row{r * 10.0, 10, 0, 200, 1});
  const double mw = (200 - channel_w) / 2;
  for (int i = 0; i < 2; ++i) {
    const CellId m = d.add_cell('m' + std::to_string(i), mw, 80, CellKind::Macro);
    d.cell(m).fixed = true;
    d.cell(m).pos = {i == 0 ? 0.0 : mw + channel_w, 0};  // flush to the bottom
  }
  d.add_cell("a", 4, 10);
  d.add_net("n");
  d.finalize();
  return d;
}

TEST_F(CoreTest, NarrowChannelDetected) {
  const Design d = channel_design(20.0);  // 2 rows wide => narrow
  const GridMap bins(d.die(), 40, 40);
  const Grid2D<double> scale =
      narrow_channel_capacity_scale(d, bins, 6 * d.row_height(), 0.4);
  EXPECT_GT(count_channel_bins(scale), 0);
  // A bin in the channel center is derated; the open upper half is not.
  EXPECT_LT(scale(bins.ix_of(100), bins.iy_of(40)), 1.0);
  EXPECT_DOUBLE_EQ(scale(bins.ix_of(100), bins.iy_of(150)), 1.0);
  EXPECT_DOUBLE_EQ(scale(bins.ix_of(5), bins.iy_of(190)), 1.0);
}

TEST_F(CoreTest, WideChannelNotDerated) {
  const Design d = channel_design(100.0);  // 10 rows wide => fine
  const GridMap bins(d.die(), 40, 40);
  const Grid2D<double> scale =
      narrow_channel_capacity_scale(d, bins, 6 * d.row_height(), 0.4);
  EXPECT_DOUBLE_EQ(scale(bins.ix_of(100), bins.iy_of(40)), 1.0);
}

TEST_F(CoreTest, ChannelScaleFeedsDensityCapacity) {
  const Design d = channel_design(20.0);
  PlaceProblem p = make_problem(d);
  DensityConfig cfg;
  cfg.nx = 40;
  cfg.ny = 20;
  DensityModel dm(p, cfg);
  const double cap_before = dm.capacity()(dm.grid().ix_of(100), dm.grid().iy_of(50));
  const Grid2D<double> scale =
      narrow_channel_capacity_scale(d, dm.grid(), 6 * d.row_height(), 0.4);
  dm.apply_capacity_scale(scale);
  EXPECT_LT(dm.capacity()(dm.grid().ix_of(100), dm.grid().iy_of(50)), cap_before);
}

// ---------------- global placer ----------------

TEST_F(CoreTest, GlobalPlacerSpreadsAndShortens) {
  Design d = generate_benchmark(tiny_spec(51));
  // Scatter start: HPWL of random placement.
  const double hpwl0 = d.hpwl();
  GpOptions opt;
  opt.routability.enable = false;
  opt.cluster.target_nodes = 200;
  GlobalPlacer gp(opt);
  const GpStats st = gp.run(d);
  EXPECT_LT(st.final_overflow, 0.25);
  EXPECT_LT(st.final_hpwl, hpwl0);  // better than random scatter
  EXPECT_GT(st.total_outer, 0);
  EXPECT_FALSE(gp.trace().empty());
  // All movable cells inside the die.
  for (const CellId c : d.movable_cells()) {
    EXPECT_TRUE(d.die().expand(1e-6).contains(d.cell_rect(c))) << d.cell(c).name;
  }
}

TEST_F(CoreTest, RoutabilityModeInflates) {
  Design d = generate_benchmark(tiny_spec(52));
  GpOptions opt;
  opt.routability.enable = true;
  opt.routability.rounds = 2;
  opt.cluster.target_nodes = 200;
  GlobalPlacer gp(opt);
  const GpStats st = gp.run(d);
  EXPECT_GT(st.inflation_rounds, 0);
  EXPECT_GE(st.mean_inflation, 1.0);
}

TEST_F(CoreTest, TraceIsMonotoneInOverflowTail) {
  // The recorded trace must show the overflow at the end of the finest
  // level below the start of that level (the core convergence property).
  Design d = generate_benchmark(tiny_spec(53));
  GpOptions opt;
  opt.routability.enable = false;
  opt.cluster.target_nodes = 100000;  // single level
  GlobalPlacer gp(opt);
  gp.run(d);
  const auto& tr = gp.trace();
  ASSERT_GE(tr.size(), 2u);
  EXPECT_LT(tr.back().overflow, tr.front().overflow);
}

TEST_F(CoreTest, WlModelSelectable) {
  for (const char* model : {"WA", "LSE"}) {
    Design d = generate_benchmark(tiny_spec(54));
    GpOptions opt;
    opt.wl_model = model;
    opt.routability.enable = false;
    opt.max_outer = 8;
    GlobalPlacer gp(opt);
    const GpStats st = gp.run(d);
    EXPECT_GT(st.final_hpwl, 0.0) << model;
  }
}

// ---------------- report ----------------

TEST_F(CoreTest, EvaluatePlacementBundle) {
  Design d = generate_benchmark(tiny_spec(55));
  EvalOptions opt;
  opt.run_router = false;  // estimator-only (fast path)
  const EvalResult r = evaluate_placement(d, opt);
  EXPECT_NEAR(r.hpwl, d.hpwl(), 1e-9);
  EXPECT_GE(r.scaled_hpwl, r.hpwl);
  EXPECT_GT(r.route.wirelength, 0.0);
}

TEST_F(CoreTest, TableWriterFormatting) {
  TableWriter t({"name", "value"});
  t.row({"alpha", "1.00"});
  t.row({"b", "123456.79"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("123456.79"), std::string::npos);
  EXPECT_EQ(TableWriter::num(1.234, 2), "1.23");
  EXPECT_EQ(TableWriter::eng(123456.0), "1.235e+05");
}

TEST_F(CoreTest, CongestionAsciiProducesMap) {
  Design d = generate_benchmark(tiny_spec(56));
  RoutingGrid grid(d, true);
  GlobalRouter(grid).route(d);
  const std::string map = congestion_ascii(d, grid, 32);
  EXPECT_FALSE(map.empty());
  // One line per (aggregated) tile row, '\n' terminated.
  EXPECT_EQ(map.back(), '\n');
}

}  // namespace
}  // namespace rp
