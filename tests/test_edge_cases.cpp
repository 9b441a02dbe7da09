// Edge cases and failure injection across modules: degenerate netlists,
// 100%-packed rows, blocked routing, pathological macros, and brute-force
// cross-checks of the optimizing components.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cluster/multilevel.hpp"
#include "core/flow.hpp"
#include "core/inflation.hpp"
#include "db/validate.hpp"
#include "dp/detailed.hpp"
#include "gen/generator.hpp"
#include "legal/legalizer.hpp"
#include "legal/macro_legalizer.hpp"
#include "model/density.hpp"
#include "model/wirelength.hpp"
#include "route/estimator.hpp"
#include "route/metrics.hpp"
#include "route/router.hpp"
#include "util/logger.hpp"
#include "util/rng.hpp"

namespace rp {
namespace {

class EdgeTest : public ::testing::Test {
 protected:
  void SetUp() override { Logger::set_level(LogLevel::Error); }
};

// ---------------- degenerate netlists ----------------

TEST_F(EdgeTest, SinglePinAndEmptyishNetsSurviveFlow) {
  Design d;
  d.set_die({0, 0, 200, 100});
  for (int r = 0; r < 10; ++r) d.add_row(Row{r * 10.0, 10, 0, 200, 1});
  // 30 cells; net 0 has a single pin, net 1 connects the same cell twice.
  for (int i = 0; i < 30; ++i) d.add_cell('c' + std::to_string(i), 4, 10);
  const NetId lonely = d.add_net("lonely");
  d.connect(0, lonely);
  const NetId doubled = d.add_net("doubled");
  d.connect(1, doubled, {-1, 0});
  d.connect(1, doubled, {1, 0});
  for (int i = 0; i < 28; ++i) {
    const NetId n = d.add_net('n' + std::to_string(i));
    d.connect(i, n);
    d.connect(i + 2, n);
  }
  RouteGridInfo rg;
  rg.nx = rg.ny = 10;
  rg.h_capacity = rg.v_capacity = 20;
  d.set_route_grid(rg);
  for (CellId c = 0; c < 30; ++c) d.cell(c).pos = {100, 50};
  d.finalize();

  PlacementFlow flow(routability_driven_options());
  const FlowResult r = flow.run(d);
  EXPECT_TRUE(r.eval.legality.ok());
}

TEST_F(EdgeTest, HugeNetRoutesViaChainTopology) {
  Design d;
  d.set_die({0, 0, 400, 100});
  d.add_row(Row{0, 10, 0, 400, 1});
  const NetId n = d.add_net("clk");
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const CellId c = d.add_cell('c' + std::to_string(i), 1, 10);
    d.cell(c).pos = {rng.uniform(0, 399), 0};
    d.connect(c, n);
  }
  RouteGridInfo rg;
  rg.nx = 40;
  rg.ny = 10;
  rg.h_capacity = rg.v_capacity = 50;
  d.set_route_grid(rg);
  d.finalize();
  RoutingGrid grid(d, true);
  GlobalRouter router(grid);
  const RouteStats st = router.route(d);
  // 200 pins over 40 tiles: many consecutive chain pins share a tile and are
  // skipped, but dozens of real segments must remain.
  EXPECT_GT(st.segments, 20);
  EXPECT_GT(st.wirelength, 0);
}

// ---------------- 100% packed legalization ----------------

Design packed_fixture(int cells_per_row) {
  Design d;
  d.set_die({0, 0, 100, 100});
  for (int r = 0; r < 10; ++r) d.add_row(Row{r * 10.0, 10, 0, 100, 1});
  Rng rng(9);
  for (int i = 0; i < 10 * cells_per_row; ++i) {
    const CellId c = d.add_cell('c' + std::to_string(i), 10, 10);
    d.cell(c).pos = {rng.uniform(0, 90), rng.uniform(0, 90)};
  }
  d.add_net("n");
  d.finalize();
  return d;
}

TEST_F(EdgeTest, AbacusHandlesExactlyFullRows) {
  // 10 rows × width 100, cells of width 10, exactly 100 cells: a perfect
  // 100% packing exists; Abacus's cluster collapse must find one.
  Design d = packed_fixture(10);
  AbacusLegalizer lg;
  const LegalizeStats st = lg.run(d);
  EXPECT_EQ(st.failed, 0);
  EXPECT_TRUE(check_legality(d).ok());
}

TEST_F(EdgeTest, TetrisHandlesDenseRows) {
  // Tetris is greedy: exactly-100% packing is out of scope (documented), but
  // 90% dense rows must legalize cleanly.
  Design d = packed_fixture(9);
  TetrisLegalizer lg;
  const LegalizeStats st = lg.run(d);
  EXPECT_EQ(st.failed, 0);
  EXPECT_TRUE(check_legality(d).ok());
}

TEST_F(EdgeTest, AbacusSingleRowMatchesBruteForceOrder) {
  // On one row, Abacus places cells in target-x order with minimal weighted
  // quadratic displacement; verify the *ordering* invariant: final x order
  // equals target x order (no inversions), and no overlap.
  Design d;
  d.set_die({0, 0, 100, 10});
  d.add_row(Row{0, 10, 0, 100, 1});
  Rng rng(17);
  const int n = 12;
  for (int i = 0; i < n; ++i) {
    const CellId c = d.add_cell('c' + std::to_string(i), 6, 10);
    d.cell(c).pos = {rng.uniform(0, 94), 0};
  }
  d.add_net("n");
  d.finalize();
  std::vector<std::pair<double, CellId>> target_order;
  for (CellId c = 0; c < n; ++c) target_order.emplace_back(d.cell(c).pos.x, c);
  std::sort(target_order.begin(), target_order.end());

  AbacusLegalizer lg;
  lg.run(d);
  EXPECT_TRUE(check_legality(d).ok());
  std::vector<std::pair<double, CellId>> final_order;
  for (CellId c = 0; c < n; ++c) final_order.emplace_back(d.cell(c).pos.x, c);
  std::sort(final_order.begin(), final_order.end());
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(final_order[static_cast<std::size_t>(i)].second,
              target_order[static_cast<std::size_t>(i)].second)
        << "inversion at rank " << i;
}

TEST_F(EdgeTest, MacroWiderThanDieFails) {
  Design d;
  d.set_die({0, 0, 100, 100});
  for (int r = 0; r < 10; ++r) d.add_row(Row{r * 10.0, 10, 0, 100, 1});
  const CellId m = d.add_cell("huge", 150, 20, CellKind::Macro);
  d.cell(m).pos = {0, 0};
  d.add_cell("a", 5, 10);
  d.add_net("n");
  // utilization check fires first (area 3000+50 in die 10000 is fine), so
  // finalize passes; the macro legalizer must report failure, not hang.
  d.finalize();
  const MacroLegalizeStats st = legalize_macros(d);
  EXPECT_EQ(st.failed, 1);
}

// ---------------- routing edge cases ----------------

TEST_F(EdgeTest, RouterSurvivesFullyBlockedCorridorByPayingPenalty) {
  // All horizontal capacity zeroed in a full column wall: router must still
  // return (through the wall at blocked-penalty cost), reporting overflow.
  Design d;
  d.set_die({0, 0, 100, 100});
  d.add_row(Row{0, 10, 0, 100, 1});
  const CellId a = d.add_cell("a", 2, 2);
  const CellId b = d.add_cell("b", 2, 2);
  const NetId n = d.add_net("n");
  d.connect(a, n);
  d.connect(b, n);
  d.set_center(a, {5, 50});
  d.set_center(b, {95, 50});
  RouteGridInfo rg;
  rg.nx = rg.ny = 10;
  rg.h_capacity = rg.v_capacity = 10;
  d.set_route_grid(rg);
  d.finalize();
  RoutingGrid g(d, true);
  for (int iy = 0; iy < 10; ++iy) g.scale_h_cap(4, iy, 0.0);  // vertical wall
  GlobalRouter router(g);
  const RouteStats st = router.route(d);
  EXPECT_EQ(st.segments, 1);
  EXPECT_GT(st.wirelength, 0.0);
  EXPECT_FALSE(st.overflow_free);  // the wall must be crossed somewhere
}

TEST_F(EdgeTest, EstimatorIgnoresDegenerateSameTileNets) {
  Design d;
  d.set_die({0, 0, 100, 100});
  d.add_row(Row{0, 10, 0, 100, 1});
  const CellId a = d.add_cell("a", 2, 2);
  const CellId b = d.add_cell("b", 2, 2);
  const NetId n = d.add_net("n");
  d.connect(a, n);
  d.connect(b, n);
  d.set_center(a, {50, 50});
  d.set_center(b, {51, 51});  // same routing tile
  RouteGridInfo rg;
  rg.nx = rg.ny = 10;
  rg.h_capacity = rg.v_capacity = 10;
  d.set_route_grid(rg);
  d.finalize();
  RoutingGrid g(d, true);
  estimate_probabilistic(d, g);
  EXPECT_DOUBLE_EQ(g.used_wirelength(), 0.0);
}

TEST_F(EdgeTest, AcePercentileMonotone) {
  Rng rng(23);
  std::vector<double> utils;
  for (int i = 0; i < 500; ++i) utils.push_back(rng.uniform(0, 2));
  double prev = 1e18;
  for (const double pct : {0.5, 1.0, 2.0, 5.0, 20.0, 100.0}) {
    const double a = ace(utils, pct);
    EXPECT_LE(a, prev + 1e-9) << pct;
    prev = a;
  }
}

// ---------------- density / inflation edge cases ----------------

TEST_F(EdgeTest, DensityNodeLargerThanDie) {
  PlaceProblem p;
  p.die = {0, 0, 50, 50};
  PlaceNode big;
  big.w = 80;
  big.h = 80;  // wider than the die
  p.nodes.push_back(big);
  p.x.push_back(25);
  p.y.push_back(25);
  p.inflate.assign(1, 1.0);
  p.clamp_to_die();  // must center it, not throw
  EXPECT_DOUBLE_EQ(p.x[0], 25.0);
  DensityConfig cfg;
  cfg.nx = cfg.ny = 8;
  DensityModel dm(p, cfg);
  std::vector<double> gx(1, 0.0), gy(1, 0.0);
  const double pen = dm.eval(p, gx, gy);
  EXPECT_TRUE(std::isfinite(pen));
  EXPECT_TRUE(std::isfinite(gx[0]));
  // Rasterization clips to the die, so only the in-die part (the whole die,
  // exactly at capacity) is charged: overflow reports 0 rather than blowing
  // up — the flow clamps such nodes long before this point.
  EXPECT_GE(dm.overflow(p), 0.0);
}

TEST_F(EdgeTest, InflationZeroBudgetIsNoOp) {
  PlaceProblem p;
  p.die = {0, 0, 100, 100};
  PlaceNode nd;
  nd.w = nd.h = 4;
  p.nodes.assign(10, nd);
  p.x.assign(10, 20.0);
  p.y.assign(10, 50.0);
  p.inflate.assign(10, 1.0);
  RoutingGrid g(Rect{0, 0, 100, 100}, 10, 10, 10, 10);
  for (int iy = 0; iy < 10; ++iy) g.add_h(1, iy, 30.0);  // hot
  const InflationResult r = apply_congestion_inflation(p, g, 1.0, 3.0, 0.0);
  EXPECT_DOUBLE_EQ(mean_inflation(p), 1.0);
  EXPECT_DOUBLE_EQ(r.budget_used, 0.0);
}

TEST_F(EdgeTest, WirelengthModelsOnTwoCoincidentPins) {
  PlaceProblem p;
  p.die = {0, 0, 10, 10};
  PlaceNode nd;
  nd.w = nd.h = 1;
  p.nodes.assign(2, nd);
  p.x = {5, 5};
  p.y = {5, 5};
  p.inflate.assign(2, 1.0);
  PlaceNet net;
  net.pin_begin = 0;
  net.pin_end = 2;
  p.nets.push_back(net);
  p.pins.push_back({0, 0, 0});
  p.pins.push_back({1, 0, 0});
  for (const char* m : {"LSE", "WA"}) {
    const auto model = make_wirelength_model(m, 1.0);
    std::vector<double> gx(2, 0.0), gy(2, 0.0);
    const double v = model->eval(p, gx, gy);
    EXPECT_TRUE(std::isfinite(v)) << m;
    EXPECT_GE(v, -1e-9) << m;  // WA may be ~0; LSE slightly positive
    EXPECT_TRUE(std::isfinite(gx[0])) << m;
  }
}

// ---------------- clustering edge cases ----------------

TEST_F(EdgeTest, ClusteringWithTwoMovableCells) {
  Design d;
  d.set_die({0, 0, 100, 100});
  for (int r = 0; r < 10; ++r) d.add_row(Row{r * 10.0, 10, 0, 100, 1});
  d.add_cell("a", 4, 10);
  d.add_cell("b", 4, 10);
  const CellId f = d.add_cell("fix", 10, 10, CellKind::Terminal);
  d.cell(f).pos = {0, 0};
  const NetId n = d.add_net("n");
  d.connect(0, n);
  d.connect(1, n);
  d.connect(f, n);
  d.finalize();
  ClusterOptions opt;
  opt.target_nodes = 1;
  Multilevel ml(d, opt);
  // a and b may merge into one cluster; the fixed node survives.
  const auto& top = ml.level(ml.top()).prob;
  int fixed = 0, movable = 0;
  for (const auto& nd : top.nodes) (nd.fixed ? fixed : movable)++;
  EXPECT_EQ(fixed, 1);
  EXPECT_GE(movable, 1);
}

TEST_F(EdgeTest, FlowOnAllFixedMacrosDesign) {
  // Movable std cells squeezed between an L of fixed macros.
  Design d;
  d.set_die({0, 0, 200, 200});
  for (int r = 0; r < 20; ++r) d.add_row(Row{r * 10.0, 10, 0, 200, 1});
  const auto add_blk = [&](const char* name, double x, double y, double w, double h) {
    const CellId m = d.add_cell(name, w, h, CellKind::Macro);
    d.cell(m).fixed = true;
    d.cell(m).pos = {x, y};
    return m;
  };
  add_blk("m0", 0, 0, 120, 100);
  add_blk("m1", 0, 100, 60, 100);
  Rng rng(31);
  const int base = d.num_cells();
  for (int i = 0; i < 120; ++i) {
    const CellId c = d.add_cell('c' + std::to_string(i), 4, 10);
    d.cell(c).pos = {rng.uniform(0, 196), rng.uniform(0, 190)};
  }
  for (int i = 0; i < 100; ++i) {
    const NetId n = d.add_net('n' + std::to_string(i));
    d.connect(base + i, n);
    d.connect(base + ((i + 7) % 120), n);
  }
  RouteGridInfo rg;
  rg.nx = rg.ny = 20;
  rg.h_capacity = rg.v_capacity = 15;
  d.set_route_grid(rg);
  d.finalize();
  PlacementFlow flow(routability_driven_options());
  const FlowResult r = flow.run(d);
  EXPECT_TRUE(r.eval.legality.ok())
      << (r.eval.legality.messages.empty() ? "" : r.eval.legality.messages[0].c_str());
  // No std cell may sit on a macro.
  for (CellId c = base; c < d.num_cells(); ++c) {
    EXPECT_FALSE(d.cell_rect(c).overlaps(d.cell_rect(0)));
    EXPECT_FALSE(d.cell_rect(c).overlaps(d.cell_rect(1)));
  }
}

TEST_F(EdgeTest, HighUtilizationFlowStaysLegal) {
  BenchmarkSpec spec = tiny_spec(81);
  spec.target_utilization = 0.92;
  spec.num_macros = 2;
  spec.macro_area_fraction = 0.10;
  Design d = generate_benchmark(spec);
  PlacementFlow flow(wirelength_driven_options());
  const FlowResult r = flow.run(d);
  EXPECT_TRUE(r.eval.legality.ok())
      << (r.eval.legality.messages.empty() ? "" : r.eval.legality.messages[0].c_str());
}

TEST_F(EdgeTest, GeneratorRejectsBadUtilization) {
  BenchmarkSpec s = tiny_spec(1);
  s.target_utilization = 1.5;
  EXPECT_DEATH(generate_benchmark(s), "utilization");
}

}  // namespace
}  // namespace rp
