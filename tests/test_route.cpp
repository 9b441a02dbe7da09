// Routing substrate: grid capacities & macro derating, net topologies,
// estimators, the negotiated-congestion router, and the ACE/RC metrics.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>

#include "gen/generator.hpp"
#include "util/rng.hpp"
#include "route/estimator.hpp"
#include "route/metrics.hpp"
#include "route/router.hpp"
#include "util/logger.hpp"

namespace rp {
namespace {

class RouteTest : public ::testing::Test {
 protected:
  void SetUp() override { Logger::set_level(LogLevel::Warn); }
};

// ---------------- RoutingGrid ----------------

TEST_F(RouteTest, GridGeometry) {
  RoutingGrid g(Rect{0, 0, 100, 60}, 10, 6, 20, 16);
  EXPECT_EQ(g.nx(), 10);
  EXPECT_EQ(g.ny(), 6);
  EXPECT_DOUBLE_EQ(g.tile_w(), 10.0);
  EXPECT_DOUBLE_EQ(g.tile_h(), 10.0);
  EXPECT_EQ(g.num_h_edges(), 9 * 6);
  EXPECT_EQ(g.num_v_edges(), 10 * 5);
  EXPECT_DOUBLE_EQ(g.h_cap(0, 0), 20.0);
  EXPECT_DOUBLE_EQ(g.v_cap(0, 0), 16.0);
}

TEST_F(RouteTest, UsageAndOverflowAccounting) {
  RoutingGrid g(Rect{0, 0, 40, 40}, 4, 4, 10, 10);
  g.add_h(0, 0, 12);  // 2 over
  g.add_v(1, 1, 5);   // under
  EXPECT_DOUBLE_EQ(g.total_overflow(), 2.0);
  EXPECT_DOUBLE_EQ(g.max_utilization(), 1.2);
  EXPECT_DOUBLE_EQ(g.used_wirelength(), 12 * 10.0 + 5 * 10.0);
  g.clear_usage();
  EXPECT_DOUBLE_EQ(g.total_overflow(), 0.0);
}

TEST_F(RouteTest, MacroDeratesCapacity) {
  Design d;
  d.set_die({0, 0, 100, 100});
  d.add_row(Row{0, 10, 0, 100, 1});
  const CellId m = d.add_cell("blk", 50, 50, CellKind::Macro);
  d.cell(m).fixed = true;
  d.cell(m).pos = {0, 0};  // lower-left quadrant
  d.add_cell("a", 5, 10);
  d.cell(1).pos = {80, 0};
  RouteGridInfo rg;
  rg.nx = rg.ny = 10;
  rg.h_capacity = rg.v_capacity = 20;
  rg.macro_porosity = 0.2;
  d.set_route_grid(rg);
  d.finalize();

  RoutingGrid grid(d, true);
  // Deep inside the macro: capacity ~ porosity × base.
  EXPECT_NEAR(grid.h_cap(1, 1), 20 * 0.2, 1.0);
  // Far away: untouched.
  EXPECT_DOUBLE_EQ(grid.h_cap(7, 7), 20.0);
  EXPECT_DOUBLE_EQ(grid.v_cap(7, 7), 20.0);
}

TEST_F(RouteTest, TileCongestionReflectsEdges) {
  RoutingGrid g(Rect{0, 0, 40, 40}, 4, 4, 10, 10);
  g.add_h(1, 2, 15);  // edge (1,2)-(2,2) at 150%
  const Grid2D<double> c = g.tile_congestion();
  EXPECT_DOUBLE_EQ(c(1, 2), 1.5);
  EXPECT_DOUBLE_EQ(c(2, 2), 1.5);
  EXPECT_DOUBLE_EQ(c(0, 0), 0.0);
}

// ---------------- topology ----------------

TEST_F(RouteTest, TopologyTwoPins) {
  const auto segs = net_topology({{0, 0}, {5, 5}});
  ASSERT_EQ(segs.size(), 1u);
}

TEST_F(RouteTest, TopologyIsSpanningTree) {
  Rng rng(5);
  std::vector<Point> pts;
  for (int i = 0; i < 20; ++i) pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  const auto segs = net_topology(pts);
  EXPECT_EQ(segs.size(), pts.size() - 1);
  // Connectivity: union-find.
  std::vector<int> parent(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) parent[i] = static_cast<int>(i);
  const std::function<int(int)> find = [&](int x) {
    return parent[static_cast<std::size_t>(x)] == x
               ? x
               : parent[static_cast<std::size_t>(x)] =
                     find(parent[static_cast<std::size_t>(x)]);
  };
  for (const auto& [a, b] : segs) parent[static_cast<std::size_t>(find(a))] = find(b);
  for (std::size_t i = 1; i < pts.size(); ++i)
    EXPECT_EQ(find(static_cast<int>(i)), find(0));
}

TEST_F(RouteTest, TopologyMstShorterThanChain) {
  // MST total length <= naive index-chain length.
  Rng rng(6);
  std::vector<Point> pts;
  for (int i = 0; i < 15; ++i) pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  const auto segs = net_topology(pts);
  double mst = 0;
  for (const auto& [a, b] : segs)
    mst += manhattan(pts[static_cast<std::size_t>(a)], pts[static_cast<std::size_t>(b)]);
  double chain = 0;
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) chain += manhattan(pts[i], pts[i + 1]);
  EXPECT_LE(mst, chain + 1e-9);
}

TEST_F(RouteTest, TopologyHugeNetFallsBackToChain) {
  std::vector<Point> pts;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) pts.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
  const auto segs = net_topology(pts);
  EXPECT_EQ(segs.size(), pts.size() - 1);
}

// ---------------- estimators ----------------

/// Two cells on one net, horizontally separated.
Design two_cell_net(double x0, double x1, double y) {
  Design d;
  d.set_die({0, 0, 100, 100});
  d.add_row(Row{0, 10, 0, 100, 1});
  const CellId a = d.add_cell("a", 2, 2);
  const CellId b = d.add_cell("b", 2, 2);
  const NetId n = d.add_net("n");
  d.connect(a, n);
  d.connect(b, n);
  d.set_center(a, {x0, y});
  d.set_center(b, {x1, y});
  RouteGridInfo rg;
  rg.nx = rg.ny = 10;
  rg.h_capacity = rg.v_capacity = 10;
  d.set_route_grid(rg);
  d.finalize();
  return d;
}

TEST_F(RouteTest, ProbabilisticStraightNetUsesRowEdges) {
  const Design d = two_cell_net(5, 95, 55);
  RoutingGrid g(d, true);
  estimate_probabilistic(d, g);
  // The net spans tiles 0..9 in row 5: all 9 h-edges of that row carry 1.
  for (int ix = 0; ix < 9; ++ix) EXPECT_DOUBLE_EQ(g.h_use(ix, 5), 1.0);
  EXPECT_DOUBLE_EQ(g.total_overflow(), 0.0);
  EXPECT_NEAR(g.used_wirelength(), 90.0, 1e-9);
}

TEST_F(RouteTest, ProbabilisticLShapeSplitsDemand) {
  Design d;
  d.set_die({0, 0, 100, 100});
  d.add_row(Row{0, 10, 0, 100, 1});
  const CellId a = d.add_cell("a", 2, 2);
  const CellId b = d.add_cell("b", 2, 2);
  const NetId n = d.add_net("n");
  d.connect(a, n);
  d.connect(b, n);
  d.set_center(a, {5, 5});
  d.set_center(b, {95, 95});
  RouteGridInfo rg;
  rg.nx = rg.ny = 10;
  rg.h_capacity = rg.v_capacity = 10;
  d.set_route_grid(rg);
  d.finalize();
  RoutingGrid g(d, true);
  estimate_probabilistic(d, g);
  // Each L gets weight 0.5: bottom row h-edges and top row h-edges at 0.5.
  EXPECT_DOUBLE_EQ(g.h_use(4, 0), 0.5);
  EXPECT_DOUBLE_EQ(g.h_use(4, 9), 0.5);
  EXPECT_DOUBLE_EQ(g.v_use(0, 4), 0.5);
  EXPECT_DOUBLE_EQ(g.v_use(9, 4), 0.5);
  // Total demand = one full L length in tracks (18 edge units).
  double total = 0;
  for (int iy = 0; iy < 10; ++iy)
    for (int ix = 0; ix < 9; ++ix) total += g.h_use(ix, iy);
  for (int ix = 0; ix < 10; ++ix)
    for (int iy = 0; iy < 9; ++iy) total += g.v_use(ix, iy);
  EXPECT_NEAR(total, 18.0, 1e-9);
}

// ---------------- router ----------------

TEST_F(RouteTest, RouterRoutesStraightNet) {
  const Design d = two_cell_net(5, 95, 55);
  RoutingGrid g(d, true);
  GlobalRouter router(g);
  const RouteStats st = router.route(d);
  EXPECT_EQ(st.segments, 1);
  EXPECT_TRUE(st.overflow_free);
  EXPECT_NEAR(st.wirelength, 90.0, 1e-9);
}

TEST_F(RouteTest, RouterDetoursAroundOverflow) {
  // Many parallel nets through a single-row capacity bottleneck: the router
  // must spread them over neighboring rows and end overflow-free.
  Design d;
  d.set_die({0, 0, 100, 100});
  d.add_row(Row{0, 10, 0, 100, 1});
  for (int i = 0; i < 6; ++i) {
    const CellId a = d.add_cell('a' + std::to_string(i), 2, 2);
    const CellId b = d.add_cell('b' + std::to_string(i), 2, 2);
    const NetId n = d.add_net('n' + std::to_string(i));
    d.connect(a, n);
    d.connect(b, n);
    d.set_center(a, {5, 55});
    d.set_center(b, {95, 55});
  }
  RouteGridInfo rg;
  rg.nx = rg.ny = 10;
  rg.h_capacity = 2;  // row capacity 2 << 6 nets
  rg.v_capacity = 10;
  d.set_route_grid(rg);
  d.finalize();
  RoutingGrid g(d, true);
  GlobalRouter router(g);
  const RouteStats st = router.route(d);
  EXPECT_TRUE(st.overflow_free) << "overflow " << st.total_overflow;
  // Detours make it longer than the straight 6 × 90.
  EXPECT_GT(st.wirelength, 6 * 90.0);
}

TEST_F(RouteTest, RouterAvoidsBlockedRegion) {
  Design d = two_cell_net(5, 95, 55);
  RoutingGrid g(d, true);
  // Block the straight path's middle row completely.
  for (int ix = 2; ix < 7; ++ix) {
    g.scale_h_cap(ix, 5, 0.0);
  }
  GlobalRouter router(g);
  const RouteStats st = router.route(d);
  EXPECT_TRUE(st.overflow_free);
  EXPECT_GT(st.wirelength, 90.0);  // must have detoured
}

TEST_F(RouteTest, RouterOnGeneratedBenchmark) {
  const Design d = generate_benchmark(tiny_spec(3));
  RoutingGrid g(d, true);
  GlobalRouter router(g);
  const RouteStats st = router.route(d);
  EXPECT_GT(st.segments, 100);
  EXPECT_GT(st.wirelength, 0.0);
  // Sanity: routed WL ≥ sum of MST lengths cannot be asserted exactly at
  // tile granularity, but it must be within a plausible factor of HPWL.
  EXPECT_LT(st.wirelength, 10 * d.hpwl() + 1e4);
}

/// FNV-1a over the bit patterns of a double sequence.
struct BitHash {
  std::uint64_t h = 1469598103934665603ULL;
  void add(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
};

TEST_F(RouteTest, RouterCongestedResultPinned) {
  // A congested design (random start positions, tight supply) that takes
  // every rip-up round. Stats and per-edge usage are pinned to the bits the
  // reference router produced, so any change to the A* search order, the
  // edge costs or the rip-up loop shows up here.
  BenchmarkSpec spec = small_spec(7);
  spec.track_supply = 0.8;
  const Design d = generate_benchmark(spec);
  RoutingGrid g(d, true);
  GlobalRouter router(g);
  const RouteStats st = router.route(d);

  BitHash usage;
  for (int iy = 0; iy < g.ny(); ++iy)
    for (int ix = 0; ix + 1 < g.nx(); ++ix) usage.add(g.h_use(ix, iy));
  for (int iy = 0; iy + 1 < g.ny(); ++iy)
    for (int ix = 0; ix < g.nx(); ++ix) usage.add(g.v_use(ix, iy));

  EXPECT_EQ(std::bit_cast<std::uint64_t>(st.wirelength), 0x412c910799999994ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(st.total_overflow), 0x40d5721cafba23f0ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(st.max_utilization), 0x404b624f2cddb0d8ULL);
  EXPECT_EQ(st.overflowed_edges, 709);
  EXPECT_EQ(st.iterations, 5);
  EXPECT_EQ(st.segments, 5075);
  EXPECT_FALSE(st.overflow_free);
  EXPECT_EQ(usage.h, 0x6e2315277c9afed5ULL);
}

TEST_F(RouteTest, RouterTiesPinned) {
  // Square tiles of one uniform capacity: before congestion builds up, every
  // monotone path of a segment costs the same, so the A* order on (f, tile)
  // alone decides which of the tied paths each segment takes. Stats and
  // per-edge usage are pinned to the bits the reference router produced.
  Design d;
  d.set_die({0, 0, 160, 160});
  d.add_row(Row{0, 10, 0, 160, 1});
  Rng rng(11);
  for (int i = 0; i < 400; ++i) {
    const NetId n = d.add_net('n' + std::to_string(i));
    for (int k = 0; k < 2 + i % 3; ++k) {
      const CellId c = d.add_cell('c' + std::to_string(i) + "_" + std::to_string(k), 2, 2);
      d.connect(c, n);
      d.set_center(c, {static_cast<double>(5 + 10 * rng.below(16)),
                       static_cast<double>(5 + 10 * rng.below(16))});
    }
  }
  d.finalize();
  RoutingGrid g(Rect{0, 0, 160, 160}, 16, 16, 6, 6);
  GlobalRouter router(g);
  const RouteStats st = router.route(d);

  BitHash usage;
  for (int iy = 0; iy < g.ny(); ++iy)
    for (int ix = 0; ix + 1 < g.nx(); ++ix) usage.add(g.h_use(ix, iy));
  for (int iy = 0; iy + 1 < g.ny(); ++iy)
    for (int ix = 0; ix < g.nx(); ++ix) usage.add(g.v_use(ix, iy));

  EXPECT_EQ(std::bit_cast<std::uint64_t>(st.wirelength), 0x40f0446000000000ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(st.total_overflow), 0x40adce0000000000ULL);
  EXPECT_EQ(st.overflowed_edges, 435);
  EXPECT_EQ(st.iterations, 5);
  EXPECT_EQ(st.segments, 798);
  EXPECT_EQ(usage.h, 0xa41f9e17a5f4499aULL);
}

// ---------------- metrics ----------------

TEST_F(RouteTest, AceBasics) {
  // 100 edges: one at 2.0, rest at 0.5.
  std::vector<double> u(100, 0.5);
  u[0] = 2.0;
  EXPECT_NEAR(ace(u, 1.0), 200.0, 1e-9);        // top 1% = the single hot edge
  EXPECT_NEAR(ace(u, 2.0), (2.0 + 0.5) / 2 * 100, 1e-9);
  EXPECT_NEAR(ace(u, 100.0), (2.0 + 99 * 0.5), 1e-6);  // mean × 100
}

TEST_F(RouteTest, AceEmptyAndSmall) {
  EXPECT_DOUBLE_EQ(ace({}, 1.0), 0.0);
  EXPECT_NEAR(ace({0.7}, 0.5), 70.0, 1e-9);
}

TEST_F(RouteTest, CongestionMetricsOrdering) {
  RoutingGrid g(Rect{0, 0, 40, 40}, 4, 4, 10, 10);
  g.add_h(0, 0, 20);
  g.add_h(1, 0, 12);
  g.add_v(0, 0, 8);
  const CongestionMetrics m = congestion_metrics(g);
  // ACE is monotone non-increasing in the percentile.
  EXPECT_GE(m.ace_005, m.ace_1);
  EXPECT_GE(m.ace_1, m.ace_2);
  EXPECT_GE(m.ace_2, m.ace_5);
  EXPECT_NEAR(m.peak_utilization, 2.0, 1e-9);
  EXPECT_EQ(m.overflowed_edges, 2);
  EXPECT_NEAR(m.total_overflow, 10 + 2, 1e-9);
}

TEST_F(RouteTest, ScaledHpwlPenalty) {
  EXPECT_DOUBLE_EQ(scaled_hpwl(1000, 90.0), 1000.0);   // under 100: no penalty
  EXPECT_DOUBLE_EQ(scaled_hpwl(1000, 100.0), 1000.0);
  EXPECT_NEAR(scaled_hpwl(1000, 110.0), 1000 * (1 + 0.03 * 10), 1e-9);
}

}  // namespace
}  // namespace rp
