// Placement models: PlaceProblem lowering, wirelength-model properties
// (bounds vs HPWL, monotone γ behaviour, finite-difference gradient checks),
// and the bell-shaped density model (conservation, capacity, gradients,
// overflow semantics).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "gen/generator.hpp"
#include "model/density.hpp"
#include "model/objective.hpp"
#include "model/wirelength.hpp"
#include "util/logger.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace rp {
namespace {

/// A small random problem: n movable unit-ish cells + 2 fixed pads, m nets.
PlaceProblem random_problem(int n, int m, std::uint64_t seed) {
  Rng rng(seed);
  PlaceProblem p;
  p.die = {0, 0, 100, 100};
  for (int i = 0; i < n; ++i) {
    PlaceNode nd;
    nd.w = 2 + rng.uniform() * 3;
    nd.h = 4;
    p.nodes.push_back(nd);
    p.x.push_back(rng.uniform(5, 95));
    p.y.push_back(rng.uniform(5, 95));
  }
  for (int i = 0; i < 2; ++i) {
    PlaceNode nd;
    nd.w = 2;
    nd.h = 2;
    nd.fixed = true;
    p.nodes.push_back(nd);
    p.x.push_back(i == 0 ? 1.0 : 99.0);
    p.y.push_back(i == 0 ? 1.0 : 99.0);
  }
  p.inflate.assign(p.nodes.size(), 1.0);
  for (int j = 0; j < m; ++j) {
    PlaceNet net;
    net.pin_begin = static_cast<int>(p.pins.size());
    const int deg = 2 + static_cast<int>(rng.below(4));
    for (int k = 0; k < deg; ++k) {
      PlacePin pin;
      pin.node = static_cast<int>(rng.below(static_cast<std::uint64_t>(n + 2)));
      pin.ox = rng.uniform(-1, 1);
      pin.oy = rng.uniform(-1, 1);
      p.pins.push_back(pin);
    }
    net.pin_end = static_cast<int>(p.pins.size());
    p.nets.push_back(net);
  }
  p.validate();
  return p;
}

TEST(PlaceProblem, MakeFromDesignRoundTrip) {
  Logger::set_level(LogLevel::Warn);
  const Design d = generate_benchmark(tiny_spec(3));
  PlaceProblem p = make_problem(d);
  EXPECT_EQ(p.num_nodes(), d.num_cells());
  EXPECT_EQ(p.num_nets(), d.num_nets());
  EXPECT_EQ(static_cast<int>(p.pins.size()), d.num_pins());
  EXPECT_NEAR(p.hpwl(), d.hpwl(), 1e-6 * std::max(1.0, d.hpwl()));
  EXPECT_NEAR(p.movable_area(), d.total_movable_area(), 1e-9);

  // apply_solution writes centers back (fixed nodes are skipped on both
  // sides, so only shift movable ones).
  Design d2 = generate_benchmark(tiny_spec(3));
  for (int v = 0; v < p.num_nodes(); ++v)
    if (!p.nodes[static_cast<std::size_t>(v)].fixed) p.x[static_cast<std::size_t>(v)] += 1.0;
  apply_solution(p, d2);
  PlaceProblem p2 = make_problem(d2);
  EXPECT_NEAR(p2.hpwl(), p.hpwl(), 1e-6 * std::max(1.0, p.hpwl()));
}

TEST(PlaceProblem, ClampKeepsNodesInside) {
  PlaceProblem p = random_problem(10, 5, 1);
  p.x[0] = -50;
  p.y[1] = 500;
  p.clamp_to_die();
  for (int v = 0; v < p.num_nodes(); ++v) {
    if (p.nodes[static_cast<std::size_t>(v)].fixed) continue;
    EXPECT_GE(p.x[static_cast<std::size_t>(v)],
              p.die.lx + p.nodes[static_cast<std::size_t>(v)].w / 2 - 1e-9);
    EXPECT_LE(p.x[static_cast<std::size_t>(v)],
              p.die.hx - p.nodes[static_cast<std::size_t>(v)].w / 2 + 1e-9);
  }
}

TEST(PlaceProblem, ValidateCatchesBadPin) {
  PlaceProblem p = random_problem(4, 2, 1);
  p.pins[0].node = 99;
  EXPECT_THROW(p.validate(), std::runtime_error);
}

// ---------------- wirelength models ----------------

TEST(Wirelength, LseOverestimatesWaUnderestimates) {
  const PlaceProblem p = random_problem(30, 40, 2);
  const double hp = p.hpwl();
  for (const double gamma : {0.5, 2.0, 8.0}) {
    LseWirelength lse(gamma);
    WaWirelength wa(gamma);
    EXPECT_GE(lse.value(p), hp - 1e-9) << "gamma=" << gamma;
    EXPECT_LE(wa.value(p), hp + 1e-9) << "gamma=" << gamma;
  }
}

TEST(Wirelength, ConvergeToHpwlAsGammaShrinks) {
  const PlaceProblem p = random_problem(20, 25, 3);
  const double hp = p.hpwl();
  const double lse_err_big = std::abs(LseWirelength(8.0).value(p) - hp);
  const double lse_err_small = std::abs(LseWirelength(0.25).value(p) - hp);
  EXPECT_LT(lse_err_small, lse_err_big);
  EXPECT_NEAR(LseWirelength(0.05).value(p), hp, 0.02 * hp);
  EXPECT_NEAR(WaWirelength(0.05).value(p), hp, 0.02 * hp);
}

TEST(Wirelength, WaTighterThanLse) {
  // |WA - HPWL| <= |LSE - HPWL| summed over random instances at equal γ
  // (the paper-series' theoretical claim, checked empirically).
  double wa_err = 0, lse_err = 0;
  for (int t = 0; t < 10; ++t) {
    const PlaceProblem p = random_problem(20, 30, 100 + t);
    const double hp = p.hpwl();
    wa_err += std::abs(WaWirelength(4.0).value(p) - hp);
    lse_err += std::abs(LseWirelength(4.0).value(p) - hp);
  }
  EXPECT_LT(wa_err, lse_err);
}

/// Central finite-difference check of dWL/dx for a few random coordinates.
void check_gradient(const WirelengthModel& m, PlaceProblem p, double tol) {
  std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
  m.eval(p, gx, gy);
  Rng rng(7);
  const double h = 1e-5;
  for (int t = 0; t < 12; ++t) {
    const int v = static_cast<int>(rng.below(p.nodes.size()));
    auto& x = p.x[static_cast<std::size_t>(v)];
    const double x0 = x;
    x = x0 + h;
    const double fp = m.value(p);
    x = x0 - h;
    const double fm = m.value(p);
    x = x0;
    const double fd = (fp - fm) / (2 * h);
    EXPECT_NEAR(gx[static_cast<std::size_t>(v)], fd, tol * std::max(1.0, std::abs(fd)))
        << "node " << v;
  }
}

TEST(Wirelength, LseGradientMatchesFiniteDifference) {
  check_gradient(LseWirelength(2.0), random_problem(15, 20, 4), 1e-4);
}

TEST(Wirelength, WaGradientMatchesFiniteDifference) {
  check_gradient(WaWirelength(2.0), random_problem(15, 20, 4), 1e-4);
}

TEST(Wirelength, GradientZeroSumPerNet) {
  // Translating all pins together does not change WL: per-net gradients sum
  // to ~0, hence total gradient of any model sums to ~0 when every node is
  // on some net.
  const PlaceProblem p = random_problem(10, 12, 5);
  for (const char* name : {"LSE", "WA"}) {
    const auto m = make_wirelength_model(name, 3.0);
    std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
    m->eval(p, gx, gy);
    double sx = 0, sy = 0;
    for (std::size_t i = 0; i < gx.size(); ++i) {
      sx += gx[i];
      sy += gy[i];
    }
    EXPECT_NEAR(sx, 0.0, 1e-9) << name;
    EXPECT_NEAR(sy, 0.0, 1e-9) << name;
  }
}

TEST(Wirelength, NumericalStabilityHugeCoordinates) {
  PlaceProblem p = random_problem(10, 12, 6);
  for (auto& x : p.x) x *= 1e4;  // die-like magnitudes vs tiny gamma
  p.die = {0, 0, 1e6, 100};
  LseWirelength lse(0.01);
  WaWirelength wa(0.01);
  EXPECT_TRUE(std::isfinite(lse.value(p)));
  EXPECT_TRUE(std::isfinite(wa.value(p)));
}

TEST(Wirelength, FactoryRejectsUnknown) {
  EXPECT_THROW(make_wirelength_model("bogus", 1.0), std::runtime_error);
  EXPECT_EQ(make_wirelength_model("wa", 2.0)->name(), "WA");
  EXPECT_EQ(make_wirelength_model("LSE", 2.0)->name(), "LSE");
}

// ---------------- density model ----------------

TEST(Density, AutoBinCountPowersOfTwo) {
  EXPECT_EQ(auto_bin_count(1), 8);
  EXPECT_EQ(auto_bin_count(100), 16);     // sqrt=10 -> 16
  EXPECT_EQ(auto_bin_count(10000), 128);  // sqrt=100 -> 128
  EXPECT_LE(auto_bin_count(100000000), 1024);
}

TEST(Density, UniformPlacementHasNoOverflow) {
  // Cells spread perfectly on a grid, low utilization: zero overflow.
  PlaceProblem p;
  p.die = {0, 0, 80, 80};
  for (int i = 0; i < 64; ++i) {
    PlaceNode nd;
    nd.w = 2;
    nd.h = 2;
    p.nodes.push_back(nd);
    p.x.push_back(5.0 + (i % 8) * 10.0);
    p.y.push_back(5.0 + (i / 8) * 10.0);
  }
  p.inflate.assign(p.nodes.size(), 1.0);
  DensityConfig cfg;
  cfg.nx = cfg.ny = 8;
  DensityModel dm(p, cfg);
  EXPECT_NEAR(dm.overflow(p), 0.0, 1e-12);
}

TEST(Density, StackedPlacementOverflows) {
  PlaceProblem p;
  p.die = {0, 0, 80, 80};
  for (int i = 0; i < 64; ++i) {
    PlaceNode nd;
    nd.w = 4;
    nd.h = 4;
    p.nodes.push_back(nd);
    p.x.push_back(40.0);
    p.y.push_back(40.0);
  }
  p.inflate.assign(p.nodes.size(), 1.0);
  DensityConfig cfg;
  cfg.nx = cfg.ny = 8;
  DensityModel dm(p, cfg);
  // 64*16 = 1024 area piled onto the 4 central bins (4x100 capacity):
  // overflow = (1024 - 400) / 1024 ≈ 0.61.
  EXPECT_GT(dm.overflow(p), 0.55);
  std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
  EXPECT_GT(dm.eval(p, gx, gy), 0.0);
}

TEST(Density, FixedObstaclesReduceCapacity) {
  PlaceProblem p;
  p.die = {0, 0, 80, 80};
  PlaceNode blk;
  blk.w = 40;
  blk.h = 80;
  blk.fixed = true;
  p.nodes.push_back(blk);
  p.x.push_back(20);  // covers left half entirely
  p.y.push_back(40);
  p.inflate.assign(1, 1.0);
  DensityConfig cfg;
  cfg.nx = cfg.ny = 8;
  DensityModel dm(p, cfg);
  EXPECT_NEAR(dm.capacity()(0, 0), 0.0, 1e-9);
  EXPECT_NEAR(dm.capacity()(7, 7), dm.grid().bin_area(), 1e-9);
}

TEST(Density, CapacityScaleApplies) {
  PlaceProblem p = random_problem(10, 0, 8);
  DensityConfig cfg;
  cfg.nx = cfg.ny = 8;
  DensityModel dm(p, cfg);
  const double before = dm.capacity()(3, 3);
  Grid2D<double> scale(8, 8, 1.0);
  scale(3, 3) = 0.25;
  dm.apply_capacity_scale(scale);
  EXPECT_NEAR(dm.capacity()(3, 3), 0.25 * before, 1e-9);
}

TEST(Density, PenaltyFallsWhenClusterSplits) {
  // Fifty 4x4 cells piled at the center clearly exceed the smoothed bin
  // capacity; splitting them into two clusters must lower the penalty.
  PlaceProblem p;
  p.die = {0, 0, 40, 40};
  for (int i = 0; i < 50; ++i) {
    PlaceNode nd;
    nd.w = 4;
    nd.h = 4;
    p.nodes.push_back(nd);
    p.x.push_back(20);
    p.y.push_back(20);
  }
  p.inflate.assign(p.nodes.size(), 1.0);
  DensityConfig cfg;
  cfg.nx = cfg.ny = 8;
  DensityModel dm(p, cfg);
  std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
  const double pen0 = dm.eval(p, gx, gy);
  EXPECT_GT(pen0, 0.0);
  for (int i = 0; i < 50; ++i) p.x[static_cast<std::size_t>(i)] = i < 25 ? 10.0 : 30.0;
  std::fill(gx.begin(), gx.end(), 0.0);
  std::fill(gy.begin(), gy.end(), 0.0);
  const double pen1 = dm.eval(p, gx, gy);
  EXPECT_LT(pen1, pen0);
}

TEST(Density, GradientMatchesFiniteDifference) {
  PlaceProblem p = random_problem(12, 0, 9);
  DensityConfig cfg;
  cfg.nx = cfg.ny = 16;
  DensityModel dm(p, cfg);
  std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
  dm.eval(p, gx, gy);
  const double h = 1e-5;
  Rng rng(4);
  for (int t = 0; t < 8; ++t) {
    const int v = static_cast<int>(rng.below(12));
    auto& x = p.x[static_cast<std::size_t>(v)];
    const double x0 = x;
    std::vector<double> dummy1(p.nodes.size()), dummy2(p.nodes.size());
    x = x0 + h;
    std::fill(dummy1.begin(), dummy1.end(), 0.0);
    std::fill(dummy2.begin(), dummy2.end(), 0.0);
    const double fp = dm.eval(p, dummy1, dummy2);
    x = x0 - h;
    std::fill(dummy1.begin(), dummy1.end(), 0.0);
    std::fill(dummy2.begin(), dummy2.end(), 0.0);
    const double fm = dm.eval(p, dummy1, dummy2);
    x = x0;
    const double fd = (fp - fm) / (2 * h);
    // The per-node normalization c_v is treated as a constant in the
    // analytic gradient (standard), so allow a few % slack.
    EXPECT_NEAR(gx[static_cast<std::size_t>(v)], fd,
                0.05 * std::max(1.0, std::abs(fd)) + 1e-6)
        << "node " << v;
  }
}

TEST(Density, InflationIncreasesOverflow) {
  PlaceProblem p = random_problem(40, 0, 10);
  DensityConfig cfg;
  cfg.nx = cfg.ny = 8;
  DensityModel dm(p, cfg);
  const double base = dm.overflow(p);
  for (auto& f : p.inflate) f = 2.0;
  EXPECT_GE(dm.overflow(p), base);
}

// ---------------- objective ----------------

TEST(Objective, PackUnpackRoundTrip) {
  PlaceProblem p = random_problem(9, 10, 11);
  WaWirelength wl(2.0);
  DensityConfig cfg;
  cfg.nx = cfg.ny = 8;
  DensityModel dm(p, cfg);
  PlacementObjective obj(p, wl, dm);
  EXPECT_EQ(obj.dim(), 18);  // 9 movable nodes (2 fixed excluded)
  auto z = obj.pack();
  z[0] += 3.0;
  obj.unpack(z);
  EXPECT_NEAR(p.x[static_cast<std::size_t>(obj.movable()[0])], z[0], 1e-12);
}

TEST(Objective, LambdaZeroIsPureWirelength) {
  PlaceProblem p = random_problem(9, 10, 12);
  WaWirelength wl(2.0);
  DensityConfig cfg;
  cfg.nx = cfg.ny = 8;
  DensityModel dm(p, cfg);
  PlacementObjective obj(p, wl, dm);
  auto z = obj.pack();
  std::vector<double> g(z.size());
  const double f = obj.eval(z, g);
  EXPECT_NEAR(f, wl.value(p), 1e-9);
}

TEST(Objective, BalancedLambdaEquatesGradientNorms) {
  PlaceProblem p = random_problem(30, 40, 13);
  WaWirelength wl(2.0);
  DensityConfig cfg;
  cfg.nx = cfg.ny = 8;
  DensityModel dm(p, cfg);
  PlacementObjective obj(p, wl, dm);
  const double lam = obj.balanced_lambda();
  EXPECT_GT(lam, 0.0);
  EXPECT_TRUE(std::isfinite(lam));
}

/// f(z) and ∇f(z) the way the two models compute them alone: z written by
/// a throwaway objective (the same clamp), fresh models, WaWirelength::eval
/// and DensityModel::eval into zeroed arrays, then the objective's combine
/// grad = ∂WL + λ·∂N over the movable nodes.
double reference_eval(const PlaceProblem& start, double gamma, double lambda,
                      const std::vector<double>& z, std::vector<double>& grad) {
  PlaceProblem p = start;
  WaWirelength wl(gamma);
  DensityModel dm(p, DensityConfig{});
  PlacementObjective writer(p, wl, dm);
  writer.unpack(z);
  const std::size_t n = p.nodes.size();
  std::vector<double> gx(n, 0.0), gy(n, 0.0), dx(n, 0.0), dy(n, 0.0);
  const double w = wl.eval(p, gx, gy);
  const double d = dm.eval(p, dx, dy);
  const std::vector<int>& mv = writer.movable();
  const std::size_t m = mv.size();
  grad.assign(2 * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const auto v = static_cast<std::size_t>(mv[i]);
    grad[i] = gx[v] + lambda * dx[v];
    grad[m + i] = gy[v] + lambda * dy[v];
  }
  return w + lambda * d;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Objective, CoScheduledPassesMatchTheModelsBitForBit) {
  // value() runs the wirelength net pass and density pass 1 as one pool
  // job, gradient() the wirelength gather and density pass 2 as another;
  // both must keep the bits of the two models evaluated on their own. A
  // rejected line-search trial (value at z1, then value at z2) must leave
  // gradient() with the bits of a fresh evaluation at z2.
  Logger::set_level(LogLevel::Warn);
  const Design d = generate_benchmark(medium_spec(5));
  PlaceProblem start = make_problem(d);
  Rng rng(17);
  for (std::size_t v = 0; v < start.nodes.size(); ++v)
    if (!start.nodes[v].fixed) {
      start.x[v] = rng.uniform(start.die.lx, start.die.hx);
      start.y[v] = rng.uniform(start.die.ly, start.die.hy);
    }
  const double step = (start.die.hx - start.die.lx) / 64;
  const double gamma = step;
  for (const auto& [level, threads] : {std::pair{"off", 1}, std::pair{"off", 4},
                                        std::pair{"auto", 1}, std::pair{"auto", 4}}) {
    simd::set_from_string(level);
    parallel::set_num_threads(threads);
    PlaceProblem p = start;
    WaWirelength wl(gamma);
    DensityModel dm(p, DensityConfig{});
    PlacementObjective obj(p, wl, dm);
    obj.set_lambda(obj.balanced_lambda());
    ASSERT_GT(obj.lambda(), 0.0);
    const std::vector<double> z1 = obj.pack();
    std::vector<double> z2 = z1;
    for (double& x : z2) x += rng.uniform(-step, step);

    std::vector<double> want(z1.size()), got(z1.size());
    const double f1 = reference_eval(start, gamma, obj.lambda(), z1, want);
    const parallel::ThreadPool& pool = parallel::ThreadPool::instance();
    const std::int64_t r0 = pool.regions_run();
    const double g1 = obj.value(z1);
    const std::int64_t r1 = pool.regions_run();
    obj.gradient(got);
    const std::int64_t r2 = pool.regions_run();
    EXPECT_EQ(std::memcmp(&f1, &g1, sizeof f1), 0) << level << " t=" << threads;
    EXPECT_TRUE(same_bits(got, want)) << level << " t=" << threads;
    // One value: unpack, the [splat ∪ nets] job, the bin reduce. One
    // gradient: the [pass 2 ∪ gather] job, the combine.
    EXPECT_EQ(r1 - r0, 3) << level << " t=" << threads;
    EXPECT_EQ(r2 - r1, 2) << level << " t=" << threads;

    // A rejected trial at z1 (+1 in x), then the accepted z2.
    std::vector<double> z_rej = z1;
    for (double& x : z_rej) x += 1.0;
    obj.value(z_rej);
    const double g2 = obj.value(z2);
    obj.gradient(got);
    const double f2 = reference_eval(start, gamma, obj.lambda(), z2, want);
    EXPECT_EQ(std::memcmp(&f2, &g2, sizeof f2), 0) << level << " t=" << threads;
    EXPECT_TRUE(same_bits(got, want)) << level << " t=" << threads;
  }
  simd::set_from_string("auto");
  parallel::set_num_threads(1);
}

}  // namespace
}  // namespace rp
