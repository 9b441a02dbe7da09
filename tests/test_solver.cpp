// Nonlinear CG solver: convergence on standard test functions, trust-radius
// semantics, and degenerate inputs; plus a bit pin on a whole global
// placement, the solver's main client.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <latch>
#include <thread>

#include "core/global_placer.hpp"
#include "gen/generator.hpp"
#include "solver/cg.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace rp {
namespace {

TEST(Cg, MinimizesSphere) {
  // f = Σ (x_i - i)²
  std::vector<double> z(8, 0.0);
  CgOptions opt;
  opt.max_iters = 200;
  opt.trust_radius = 0.5;
  const auto res = minimize_cg(
      [](std::span<const double> x, std::span<double> g) {
        double f = 0;
        for (std::size_t i = 0; i < x.size(); ++i) {
          const double d = x[i] - static_cast<double>(i);
          f += d * d;
          g[i] = 2 * d;
        }
        return f;
      },
      z, opt);
  EXPECT_LT(res.f, 1e-6);
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_NEAR(z[i], static_cast<double>(i), 1e-3);
}

TEST(Cg, MinimizesIllConditionedQuadratic) {
  // f = x² + 100 y²
  std::vector<double> z{10.0, 10.0};
  CgOptions opt;
  opt.max_iters = 500;
  opt.trust_radius = 0.5;
  opt.f_rel_tol = 1e-14;
  const auto res = minimize_cg(
      [](std::span<const double> x, std::span<double> g) {
        g[0] = 2 * x[0];
        g[1] = 200 * x[1];
        return x[0] * x[0] + 100 * x[1] * x[1];
      },
      z, opt);
  EXPECT_LT(res.f, 1e-3);
}

TEST(Cg, RosenbrockMakesProgress) {
  std::vector<double> z{-1.2, 1.0};
  CgOptions opt;
  opt.max_iters = 2000;
  opt.trust_radius = 0.05;
  opt.f_rel_tol = 1e-16;
  const auto rosen = [](std::span<const double> x, std::span<double> g) {
    const double a = 1 - x[0];
    const double b = x[1] - x[0] * x[0];
    g[0] = -2 * a - 400 * x[0] * b;
    g[1] = 200 * b;
    return a * a + 100 * b * b;
  };
  const auto res = minimize_cg(rosen, z, opt);
  EXPECT_LT(res.f, 0.1);  // hard function; big reduction from 24.2 suffices
}

TEST(Cg, RespectsTrustRadiusPerStep) {
  // With a single gradient evaluation recorded, the first step must move no
  // coordinate more than trust_radius.
  std::vector<double> z{0.0, 0.0};
  std::vector<std::vector<double>> seen;
  CgOptions opt;
  opt.max_iters = 1;
  opt.trust_radius = 0.25;
  minimize_cg(
      [&](std::span<const double> x, std::span<double> g) {
        seen.emplace_back(x.begin(), x.end());
        g[0] = -8;  // pulls +x hard
        g[1] = -1;
        return -(8 * x[0] + x[1]);
      },
      z, opt);
  for (const auto& x : seen) {
    EXPECT_LE(std::abs(x[0]), 0.25 + 1e-12);
    EXPECT_LE(std::abs(x[1]), 0.25 + 1e-12);
  }
}

TEST(Cg, ConvergedFlagOnFlatFunction) {
  std::vector<double> z{1.0, 2.0};
  CgOptions opt;
  opt.max_iters = 10;
  const auto res = minimize_cg(
      [](std::span<const double>, std::span<double> g) {
        g[0] = g[1] = 0.0;
        return 42.0;
      },
      z, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_DOUBLE_EQ(res.f, 42.0);
  EXPECT_DOUBLE_EQ(z[0], 1.0);
}

TEST(Cg, StopsOnSmallRelativeChange) {
  std::vector<double> z{100.0};
  CgOptions opt;
  opt.max_iters = 10000;
  opt.trust_radius = 1e-9;  // tiny steps: relative-change stop must fire
  const auto res = minimize_cg(
      [](std::span<const double> x, std::span<double> g) {
        g[0] = 2 * x[0];
        return x[0] * x[0];
      },
      z, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iters, 100);
}

TEST(Cg, BacktracksOnOvershoot) {
  // Narrow valley: full trust step overshoots; solver must still descend.
  std::vector<double> z{3.0};
  CgOptions opt;
  opt.max_iters = 60;
  opt.trust_radius = 2.9;  // deliberately coarse
  const auto res = minimize_cg(
      [](std::span<const double> x, std::span<double> g) {
        g[0] = 4 * x[0] * x[0] * x[0];
        return x[0] * x[0] * x[0] * x[0];
      },
      z, opt);
  EXPECT_LT(res.f, 81.0);  // f(3)=81; must have improved
  EXPECT_LT(std::abs(z[0]), 3.0);
}

TEST(Cg, OneCallObjectiveServesConcurrentSolves) {
  // A one-call objective converted to CgObjective holds no state: two
  // solves sharing one const object from two threads each get the result
  // of solving alone. (Each thread binds its own ObsContext, as concurrent
  // flows do, for the solver's counters.)
  parallel::set_num_threads(1);
  const CgObjective f = [](std::span<const double> x, std::span<double> g) {
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double w = 1.0 + static_cast<double>(i % 7);
      const double d = x[i] - static_cast<double>(i % 13);
      v += w * d * d;
      g[i] = 2.0 * w * d;
    }
    return v;
  };
  CgOptions opt;
  opt.max_iters = 300;
  opt.trust_radius = 0.05;
  opt.f_rel_tol = 0.0;
  const std::vector<double> starts[2] = {std::vector<double>(4096, -3.0),
                                         std::vector<double>(4096, 5.0)};
  std::vector<double> alone[2], shared[2];
  CgResult alone_res[2], shared_res[2];
  for (int s = 0; s < 2; ++s) {
    alone[s] = starts[s];
    alone_res[s] = minimize_cg(f, alone[s], opt);
  }
  for (int round = 0; round < 5; ++round) {
    for (int s = 0; s < 2; ++s) shared[s] = starts[s];
    std::latch go(2);
    const auto solve = [&](int s) {
      obs::ObsContext ctx;
      obs::ScopedBind bind(&ctx);
      go.arrive_and_wait();
      shared_res[s] = minimize_cg(f, shared[s], opt);
    };
    std::thread other(solve, 1);
    solve(0);
    other.join();
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(shared_res[s].iters, alone_res[s].iters) << "solve " << s;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(shared_res[s].f),
                std::bit_cast<std::uint64_t>(alone_res[s].f))
          << "solve " << s;
      EXPECT_TRUE(shared[s] == alone[s]) << "solve " << s;
    }
  }
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

TEST(Cg, GlobalPlacerBitsPinned) {
  // A whole routability-driven global placement: every level, the
  // inflation rounds and their reheats, and a line search that backtracks.
  // The constants are the bits of the full-gradient-per-trial solver with
  // the per-net wirelength kernel; a solver or kernel change must
  // reproduce the final cell centres, every trace point and the iteration
  // count, at every dispatch level and thread count.
  Logger::set_level(LogLevel::Warn);
  const Design start = generate_benchmark(small_spec(42));
  for (const auto& [level, threads] : {std::pair{"off", 1}, std::pair{"auto", 4}}) {
    simd::set_from_string(level);
    parallel::set_num_threads(threads);
    obs::ObsContext ctx;
    obs::ScopedBind bind(&ctx);
    Design d = start;
    GlobalPlacer gp;
    const GpStats st = gp.run(d);
    BitHash cells, trace;
    for (CellId c = 0; c < d.num_cells(); ++c) {
      const Point ctr = d.cell_center(c);
      cells.add(ctr.x);
      cells.add(ctr.y);
    }
    for (const GpTracePoint& tp : gp.trace()) {
      trace.add(tp.hpwl);
      trace.add(tp.overflow);
      trace.add(tp.lambda);
    }
    const telemetry::Registry& reg = ctx.registry();
    const std::int64_t iters = reg.counter_value("solver.cg_iters");
    // Every CG call evaluates once up front and once per trial step, and
    // each level's balanced λ costs one more wirelength evaluation; every
    // evaluation beyond those and one per iteration is a rejected trial.
    const std::int64_t rejected = reg.counter_value("parallel.wl_evals") -
                                  reg.counter_value("solver.cg_calls") - iters - st.levels;
    EXPECT_EQ(cells.h, 0xc329e28a244c8be8ULL) << level << " t=" << threads;
    EXPECT_EQ(trace.h, 0xad95238c7e807d27ULL) << level << " t=" << threads;
    EXPECT_EQ(iters, 922) << level << " t=" << threads;
    EXPECT_GT(rejected, 0) << level << " t=" << threads;
    EXPECT_GT(st.inflation_rounds, 0) << level << " t=" << threads;
  }
  simd::set_from_string("auto");
  parallel::set_num_threads(1);
}

TEST(Cg, MultilevelGlobalPlacerBitsPinned) {
  // The same placement from a level stack: every level after the coarsest
  // starts from the projection of the one above it, with no wirelength-only
  // warm start. The constants are the bits the placer produced while it
  // kept every level alive until the end.
  Logger::set_level(LogLevel::Warn);
  Design d = generate_benchmark(small_spec(42));
  GpOptions opt;
  opt.cluster.target_nodes = 400;
  GlobalPlacer gp(opt);
  const GpStats st = gp.run(d);
  BitHash cells, trace;
  for (CellId c = 0; c < d.num_cells(); ++c) {
    const Point ctr = d.cell_center(c);
    cells.add(ctr.x);
    cells.add(ctr.y);
  }
  for (const GpTracePoint& tp : gp.trace()) {
    trace.add(tp.hpwl);
    trace.add(tp.overflow);
    trace.add(tp.lambda);
  }
  EXPECT_EQ(st.levels, 4);
  EXPECT_EQ(cells.h, 0x4b9726f7407ca1feULL);
  EXPECT_EQ(trace.h, 0x7df74d5395b3f57fULL);
}

}  // namespace
}  // namespace rp
