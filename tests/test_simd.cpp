// SIMD dispatch + incremental evaluation identity tests.
//
// The contracts under test are bitwise, not approximate:
//  * every kernel in the simd::Ops table produces the same bits at every
//    dispatch level (scalar vs AVX2/NEON when the host has them);
//  * wirelength/density evaluations are identical for RP_SIMD off vs auto,
//    at any thread count;
//  * the per-node density kernels reproduce the per-row reference
//    evaluation bit for bit on non-square grids, windows clipped at the die
//    edges and macros many bins wide, and the density bits stay pinned to
//    the reference values;
//  * IncrementalEval's trial_move/trial_swap match mutate-and-measure
//    exactly, and a long committed-move session never drifts from
//    Design::hpwl();
//  * the batched chunk kernel reproduces the per-net reference evaluation
//    bit for bit on every net shape it special-cases, and the wirelength
//    bits stay pinned to the reference values;
//  * the per-thread wirelength scratch survives re-use on a problem with a
//    larger max net degree and larger chunks (regression for the
//    stale-capacity bug).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "gen/generator.hpp"
#include "model/density.hpp"
#include "model/incremental.hpp"
#include "model/problem.hpp"
#include "model/wirelength.hpp"
#include "util/logger.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/simd_detail.hpp"

namespace rp {
namespace {

std::vector<double> random_vec(std::size_t n, Rng& rng, double lo, double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// Restore level + thread count after each test regardless of outcome.
struct DispatchGuard {
  ~DispatchGuard() {
    simd::set_from_string("auto");
    parallel::set_num_threads(1);
  }
};

// ------------------------------------------------------------ ops table

TEST(SimdOps, VectorTableMatchesScalarBitwise) {
  DispatchGuard guard;
  const simd::Ops& sc = simd::scalar_ops();
  const simd::Ops* tables[] = {simd::avx2_ops(), simd::neon_ops()};
  Rng rng(7);

  bool any = false;
  for (const simd::Ops* vt : tables) {
    if (vt == nullptr) continue;
    any = true;
    // Sizes straddling the 4-lane block boundary and the tail.
    for (const std::size_t n : {1u, 3u, 4u, 5u, 8u, 31u, 64u, 1000u, 1023u}) {
      const auto x = random_vec(n, rng, -700.0, 0.0);
      const auto y = random_vec(n, rng, -50.0, 50.0);
      std::vector<double> a(n), b(n);

      EXPECT_EQ(sc.sum(x.data(), n), vt->sum(x.data(), n));
      EXPECT_EQ(sc.dot(x.data(), y.data(), n), vt->dot(x.data(), y.data(), n));
      EXPECT_EQ(sc.abs_max(y.data(), n), vt->abs_max(y.data(), n));
      EXPECT_EQ(sc.pr_num(x.data(), y.data(), n),
                vt->pr_num(x.data(), y.data(), n));
      double mn1 = 0, mx1 = 0, mn2 = 0, mx2 = 0;
      sc.minmax(y.data(), n, &mn1, &mx1);
      vt->minmax(y.data(), n, &mn2, &mx2);
      EXPECT_EQ(mn1, mn2);
      EXPECT_EQ(mx1, mx2);

      sc.affine(y.data(), n, 1.5, -0.25, a.data());
      vt->affine(y.data(), n, 1.5, -0.25, b.data());
      EXPECT_EQ(a, b);
      sc.exp_nonpos(x.data(), n, a.data());
      vt->exp_nonpos(x.data(), n, b.data());
      EXPECT_EQ(a, b);
      sc.neg(y.data(), n, a.data());
      vt->neg(y.data(), n, b.data());
      EXPECT_EQ(a, b);

      a = y;
      b = y;
      sc.axpy(0.75, x.data(), n, a.data());
      vt->axpy(0.75, x.data(), n, b.data());
      EXPECT_EQ(a, b);
      sc.axpy_out(y.data(), -2.0, x.data(), n, a.data());
      vt->axpy_out(y.data(), -2.0, x.data(), n, b.data());
      EXPECT_EQ(a, b);
      a = y;
      b = y;
      sc.cg_dir(x.data(), 0.5, a.data(), n);
      vt->cg_dir(x.data(), 0.5, b.data(), n);
      EXPECT_EQ(a, b);

      const auto ep = random_vec(n, rng, 0.0, 1.0);
      const auto em = random_vec(n, rng, 0.0, 1.0);
      sc.lse_grad(ep.data(), em.data(), n, 0.3, 0.7, a.data());
      vt->lse_grad(ep.data(), em.data(), n, 0.3, 0.7, b.data());
      EXPECT_EQ(a, b);
      sc.wa_grad(y.data(), ep.data(), em.data(), n, 40.0, -40.0, 0.25, 0.3,
                 0.7, a.data());
      vt->wa_grad(y.data(), ep.data(), em.data(), n, 40.0, -40.0, 0.25, 0.3,
                  0.7, b.data());
      EXPECT_EQ(a, b);
    }
  }
  if (!any) GTEST_SKIP() << "host has no vector unit compiled in";
}

/// Bits of the three results of a per-node density kernel call: pass 1's
/// returned cv and the grid it wrote, pass 2's two gradient sums.
struct BellKernelBits {
  std::uint64_t cv = 0, gx = 0, gy = 0;
  std::vector<std::uint64_t> grid;
  bool operator==(const BellKernelBits&) const = default;
};

BellKernelBits run_bell_kernels(const simd::Ops& ops, const simd::BellWindow& w,
                                double area, std::vector<double> grid,
                                const std::vector<double>& resid,
                                std::size_t stride) {
  std::vector<double> scratch(2 * (w.rw + w.rh));
  BellKernelBits r;
  r.cv = std::bit_cast<std::uint64_t>(
      ops.bell_splat(w, area, grid.data(), stride, scratch.data()));
  for (const double v : grid) r.grid.push_back(std::bit_cast<std::uint64_t>(v));
  double gx = 0.0, gy = 0.0;
  ops.bell_gather(w, 0.75, resid.data(), stride, scratch.data(), &gx, &gy);
  r.gx = std::bit_cast<std::uint64_t>(gx);
  r.gy = std::bit_cast<std::uint64_t>(gy);
  return r;
}

/// A node of width w and height h centred at (cx, cy) in a window of rw×rh
/// unit-pitch bins (centres at i + 0.5) — the sample points the density
/// model feeds the kernels, with rows beyond the support (py == 0) at both
/// ends once the window is wider than the bell.
simd::BellWindow unit_window(double w, double h, double cx, double cy,
                             std::size_t rw, std::size_t rh,
                             const std::vector<double>& yc) {
  const auto shape = [](double len) {
    const double d1 = len / 2 + 1.0, d2 = len / 2 + 2.0;
    return simd::BellShape{d1, d2, 1.0 / (d1 * d2), 1.0 / (1.0 * d2)};
  };
  return {shape(w), shape(h), cx - 0.5, -1.0, rw, cy, yc.data(), rh};
}

TEST(SimdOps, DensityKernelsMatchScalarBitwise) {
  const simd::Ops& sc = simd::scalar_ops();
  const simd::Ops* tables[] = {simd::avx2_ops(), simd::neon_ops()};
  Rng rng(11);
  bool any = false;
  for (const simd::Ops* vt : tables) {
    if (vt == nullptr) continue;
    any = true;
    // Every window shape a standard cell or a small macro produces, plus
    // the old row kernels' sizes along each axis.
    std::vector<std::pair<std::size_t, std::size_t>> shapes;
    for (std::size_t rw = 1; rw <= 13; ++rw)
      for (std::size_t rh = 1; rh <= 13; ++rh) shapes.emplace_back(rw, rh);
    for (const std::size_t n : {31u, 64u, 1000u, 1023u}) {
      shapes.emplace_back(n, 3);
      shapes.emplace_back(5, n);
    }
    for (const auto& [rw, rh] : shapes) {
      const std::size_t stride = rw + 3;
      std::vector<double> yc(rh);
      for (std::size_t k = 0; k < rh; ++k) yc[k] = static_cast<double>(k) + 0.5;
      const auto grid = random_vec(stride * rh, rng, 0.0, 4.0);
      const auto resid = random_vec(stride * rh, rng, 0.0, 2.0);
      const double w = rng.uniform(0.0, static_cast<double>(rw));
      const double h = rng.uniform(0.0, static_cast<double>(rh));
      const double cx = rng.uniform(0.0, static_cast<double>(rw));
      const double cy = rng.uniform(0.0, static_cast<double>(rh));
      const simd::BellWindow windows[] = {
          unit_window(w, h, cx, cy, rw, rh, yc),
          // cy exactly d2 away from row 0's centre: py[0] is the support
          // edge, exactly 0 inside the d1 < |d| <= d2 branch.
          unit_window(w, 2.0, cx, yc[0] + 3.0, rw, rh, yc),
          // Every x sample beyond the support: s == 0, nothing written.
          unit_window(w, h, cx + static_cast<double>(rw) + w + 3.0, cy, rw, rh, yc),
      };
      for (const simd::BellWindow& win : windows)
        EXPECT_EQ(run_bell_kernels(sc, win, 2.5, grid, resid, stride),
                  run_bell_kernels(*vt, win, 2.5, grid, resid, stride))
            << simd::level_name(vt->level) << " rw=" << rw << " rh=" << rh
            << " cy=" << win.cy << " dx0=" << win.dx0;
    }
    // The off-support window leaves the grid untouched and returns 0.
    std::vector<double> yc{0.5, 1.5, 2.5};
    const auto grid = random_vec(12, rng, 0.0, 1.0);
    const BellKernelBits off = run_bell_kernels(
        *vt, unit_window(1.0, 1.0, 20.0, 1.5, 4, 3, yc), 1.0, grid, grid, 4);
    EXPECT_EQ(off.cv, 0u);
    for (std::size_t i = 0; i < grid.size(); ++i)
      EXPECT_EQ(off.grid[i], std::bit_cast<std::uint64_t>(grid[i]));
  }
  if (!any) GTEST_SKIP() << "host has no vector unit compiled in";
}

// ------------------------------------------- model identity across levels

TEST(SimdModels, WirelengthAndDensityIdenticalAcrossLevelsAndThreads) {
  DispatchGuard guard;
  Logger::set_level(LogLevel::Warn);
  const Design d = generate_benchmark(small_spec(42));
  PlaceProblem p = make_problem(d);
  DensityConfig cfg;

  struct Result {
    double lse, wa, dens;
    std::vector<double> g;
  };
  auto run = [&](const char* level, int threads) {
    simd::set_from_string(level);
    parallel::set_num_threads(threads);
    const auto lse = make_wirelength_model("LSE", 4.0);
    const auto wa = make_wirelength_model("WA", 4.0);
    DensityModel dm(p, cfg);
    Result r;
    std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
    r.lse = lse->eval(p, gx, gy);
    r.g = gx;
    r.g.insert(r.g.end(), gy.begin(), gy.end());
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    r.wa = wa->eval(p, gx, gy);
    r.g.insert(r.g.end(), gx.begin(), gx.end());
    r.g.insert(r.g.end(), gy.begin(), gy.end());
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    r.dens = dm.eval(p, gx, gy);
    r.g.insert(r.g.end(), gx.begin(), gx.end());
    r.g.insert(r.g.end(), gy.begin(), gy.end());
    return r;
  };

  const Result ref = run("off", 1);
  EXPECT_TRUE(std::isfinite(ref.lse));
  EXPECT_TRUE(std::isfinite(ref.wa));
  for (const char* level : {"off", "auto"}) {
    for (const int threads : {1, 2, 4}) {
      const Result r = run(level, threads);
      EXPECT_EQ(ref.lse, r.lse) << level << " t=" << threads;
      EXPECT_EQ(ref.wa, r.wa) << level << " t=" << threads;
      EXPECT_EQ(ref.dens, r.dens) << level << " t=" << threads;
      EXPECT_EQ(ref.g, r.g) << level << " t=" << threads;
    }
  }
}

// ---------------------------------------- pinned wirelength results

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

/// Hash of value(), eval() and the accumulated gradient of one model.
std::uint64_t wirelength_hash(const WirelengthModel& m, const PlaceProblem& p) {
  BitHash hash;
  hash.add(m.value(p));
  std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
  hash.add(m.eval(p, gx, gy));
  for (const double v : gx) hash.add(v);
  for (const double v : gy) hash.add(v);
  return hash.h;
}

TEST(SimdModels, WirelengthBitsPinned) {
  // The constants are the bits the per-net evaluation (one dispatched
  // simd::ops() call per net and array, as reference_axis below does it)
  // produced: a kernel rewrite must reproduce every value and gradient, at
  // every dispatch level and thread count.
  DispatchGuard guard;
  Logger::set_level(LogLevel::Warn);
  const Design d = generate_benchmark(small_spec(42));
  const PlaceProblem p = make_problem(d);
  for (const char* level : {"off", "auto"}) {
    for (const int threads : {1, 4}) {
      simd::set_from_string(level);
      parallel::set_num_threads(threads);
      EXPECT_EQ(wirelength_hash(*make_wirelength_model("WA", 4.0), p), 0xddb9cd5af9bc5a4dULL)
          << level << " t=" << threads;
      EXPECT_EQ(wirelength_hash(*make_wirelength_model("LSE", 4.0), p), 0x7d95d82099e614f7ULL)
          << level << " t=" << threads;
    }
  }
}

// ------------------------------------------- pinned density results

/// Hash of one density eval: the penalty, then the accumulated gradient.
std::uint64_t density_hash(DensityModel& dm, const PlaceProblem& p) {
  BitHash hash;
  std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
  hash.add(dm.eval(p, gx, gy));
  for (const double v : gx) hash.add(v);
  for (const double v : gy) hash.add(v);
  return hash.h;
}

/// Hash of the exact rasterized density grid and the overflow built on it.
std::uint64_t raster_hash(const DensityModel& dm, const PlaceProblem& p) {
  BitHash hash;
  const Grid2D<double> g = dm.rasterized_density(p);
  for (const double v : g.data()) hash.add(v);
  hash.add(dm.overflow(p));
  return hash.h;
}

/// The start placement with its movable nodes pulled into a clump around
/// the die centre (so bins overflow and residuals are non-zero), every
/// node's inflation != 1, and the first movable node pushed off the die
/// so its bell misses every bin of its window (the s <= 0 path).
PlaceProblem clumped_problem(const PlaceProblem& start) {
  PlaceProblem p = start;
  const double mx = (p.die.lx + p.die.hx) / 2, my = (p.die.ly + p.die.hy) / 2;
  bool pushed = false;
  for (std::size_t v = 0; v < p.nodes.size(); ++v) {
    if (p.nodes[v].fixed) continue;
    p.x[v] = mx + (p.x[v] - mx) * 0.3;
    p.y[v] = my + (p.y[v] - my) * 0.3;
    p.inflate[v] = 1.0 + 0.25 * static_cast<double>(v % 4);
    if (!pushed) {
      p.x[v] = p.die.hx + 3 * p.die.width();
      pushed = true;
    }
  }
  return p;
}

/// Capacity scale derating every third bin diagonal to half.
Grid2D<double> striped_scale(const DensityModel& dm) {
  Grid2D<double> scale(dm.grid().nx(), dm.grid().ny(), 1.0);
  for (int iy = 0; iy < scale.ny(); ++iy)
    for (int ix = 0; ix < scale.nx(); ++ix)
      if ((ix + iy) % 3 == 0) scale(ix, iy) = 0.5;
  return scale;
}

TEST(SimdModels, DensityBitsPinned) {
  // The constants are the bits the per-row evaluation (one dispatched axpy
  // per bin row in pass 1, two dispatched dots per row in pass 2, as
  // reference_density below replays it) produced: a kernel rewrite must
  // reproduce the penalty, every gradient and the rasterized grid, at every
  // dispatch level and thread count.
  DispatchGuard guard;
  Logger::set_level(LogLevel::Warn);
  const Design d = generate_benchmark(small_spec(42));
  const PlaceProblem start = make_problem(d);
  const PlaceProblem clumped = clumped_problem(start);
  for (const char* level : {"off", "auto"}) {
    for (const int threads : {1, 4}) {
      simd::set_from_string(level);
      parallel::set_num_threads(threads);
      DensityModel dm(start, DensityConfig{});
      EXPECT_EQ(density_hash(dm, start), 0x642c92803a7fd681ULL) << level << " t=" << threads;
      EXPECT_EQ(raster_hash(dm, start), 0xb70397e4953ac279ULL) << level << " t=" << threads;
      dm.apply_capacity_scale(striped_scale(dm));
      EXPECT_EQ(density_hash(dm, clumped), 0x194a079d35f5518eULL) << level << " t=" << threads;
      EXPECT_EQ(raster_hash(dm, clumped), 0x63f17fb5a530e082ULL) << level << " t=" << threads;
    }
  }
}

// ------------------------------------------ density kernel edge cases

/// The per-row density evaluation, written out from the scalar bodies in
/// util/simd_detail.hpp: per node, the x-bell sampled into a row buffer, the
/// y-bell evaluated twice per bin row in pass 1 and once per row (value and
/// derivative) in pass 2, one axpy per row in pass 1 and two dots per row
/// in pass 2; per-bin reduction over node chunks in ascending order, then
/// residuals and a penalty summed per bin chunk. Returns the bits of the
/// penalty and of the gradient accumulated from zero.
std::vector<std::uint64_t> reference_density(const DensityModel& dm,
                                             const PlaceProblem& p) {
  using namespace simd::detail;
  const GridMap& grid = dm.grid();
  const int nx = grid.nx(), ny = grid.ny();
  const double bw = grid.bin_w(), bh = grid.bin_h();
  std::vector<double> xc(static_cast<std::size_t>(nx)), yc(static_cast<std::size_t>(ny));
  for (int ix = 0; ix < nx; ++ix) xc[static_cast<std::size_t>(ix)] = grid.bin_center(ix, 0).x;
  for (int iy = 0; iy < ny; ++iy) yc[static_cast<std::size_t>(iy)] = grid.bin_center(0, iy).y;
  struct Window {
    simd::BellShape bx, by;
    int ix0, ix1, iy0, iy1;
  };
  const auto window = [&](std::size_t uv) {
    const auto shape = [](double len, double bin) {
      const double d1 = len / 2 + bin, d2 = len / 2 + 2 * bin;
      return simd::BellShape{d1, d2, 1.0 / (d1 * d2), 1.0 / (bin * d2)};
    };
    Window w{shape(p.nodes[uv].w, bw), shape(p.nodes[uv].h, bh), 0, 0, 0, 0};
    w.ix0 = std::max(0, grid.ix_of(p.x[uv] - w.bx.d2) - 1);
    w.ix1 = std::min(nx - 1, grid.ix_of(p.x[uv] + w.bx.d2) + 1);
    w.iy0 = std::max(0, grid.iy_of(p.y[uv] - w.by.d2) - 1);
    w.iy1 = std::min(ny - 1, grid.iy_of(p.y[uv] + w.by.d2) + 1);
    return w;
  };
  const auto nn = p.nodes.size();
  std::vector<double> csum(nn, 0.0), px(static_cast<std::size_t>(nx)),
      dpx(static_cast<std::size_t>(nx));

  const parallel::ChunkPlan plan = parallel::plan_chunks(
      nn, DensityModel::kNodeGrain, DensityModel::kGridChunkCap);
  std::vector<Grid2D<double>> chunk(static_cast<std::size_t>(plan.count),
                                    Grid2D<double>(nx, ny, 0.0));
  for (int ci = 0; ci < plan.count; ++ci) {
    for (std::size_t uv = plan.begin(ci); uv < plan.end(ci); ++uv) {
      if (p.nodes[uv].fixed) continue;
      const Window w = window(uv);
      const auto rw = static_cast<std::size_t>(w.ix1 - w.ix0 + 1);
      bell_row_range(p.x[uv] - xc[static_cast<std::size_t>(w.ix0)], -bw, 0, rw,
                     w.bx.d1, w.bx.d2, w.bx.a, w.bx.b, px.data());
      const double row_sum = sum_lanes(px.data(), rw);
      const auto py_at = [&](int iy) {
        return bell_one(p.y[uv] - yc[static_cast<std::size_t>(iy)], w.by.d1,
                        w.by.d2, w.by.a, w.by.b);
      };
      double s = 0.0;
      for (int iy = w.iy0; iy <= w.iy1; ++iy)
        if (py_at(iy) != 0.0) s += py_at(iy) * row_sum;
      if (s <= 0.0) continue;
      const double cv = p.nodes[uv].area() * p.inflate[uv] / s;
      csum[uv] = cv;
      for (int iy = w.iy0; iy <= w.iy1; ++iy)
        if (py_at(iy) != 0.0)
          axpy_range(cv * py_at(iy), px.data(), 0, rw,
                     &chunk[static_cast<std::size_t>(ci)](w.ix0, iy));
    }
  }

  Grid2D<double> resid(nx, ny, 0.0);
  const parallel::ChunkPlan bin_plan =
      parallel::plan_chunks(resid.size(), DensityModel::kBinGrain);
  double penalty = 0.0;
  for (int k = 0; k < bin_plan.count; ++k) {
    double part = 0.0;
    for (std::size_t i = bin_plan.begin(k); i < bin_plan.end(k); ++i) {
      double d = 0.0;
      for (const Grid2D<double>& g : chunk) d += g.data()[i];
      const double r = std::max(0.0, d - dm.capacity().data()[i]);
      resid.data()[i] = r;
      part += r * r;
    }
    penalty += part;
  }

  std::vector<double> gx(nn, 0.0), gy(nn, 0.0);
  for (std::size_t uv = 0; uv < nn; ++uv) {
    if (p.nodes[uv].fixed || csum[uv] == 0.0) continue;
    const Window w = window(uv);
    const auto rw = static_cast<std::size_t>(w.ix1 - w.ix0 + 1);
    const double d0 = p.x[uv] - xc[static_cast<std::size_t>(w.ix0)];
    bell_row_range(d0, -bw, 0, rw, w.bx.d1, w.bx.d2, w.bx.a, w.bx.b, px.data());
    bell_deriv_row_range(d0, -bw, 0, rw, w.bx.d1, w.bx.d2, w.bx.a, w.bx.b, dpx.data());
    double dgx = 0.0, dgy = 0.0;
    for (int iy = w.iy0; iy <= w.iy1; ++iy) {
      const double dy = p.y[uv] - yc[static_cast<std::size_t>(iy)];
      const double py = bell_one(dy, w.by.d1, w.by.d2, w.by.a, w.by.b);
      const double dpy = bell_deriv_one(dy, w.by.d1, w.by.d2, w.by.a, w.by.b);
      const double* row = &resid(w.ix0, iy);
      dgx += ((2.0 * csum[uv]) * py) * dot_lanes(row, dpx.data(), rw);
      dgy += ((2.0 * csum[uv]) * dpy) * dot_lanes(row, px.data(), rw);
    }
    gx[uv] += dgx;
    gy[uv] += dgy;
  }
  std::vector<std::uint64_t> bits{std::bit_cast<std::uint64_t>(penalty)};
  for (const double v : gx) bits.push_back(std::bit_cast<std::uint64_t>(v));
  for (const double v : gy) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

/// A problem aimed at the per-node density kernels on a non-square die:
/// standard cells clumped off-centre (so many bins overflow), cells pinned
/// at all four die edges and corners (windows clipped by the grid), movable
/// macros and slabs far wider or taller than 8 bins, fixed blockages,
/// inflation != 1, and enough nodes for several pass-1 chunks.
PlaceProblem density_edge_problem() {
  Rng rng(23);
  PlaceProblem p;
  p.die = {0, 0, 1600, 900};
  const auto add = [&](double w, double h, double x, double y, bool fixed) {
    PlaceNode nd;
    nd.w = w;
    nd.h = h;
    nd.fixed = fixed;
    p.nodes.push_back(nd);
    p.x.push_back(x);
    p.y.push_back(y);
    p.inflate.push_back(fixed ? 1.0 : rng.uniform(0.8, 1.6));
  };
  for (int v = 0; v < 1400; ++v) {
    const double w = rng.uniform(2, 14), h = 9;
    switch (v % 10) {
      case 0: add(w, h, 0, rng.uniform(0, 900), false); break;     // left edge
      case 1: add(w, h, 1600, rng.uniform(0, 900), false); break;  // right edge
      case 2: add(w, h, rng.uniform(0, 1600), 0, false); break;    // bottom
      case 3: add(w, h, rng.uniform(0, 1600), 900, false); break;  // top
      default: add(w, h, rng.uniform(300, 700), rng.uniform(200, 500), false);
    }
  }
  add(40, 40, 0, 0, false);       // corners
  add(40, 40, 1600, 900, false);
  add(700, 120, 800, 450, false);  // wide macros / slabs
  add(520, 60, 400, 880, false);
  add(90, 600, 1550, 400, false);  // a tall one
  add(200, 200, 1200, 300, true);  // blockages
  add(150, 80, 300, 700, true);
  p.clamp_to_die();
  p.validate();
  return p;
}

TEST(SimdModels, DensityKernelMatchesPerRowReferenceBitwise) {
  DispatchGuard guard;
  const PlaceProblem p = density_edge_problem();
  ASSERT_GT(parallel::plan_chunks(p.nodes.size(), DensityModel::kNodeGrain,
                                  DensityModel::kGridChunkCap).count, 4);
  for (const auto& [nx, ny] : {std::pair{64, 16}, std::pair{16, 64}, std::pair{32, 32}}) {
    DensityConfig cfg;
    cfg.nx = nx;
    cfg.ny = ny;
    DensityModel dm(p, cfg);
    dm.apply_capacity_scale(striped_scale(dm));
    const std::vector<std::uint64_t> want = reference_density(dm, p);
    ASSERT_GT(std::bit_cast<double>(want[0]), 0.0) << "no bin overflows";
    for (const char* level : {"off", "auto"}) {
      for (const int threads : {1, 2, 4}) {
        simd::set_from_string(level);
        parallel::set_num_threads(threads);
        std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
        std::vector<std::uint64_t> got{std::bit_cast<std::uint64_t>(dm.eval(p, gx, gy))};
        for (const double v : gx) got.push_back(std::bit_cast<std::uint64_t>(v));
        for (const double v : gy) got.push_back(std::bit_cast<std::uint64_t>(v));
        EXPECT_EQ(want, got) << nx << "x" << ny << " " << level << " t=" << threads;
      }
    }
  }
}

// ------------------------------------------ chunk kernel edge cases

/// A problem aimed at the batched chunk kernel: every net degree it treats
/// differently (0 and 1 skip, 2-3 are all tail, 4/8 fill whole lane blocks,
/// 5/7/9 leave tails, plus one large net), non-unit weights, nets whose pins
/// all coincide (min == max on both axes), and enough nets for several
/// chunks of uneven size, so every kind of net lands on a chunk boundary.
PlaceProblem chunk_edge_problem() {
  constexpr int kDegrees[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 97};
  constexpr int kNodes = 240, kNets = 337;
  Rng rng(17);
  PlaceProblem p;
  p.die = {0, 0, 1000, 1000};
  for (int v = 0; v < kNodes; ++v) {
    PlaceNode nd;
    nd.w = 2;
    nd.h = 2;
    nd.fixed = v % 50 == 0;
    p.nodes.push_back(nd);
    p.x.push_back(rng.uniform(0, 1000));
    p.y.push_back(rng.uniform(0, 1000));
  }
  p.inflate.assign(p.nodes.size(), 1.0);
  for (int j = 0; j < kNets; ++j) {
    PlaceNet net;
    net.pin_begin = static_cast<int>(p.pins.size());
    net.weight = j % 3 == 0 ? 1.0 : rng.uniform(0.25, 4.0);
    const int deg = kDegrees[(j * 7) % 10];
    const bool coincident = j % 11 == 4;
    const auto anchor = static_cast<int>(rng.below(kNodes));
    for (int k = 0; k < deg; ++k) {
      PlacePin pin;
      pin.node = coincident ? anchor : static_cast<int>(rng.below(kNodes));
      if (!coincident) {
        pin.ox = rng.uniform(-1, 1);
        pin.oy = rng.uniform(-1, 1);
      }
      p.pins.push_back(pin);
    }
    net.pin_end = static_cast<int>(p.pins.size());
    p.nets.push_back(net);
  }
  p.validate();
  return p;
}

/// One axis of one net, the per-net way: a dispatched simd::ops() call per
/// array, exactly as the reference kernel evaluated it.
double reference_axis(bool wa, const double* c, std::size_t n, double gamma,
                      double* dc) {
  const simd::Ops& ops = simd::ops();
  std::vector<double> arg(n), ep(n), em(n);
  double mn, mx;
  ops.minmax(c, n, &mn, &mx);
  const double ig = 1.0 / gamma;
  ops.affine(c, n, -mx, ig, arg.data());
  ops.exp_nonpos(arg.data(), n, ep.data());
  ops.affine(c, n, -mn, -ig, arg.data());
  ops.exp_nonpos(arg.data(), n, em.data());
  const double sp = ops.sum(ep.data(), n);
  const double sm = ops.sum(em.data(), n);
  if (!wa) {
    ops.lse_grad(ep.data(), em.data(), n, 1.0 / sp, 1.0 / sm, dc);
    return (mx - mn) + gamma * (std::log(sp) + std::log(sm));
  }
  const double xmax = ops.dot(c, ep.data(), n) / sp;
  const double xmin = ops.dot(c, em.data(), n) / sm;
  ops.wa_grad(c, ep.data(), em.data(), n, xmax, xmin, ig, 1.0 / sp, 1.0 / sm,
              dc);
  return xmax - xmin;
}

/// Value and node gradients (as bit patterns) of the reference evaluation:
/// per-chunk partials summed in chunk order, per-node gradients summed over
/// the node's pins in ascending pin order.
std::vector<std::uint64_t> reference_wirelength(bool wa, const PlaceProblem& p,
                                                double gamma) {
  const std::size_t pins = p.pins.size();
  std::vector<double> cx(pins), cy(pins), pgx(pins), pgy(pins);
  for (std::size_t i = 0; i < pins; ++i) {
    const auto v = static_cast<std::size_t>(p.pins[i].node);
    cx[i] = p.x[v] + p.pins[i].ox;
    cy[i] = p.y[v] + p.pins[i].oy;
  }
  const parallel::ChunkPlan plan = parallel::plan_chunks(
      p.nets.size(), WirelengthModel::kNetGrain);
  double total = 0.0;
  for (int k = 0; k < plan.count; ++k) {
    double part = 0.0;
    for (std::size_t n = plan.begin(k); n < plan.end(k); ++n) {
      const PlaceNet& net = p.nets[n];
      const auto off = static_cast<std::size_t>(net.pin_begin);
      const auto deg = static_cast<std::size_t>(net.degree());
      if (deg < 2) continue;
      part += net.weight *
              reference_axis(wa, cx.data() + off, deg, gamma, pgx.data() + off);
      part += net.weight *
              reference_axis(wa, cy.data() + off, deg, gamma, pgy.data() + off);
      if (net.weight != 1.0)
        for (std::size_t i = off; i < off + deg; ++i) {
          pgx[i] *= net.weight;
          pgy[i] *= net.weight;
        }
    }
    total += part;
  }
  std::vector<double> sx(p.nodes.size(), 0.0), sy(p.nodes.size(), 0.0);
  for (std::size_t i = 0; i < pins; ++i) {
    sx[static_cast<std::size_t>(p.pins[i].node)] += pgx[i];
    sy[static_cast<std::size_t>(p.pins[i].node)] += pgy[i];
  }
  std::vector<std::uint64_t> bits{std::bit_cast<std::uint64_t>(total)};
  for (const double v : sx) bits.push_back(std::bit_cast<std::uint64_t>(0.0 + v));
  for (const double v : sy) bits.push_back(std::bit_cast<std::uint64_t>(0.0 + v));
  return bits;
}

/// The same nodes with only net j: its value is then the whole total, so a
/// change in how one net's terms are combined cannot hide below the
/// rounding of a many-net sum.
PlaceProblem single_net_problem(const PlaceProblem& p, std::size_t j) {
  PlaceProblem q = p;
  const PlaceNet& net = p.nets[j];
  q.pins.assign(p.pins.begin() + net.pin_begin, p.pins.begin() + net.pin_end);
  q.nets = {PlaceNet{0, net.degree(), net.weight}};
  return q;
}

TEST(SimdModels, ChunkKernelMatchesPerNetReferenceBitwise) {
  DispatchGuard guard;
  const PlaceProblem p = chunk_edge_problem();
  ASSERT_GT(parallel::plan_chunks(p.nets.size(), WirelengthModel::kNetGrain).count, 4);
  for (const bool wa : {true, false}) {
    simd::set_from_string("off");
    parallel::set_num_threads(1);
    const std::vector<std::uint64_t> want = reference_wirelength(wa, p, 3.0);
    for (const char* level : {"off", "auto"}) {
      for (const int threads : {1, 2, 4}) {
        simd::set_from_string(level);
        parallel::set_num_threads(threads);
        const auto model = make_wirelength_model(wa ? "WA" : "LSE", 3.0);
        std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
        std::vector<std::uint64_t> got{
            std::bit_cast<std::uint64_t>(model->eval(p, gx, gy))};
        for (const double v : gx) got.push_back(std::bit_cast<std::uint64_t>(v));
        for (const double v : gy) got.push_back(std::bit_cast<std::uint64_t>(v));
        EXPECT_EQ(want, got) << (wa ? "WA " : "LSE ") << level << " t=" << threads;
        EXPECT_EQ(want[0], std::bit_cast<std::uint64_t>(model->value(p)))
            << (wa ? "WA " : "LSE ") << level << " t=" << threads;
      }
      for (std::size_t j = 0; j < 40; ++j) {
        const PlaceProblem q = single_net_problem(p, j);
        simd::set_from_string("off");
        const std::uint64_t one = reference_wirelength(wa, q, 3.0)[0];
        simd::set_from_string(level);
        EXPECT_EQ(one, std::bit_cast<std::uint64_t>(
                           make_wirelength_model(wa ? "WA" : "LSE", 3.0)->value(q)))
            << (wa ? "WA " : "LSE ") << level << " net " << j;
      }
    }
  }
}

// -------------------------------- scratch re-use across problem shapes

TEST(SimdModels, ScratchSurvivesLargerMaxDegreeProblem) {
  DispatchGuard guard;
  Logger::set_level(LogLevel::Warn);
  // Same model instance, small problem first, then one whose max net degree
  // and largest net chunk (pins per parallel_reduce chunk, what the
  // per-thread chunk scratch is sized to) are both larger — the reused
  // scratch must regrow (regression: a stale capacity sized to the first
  // problem indexed out of bounds).
  const Design d_small = generate_benchmark(tiny_spec(5));
  const Design d_large = generate_benchmark(small_spec(42));
  PlaceProblem ps = make_problem(d_small);
  PlaceProblem pl = make_problem(d_large);
  const NetlistCsr cs = NetlistCsr::from_problem(ps);
  const NetlistCsr cl = NetlistCsr::from_problem(pl);
  ASSERT_GT(cl.max_net_degree, cs.max_net_degree);
  const auto max_chunk_pins = [](const NetlistCsr& c) {
    const parallel::ChunkPlan plan = parallel::plan_chunks(
        static_cast<std::size_t>(c.num_nets), WirelengthModel::kNetGrain);
    int most = 0;
    for (int k = 0; k < plan.count; ++k)
      most = std::max(most, c.net_offset[plan.end(k)] - c.net_offset[plan.begin(k)]);
    return most;
  };
  ASSERT_GT(max_chunk_pins(cl), max_chunk_pins(cs));

  parallel::set_num_threads(2);
  const auto reused = make_wirelength_model("WA", 4.0);
  std::vector<double> gx(ps.nodes.size(), 0.0), gy(ps.nodes.size(), 0.0);
  reused->eval(ps, gx, gy);

  gx.assign(pl.nodes.size(), 0.0);
  gy.assign(pl.nodes.size(), 0.0);
  const double got = reused->eval(pl, gx, gy);

  const auto fresh = make_wirelength_model("WA", 4.0);
  std::vector<double> fx(pl.nodes.size(), 0.0), fy(pl.nodes.size(), 0.0);
  const double want = fresh->eval(pl, fx, fy);
  EXPECT_EQ(want, got);
  EXPECT_EQ(fx, gx);
  EXPECT_EQ(fy, gy);
}

// ----------------------------------------------------- incremental eval

TEST(IncrementalEval, TotalMatchesDesignHpwl) {
  Logger::set_level(LogLevel::Warn);
  const Design d = generate_benchmark(small_spec(11));
  IncrementalEval inc(d);
  EXPECT_EQ(d.hpwl(), inc.total_cost());
}

TEST(IncrementalEval, RandomMovesMatchFullRecompute) {
  Logger::set_level(LogLevel::Warn);
  Design d = generate_benchmark(small_spec(23));
  IncrementalEval inc(d);
  inc.set_cross_check(true);  // every trial self-verifies against recompute
  Rng rng(99);
  const std::vector<CellId>& movable = d.movable_cells();
  ASSERT_FALSE(movable.empty());

  auto nets_cost_full = [&](std::span<const NetId> nets) {
    double s = 0.0;
    for (const NetId n : nets) s += d.net(n).weight * d.net_hpwl(n);
    return s;
  };

  std::vector<NetId> uni;
  for (int iter = 0; iter < 1000; ++iter) {
    const CellId c = movable[rng.below(movable.size())];
    if (iter % 3 == 2) {
      // Swap trial vs mutate-and-measure.
      const CellId o = movable[rng.below(movable.size())];
      if (o == c) continue;
      inc.union_nets(c, o, uni);
      const double got = inc.trial_swap(c, o, uni);
      const Point pc = d.cell(c).pos, po = d.cell(o).pos;
      d.cell(c).pos = po;
      d.cell(o).pos = pc;
      const double want = nets_cost_full(uni);
      if (iter % 6 == 2) {
        // Commit the swap.
        inc.refresh_nets(uni);
      } else {
        d.cell(c).pos = pc;
        d.cell(o).pos = po;
      }
      EXPECT_EQ(want, got) << "swap iter " << iter;
    } else {
      // Single-cell move trial vs mutate-and-measure.
      const Point target{rng.uniform(d.die().lx, d.die().hx - d.cell(c).w),
                         rng.uniform(d.die().ly, d.die().hy - d.cell(c).h)};
      const double got = inc.trial_move(c, target);
      const Point old = d.cell(c).pos;
      d.cell(c).pos = target;
      const double want = nets_cost_full(inc.cell_nets(c));
      if (iter % 2 == 0) {
        inc.refresh_cell(c);  // commit
      } else {
        d.cell(c).pos = old;  // reject
      }
      EXPECT_EQ(want, got) << "move iter " << iter;
    }
  }
  // After ~hundreds of committed moves, no drift from the ground truth.
  EXPECT_EQ(d.hpwl(), inc.total_cost());
}

TEST(IncrementalEval, OccupancyMoveMatchesRebuild) {
  Logger::set_level(LogLevel::Warn);
  Design d = generate_benchmark(small_spec(31));
  const GridMap map(d.die(), 32, 32);
  IncrementalEval inc(d);
  inc.build_occupancy(map);
  Rng rng(5);
  const std::vector<CellId>& movable = d.movable_cells();

  for (int iter = 0; iter < 200; ++iter) {
    const CellId c = movable[rng.below(movable.size())];
    if (d.cell(c).kind != CellKind::StdCell) continue;
    const Point target{rng.uniform(d.die().lx, d.die().hx - d.cell(c).w),
                       rng.uniform(d.die().ly, d.die().hy - d.cell(c).h)};
    const Point old = d.cell(c).pos;
    d.cell(c).pos = target;
    inc.occupancy_move(c, old, target);
  }

  IncrementalEval fresh(d);
  fresh.build_occupancy(map);
  const auto& got = inc.occupancy();
  const auto& want = fresh.occupancy();
  ASSERT_EQ(want.data().size(), got.data().size());
  for (std::size_t i = 0; i < want.data().size(); ++i)
    EXPECT_NEAR(want.data()[i], got.data()[i], 1e-9) << "bin " << i;
}

}  // namespace
}  // namespace rp
