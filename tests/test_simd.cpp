// SIMD dispatch + incremental evaluation identity tests.
//
// The contracts under test are bitwise, not approximate:
//  * every kernel in the simd::Ops table produces the same bits at every
//    dispatch level (scalar vs AVX2/NEON when the host has them);
//  * wirelength/density evaluations are identical for RP_SIMD off vs auto,
//    at any thread count;
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

      sc.bell_row(-3.0, 0.37, n, 1.0, 2.0, 0.5, 0.25, a.data());
      vt->bell_row(-3.0, 0.37, n, 1.0, 2.0, 0.5, 0.25, b.data());
      EXPECT_EQ(a, b);
      sc.bell_deriv_row(-3.0, 0.37, n, 1.0, 2.0, 0.5, 0.25, a.data());
      vt->bell_deriv_row(-3.0, 0.37, n, 1.0, 2.0, 0.5, 0.25, b.data());
      EXPECT_EQ(a, b);
    }
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
