#include "solver/cg.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"

namespace rp {

namespace {

// Vector kernels routed through the deterministic pool: chunk-ordered
// reductions, so every thread count produces the same bits. Inside each
// chunk the dispatched simd kernels run (util/simd.hpp) — scalar and
// vector levels share one summation tree, so RP_SIMD does not change the
// bits either. The grain keeps small systems (coarse levels, tests) on the
// inline fast path.
constexpr std::size_t kVecGrain = 4096;

/// d = -g (element-parallel); returns ||d||∞, the chunk maxima combined in
/// chunk order.
double steepest(const std::vector<double>& g, std::vector<double>& d) {
  return parallel::parallel_reduce(
      d.size(), kVecGrain, 0.0,
      [&](std::size_t b, std::size_t e, int) {
        const simd::Ops& ops = simd::ops();
        ops.neg(g.data() + b, e - b, d.data() + b);
        return ops.abs_max(d.data() + b, e - b);
      },
      [](double a, double b) { return std::max(a, b); });
}

/// z_trial = z + alpha * d  (element-parallel).
void axpy_into(std::vector<double>& out, const std::vector<double>& z, double alpha,
               const std::vector<double>& d) {
  parallel::parallel_for(out.size(), kVecGrain, [&](std::size_t b, std::size_t e, int) {
    simd::ops().axpy_out(z.data() + b, alpha, d.data() + b, e - b, out.data() + b);
  });
}

}  // namespace

CgResult minimize_cg(const CgObjective& f, std::vector<double>& z, const CgOptions& opt) {
  RP_ASSERT(!z.empty(), "minimize_cg on empty vector");
  const std::size_t n = z.size();
  std::vector<double> g(n), g_prev(n), d(n), z_trial(n), g_trial(n);

  // f at x; a one-call objective also fills gx there.
  const auto value_at = [&](const std::vector<double>& x, std::vector<double>& gx) {
    return f.full ? f.full(x, gx) : f.value(x);
  };
  // ∇f into gx at the last value_at point (a one-call objective put it there).
  const auto gradient_at = [&](std::vector<double>& gx) {
    if (!f.full) f.gradient(gx);
  };

  CgResult res;
  double fz = value_at(z, g);
  gradient_at(g);
  res.f = fz;
  double dmax = steepest(g, d);

  for (int it = 0; it < opt.max_iters; ++it) {
    res.iters = it + 1;
    if (dmax < opt.grad_tol) {
      res.converged = true;
      break;
    }
    // Scale so the largest coordinate moves exactly trust_radius.
    double alpha = opt.trust_radius / dmax;
    double f_new = 0.0;
    bool accepted = false;
    for (int bt = 0; bt <= opt.max_backtracks; ++bt) {
      axpy_into(z_trial, z, alpha, d);
      f_new = value_at(z_trial, g_trial);
      if (f_new <= fz || bt == opt.max_backtracks) {
        gradient_at(g_trial);
        accepted = true;
        break;
      }
      alpha *= 0.5;
    }
    if (!accepted) break;

    g_prev.swap(g);
    g.swap(g_trial);
    z.swap(z_trial);

    const double f_prev = fz;
    fz = f_new;
    res.f = fz;
    if (std::abs(f_prev - fz) <= opt.f_rel_tol * std::max(1.0, std::abs(f_prev))) {
      res.converged = true;
      break;
    }

    // Polak–Ribière+ with automatic restart (β clamped at 0). Numerator and
    // denominator share one region; each is still summed over the chunks in
    // ascending order, so both match their separate reductions bit for bit.
    using Pair = std::pair<double, double>;
    const auto [num, den] = parallel::parallel_reduce(
        n, kVecGrain, Pair{0.0, 0.0},
        [&](std::size_t b, std::size_t e, int) {
          const simd::Ops& ops = simd::ops();
          return Pair{ops.pr_num(g.data() + b, g_prev.data() + b, e - b),
                      ops.dot(g_prev.data() + b, g_prev.data() + b, e - b)};
        },
        [](const Pair& x, const Pair& y) { return Pair{x.first + y.first, x.second + y.second}; });
    const double beta = den > 0 ? std::max(0.0, num / den) : 0.0;
    // The new direction, g·d and ||d||∞ in one pass (the norm is the next
    // step's scale).
    const auto [gd, dnorm] = parallel::parallel_reduce(
        n, kVecGrain, Pair{0.0, 0.0},
        [&](std::size_t b, std::size_t e, int) {
          const simd::Ops& ops = simd::ops();
          ops.cg_dir(g.data() + b, beta, d.data() + b, e - b);
          return Pair{ops.dot(g.data() + b, d.data() + b, e - b),
                      ops.abs_max(d.data() + b, e - b)};
        },
        [](const Pair& x, const Pair& y) {
          return Pair{x.first + y.first, std::max(x.second, y.second)};
        });
    // Safeguard: if not a descent direction, restart with steepest descent.
    dmax = gd >= 0.0 ? steepest(g, d) : dnorm;
  }
  RP_COUNT("solver.cg_calls", 1);
  RP_COUNT("solver.cg_iters", res.iters);
  return res;
}

namespace {

bool all_finite(const std::vector<double>& v) {
  // Deterministic early-exit scan on the calling thread; the guard must not
  // perturb pool chunking (results are compared bitwise across thread counts).
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace

CgResult minimize_cg_guarded(const CgObjective& f, std::vector<double>& z,
                             const CgOptions& opt, const std::string& stage,
                             GuardStats* guard) {
  const std::vector<double> last_good = z;  // snapshot before the solve
  CgResult res = minimize_cg(f, z, opt);
  if (all_finite(z) && std::isfinite(res.f)) {
    if (guard != nullptr) *guard = GuardStats{};
    return res;
  }

  // Graceful degradation: restore the last-good coordinates, halve the step
  // (trust radius), and give the solve one more chance.
  RP_WARN("numeric guard [%s]: non-finite coordinates after CG; restoring "
          "last-good state and retrying with halved trust radius",
          stage.c_str());
  RP_COUNT("guard.nonfinite_detected", 1);
  RP_COUNT("guard.retries", 1);
  {
    obs::Event e = obs::events().make(obs::EventKind::Guard,
                                      ("cg.retry:" + stage).c_str());
    e.i0 = 1;  // retry number (single-retry policy)
    e.d0 = opt.trust_radius * 0.5;
    obs::events().emit(e);
  }
  z = last_good;
  if (guard != nullptr) {
    guard->retries = 1;
    guard->degraded = true;
  }
  CgOptions degraded = opt;
  degraded.trust_radius = opt.trust_radius * 0.5;
  res = minimize_cg(f, z, degraded);
  if (all_finite(z) && std::isfinite(res.f)) return res;

  z = last_good;  // leave the caller with usable coordinates
  RP_COUNT("guard.aborts", 1);
  {
    obs::Event e = obs::events().make(obs::EventKind::Guard,
                                      ("cg.abort:" + stage).c_str());
    obs::events().emit(e);
  }
  throw Error(ErrorCode::NumericError,
              "non-finite coordinates/objective survived restore-and-retry",
              "cg.cpp:guard", stage);
}

}  // namespace rp
