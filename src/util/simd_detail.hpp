#pragma once
// Shared building blocks for the simd kernel implementations. Every
// dispatch level includes this header so the scalar tails, the exp
// polynomial, and the lane-combine trees are literally the same code in
// each translation unit — the foundation of the bitwise-identity contract
// (see util/simd.hpp). Nothing here is public API; the one client outside
// util/ is the wirelength chunk kernel (model/wirelength.cpp), which runs
// the scalar level's 4-lane reductions inline on per-net pin ranges too
// short to be worth a dispatched call. The per-row bell samplers below are
// also the density model's reference algorithm in the tests.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/simd.hpp"

namespace rp::simd::detail {

// ----------------------------------------------------------------- exp ----
// exp(x) for finite x <= 0, identical in every path:
//   k = floor(x*log2e + 0.5)            (floor, NOT round-to-nearest-even)
//   r = (x - k*ln2_hi) - k*ln2_lo       (split constant, |r| <= 0.3466)
//   p = Horner(degree-13 Taylor, 1/i!)  (~4e-18 max relative error on |r|)
//   exp(x) = p * 2^k                    (exponent-bit construction)
// x < kExpFlush flushes to exactly 0.0 (k would leave the normal range).
inline constexpr double kExpLog2e = 1.4426950408889634074;
inline constexpr double kExpLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kExpLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kExpFlush = -708.0;
inline constexpr double kExpPoly[14] = {
    1.0,                     // 1/0!
    1.0,                     // 1/1!
    1.0 / 2.0,               // 1/2!
    1.0 / 6.0,               // ...
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
    1.0 / 6227020800.0,      // 1/13!
};

inline double exp_one(double x) {
  if (x < kExpFlush) return 0.0;
  const double kd = __builtin_floor(x * kExpLog2e + 0.5);
  const double r = (x - kd * kExpLn2Hi) - kd * kExpLn2Lo;
  double p = kExpPoly[13];
  for (int j = 12; j >= 0; --j) p = p * r + kExpPoly[j];
  const auto k = static_cast<std::int64_t>(kd);
  const double scale =
      std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52);
  return p * scale;
}

// ------------------------------------------------- min/max lane semantics --
// Mirrors _mm256_min_pd/_mm256_max_pd exactly: keep the accumulator when
// the comparison holds, take the candidate otherwise (also what NEON's
// vminq/vmaxq do for the finite inputs these kernels see).
inline double min2(double acc, double v) { return acc < v ? acc : v; }
inline double max2(double acc, double v) { return acc > v ? acc : v; }

// --------------------------------------------------------- scalar bodies --
// Sequential tails + full-array scalar fallbacks. The vector paths call
// the *_tail functions for the final n%4 elements; the scalar dispatch
// level runs the 4-lane main loop below followed by the same tails.

inline double sum_tail(const double* x, std::size_t b, std::size_t n) {
  double t = 0.0;
  for (std::size_t i = b; i < n; ++i) t += x[i];
  return t;
}

inline double dot_tail(const double* a, const double* b_, std::size_t b,
                       std::size_t n) {
  double t = 0.0;
  for (std::size_t i = b; i < n; ++i) t += a[i] * b_[i];
  return t;
}

inline double pr_num_tail(const double* g, const double* gp, std::size_t b,
                          std::size_t n) {
  double t = 0.0;
  for (std::size_t i = b; i < n; ++i) t += g[i] * (g[i] - gp[i]);
  return t;
}

/// Lane combine for additive reductions: tree is (l0+l1) + (l2+l3), tail last.
inline double combine_sum(double l0, double l1, double l2, double l3,
                          double tail) {
  return ((l0 + l1) + (l2 + l3)) + tail;
}

inline double abs_one(double v) { return __builtin_fabs(v); }

// ------------------------------------------------ scalar 4-lane reductions --
// The scalar dispatch level's reductions, executing the contract's tree
// literally: 4 virtual lanes over blocks of 4, (l0+l1) + (l2+l3), tail last.

/// mn/mx over x[0..n), n >= 1.
inline void minmax_lanes(const double* x, std::size_t n, double* mn_out,
                         double* mx_out) {
  double mn, mx;
  std::size_t i;
  if (n >= 4) {
    double mn0 = x[0], mn1 = x[1], mn2 = x[2], mn3 = x[3];
    double mx0 = x[0], mx1 = x[1], mx2 = x[2], mx3 = x[3];
    for (i = 4; i + 3 < n; i += 4) {
      mn0 = min2(mn0, x[i]);
      mn1 = min2(mn1, x[i + 1]);
      mn2 = min2(mn2, x[i + 2]);
      mn3 = min2(mn3, x[i + 3]);
      mx0 = max2(mx0, x[i]);
      mx1 = max2(mx1, x[i + 1]);
      mx2 = max2(mx2, x[i + 2]);
      mx3 = max2(mx3, x[i + 3]);
    }
    mn = min2(min2(mn0, mn1), min2(mn2, mn3));
    mx = max2(max2(mx0, mx1), max2(mx2, mx3));
  } else {
    mn = mx = x[0];
    i = 1;
  }
  for (; i < n; ++i) {
    mn = min2(mn, x[i]);
    mx = max2(mx, x[i]);
  }
  *mn_out = mn;
  *mx_out = mx;
}

inline double sum_lanes(const double* x, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 3 < n; i += 4) {
    l0 += x[i];
    l1 += x[i + 1];
    l2 += x[i + 2];
    l3 += x[i + 3];
  }
  return combine_sum(l0, l1, l2, l3, sum_tail(x, i, n));
}

inline double dot_lanes(const double* a, const double* b, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 3 < n; i += 4) {
    l0 += a[i] * b[i];
    l1 += a[i + 1] * b[i + 1];
    l2 += a[i + 2] * b[i + 2];
    l3 += a[i + 3] * b[i + 3];
  }
  return combine_sum(l0, l1, l2, l3, dot_tail(a, b, i, n));
}

// Element-wise bodies shared verbatim between scalar level and vector tails.
inline void affine_range(const double* x, std::size_t b, std::size_t n,
                         double bias, double scale, double* out) {
  for (std::size_t i = b; i < n; ++i) out[i] = (x[i] + bias) * scale;
}

inline void exp_range(const double* x, std::size_t b, std::size_t n,
                      double* out) {
  for (std::size_t i = b; i < n; ++i) out[i] = exp_one(x[i]);
}

inline void neg_range(const double* x, std::size_t b, std::size_t n,
                      double* out) {
  for (std::size_t i = b; i < n; ++i) out[i] = -x[i];
}

inline void axpy_range(double a, const double* x, std::size_t b, std::size_t n,
                       double* y) {
  for (std::size_t i = b; i < n; ++i) y[i] = y[i] + a * x[i];
}

inline void axpy_out_range(const double* z, double a, const double* d,
                           std::size_t b, std::size_t n, double* out) {
  for (std::size_t i = b; i < n; ++i) out[i] = z[i] + a * d[i];
}

inline void cg_dir_range(const double* g, double beta, double* d,
                         std::size_t b, std::size_t n) {
  for (std::size_t i = b; i < n; ++i) d[i] = -g[i] + beta * d[i];
}

inline void lse_grad_range(const double* ep, const double* em, std::size_t b,
                           std::size_t n, double rsp, double rsm, double* dc) {
  for (std::size_t i = b; i < n; ++i) dc[i] = ep[i] * rsp - em[i] * rsm;
}

inline void wa_grad_range(const double* c, const double* ep, const double* em,
                          std::size_t b, std::size_t n, double xmax,
                          double xmin, double ig, double rsp, double rsm,
                          double* dc) {
  for (std::size_t i = b; i < n; ++i) {
    const double tmax = (c[i] - xmax) * ig;
    const double tmin = (c[i] - xmin) * ig;
    const double dmax = (ep[i] * (1.0 + tmax)) * rsp;
    const double dmin = (em[i] * (1.0 - tmin)) * rsm;
    dc[i] = dmax - dmin;
  }
}

inline double bell_one(double dx, double d1, double d2, double a, double b) {
  const double d = abs_one(dx);
  if (d <= d1) return 1.0 - (a * d) * d;
  if (d <= d2) {
    const double t = d - d2;
    return (b * t) * t;
  }
  return 0.0;
}

inline double bell_deriv_one(double dx, double d1, double d2, double a,
                             double b) {
  const double d = abs_one(dx);
  const double sign = dx >= 0.0 ? 1.0 : -1.0;
  if (d <= d1) return ((-2.0 * a) * d) * sign;
  if (d <= d2) return ((2.0 * b) * (d - d2)) * sign;
  return 0.0;
}

inline void bell_row_range(double d0, double step, std::size_t b,
                           std::size_t n, double d1, double d2, double a,
                           double bb, double* out) {
  for (std::size_t i = b; i < n; ++i)
    out[i] = bell_one(d0 + static_cast<double>(i) * step, d1, d2, a, bb);
}

inline void bell_deriv_row_range(double d0, double step, std::size_t b,
                                 std::size_t n, double d1, double d2, double a,
                                 double bb, double* out) {
  for (std::size_t i = b; i < n; ++i)
    out[i] = bell_deriv_one(d0 + static_cast<double>(i) * step, d1, d2, a, bb);
}

/// Bell samples at arbitrary points: out[k] = bell(c - at[k]).
inline void bell_at_range(double c, const double* at, std::size_t b,
                          std::size_t n, const BellShape& s, double* out) {
  for (std::size_t k = b; k < n; ++k)
    out[k] = bell_one(c - at[k], s.d1, s.d2, s.a, s.b);
}

inline void bell_deriv_at_range(double c, const double* at, std::size_t b,
                                std::size_t n, const BellShape& s,
                                double* out) {
  for (std::size_t k = b; k < n; ++k)
    out[k] = bell_deriv_one(c - at[k], s.d1, s.d2, s.a, s.b);
}

// ------------------------------------------------ per-node density bodies --
// bell_splat / bell_gather (see Ops) for every level. The levels differ
// only in how they sample and in the row kernels they pass in; the
// sequential parts (s, cv, the per-row accumulation) are this code.

/// bell_splat after sampling: add_row(a, row) must perform
/// row[i] = row[i] + a*px[i] over the window width.
template <typename AddRow>
inline double splat_rows(const double* py, std::size_t rh, double row_sum,
                         double area, double* grid, std::size_t stride,
                         AddRow&& add_row) {
  double s = 0.0;
  for (std::size_t k = 0; k < rh; ++k) {
    if (py[k] == 0.0) continue;
    s += py[k] * row_sum;
  }
  if (s <= 0.0) return 0.0;
  const double cv = area / s;
  for (std::size_t k = 0; k < rh; ++k) {
    if (py[k] == 0.0) continue;
    add_row(cv * py[k], grid + k * stride);
  }
  return cv;
}

/// bell_gather after sampling: dots(row, &ddx, &ddy) must return
/// dot(row, dpx) and dot(row, px) with the 4-lane tree.
template <typename Dots>
inline void gather_rows(const double* py, const double* dpy, std::size_t rh,
                        double cv, const double* resid, std::size_t stride,
                        double* gx, double* gy, Dots&& dots) {
  const double c2 = 2.0 * cv;
  double sx = 0.0, sy = 0.0;
  for (std::size_t k = 0; k < rh; ++k) {
    double ddx, ddy;
    dots(resid + k * stride, &ddx, &ddy);
    sx += (c2 * py[k]) * ddx;
    sy += (c2 * dpy[k]) * ddy;
  }
  *gx = sx;
  *gy = sy;
}

inline double bell_splat_lanes(const BellWindow& w, double area, double* grid,
                               std::size_t stride, double* scratch) {
  double* px = scratch;
  double* py = px + w.rw;
  bell_row_range(w.dx0, w.step, 0, w.rw, w.bx.d1, w.bx.d2, w.bx.a, w.bx.b,
                 px);
  bell_at_range(w.cy, w.yc, 0, w.rh, w.by, py);
  return splat_rows(py, w.rh, sum_lanes(px, w.rw), area, grid, stride,
                    [&](double a, double* row) {
                      axpy_range(a, px, 0, w.rw, row);
                    });
}

inline void bell_gather_lanes(const BellWindow& w, double cv,
                              const double* resid, std::size_t stride,
                              double* scratch, double* gx, double* gy) {
  double* px = scratch;
  double* dpx = px + w.rw;
  double* py = dpx + w.rw;
  double* dpy = py + w.rh;
  bell_row_range(w.dx0, w.step, 0, w.rw, w.bx.d1, w.bx.d2, w.bx.a, w.bx.b,
                 px);
  bell_deriv_row_range(w.dx0, w.step, 0, w.rw, w.bx.d1, w.bx.d2, w.bx.a,
                       w.bx.b, dpx);
  bell_at_range(w.cy, w.yc, 0, w.rh, w.by, py);
  bell_deriv_at_range(w.cy, w.yc, 0, w.rh, w.by, dpy);
  gather_rows(py, dpy, w.rh, cv, resid, stride, gx, gy,
              [&](const double* row, double* ddx, double* ddy) {
                *ddx = dot_lanes(row, dpx, w.rw);
                *ddy = dot_lanes(row, px, w.rw);
              });
}

}  // namespace rp::simd::detail
