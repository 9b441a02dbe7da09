// NEON (aarch64) kernel table. The 4-virtual-lane reduction tree maps onto
// two 2xf64 registers: lanes 0/1 live in the low accumulator, lanes 2/3 in
// the high one, four elements consumed per iteration, lane combine
// (l0+l1)+(l2+l3) with the sequential tail folded last — bit-for-bit the
// scalar level's tree. The transcendental and piecewise kernels
// (exp_nonpos, wa_grad, and the per-node density kernels bell_splat and
// bell_gather) run the shared scalar bodies from simd_detail.hpp: those
// replay the scalar level's element-wise expressions and 4-lane trees, so
// scalar execution is already bitwise identical, and a native port can land
// later without touching the dispatch contract.

#include "util/simd.hpp"
#include "util/simd_detail.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace rp::simd {

namespace {

using namespace detail;

void n_affine(const double* x, std::size_t n, double bias, double scale,
              double* out) {
  const float64x2_t vb = vdupq_n_f64(bias), vs = vdupq_n_f64(scale);
  std::size_t i = 0;
  for (; i + 1 < n; i += 2)
    vst1q_f64(out + i, vmulq_f64(vaddq_f64(vld1q_f64(x + i), vb), vs));
  affine_range(x, i, n, bias, scale, out);
}

void n_exp_nonpos(const double* x, std::size_t n, double* out) {
  exp_range(x, 0, n, out);
}

void n_neg(const double* x, std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 1 < n; i += 2) vst1q_f64(out + i, vnegq_f64(vld1q_f64(x + i)));
  neg_range(x, i, n, out);
}

void n_axpy(double a, const double* x, std::size_t n, double* y) {
  const float64x2_t va = vdupq_n_f64(a);
  std::size_t i = 0;
  for (; i + 1 < n; i += 2)
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i),
                               vmulq_f64(va, vld1q_f64(x + i))));
  axpy_range(a, x, i, n, y);
}

void n_axpy_out(const double* z, double a, const double* d, std::size_t n,
                double* out) {
  const float64x2_t va = vdupq_n_f64(a);
  std::size_t i = 0;
  for (; i + 1 < n; i += 2)
    vst1q_f64(out + i, vaddq_f64(vld1q_f64(z + i),
                                 vmulq_f64(va, vld1q_f64(d + i))));
  axpy_out_range(z, a, d, i, n, out);
}

void n_cg_dir(const double* g, double beta, double* d, std::size_t n) {
  const float64x2_t vb = vdupq_n_f64(beta);
  std::size_t i = 0;
  for (; i + 1 < n; i += 2)
    vst1q_f64(d + i, vaddq_f64(vnegq_f64(vld1q_f64(g + i)),
                               vmulq_f64(vb, vld1q_f64(d + i))));
  cg_dir_range(g, beta, d, i, n);
}

void n_lse_grad(const double* ep, const double* em, std::size_t n, double rsp,
                double rsm, double* dc) {
  const float64x2_t vp = vdupq_n_f64(rsp), vm = vdupq_n_f64(rsm);
  std::size_t i = 0;
  for (; i + 1 < n; i += 2)
    vst1q_f64(dc + i, vsubq_f64(vmulq_f64(vld1q_f64(ep + i), vp),
                                vmulq_f64(vld1q_f64(em + i), vm)));
  lse_grad_range(ep, em, i, n, rsp, rsm, dc);
}

void n_wa_grad(const double* c, const double* ep, const double* em,
               std::size_t n, double xmax, double xmin, double ig, double rsp,
               double rsm, double* dc) {
  wa_grad_range(c, ep, em, 0, n, xmax, xmin, ig, rsp, rsm, dc);
}

void n_minmax(const double* x, std::size_t n, double* mn_out, double* mx_out) {
  double mn, mx;
  std::size_t i;
  if (n >= 4) {
    float64x2_t mn_lo = vld1q_f64(x), mn_hi = vld1q_f64(x + 2);
    float64x2_t mx_lo = mn_lo, mx_hi = mn_hi;
    for (i = 4; i + 3 < n; i += 4) {
      const float64x2_t vlo = vld1q_f64(x + i), vhi = vld1q_f64(x + i + 2);
      mn_lo = vminq_f64(mn_lo, vlo);
      mn_hi = vminq_f64(mn_hi, vhi);
      mx_lo = vmaxq_f64(mx_lo, vlo);
      mx_hi = vmaxq_f64(mx_hi, vhi);
    }
    mn = min2(min2(vgetq_lane_f64(mn_lo, 0), vgetq_lane_f64(mn_lo, 1)),
              min2(vgetq_lane_f64(mn_hi, 0), vgetq_lane_f64(mn_hi, 1)));
    mx = max2(max2(vgetq_lane_f64(mx_lo, 0), vgetq_lane_f64(mx_lo, 1)),
              max2(vgetq_lane_f64(mx_hi, 0), vgetq_lane_f64(mx_hi, 1)));
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

double n_sum(const double* x, std::size_t n) {
  float64x2_t lo = vdupq_n_f64(0.0), hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 3 < n; i += 4) {
    lo = vaddq_f64(lo, vld1q_f64(x + i));
    hi = vaddq_f64(hi, vld1q_f64(x + i + 2));
  }
  return combine_sum(vgetq_lane_f64(lo, 0), vgetq_lane_f64(lo, 1),
                     vgetq_lane_f64(hi, 0), vgetq_lane_f64(hi, 1),
                     sum_tail(x, i, n));
}

double n_dot(const double* a, const double* b, std::size_t n) {
  float64x2_t lo = vdupq_n_f64(0.0), hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 3 < n; i += 4) {
    lo = vaddq_f64(lo, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
    hi = vaddq_f64(hi, vmulq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2)));
  }
  return combine_sum(vgetq_lane_f64(lo, 0), vgetq_lane_f64(lo, 1),
                     vgetq_lane_f64(hi, 0), vgetq_lane_f64(hi, 1),
                     dot_tail(a, b, i, n));
}

double n_abs_max(const double* x, std::size_t n) {
  float64x2_t lo = vdupq_n_f64(0.0), hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 3 < n; i += 4) {
    lo = vmaxq_f64(lo, vabsq_f64(vld1q_f64(x + i)));
    hi = vmaxq_f64(hi, vabsq_f64(vld1q_f64(x + i + 2)));
  }
  double m = max2(max2(vgetq_lane_f64(lo, 0), vgetq_lane_f64(lo, 1)),
                  max2(vgetq_lane_f64(hi, 0), vgetq_lane_f64(hi, 1)));
  for (; i < n; ++i) m = max2(m, abs_one(x[i]));
  return m;
}

double n_pr_num(const double* g, const double* gp, std::size_t n) {
  float64x2_t lo = vdupq_n_f64(0.0), hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 3 < n; i += 4) {
    const float64x2_t g_lo = vld1q_f64(g + i), g_hi = vld1q_f64(g + i + 2);
    lo = vaddq_f64(lo, vmulq_f64(g_lo, vsubq_f64(g_lo, vld1q_f64(gp + i))));
    hi = vaddq_f64(hi,
                   vmulq_f64(g_hi, vsubq_f64(g_hi, vld1q_f64(gp + i + 2))));
  }
  return combine_sum(vgetq_lane_f64(lo, 0), vgetq_lane_f64(lo, 1),
                     vgetq_lane_f64(hi, 0), vgetq_lane_f64(hi, 1),
                     pr_num_tail(g, gp, i, n));
}

constexpr Ops kNeonOps = {
    Level::Neon,    n_affine,   n_exp_nonpos, n_neg,
    n_axpy,         n_axpy_out, n_cg_dir,     n_lse_grad,
    n_wa_grad,      bell_splat_lanes, bell_gather_lanes,
    n_minmax,       n_sum,      n_dot,        n_abs_max,
    n_pr_num,
};

}  // namespace

const Ops* neon_ops() { return &kNeonOps; }

}  // namespace rp::simd

#else  // non-aarch64 hosts have no NEON f64 table.

namespace rp::simd {
const Ops* neon_ops() { return nullptr; }
}  // namespace rp::simd

#endif
