// AVX2 kernel table. This file is the only TU compiled with -mavx2 (see
// src/util/CMakeLists.txt); runtime cpuid dispatch in simd.cpp guarantees
// none of these functions execute on a host without AVX2. Every kernel
// reproduces the scalar level's summation tree and association order
// exactly — 4 virtual lanes map onto one 4xf64 register, tails run the
// shared scalar bodies from simd_detail.hpp, and no FMA is emitted
// (explicit mul+add intrinsics; the build disables FP contraction).

#include "util/simd.hpp"
#include "util/simd_detail.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace rp::simd {

namespace {

using namespace detail;

inline __m256d abs_pd(__m256d v) {
  return _mm256_and_pd(
      v, _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL)));
}

inline __m256d neg_pd(__m256d v) {
  return _mm256_xor_pd(
      v, _mm256_castsi256_pd(_mm256_set1_epi64x(
             static_cast<long long>(0x8000000000000000ULL))));
}

void a_affine(const double* x, std::size_t n, double bias, double scale,
              double* out) {
  const __m256d vb = _mm256_set1_pd(bias), vs = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(
        out + i, _mm256_mul_pd(_mm256_add_pd(_mm256_loadu_pd(x + i), vb), vs));
  affine_range(x, i, n, bias, scale, out);
}

/// exp(x) for 4 lanes; operation-for-operation the vector transliteration
/// of detail::exp_one (same constants, same floor-based range reduction,
/// same Horner order, same exponent-bit 2^k construction).
inline __m256d exp_vec(__m256d x) {
  const __m256d kd = _mm256_floor_pd(_mm256_add_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(kExpLog2e)), _mm256_set1_pd(0.5)));
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(x, _mm256_mul_pd(kd, _mm256_set1_pd(kExpLn2Hi))),
      _mm256_mul_pd(kd, _mm256_set1_pd(kExpLn2Lo)));
  __m256d p = _mm256_set1_pd(kExpPoly[13]);
  for (int j = 12; j >= 0; --j)
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(kExpPoly[j]));
  const __m128i k32 = _mm256_cvtpd_epi32(kd);
  const __m256i bits = _mm256_slli_epi64(
      _mm256_add_epi64(_mm256_cvtepi32_epi64(k32), _mm256_set1_epi64x(1023)),
      52);
  const __m256d res = _mm256_mul_pd(p, _mm256_castsi256_pd(bits));
  // Lanes below the flush threshold become exactly 0.0 (the scalar path
  // early-returns before computing anything for those inputs).
  const __m256d flush =
      _mm256_cmp_pd(x, _mm256_set1_pd(kExpFlush), _CMP_LT_OQ);
  return _mm256_andnot_pd(flush, res);
}

void a_exp_nonpos(const double* x, std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(out + i, exp_vec(_mm256_loadu_pd(x + i)));
  exp_range(x, i, n, out);
}

void a_neg(const double* x, std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(out + i, neg_pd(_mm256_loadu_pd(x + i)));
  neg_range(x, i, n, out);
}

void a_axpy(double a, const double* x, std::size_t n, double* y) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  axpy_range(a, x, i, n, y);
}

void a_axpy_out(const double* z, double a, const double* d, std::size_t n,
                double* out) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(
        out + i, _mm256_add_pd(_mm256_loadu_pd(z + i),
                               _mm256_mul_pd(va, _mm256_loadu_pd(d + i))));
  axpy_out_range(z, a, d, i, n, out);
}

void a_cg_dir(const double* g, double beta, double* d, std::size_t n) {
  const __m256d vb = _mm256_set1_pd(beta);
  std::size_t i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(
        d + i, _mm256_add_pd(neg_pd(_mm256_loadu_pd(g + i)),
                             _mm256_mul_pd(vb, _mm256_loadu_pd(d + i))));
  cg_dir_range(g, beta, d, i, n);
}

void a_lse_grad(const double* ep, const double* em, std::size_t n, double rsp,
                double rsm, double* dc) {
  const __m256d vp = _mm256_set1_pd(rsp), vm = _mm256_set1_pd(rsm);
  std::size_t i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(
        dc + i, _mm256_sub_pd(_mm256_mul_pd(_mm256_loadu_pd(ep + i), vp),
                              _mm256_mul_pd(_mm256_loadu_pd(em + i), vm)));
  lse_grad_range(ep, em, i, n, rsp, rsm, dc);
}

void a_wa_grad(const double* c, const double* ep, const double* em,
               std::size_t n, double xmax, double xmin, double ig, double rsp,
               double rsm, double* dc) {
  const __m256d vxmax = _mm256_set1_pd(xmax), vxmin = _mm256_set1_pd(xmin);
  const __m256d vig = _mm256_set1_pd(ig);
  const __m256d vrsp = _mm256_set1_pd(rsp), vrsm = _mm256_set1_pd(rsm);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d vc = _mm256_loadu_pd(c + i);
    const __m256d tmax = _mm256_mul_pd(_mm256_sub_pd(vc, vxmax), vig);
    const __m256d tmin = _mm256_mul_pd(_mm256_sub_pd(vc, vxmin), vig);
    const __m256d dmax = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_loadu_pd(ep + i), _mm256_add_pd(one, tmax)),
        vrsp);
    const __m256d dmin = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_loadu_pd(em + i), _mm256_sub_pd(one, tmin)),
        vrsm);
    _mm256_storeu_pd(dc + i, _mm256_sub_pd(dmax, dmin));
  }
  wa_grad_range(c, ep, em, i, n, xmax, xmin, ig, rsp, rsm, dc);
}

/// Bell values at 4 sample points dx (the blend of bell_one's branches).
inline __m256d bell_vec(__m256d dx, const BellShape& s) {
  const __m256d d = abs_pd(dx);
  const __m256d v1 = _mm256_sub_pd(
      _mm256_set1_pd(1.0),
      _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(s.a), d), d));
  const __m256d t = _mm256_sub_pd(d, _mm256_set1_pd(s.d2));
  const __m256d v2 = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(s.b), t), t);
  const __m256d m1 = _mm256_cmp_pd(d, _mm256_set1_pd(s.d1), _CMP_LE_OQ);
  const __m256d m2 = _mm256_cmp_pd(d, _mm256_set1_pd(s.d2), _CMP_LE_OQ);
  return _mm256_blendv_pd(_mm256_and_pd(v2, m2), v1, m1);
}

/// Signed bell derivatives at 4 sample points dx (bell_deriv_one).
inline __m256d bell_deriv_vec(__m256d dx, const BellShape& s) {
  const __m256d d = abs_pd(dx);
  const __m256d sign =
      _mm256_blendv_pd(_mm256_set1_pd(-1.0), _mm256_set1_pd(1.0),
                       _mm256_cmp_pd(dx, _mm256_setzero_pd(), _CMP_GE_OQ));
  const __m256d r1 = _mm256_mul_pd(
      _mm256_mul_pd(_mm256_set1_pd(-2.0 * s.a), d), sign);
  const __m256d r2 = _mm256_mul_pd(
      _mm256_mul_pd(_mm256_set1_pd(2.0 * s.b),
                    _mm256_sub_pd(d, _mm256_set1_pd(s.d2))),
      sign);
  const __m256d m1 = _mm256_cmp_pd(d, _mm256_set1_pd(s.d1), _CMP_LE_OQ);
  const __m256d m2 = _mm256_cmp_pd(d, _mm256_set1_pd(s.d2), _CMP_LE_OQ);
  return _mm256_blendv_pd(_mm256_and_pd(r2, m2), r1, m1);
}

/// Sample points dx0 + i*step for lanes i..i+3.
inline __m256d row_points(double dx0, double step, std::size_t i) {
  const __m256d vi = _mm256_add_pd(_mm256_set1_pd(static_cast<double>(i)),
                                   _mm256_set_pd(3.0, 2.0, 1.0, 0.0));
  return _mm256_add_pd(_mm256_set1_pd(dx0),
                       _mm256_mul_pd(vi, _mm256_set1_pd(step)));
}

/// A window's x samples: px = bell_x, and dpx = bell_x' when non-null.
inline void sample_row(const BellWindow& w, double* px, double* dpx) {
  std::size_t i = 0;
  for (; i + 3 < w.rw; i += 4) {
    const __m256d dx = row_points(w.dx0, w.step, i);
    _mm256_storeu_pd(px + i, bell_vec(dx, w.bx));
    if (dpx != nullptr) _mm256_storeu_pd(dpx + i, bell_deriv_vec(dx, w.bx));
  }
  const BellShape& s = w.bx;
  bell_row_range(w.dx0, w.step, i, w.rw, s.d1, s.d2, s.a, s.b, px);
  if (dpx != nullptr)
    bell_deriv_row_range(w.dx0, w.step, i, w.rw, s.d1, s.d2, s.a, s.b, dpx);
}

/// A window's y samples: py = bell_y, and dpy = bell_y' when non-null.
inline void sample_col(const BellWindow& w, double* py, double* dpy) {
  std::size_t k = 0;
  for (; k + 3 < w.rh; k += 4) {
    const __m256d dy =
        _mm256_sub_pd(_mm256_set1_pd(w.cy), _mm256_loadu_pd(w.yc + k));
    _mm256_storeu_pd(py + k, bell_vec(dy, w.by));
    if (dpy != nullptr) _mm256_storeu_pd(dpy + k, bell_deriv_vec(dy, w.by));
  }
  bell_at_range(w.cy, w.yc, k, w.rh, w.by, py);
  if (dpy != nullptr) bell_deriv_at_range(w.cy, w.yc, k, w.rh, w.by, dpy);
}

void a_minmax(const double* x, std::size_t n, double* mn_out, double* mx_out) {
  double mn, mx;
  std::size_t i;
  if (n >= 4) {
    __m256d vmn = _mm256_loadu_pd(x);
    __m256d vmx = vmn;
    for (i = 4; i + 3 < n; i += 4) {
      const __m256d v = _mm256_loadu_pd(x + i);
      vmn = _mm256_min_pd(vmn, v);
      vmx = _mm256_max_pd(vmx, v);
    }
    double lmn[4], lmx[4];
    _mm256_storeu_pd(lmn, vmn);
    _mm256_storeu_pd(lmx, vmx);
    mn = min2(min2(lmn[0], lmn[1]), min2(lmn[2], lmn[3]));
    mx = max2(max2(lmx[0], lmx[1]), max2(lmx[2], lmx[3]));
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

double a_sum(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 3 < n; i += 4)
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  double l[4];
  _mm256_storeu_pd(l, acc);
  return combine_sum(l[0], l[1], l[2], l[3], sum_tail(x, i, n));
}

double a_dot(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 3 < n; i += 4)
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  double l[4];
  _mm256_storeu_pd(l, acc);
  return combine_sum(l[0], l[1], l[2], l[3], dot_tail(a, b, i, n));
}

double a_abs_max(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 3 < n; i += 4)
    acc = _mm256_max_pd(acc, abs_pd(_mm256_loadu_pd(x + i)));
  double l[4];
  _mm256_storeu_pd(l, acc);
  double m = max2(max2(l[0], l[1]), max2(l[2], l[3]));
  for (; i < n; ++i) m = max2(m, abs_one(x[i]));
  return m;
}

double a_pr_num(const double* g, const double* gp, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d vg = _mm256_loadu_pd(g + i);
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(vg, _mm256_sub_pd(vg, _mm256_loadu_pd(gp + i))));
  }
  double l[4];
  _mm256_storeu_pd(l, acc);
  return combine_sum(l[0], l[1], l[2], l[3], pr_num_tail(g, gp, i, n));
}

/// net_lanes bodies' vector type: the four nets in one 4xf64 register.
/// _mm256_min_pd/_mm256_max_pd keep the first operand only when the
/// comparison holds, exactly min2/max2.
struct Avx4 {
  __m256d v;
  static Avx4 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static Avx4 set1(double x) { return {_mm256_set1_pd(x)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  friend Avx4 operator+(Avx4 a, Avx4 b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend Avx4 operator-(Avx4 a, Avx4 b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend Avx4 operator*(Avx4 a, Avx4 b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend Avx4 operator/(Avx4 a, Avx4 b) { return {_mm256_div_pd(a.v, b.v)}; }
  friend Avx4 vmin(Avx4 a, Avx4 b) { return {_mm256_min_pd(a.v, b.v)}; }
  friend Avx4 vmax(Avx4 a, Avx4 b) { return {_mm256_max_pd(a.v, b.v)}; }
};

double a_bell_splat(const BellWindow& w, double area, double* grid,
                    std::size_t stride, double* scratch) {
  double* px = scratch;
  double* py = px + w.rw;
  sample_row(w, px, nullptr);
  sample_col(w, py, nullptr);
  return splat_rows(py, w.rh, a_sum(px, w.rw), area, grid, stride,
                    [&](double a, double* row) { a_axpy(a, px, w.rw, row); });
}

void a_bell_gather(const BellWindow& w, double cv, const double* resid,
                   std::size_t stride, double* scratch, double* gx,
                   double* gy) {
  double* px = scratch;
  double* dpx = px + w.rw;
  double* py = dpx + w.rw;
  double* dpy = py + w.rh;
  sample_row(w, px, dpx);
  sample_col(w, py, dpy);
  const std::size_t body = w.rw & ~std::size_t{3};
  gather_rows(py, dpy, w.rh, cv, resid, stride, gx, gy,
              [&](const double* row, double* ddx, double* ddy) {
                // Both dots in one pass over the row: lanes of ax/ay are the
                // tree's l0..l3; hadd + a 128-bit add forms (l0+l1)+(l2+l3)
                // for both at once, the sequential tails go last.
                __m256d ax = _mm256_setzero_pd(), ay = _mm256_setzero_pd();
                for (std::size_t i = 0; i < body; i += 4) {
                  const __m256d r = _mm256_loadu_pd(row + i);
                  ax = _mm256_add_pd(ax, _mm256_mul_pd(r, _mm256_loadu_pd(dpx + i)));
                  ay = _mm256_add_pd(ay, _mm256_mul_pd(r, _mm256_loadu_pd(px + i)));
                }
                const __m256d h = _mm256_hadd_pd(ax, ay);
                const __m128d l = _mm_add_pd(_mm256_castpd256_pd128(h),
                                             _mm256_extractf128_pd(h, 1));
                *ddx = _mm_cvtsd_f64(l) + dot_tail(row, dpx, body, w.rw);
                *ddy = _mm_cvtsd_f64(_mm_unpackhi_pd(l, l)) +
                       dot_tail(row, px, body, w.rw);
              });
}

constexpr Ops kAvx2Ops = {
    Level::Avx2,    a_affine,   a_exp_nonpos, a_neg,
    a_axpy,         a_axpy_out, a_cg_dir,     a_lse_grad,
    a_wa_grad,      a_bell_splat, a_bell_gather,
    net_lanes_stage_body<Avx4>, net_lanes_finish_body<Avx4>,
    a_minmax,       a_sum,      a_dot,        a_abs_max,
    a_pr_num,
};

}  // namespace

const Ops* avx2_ops() { return &kAvx2Ops; }

}  // namespace rp::simd

#else  // !__AVX2__: toolchain cannot target AVX2 — dispatch falls back.

namespace rp::simd {
const Ops* avx2_ops() { return nullptr; }
}  // namespace rp::simd

#endif
