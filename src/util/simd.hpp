#pragma once
// Runtime-dispatched SIMD kernels for the hot numeric inner loops.
//
// The placer's determinism contract (util/parallel.hpp) demands bitwise
// identical results for any thread count. This layer extends that contract
// to the instruction set: the SCALAR AND VECTOR IMPLEMENTATIONS OF EVERY
// KERNEL USE THE SAME SUMMATION TREE, so switching RP_SIMD=off|avx2|neon
// (or running on a host without AVX2) cannot change a single bit of any
// result. Concretely:
//
//  * Reductions (sum/dot/abs_max/pr_num/minmax, and the row sums and dots
//    inside bell_splat/bell_gather) accumulate into 4 virtual lanes over
//    blocks of 4 elements, combine the lanes as (l0+l1) + (l2+l3), and
//    fold a sequential scalar tail in last — the scalar path executes this
//    shape literally, AVX2 maps the lanes onto one 4×f64 register, NEON
//    onto two 2×f64 registers.
//  * Element-wise kernels (affine/exp/gradients/bell samples) pin the
//    association order of every expression; no implementation may use FMA
//    (the build compiles with -ffp-contract=off so the compiler cannot
//    introduce contractions behind the scalar path's back).
//  * exp_nonpos() is a shared custom exp (range reduction with
//    k = floor(x·log2e + 0.5), split-ln2 remainder, degree-13 Horner
//    polynomial, exponent-bit 2^k scaling) implemented operation-for-
//    operation identically in every path — libm's exp is NOT used in any
//    dispatched kernel because its vector variants differ per libc.
//
// Dispatch: a single function-pointer table (Ops) selected once per
// process from RP_SIMD (auto|off|avx2|neon) or simd::set_level(). "auto"
// picks the best level the host supports; requesting an unsupported level
// falls back to scalar with a warning. The active table is stored in a
// relaxed atomic so tests may flip levels between evaluations.

#include <cstddef>
#include <string>

namespace rp::simd {

/// Dispatch level. Scalar is always available; Avx2/Neon require both
/// compile-time support (per-file -mavx2 / aarch64) and a host CPU flag.
enum class Level { Scalar, Avx2, Neon };

const char* level_name(Level l);

/// What the host CPU supports (queried once, cached).
struct HostFeatures {
  bool avx2 = false;
  bool neon = false;
};
const HostFeatures& host_features();

/// One axis of the bell-shaped density potential (model/density.hpp):
///   p(d) = 1-(a*|d|)*|d|           for |d| <= d1
///        = (b*(|d|-d2))*(|d|-d2)   for d1 < |d| <= d2
///        = 0                       beyond,
/// with signed derivative ((-2a)*|d|)*sign(d) and ((2b)*(|d|-d2))*sign(d).
struct BellShape {
  double d1, d2, a, b;
};

/// One node's bell window on the density grid: rw bins along x, sampled at
/// d = dx0 + i*step (uniform bins), by rh bin rows along y, sampled at
/// d = cy - yc[k] (the row centres, read from the caller's table).
struct BellWindow {
  BellShape bx, by;
  double dx0, step;
  std::size_t rw;
  double cy;
  const double* yc;
  std::size_t rh;
};

/// Four nets of one degree d evaluated side by side on one axis, one net per
/// lane, for the smoothed wirelength models (model/wirelength.hpp). Every
/// array is pin-major: element 4k + j is pin k of net j. Each lane runs the
/// per-net expression tree of the scalar level exactly (minmax, the
/// exp-argument affines, the 4-lane sum/dot trees and the gradient), so a
/// net's bits do not depend on which lane, or which neighbours, it gets.
struct NetLanes {
  const double* c;  ///< 4d pin coordinates.
  double* ep;       ///< 4d: (c - max)/γ after stage; e^ of that at finish.
  double* em;       ///< 4d: (min - c)/γ after stage; e^ of that at finish.
  double* ext;      ///< 8: lane minima (0..3), then lane maxima (4..7).
  std::size_t d;    ///< Pins per net (>= 1).
  double gamma;
  double ig;        ///< 1/γ, as the caller rounded it.
  bool wa;          ///< Weighted average (true) or log-sum-exp.
};

/// The kernel table. All pointers are always valid; Scalar fills every
/// slot, vector levels override the whole table (never a mix).
struct Ops {
  Level level;

  // ---- element-wise (no reduction; association order pinned) ----
  /// out[i] = (x[i] + bias) * scale
  void (*affine)(const double* x, std::size_t n, double bias, double scale,
                 double* out);
  /// out[i] = exp(x[i]) for finite x[i] <= 0 (flushes to 0 below -708).
  /// Element-wise, so out may alias x (in-place evaluation).
  void (*exp_nonpos)(const double* x, std::size_t n, double* out);
  /// out[i] = -x[i]
  void (*neg)(const double* x, std::size_t n, double* out);
  /// y[i] = y[i] + a * x[i]
  void (*axpy)(double a, const double* x, std::size_t n, double* y);
  /// out[i] = z[i] + a * d[i]
  void (*axpy_out)(const double* z, double a, const double* d, std::size_t n,
                   double* out);
  /// d[i] = -g[i] + beta * d[i]   (CG direction update)
  void (*cg_dir)(const double* g, double beta, double* d, std::size_t n);
  /// dc[i] = ep[i]*rsp - em[i]*rsm   (LSE gradient)
  void (*lse_grad)(const double* ep, const double* em, std::size_t n,
                   double rsp, double rsm, double* dc);
  /// dc[i] = (ep[i]*(1+(c[i]-xmax)*ig))*rsp - (em[i]*(1-(c[i]-xmin)*ig))*rsm
  void (*wa_grad)(const double* c, const double* ep, const double* em,
                  std::size_t n, double xmax, double xmin, double ig,
                  double rsp, double rsm, double* dc);
  // ---- per-node density kernels (see BellWindow; grid rows are `stride`
  // doubles apart, row k of the window starts at grid + k*stride) ----
  /// Density pass 1 for one node. Samples px[i] = bell_x(dx0 + i*step) and
  /// py[k] = bell_y(cy - yc[k]) once, forms s = Σ_k py[k]*sum(px) in row
  /// order over rows with py[k] != 0, and returns cv = area / s after
  /// adding (cv*py[k])*px[i] to grid row k (every row with py[k] != 0).
  /// s <= 0 returns 0 and writes nothing. scratch holds rw + rh doubles.
  double (*bell_splat)(const BellWindow& w, double area, double* grid,
                       std::size_t stride, double* scratch);
  /// Density pass 2 for one node: samples px, px', py, py', then per row k
  /// (one pass over the residual row) ddx = dot(row, px') and
  /// ddy = dot(row, px) with the reduction tree, and returns in *gx/*gy
  /// Σ_k ((2cv)*py[k])*ddx and Σ_k ((2cv)*py'[k])*ddy, summed in row order
  /// from 0. scratch holds 2*(rw + rh) doubles.
  void (*bell_gather)(const BellWindow& w, double cv, const double* resid,
                      std::size_t stride, double* scratch, double* gx,
                      double* gy);

  // ---- lane-parallel net kernels (see NetLanes); the caller
  // exponentiates ep/em in place between the two calls ----
  /// Writes each lane's extremes to ext and the exp arguments
  /// (c + (-max))*ig to ep and (c + (-min))*(-ig) to em.
  void (*net_lanes_stage)(const NetLanes& g);
  /// val[j] = net j's smoothed extent: WA Σc·ep/Σep - Σc·em/Σem, LSE
  /// (max - min) + γ(log Σep + log Σem). With dc != nullptr also writes
  /// dWL/dc per pin (4d, pin-major).
  void (*net_lanes_finish)(const NetLanes& g, double* val, double* dc);

  // ---- reductions (fixed 4-lane tree; see header comment) ----
  /// mn/mx over x[0..n), n >= 1.
  void (*minmax)(const double* x, std::size_t n, double* mn, double* mx);
  double (*sum)(const double* x, std::size_t n);
  double (*dot)(const double* a, const double* b, std::size_t n);
  double (*abs_max)(const double* x, std::size_t n);
  /// Polak-Ribiere numerator: sum g[i]*(g[i]-gp[i]).
  double (*pr_num)(const double* g, const double* gp, std::size_t n);
};

/// Active kernel table (initialized lazily from RP_SIMD on first use).
const Ops& ops();

/// Currently active level.
Level active_level();
/// What was requested ("auto", "off", ... — env/CLI provenance for reports).
const std::string& requested();

/// Parse + apply an explicit request ("auto"|"off"|"avx2"|"neon").
/// Returns false (and leaves the level unchanged) on an unknown token.
bool set_from_string(const std::string& req);

/// Resolve a request to the level that would actually run on this host.
Level resolve(const std::string& req, bool* recognized = nullptr);

// Implementation tables (internal; exposed for the equivalence tests).
const Ops& scalar_ops();
const Ops* avx2_ops();  ///< nullptr when not compiled in / unsupported ISA.
const Ops* neon_ops();  ///< nullptr when not compiled in.

}  // namespace rp::simd
