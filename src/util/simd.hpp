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
//  * Reductions (sum/dot/abs_max/pr_num/minmax) accumulate into 4 virtual
//    lanes over blocks of 4 elements, combine the lanes as
//    (l0+l1) + (l2+l3), and fold a sequential scalar tail in last — the
//    scalar path executes this shape literally, AVX2 maps the lanes onto
//    one 4×f64 register, NEON onto two 2×f64 registers.
//  * Element-wise kernels (affine/exp/gradients/bell rows) pin the
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
  /// Bell potential sampled along one grid row: d = d0 + i*step,
  /// out[i] = 1-(a*|d|)*|d| for |d|<=d1, (b*(|d|-d2))*(|d|-d2) for <=d2, 0.
  void (*bell_row)(double d0, double step, std::size_t n, double d1,
                   double d2, double a, double b, double* out);
  /// Signed derivative of bell_row at the same sample points.
  void (*bell_deriv_row)(double d0, double step, std::size_t n, double d1,
                         double d2, double a, double b, double* out);

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
