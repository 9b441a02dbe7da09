#pragma once
// Nonlinear conjugate gradient (Polak–Ribière+), the inner solver of the
// analytical global placer.
//
// Instead of an exact line search (expensive: every evaluation costs a full
// wirelength + density pass), the step follows this placer family's scheme:
// the step size is chosen so the LARGEST single-coordinate move equals a
// trust radius (typically one density-bin width), with backtracking only if
// the objective increases. PR+ restarts (β clamped at 0) keep directions
// descent-safe under this inexact search. The line search compares values
// only, so it asks for the gradient just at the trial point it accepts.

#include <concepts>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace rp {

struct CgOptions {
  int max_iters = 100;
  double trust_radius = 1.0;      ///< Max per-coordinate displacement per step.
  double grad_tol = 1e-6;         ///< Stop when ||g||∞ < grad_tol.
  double f_rel_tol = 1e-7;        ///< Stop on tiny relative objective change.
  int max_backtracks = 6;         ///< Halvings before accepting uphill drift.
};

struct CgResult {
  double f = 0.0;       ///< Final objective value.
  int iters = 0;        ///< Iterations actually performed.
  bool converged = false;
};

/// The objective, in one of two forms. Split: value(z) returns f(z), and
/// gradient(g) fills g (same size as z) with ∇f at the point of the most
/// recent value() call; minimize_cg asks for it only at the trial point it
/// accepts. One-call: full(z, g) returns f(z) and fills g, at every trial
/// point (minimize_cg passes its own buffers, so the object holds no state).
struct CgObjective {
  std::function<double(std::span<const double>)> value;
  std::function<void(std::span<double>)> gradient;
  std::function<double(std::span<const double>, std::span<double>)> full;

  CgObjective(std::function<double(std::span<const double>)> v,
              std::function<void(std::span<double>)> g)
      : value(std::move(v)), gradient(std::move(g)) {}

  template <typename F>
    requires std::invocable<F&, std::span<const double>, std::span<double>>
  CgObjective(F f) : full(std::move(f)) {}
};

/// Minimize starting from z (updated in place).
CgResult minimize_cg(const CgObjective& f, std::vector<double>& z, const CgOptions& opt);

/// Outcome of the numeric guard wrapped around one minimize_cg call.
struct GuardStats {
  int retries = 0;       ///< Restore-and-retry cycles taken (0 or 1).
  bool degraded = false; ///< True if the accepted solve used a halved step.
};

/// minimize_cg with numeric guard rails: if the solve leaves any NaN/Inf in
/// z, restore the last-good z, halve the trust radius, and retry ONCE; a
/// second non-finite result restores z and throws rp::Error(NumericError).
/// `stage` names the caller for the error's stage field ("gp/level2", ...).
/// Bitwise-deterministic: the guard only inspects values the solve produced.
CgResult minimize_cg_guarded(const CgObjective& f, std::vector<double>& z,
                             const CgOptions& opt, const std::string& stage,
                             GuardStats* guard = nullptr);

}  // namespace rp
