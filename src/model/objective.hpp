#pragma once
// The penalized placement objective  f = WL_smooth + λ · N_density,
// presented to the nonlinear solver as a function of the packed coordinate
// vector of MOVABLE nodes only:  z = [x_m0, x_m1, ..., y_m0, y_m1, ...].
//
// λ starts so the two gradient fields have equal L1 norm (the standard
// initialization in this placer family) and is raised geometrically by the
// outer loop until the density overflow target is met.

#include <span>
#include <vector>

#include "model/density.hpp"
#include "model/wirelength.hpp"

namespace rp {

class PlacementObjective {
 public:
  PlacementObjective(PlaceProblem& p, WirelengthModel& wl, DensityModel& dens);

  int dim() const { return 2 * static_cast<int>(movable_.size()); }
  int num_movable() const { return static_cast<int>(movable_.size()); }
  const std::vector<int>& movable() const { return movable_; }

  /// Read current problem coordinates into a packed vector.
  std::vector<double> pack() const;
  /// Write a packed vector into the problem (and clamp to the die).
  void unpack(std::span<const double> z);

  /// f(z) and its gradient: value(z), then gradient(grad).
  double eval(std::span<const double> z, std::span<double> grad);

  /// f(z): writes z into the problem, then runs the wirelength net pass
  /// (value and per-pin gradients, which the same kernel yields) and
  /// density pass 1 as one pool job, then the per-bin reduction. Records
  /// the separate WL / density values for diagnostics.
  double value(std::span<const double> z);
  /// ∇f at the point of the last value() call: the wirelength's per-node
  /// gather of the pin gradients value() left and density pass 2 over its
  /// residuals, as one pool job, then the combine. Nothing may evaluate
  /// the two models in between.
  void gradient(std::span<double> grad);

  /// λ such that ||∂WL||₁ == λ·||∂N||₁ at the current coordinates.
  double balanced_lambda();

  void set_lambda(double l) { lambda_ = l; }
  double lambda() const { return lambda_; }

  double last_wl() const { return last_wl_; }
  double last_density() const { return last_density_; }

  PlaceProblem& problem() { return p_; }
  DensityModel& density_model() { return dens_; }
  WirelengthModel& wirelength_model() { return wl_; }

 private:
  PlaceProblem& p_;
  WirelengthModel& wl_;
  DensityModel& dens_;
  std::vector<int> movable_;
  double lambda_ = 0.0;
  double last_wl_ = 0.0;
  double last_density_ = 0.0;
  std::vector<double> gx_, gy_;  // full-size WL gradients (the gather assigns)
  // Density-gradient scratch (λ != 0 path). All zero between gradient()
  // calls: the density model writes only movable nodes, and the combine
  // clears each slot it reads.
  std::vector<double> dx_, dy_;
};

}  // namespace rp
