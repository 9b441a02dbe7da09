#include "model/objective.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/parallel.hpp"
#include "util/profiler.hpp"

namespace rp {

namespace {

/// Elements per chunk of the element-wise glue (unpack, zeroing, combine).
constexpr std::size_t kElemGrain = 2048;

}  // namespace

PlacementObjective::PlacementObjective(PlaceProblem& p, WirelengthModel& wl,
                                       DensityModel& dens)
    : p_(p), wl_(wl), dens_(dens) {
  for (int v = 0; v < p.num_nodes(); ++v)
    if (!p.nodes[static_cast<std::size_t>(v)].fixed) movable_.push_back(v);
  gx_.resize(p.nodes.size());
  gy_.resize(p.nodes.size());
  dx_.resize(p.nodes.size());
  dy_.resize(p.nodes.size());
}

std::vector<double> PlacementObjective::pack() const {
  std::vector<double> z(static_cast<std::size_t>(dim()));
  const std::size_t m = movable_.size();
  for (std::size_t i = 0; i < m; ++i) {
    z[i] = p_.x[static_cast<std::size_t>(movable_[i])];
    z[m + i] = p_.y[static_cast<std::size_t>(movable_[i])];
  }
  return z;
}

void PlacementObjective::unpack(std::span<const double> z) {
  if (static_cast<int>(z.size()) != dim())
    throw std::runtime_error("objective unpack: dimension mismatch");
  const std::size_t m = movable_.size();
  // movable_ is exactly the non-fixed node set, so clamping each node as it
  // is written is PlaceProblem::clamp_to_die(), element by element.
  parallel::parallel_for(m, kElemGrain, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) {
      const auto v = static_cast<std::size_t>(movable_[i]);
      p_.x[v] = z[i];
      p_.y[v] = z[m + i];
      p_.clamp_node(v);
    }
  });
}

double PlacementObjective::eval(std::span<const double> z, std::span<double> grad) {
  RP_PROFILE_REGION("kernel/objective");
  unpack(z);
  const bool with_density = lambda_ != 0.0;
  const std::size_t nn = p_.nodes.size();
  parallel::parallel_for(nn, kElemGrain, [&](std::size_t b, std::size_t e, int) {
    std::fill(gx_.begin() + b, gx_.begin() + e, 0.0);
    std::fill(gy_.begin() + b, gy_.begin() + e, 0.0);
    if (with_density) {
      std::fill(dx_.begin() + b, dx_.begin() + e, 0.0);
      std::fill(dy_.begin() + b, dy_.begin() + e, 0.0);
    }
  });
  last_wl_ = wl_.eval(p_, gx_, gy_);
  last_density_ = with_density ? dens_.eval(p_, dx_, dy_) : 0.0;
  // grad = ∂WL + λ·∂N, packed (the λ == 0 path never reads dx_/dy_).
  const std::size_t m = movable_.size();
  parallel::parallel_for(m, kElemGrain, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) {
      const auto v = static_cast<std::size_t>(movable_[i]);
      grad[i] = with_density ? gx_[v] + lambda_ * dx_[v] : gx_[v];
      grad[m + i] = with_density ? gy_[v] + lambda_ * dy_[v] : gy_[v];
    }
  });
  return last_wl_ + lambda_ * last_density_;
}

double PlacementObjective::balanced_lambda() {
  std::vector<double> wx(p_.nodes.size(), 0.0), wy(p_.nodes.size(), 0.0);
  std::vector<double> dx(p_.nodes.size(), 0.0), dy(p_.nodes.size(), 0.0);
  wl_.eval(p_, wx, wy);
  dens_.eval(p_, dx, dy);
  double nw = 0.0, nd = 0.0;
  for (const int v : movable_) {
    nw += std::abs(wx[static_cast<std::size_t>(v)]) + std::abs(wy[static_cast<std::size_t>(v)]);
    nd += std::abs(dx[static_cast<std::size_t>(v)]) + std::abs(dy[static_cast<std::size_t>(v)]);
  }
  return nd > 0 ? nw / nd : 1.0;
}

}  // namespace rp
