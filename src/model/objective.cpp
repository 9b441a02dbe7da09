#include "model/objective.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/parallel.hpp"

namespace rp {

namespace {

/// Elements per chunk of the element-wise glue (unpack, combine).
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
  const double f = value(z);
  gradient(grad);
  return f;
}

double PlacementObjective::value(std::span<const double> z) {
  unpack(z);
  // Density pass 1 and the wirelength net pass read the same coordinates
  // and write disjoint outputs, so they run as one pool job: the few fat
  // splat chunks first, the many small net chunks filling the tail.
  const bool with_density = lambda_ != 0.0;
  const parallel::ChunkPlan splat = with_density ? dens_.begin_value(p_) : parallel::ChunkPlan{};
  const parallel::ChunkPlan nets = wl_.begin_nets(p_, /*grad=*/true);
  parallel::ThreadPool::instance().run_parts(
      {{splat, [&](int c, int w) { dens_.value_chunk(p_, c, w); }},
       {nets, [&](int c, int w) { wl_.net_chunk(p_, c, w); }}});
  last_wl_ = wl_.end_nets(p_);
  last_density_ = with_density ? dens_.end_value() : 0.0;
  return last_wl_ + lambda_ * last_density_;
}

void PlacementObjective::gradient(std::span<double> grad) {
  // Density pass 2 and the wirelength gather (assigning, so gx_/gy_ need
  // no zeroing pass) as one job, pass 2's heavier chunks first; then the
  // combine.
  const bool with_density = lambda_ != 0.0;
  const parallel::ChunkPlan pass2 =
      with_density ? dens_.begin_gradient(p_, dx_, dy_) : parallel::ChunkPlan{};
  parallel::ThreadPool::instance().run_parts(
      {{pass2, [&](int c, int w) { dens_.gradient_chunk(p_, c, w, dx_, dy_); }},
       {wl_.gather_plan(), [&](int c, int) { wl_.gather_chunk(c, gx_, gy_, false); }}});
  // grad = ∂WL + λ·∂N, packed (the λ == 0 path never reads dx_/dy_).
  const std::size_t m = movable_.size();
  parallel::parallel_for(m, kElemGrain, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) {
      const auto v = static_cast<std::size_t>(movable_[i]);
      if (with_density) {
        grad[i] = gx_[v] + lambda_ * dx_[v];
        grad[m + i] = gy_[v] + lambda_ * dy_[v];
        dx_[v] = dy_[v] = 0.0;
      } else {
        grad[i] = gx_[v];
        grad[m + i] = gy_[v];
      }
    }
  });
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
