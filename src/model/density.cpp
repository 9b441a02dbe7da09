#include "model/density.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/profiler.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"

namespace rp {

namespace {

/// One axis of the bell-shaped potential (the shape simd::BellShape spells
/// out) for an object of width w over bins of width `bin`:
///   d1 = w/2 + bin, d2 = w/2 + 2·bin, a = 1/(d1·d2), b = 1/(bin·d2),
/// C1-continuous at d1 and d2 by construction.
simd::BellShape bell_shape(double w, double bin) {
  const double d1 = w / 2 + bin;
  const double d2 = w / 2 + 2 * bin;
  return {d1, d2, 1.0 / (d1 * d2), 1.0 / (bin * d2)};
}

}  // namespace

int auto_bin_count(int num_movable) {
  int target = static_cast<int>(std::sqrt(std::max(1, num_movable)));
  int n = 8;
  while (n < target && n < 1024) n *= 2;
  return n;
}

DensityModel::DensityModel(const PlaceProblem& p, const DensityConfig& cfg) {
  int movable = 0;
  for (const auto& n : p.nodes)
    if (!n.fixed) ++movable;
  const int nx = cfg.nx > 0 ? cfg.nx : auto_bin_count(movable);
  const int ny = cfg.ny > 0 ? cfg.ny : auto_bin_count(movable);
  grid_ = GridMap(p.die, nx, ny);
  xc_.resize(static_cast<std::size_t>(nx));
  yc_.resize(static_cast<std::size_t>(ny));
  for (int ix = 0; ix < nx; ++ix) xc_[static_cast<std::size_t>(ix)] = grid_.bin_center(ix, 0).x;
  for (int iy = 0; iy < ny; ++iy) yc_[static_cast<std::size_t>(iy)] = grid_.bin_center(0, iy).y;
  target_density_ = cfg.target_density;
  scale_ = Grid2D<double>(nx, ny, 1.0);
  resid_ = Grid2D<double>(nx, ny, 0.0);
  rebuild_fixed(p);
}

void DensityModel::rebuild_fixed(const PlaceProblem& p) {
  fixed_area_ = Grid2D<double>(grid_.nx(), grid_.ny(), 0.0);
  for (int v = 0; v < p.num_nodes(); ++v) {
    const auto& n = p.nodes[static_cast<std::size_t>(v)];
    if (!n.fixed) continue;
    const double cx = p.x[static_cast<std::size_t>(v)];
    const double cy = p.y[static_cast<std::size_t>(v)];
    const Rect r{cx - n.w / 2, cy - n.h / 2, cx + n.w / 2, cy + n.h / 2};
    grid_.rasterize(r, [&](int ix, int iy, double a) { fixed_area_(ix, iy) += a; });
  }
  rebuild_capacity();
}

void DensityModel::rebuild_capacity() {
  cap_ = Grid2D<double>(grid_.nx(), grid_.ny(), 0.0);
  const double ba = grid_.bin_area();
  for (int iy = 0; iy < grid_.ny(); ++iy)
    for (int ix = 0; ix < grid_.nx(); ++ix) {
      const double free_area = std::max(0.0, ba - fixed_area_(ix, iy));
      cap_(ix, iy) = target_density_ * free_area * scale_(ix, iy);
    }
}

void DensityModel::apply_capacity_scale(const Grid2D<double>& scale) {
  RP_ASSERT(scale.nx() == grid_.nx() && scale.ny() == grid_.ny(),
            "capacity scale grid size mismatch");
  scale_ = scale;
  rebuild_capacity();
}

simd::BellWindow DensityModel::window(const PlaceProblem& p, std::size_t uv,
                                      std::size_t* first_bin) const {
  const auto& n = p.nodes[uv];
  const double cx = p.x[uv];
  const double cy = p.y[uv];
  const double bw = grid_.bin_w(), bh = grid_.bin_h();
  const simd::BellShape bx = bell_shape(n.w, bw), by = bell_shape(n.h, bh);
  const int nx = grid_.nx(), ny = grid_.ny();
  const int ix0 = std::max(0, grid_.ix_of(cx - bx.d2) - 1);
  const int ix1 = std::min(nx - 1, grid_.ix_of(cx + bx.d2) + 1);
  const int iy0 = std::max(0, grid_.iy_of(cy - by.d2) - 1);
  const int iy1 = std::min(ny - 1, grid_.iy_of(cy + by.d2) + 1);
  *first_bin = static_cast<std::size_t>(iy0) * static_cast<std::size_t>(nx) +
               static_cast<std::size_t>(ix0);
  return {bx,
          by,
          cx - xc_[static_cast<std::size_t>(ix0)],
          -bw,
          static_cast<std::size_t>(ix1 - ix0 + 1),
          cy,
          yc_.data() + iy0,
          static_cast<std::size_t>(iy1 - iy0 + 1)};
}

parallel::ChunkPlan DensityModel::node_chunks(std::size_t nn) const {
  const parallel::ChunkPlan plan = parallel::plan_chunks(nn, kNodeGrain, kGridChunkCap);
  if (static_cast<int>(chunk_dens_.size()) < plan.count)
    chunk_dens_.resize(static_cast<std::size_t>(plan.count));
  return plan;
}

Grid2D<double>& DensityModel::zeroed_chunk_grid(int ci) const {
  Grid2D<double>& g = chunk_dens_[static_cast<std::size_t>(ci)];
  if (g.nx() != grid_.nx() || g.ny() != grid_.ny())
    g = Grid2D<double>(grid_.nx(), grid_.ny(), 0.0);
  else
    g.fill(0.0);
  return g;
}

double DensityModel::eval(const PlaceProblem& p, std::span<double> gx,
                          std::span<double> gy) {
  if (gx.size() != p.nodes.size() || gy.size() != p.nodes.size())
    throw std::runtime_error("density eval: gradient span size mismatch");
  RP_PROFILE_REGION("kernel/density");
  const auto nx = static_cast<std::size_t>(grid_.nx());
  const auto nn = static_cast<std::size_t>(p.num_nodes());
  RP_COUNT("parallel.density_evals", 1);

  // Every node's work in each pass is one dispatched per-node kernel (see
  // simd::Ops::bell_splat / bell_gather): the bells are sampled once per
  // node into the worker's buffer, and the window's bin rows — contiguous
  // in ix — are updated or read in row order.
  csum_.resize(nn);
  const auto workers = static_cast<std::size_t>(parallel::num_threads());
  if (samples_.size() < workers) samples_.resize(workers);
  const std::size_t samples = 2 * (nx + static_cast<std::size_t>(grid_.ny()));
  for (auto& sc : samples_)
    if (sc.size() < samples) sc.resize(samples);

  // Pass 1: accumulate smoothed density, one scratch grid per node chunk;
  // the per-node normalization c_v is cached for pass 2.
  const parallel::ChunkPlan plan = node_chunks(nn);
  parallel::ThreadPool::instance().run(plan, [&](int ci, int worker) {
    const simd::Ops& ops = simd::ops();
    double* scratch = samples_[static_cast<std::size_t>(worker)].data();
    double* g = zeroed_chunk_grid(ci).data().data();
    for (std::size_t uv = plan.begin(ci); uv < plan.end(ci); ++uv) {
      csum_[uv] = 0.0;
      const auto& n = p.nodes[uv];
      if (n.fixed) continue;
      std::size_t first = 0;
      const simd::BellWindow w = window(p, uv, &first);
      csum_[uv] = ops.bell_splat(w, n.area() * p.inflate[uv], g + first, nx, scratch);
    }
  });

  // One pass over the bins: density = chunk grids summed per bin in
  // ascending chunk order, residual (D-C)^+, and the penalty Σ residual²
  // (a chunk-ordered reduction over bins).
  const double penalty = parallel::parallel_reduce(
      resid_.size(), kBinGrain, 0.0,
      [&](std::size_t b, std::size_t e, int) -> double {
        double* r = resid_.data().data();
        std::fill(r + b, r + e, 0.0);
        for (int ci = 0; ci < plan.count; ++ci) {
          const double* c = chunk_dens_[static_cast<std::size_t>(ci)].data().data();
          for (std::size_t i = b; i < e; ++i) r[i] += c[i];
        }
        const double* cap = cap_.data().data();
        double part = 0.0;
        for (std::size_t i = b; i < e; ++i) {
          r[i] = std::max(0.0, r[i] - cap[i]);
          part += r[i] * r[i];
        }
        return part;
      },
      [](double a, double b) { return a + b; });

  // Pass 2: gradients.  dN/dx_v = Σ_b 2·R_b · c_v · px'(cx-xb) · py.
  // Embarrassingly parallel: every node writes only its own gradient slot.
  parallel::parallel_for(nn, kNodeGrain, [&](std::size_t b, std::size_t e, int worker) {
    const simd::Ops& ops = simd::ops();
    double* scratch = samples_[static_cast<std::size_t>(worker)].data();
    const double* resid = resid_.data().data();
    for (std::size_t uv = b; uv < e; ++uv) {
      if (p.nodes[uv].fixed || csum_[uv] == 0.0) continue;
      std::size_t first = 0;
      const simd::BellWindow w = window(p, uv, &first);
      double dgx = 0.0, dgy = 0.0;
      ops.bell_gather(w, csum_[uv], resid + first, nx, scratch, &dgx, &dgy);
      gx[uv] += dgx;
      gy[uv] += dgy;
    }
  });
  return penalty;
}

Grid2D<double> DensityModel::rasterized_density(const PlaceProblem& p) const {
  Grid2D<double> g(grid_.nx(), grid_.ny(), 0.0);
  const auto nn = static_cast<std::size_t>(p.num_nodes());
  const parallel::ChunkPlan plan = node_chunks(nn);
  parallel::ThreadPool::instance().run(plan, [&](int ci, int) {
    Grid2D<double>& pg = zeroed_chunk_grid(ci);
    for (std::size_t uv = plan.begin(ci); uv < plan.end(ci); ++uv) {
      const auto& n = p.nodes[uv];
      if (n.fixed) continue;
      const double cx = p.x[uv];
      const double cy = p.y[uv];
      const double infl = std::sqrt(p.inflate[uv]);
      const double w = n.w * infl, h = n.h * infl;
      const Rect r{cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2};
      grid_.rasterize(r, [&](int ix, int iy, double a) { pg(ix, iy) += a; });
    }
  });
  parallel::parallel_for(g.size(), kBinGrain, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) {
      double s = 0.0;
      for (int ci = 0; ci < plan.count; ++ci) s += chunk_dens_[static_cast<std::size_t>(ci)].data()[i];
      g.data()[i] = s;
    }
  });
  return g;
}

double DensityModel::overflow(const PlaceProblem& p) const {
  RP_PROFILE_REGION("kernel/density_overflow");
  const Grid2D<double> g = rasterized_density(p);
  double over = 0.0, area = 0.0;
  for (int iy = 0; iy < grid_.ny(); ++iy)
    for (int ix = 0; ix < grid_.nx(); ++ix)
      over += std::max(0.0, g(ix, iy) - cap_(ix, iy));
  for (const auto& n : p.nodes)
    if (!n.fixed) area += n.area();
  return area > 0 ? over / area : 0.0;
}

}  // namespace rp
