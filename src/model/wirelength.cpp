#include "model/wirelength.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/parallel.hpp"
#include "util/profiler.hpp"
#include "util/simd.hpp"
#include "util/simd_detail.hpp"
#include "util/telemetry.hpp"

namespace rp {

namespace {

using simd::detail::affine_range;
using simd::detail::dot_lanes;
using simd::detail::lse_grad_range;
using simd::detail::minmax_lanes;
using simd::detail::sum_lanes;
using simd::detail::wa_grad_range;

constexpr std::size_t kNodeGrain = 2048; ///< Nodes per gather chunk (min).

enum class Smooth { Lse, Wa };

/// Stage one axis of one net: record its extremes in ext[0..1] and write
/// the exp arguments (c - mx)·ig to ep and (c - mn)·(-ig) to em. Every
/// argument is <= 0 by construction (c - mx <= 0 and -(c - mn) <= 0
/// exactly).
inline void stage_axis(const double* c, std::size_t n, double ig, double* ep,
                       double* em, double* ext) {
  minmax_lanes(c, n, &ext[0], &ext[1]);
  affine_range(c, 0, n, -ext[1], ig, ep);
  affine_range(c, 0, n, -ext[0], -ig, em);
}

/// Finish one axis of one net from its exponentials ep/em (and extremes
/// ext for LSE). Returns the smoothed extent; when WithGrad writes
/// dWL/d(pin coordinate) per pin to dc.
template <Smooth M, bool WithGrad>
inline double finish_axis(const double* c, std::size_t n, double gamma,
                          double ig, const double* ep, const double* em,
                          const double* ext, double* dc) {
  const double sp = sum_lanes(ep, n);
  const double sm = sum_lanes(em, n);
  if constexpr (M == Smooth::Lse) {
    if constexpr (WithGrad) lse_grad_range(ep, em, 0, n, 1.0 / sp, 1.0 / sm, dc);
    return (ext[1] - ext[0]) + gamma * (std::log(sp) + std::log(sm));
  } else {
    const double xmax = dot_lanes(c, ep, n) / sp;  // smoothed max
    const double xmin = dot_lanes(c, em, n) / sm;  // smoothed min
    // d(xmax)/dci = e_i (1 + (c_i - xmax)·ig) / sp ; analogously for xmin.
    if constexpr (WithGrad)
      wa_grad_range(c, ep, em, 0, n, xmax, xmin, ig, 1.0 / sp, 1.0 / sm, dc);
    return xmax - xmin;
  }
}

/// Nets [b, e) as one batch: (1) stage every pin's exp arguments, (2) one
/// dispatched exp over the chunk's contiguous pin range, (3) per-net sums,
/// dots and gradients. Returns the chunk's weighted value, accumulated per
/// net as x then y; with WithGrad each pin's gradient lands in
/// csr.pin_gx/pin_gy, scaled by the net weight.
template <Smooth M, bool WithGrad>
double eval_chunk(NetlistCsr& csr, std::size_t b, std::size_t e, double gamma,
                  WlThreadScratch& s) {
  const auto p0 = static_cast<std::size_t>(csr.net_offset[b]);
  const std::size_t pins = static_cast<std::size_t>(csr.net_offset[e]) - p0;
  s.ensure(pins, e - b);
  const double ig = 1.0 / gamma;
  const double* cx = csr.pin_cx.data() + p0;
  const double* cy = csr.pin_cy.data() + p0;
  double* epx = s.exps.data();
  double* emx = epx + pins;
  double* epy = emx + pins;
  double* emy = epy + pins;

  for (std::size_t n = b; n < e; ++n) {
    const auto off = static_cast<std::size_t>(csr.net_offset[n]) - p0;
    const auto deg = static_cast<std::size_t>(csr.net_offset[n + 1]) - p0 - off;
    double* ext = s.extent.data() + 4 * (n - b);
    if (deg < 2) {
      // A lone pin's slots still go through the batched exp; keep them valid.
      for (std::size_t i = off; i < off + deg; ++i) epx[i] = emx[i] = epy[i] = emy[i] = 0.0;
      continue;
    }
    stage_axis(cx + off, deg, ig, epx + off, emx + off, ext);
    stage_axis(cy + off, deg, ig, epy + off, emy + off, ext + 2);
  }

  simd::ops().exp_nonpos(s.exps.data(), 4 * pins, s.exps.data());

  double part = 0.0;
  for (std::size_t n = b; n < e; ++n) {
    const auto off = static_cast<std::size_t>(csr.net_offset[n]) - p0;
    const auto deg = static_cast<std::size_t>(csr.net_offset[n + 1]) - p0 - off;
    double* dgx = WithGrad ? csr.pin_gx.data() + p0 + off : nullptr;
    double* dgy = WithGrad ? csr.pin_gy.data() + p0 + off : nullptr;
    if (deg < 2) {
      if constexpr (WithGrad)
        for (std::size_t i = 0; i < deg; ++i) dgx[i] = dgy[i] = 0.0;
      continue;
    }
    const double w = csr.net_weight[n];
    const double* ext = s.extent.data() + 4 * (n - b);
    part += w * finish_axis<M, WithGrad>(cx + off, deg, gamma, ig, epx + off,
                                         emx + off, ext, dgx);
    part += w * finish_axis<M, WithGrad>(cy + off, deg, gamma, ig, epy + off,
                                         emy + off, ext + 2, dgy);
    if (WithGrad && w != 1.0)
      for (std::size_t i = 0; i < deg; ++i) {
        dgx[i] *= w;
        dgy[i] *= w;
      }
  }
  return part;
}

/// Parallel net-chunk evaluation. With WithGrad, per-pin gradients land in
/// csr.pin_gx/pin_gy (each pin written by exactly one chunk) and a second
/// parallel pass gathers them into gx/gy per node in ascending pin order —
/// both passes bitwise independent of the thread count.
template <Smooth M, bool WithGrad>
double eval_csr(const PlaceProblem& p, NetlistCsr& c,
                std::vector<WlThreadScratch>& scratch, std::span<double> gx,
                std::span<double> gy, double gamma) {
  if (WithGrad && (gx.size() != p.nodes.size() || gy.size() != p.nodes.size()))
    throw std::runtime_error("wirelength eval: gradient span size mismatch");
  RP_PROFILE_REGION("kernel/wirelength");
  c.gather_coords(p);
  const double total = parallel::parallel_reduce(
      static_cast<std::size_t>(c.num_nets), WirelengthModel::kNetGrain, 0.0,
      [&](std::size_t b, std::size_t e, int worker) -> double {
        return eval_chunk<M, WithGrad>(c, b, e, gamma,
                                       scratch[static_cast<std::size_t>(worker)]);
      },
      [](double a, double b) { return a + b; });
  if (WithGrad) {
    parallel::parallel_for(
        static_cast<std::size_t>(c.num_nodes), kNodeGrain,
        [&](std::size_t b, std::size_t e, int) {
          for (std::size_t v = b; v < e; ++v) {
            const int k0 = c.node_pin_offset[v];
            const int k1 = c.node_pin_offset[v + 1];
            double sx = 0.0, sy = 0.0;
            for (int k = k0; k < k1; ++k) {
              const auto pin = static_cast<std::size_t>(c.node_pin[static_cast<std::size_t>(k)]);
              sx += c.pin_gx[pin];
              sy += c.pin_gy[pin];
            }
            gx[v] += sx;
            gy[v] += sy;
          }
        });
  }
  return total;
}

}  // namespace

NetlistCsr& WirelengthModel::prepare(const PlaceProblem& p) const {
  if (!csr_valid_ || csr_.num_nodes != p.num_nodes() ||
      csr_.num_nets != p.num_nets() ||
      csr_.num_pins != static_cast<int>(p.pins.size())) {
    csr_ = NetlistCsr::from_problem(p);
    csr_valid_ = true;
    const parallel::ChunkPlan plan =
        parallel::plan_chunks(static_cast<std::size_t>(csr_.num_nets), kNetGrain);
    chunk_pins_ = chunk_nets_ = 0;
    for (int k = 0; k < plan.count; ++k) {
      const std::size_t b = plan.begin(k), e = plan.end(k);
      chunk_nets_ = std::max(chunk_nets_, e - b);
      chunk_pins_ = std::max(
          chunk_pins_, static_cast<std::size_t>(csr_.net_offset[e] - csr_.net_offset[b]));
    }
  }
  const auto threads = static_cast<std::size_t>(parallel::num_threads());
  if (scratch_.size() < threads) scratch_.resize(threads);
  // Pre-size every slot to the largest chunk so steady-state evals never
  // reallocate; the per-chunk ensure() in the kernel stays as the defensive
  // backstop (a larger design on a reused pool must never index a stale
  // capacity).
  for (auto& s : scratch_) s.ensure(chunk_pins_, chunk_nets_);
  RP_COUNT("parallel.wl_evals", 1);
  return csr_;
}

double LseWirelength::eval(const PlaceProblem& p, std::span<double> gx,
                           std::span<double> gy) const {
  return eval_csr<Smooth::Lse, true>(p, prepare(p), scratch(), gx, gy, gamma_);
}

double LseWirelength::value(const PlaceProblem& p) const {
  return eval_csr<Smooth::Lse, false>(p, prepare(p), scratch(), {}, {}, gamma_);
}

double WaWirelength::eval(const PlaceProblem& p, std::span<double> gx,
                          std::span<double> gy) const {
  return eval_csr<Smooth::Wa, true>(p, prepare(p), scratch(), gx, gy, gamma_);
}

double WaWirelength::value(const PlaceProblem& p) const {
  return eval_csr<Smooth::Wa, false>(p, prepare(p), scratch(), {}, {}, gamma_);
}

std::unique_ptr<WirelengthModel> make_wirelength_model(const std::string& name,
                                                       double gamma) {
  if (name == "LSE" || name == "lse") return std::make_unique<LseWirelength>(gamma);
  if (name == "WA" || name == "wa") return std::make_unique<WaWirelength>(gamma);
  throw std::runtime_error("unknown wirelength model '" + name + "'");
}

}  // namespace rp
