#include "model/wirelength.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/parallel.hpp"
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

constexpr auto kLaneMax = static_cast<std::size_t>(WirelengthModel::kLaneMaxDegree);

/// One evaluation unit of a chunk: a lane group (up to four nets of one
/// degree <= kLaneMaxDegree, padded to four lanes) or one larger net, with
/// its slices of the chunk scratch. A lane group's pin coordinates are an x
/// then a y block of 4·deg (pin-major), its exp arguments 4·deg ep then
/// 4·deg em for x, then the same for y, its extremes 8 per axis; a larger
/// net has deg coordinates per axis, exp arguments x+, x−, y+, y−
/// of deg each, and extremes x min, x max, y min, y max.
struct Unit {
  const int* nets;    ///< The unit's first net in the layout order.
  std::size_t lanes;  ///< Nets in the unit.
  std::size_t deg;
  double* c;
  double* e;
  double* ext;
};

/// Scratch a unit of degree deg takes: coordinates, exp arguments, extremes.
struct UnitSize {
  std::size_t coords, exps, ext;
};
UnitSize unit_size(std::size_t deg) {
  if (deg > kLaneMax) return {2 * deg, 4 * deg, 4};
  return {8 * deg, 16 * deg, 16};
}

/// Walk chunk k's nets in layout order as evaluation units over scratch s.
template <typename Fn>
void for_each_unit(const NetlistCsr& csr, const WlLaneLayout& lay, int k,
                   WlThreadScratch& s, Fn&& fn) {
  const int* order = lay.order.data();
  const auto e = lay.begin[static_cast<std::size_t>(k) + 1];
  Unit u{nullptr, 0, 0, s.coords.data(), s.exps.data(), s.extent.data()};
  for (std::size_t i = lay.begin[static_cast<std::size_t>(k)]; i < e; i += u.lanes) {
    u.nets = order + i;
    u.deg = static_cast<std::size_t>(csr.net_degree(order[i]));
    u.lanes = 1;
    if (u.deg <= kLaneMax)
      while (u.lanes < 4 && i + u.lanes < e &&
             static_cast<std::size_t>(csr.net_degree(order[i + u.lanes])) == u.deg)
        ++u.lanes;
    fn(u);
    const UnitSize z = unit_size(u.deg);
    u.c += z.coords;
    u.e += z.exps;
    u.ext += z.ext;
  }
}

/// Chunk k (nets [b, e)) as one batch: (1) check the problem's net pin
/// ranges against the cached view, (2) stage every unit's pin coordinates,
/// checking each pin's node, and exp arguments, (3) one dispatched exp over
/// all of the chunk's arguments, (4) finish every unit, (5) sum the
/// weighted per-net values in net order, x then y. With WithGrad each pin's
/// gradient lands in csr.pin_g, scaled by the net weight. Returns
/// false, having written no pin slot, when the view is stale. (Pins of nets
/// with fewer than 2 pins are never staged: their slots hold +0, and a +0
/// in any node's gather sum leaves its bits unchanged, so their nodes need
/// no check.)
template <Smooth M, bool WithGrad>
bool eval_chunk(const PlaceProblem& p, NetlistCsr& csr, const WlLaneLayout& lay,
                int k, std::size_t b, std::size_t e, double gamma,
                WlThreadScratch& s, double* part_out) {
  const int* off = csr.net_offset.data();
  for (std::size_t n = b; n < e; ++n)
    if (p.nets[n].pin_begin != off[n] || p.nets[n].pin_end != off[n + 1]) return false;

  const auto kk = static_cast<std::size_t>(k);
  s.ensure(lay.coords[kk], lay.exps[kk], lay.extents[kk], e - b,
           static_cast<std::size_t>(csr.max_net_degree));
  const simd::Ops& ops = simd::ops();
  const double ig = 1.0 / gamma;
  // One axis of a lane group: coordinates, exp arguments (ep then em),
  // extremes.
  const auto axis = [&](const Unit& u, int y) {
    const auto a = static_cast<std::size_t>(y);
    double* ep = u.e + a * 8 * u.deg;
    return simd::NetLanes{u.c + a * 4 * u.deg, ep, ep + 4 * u.deg, u.ext + 8 * a, u.deg,
                          gamma, ig, M == Smooth::Wa};
  };

  bool fresh = true;
  // Pin coordinates of net n into cx[0], cx[step], ... and cy likewise.
  const auto stage_pins = [&](int n, std::size_t deg, std::size_t step, double* cx,
                              double* cy) {
    const PlacePin* pin = p.pins.data() + off[n];
    const int* node = csr.pin_node.data() + off[n];
    for (std::size_t i = 0; i < deg; ++i) {
      fresh &= pin[i].node == node[i];
      const auto v = static_cast<std::size_t>(node[i]);
      cx[step * i] = p.x[v] + pin[i].ox;
      cy[step * i] = p.y[v] + pin[i].oy;
    }
  };
  for_each_unit(csr, lay, k, s, [&](const Unit& u) {
    const std::size_t d = u.deg;
    if (d > kLaneMax) {
      stage_pins(u.nets[0], d, 1, u.c, u.c + d);
      stage_axis(u.c, d, ig, u.e, u.e + d, u.ext);
      stage_axis(u.c + d, d, ig, u.e + 2 * d, u.e + 3 * d, u.ext + 2);
      return;
    }
    for (std::size_t j = 0; j < u.lanes; ++j) stage_pins(u.nets[j], d, 4, u.c + j, u.c + 4 * d + j);
    for (std::size_t j = u.lanes; j < 4; ++j)  // padding: any finite coordinates
      for (std::size_t i = 0; i < d; ++i) u.c[4 * i + j] = u.c[4 * (d + i) + j] = 0.0;
    ops.net_lanes_stage(axis(u, 0));
    ops.net_lanes_stage(axis(u, 1));
  });
  if (!fresh) return false;

  ops.exp_nonpos(s.exps.data(), lay.exps[kk], s.exps.data());

  double* val = s.value.data();
  for_each_unit(csr, lay, k, s, [&](const Unit& u) {
    const std::size_t d = u.deg;
    if (d > kLaneMax) {
      const auto n = static_cast<std::size_t>(u.nets[0]);
      double* dcx = WithGrad ? s.grad.data() : nullptr;
      double* dcy = WithGrad ? dcx + d : nullptr;
      val[2 * (n - b)] =
          finish_axis<M, WithGrad>(u.c, d, gamma, ig, u.e, u.e + d, u.ext, dcx);
      val[2 * (n - b) + 1] = finish_axis<M, WithGrad>(u.c + d, d, gamma, ig, u.e + 2 * d,
                                                      u.e + 3 * d, u.ext + 2, dcy);
      if constexpr (WithGrad) {
        double* g = csr.pin_g.data() + 2 * static_cast<std::size_t>(off[n]);
        const double w = p.nets[n].weight;
        for (std::size_t i = 0; i < d; ++i) {
          g[2 * i] = w != 1.0 ? dcx[i] * w : dcx[i];
          g[2 * i + 1] = w != 1.0 ? dcy[i] * w : dcy[i];
        }
      }
      return;
    }
    double vx[4], vy[4];
    double* dcx = WithGrad ? s.grad.data() : nullptr;
    double* dcy = WithGrad ? dcx + 4 * d : nullptr;
    ops.net_lanes_finish(axis(u, 0), vx, dcx);
    ops.net_lanes_finish(axis(u, 1), vy, dcy);
    for (std::size_t j = 0; j < u.lanes; ++j) {
      const auto n = static_cast<std::size_t>(u.nets[j]);
      val[2 * (n - b)] = vx[j];
      val[2 * (n - b) + 1] = vy[j];
      if constexpr (WithGrad) {
        double* g = csr.pin_g.data() + 2 * static_cast<std::size_t>(off[n]);
        const double w = p.nets[n].weight;
        for (std::size_t i = 0; i < d; ++i) {
          g[2 * i] = w != 1.0 ? dcx[4 * i + j] * w : dcx[4 * i + j];
          g[2 * i + 1] = w != 1.0 ? dcy[4 * i + j] * w : dcy[4 * i + j];
        }
      }
    }
  });

  double part = 0.0;
  for (std::size_t n = b; n < e; ++n) {
    if (off[n + 1] - off[n] < 2) continue;
    const double w = p.nets[n].weight;
    part += w * val[2 * (n - b)];
    part += w * val[2 * (n - b) + 1];
  }
  *part_out = part;
  return true;
}

}  // namespace

void WlThreadScratch::ensure(std::size_t ncoords, std::size_t nexps, std::size_t extents,
                             std::size_t nets, std::size_t max_degree) {
  if (coords.size() < ncoords) coords.resize(ncoords);
  if (exps.size() < nexps) exps.resize(nexps);
  if (extent.size() < extents) extent.resize(extents);
  if (value.size() < 2 * nets) value.resize(2 * nets);
  const std::size_t unit_grad = std::max(8 * kLaneMax, 2 * max_degree);
  if (grad.size() < unit_grad) grad.resize(unit_grad);
}

NetlistCsr& WirelengthModel::prepare(const PlaceProblem& p, bool rebuild) const {
  if (rebuild || !csr_valid_ || csr_.num_nodes != p.num_nodes() ||
      csr_.num_nets != p.num_nets() ||
      csr_.num_pins != static_cast<int>(p.pins.size())) {
    csr_ = NetlistCsr::from_problem(p);
    csr_valid_ = true;
    const parallel::ChunkPlan plan =
        parallel::plan_chunks(static_cast<std::size_t>(csr_.num_nets), kNetGrain);
    layout_ = WlLaneLayout{};
    layout_.begin.push_back(0);
    layout_.first_net.push_back(0);
    chunk_coords_ = chunk_exps_ = chunk_extents_ = chunk_nets_ = 0;
    for (int k = 0; k < plan.count; ++k) {
      const std::size_t b = plan.begin(k), e = plan.end(k);
      // Lane nets by (degree, net id), then the larger nets by net id.
      std::vector<int> by_degree[kLaneMaxDegree + 1];
      std::vector<int> large;
      for (std::size_t n = b; n < e; ++n) {
        const int deg = csr_.net_degree(static_cast<int>(n));
        if (deg > kLaneMaxDegree) large.push_back(static_cast<int>(n));
        else if (deg >= 2) by_degree[deg].push_back(static_cast<int>(n));
      }
      UnitSize total{0, 0, 0};
      const auto add = [&](std::size_t deg, std::size_t units) {
        const UnitSize z = unit_size(deg);
        total.coords += units * z.coords;
        total.exps += units * z.exps;
        total.ext += units * z.ext;
      };
      for (int deg = 2; deg <= kLaneMaxDegree; ++deg) {
        add(static_cast<std::size_t>(deg), (by_degree[deg].size() + 3) / 4);
        layout_.order.insert(layout_.order.end(), by_degree[deg].begin(), by_degree[deg].end());
      }
      for (const int n : large) add(static_cast<std::size_t>(csr_.net_degree(n)), 1);
      layout_.order.insert(layout_.order.end(), large.begin(), large.end());
      layout_.begin.push_back(layout_.order.size());
      layout_.first_net.push_back(e);
      layout_.coords.push_back(total.coords);
      layout_.exps.push_back(total.exps);
      layout_.extents.push_back(total.ext);
      chunk_coords_ = std::max(chunk_coords_, total.coords);
      chunk_exps_ = std::max(chunk_exps_, total.exps);
      chunk_extents_ = std::max(chunk_extents_, total.ext);
      chunk_nets_ = std::max(chunk_nets_, e - b);
    }
  }
  const auto threads = static_cast<std::size_t>(parallel::num_threads());
  if (scratch_.size() < threads) scratch_.resize(threads);
  // Pre-size every slot to the largest chunk so steady-state evals never
  // reallocate; the per-chunk ensure() in the kernel stays as the defensive
  // backstop (a larger design on a reused pool must never index a stale
  // capacity).
  for (auto& s : scratch_)
    s.ensure(chunk_coords_, chunk_exps_, chunk_extents_, chunk_nets_,
             static_cast<std::size_t>(csr_.max_net_degree));
  return csr_;
}

parallel::ChunkPlan WirelengthModel::begin_nets(const PlaceProblem& p, bool grad) const {
  RP_COUNT("parallel.wl_evals", 1);
  prepare(p, false);
  pass_grad_ = grad;
  const auto chunks = layout_.first_net.size() - 1;
  part_.assign(chunks, 0.0);
  fresh_.assign(chunks, 1);
  return parallel::plan_chunks(static_cast<std::size_t>(csr_.num_nets), kNetGrain);
}

void WirelengthModel::net_chunk(const PlaceProblem& p, int k, int worker) const {
  const auto kk = static_cast<std::size_t>(k);
  const std::size_t b = layout_.first_net[kk], e = layout_.first_net[kk + 1];
  WlThreadScratch& s = scratch_[static_cast<std::size_t>(worker)];
  const auto chunk =
      wa_ ? (pass_grad_ ? eval_chunk<Smooth::Wa, true> : eval_chunk<Smooth::Wa, false>)
          : (pass_grad_ ? eval_chunk<Smooth::Lse, true> : eval_chunk<Smooth::Lse, false>);
  fresh_[kk] = chunk(p, csr_, layout_, k, b, e, gamma_, s, &part_[kk]) ? 1 : 0;
}

double WirelengthModel::end_nets(const PlaceProblem& p) const {
  if (std::find(fresh_.begin(), fresh_.end(), 0) != fresh_.end()) {
    prepare(p, true);
    const parallel::ChunkPlan plan =
        parallel::plan_chunks(static_cast<std::size_t>(csr_.num_nets), kNetGrain);
    parallel::ThreadPool::instance().run(plan, [&](int k, int w) { net_chunk(p, k, w); });
  }
  // Summed from +0 in chunk order, the association parallel_reduce uses.
  double total = 0.0;
  for (const double part : part_) total += part;
  return total;
}

parallel::ChunkPlan WirelengthModel::gather_plan() const {
  return parallel::plan_chunks(static_cast<std::size_t>(csr_.num_nodes), kNodeGrain);
}

void WirelengthModel::gather_chunk(int k, std::span<double> gx, std::span<double> gy,
                                   bool accumulate) const {
  const parallel::ChunkPlan plan = gather_plan();
  for (std::size_t v = plan.begin(k); v < plan.end(k); ++v) {
    const int k0 = csr_.node_pin_offset[v];
    const int k1 = csr_.node_pin_offset[v + 1];
    double sx = 0.0, sy = 0.0;
    for (int i = k0; i < k1; ++i) {
      const auto pin = static_cast<std::size_t>(csr_.node_pin[static_cast<std::size_t>(i)]);
      sx += csr_.pin_g[2 * pin];
      sy += csr_.pin_g[2 * pin + 1];
    }
    gx[v] = (accumulate ? gx[v] : 0.0) + sx;
    gy[v] = (accumulate ? gy[v] : 0.0) + sy;
  }
}

double WirelengthModel::run_nets(const PlaceProblem& p, bool grad) const {
  const parallel::ChunkPlan plan = begin_nets(p, grad);
  parallel::ThreadPool::instance().run(plan, [&](int k, int w) { net_chunk(p, k, w); });
  return end_nets(p);
}

double WirelengthModel::eval(const PlaceProblem& p, std::span<double> gx,
                             std::span<double> gy) const {
  if (gx.size() != p.nodes.size() || gy.size() != p.nodes.size())
    throw std::runtime_error("wirelength eval: gradient span size mismatch");
  const double total = run_nets(p, true);
  parallel::ThreadPool::instance().run(gather_plan(),
                                       [&](int k, int) { gather_chunk(k, gx, gy, true); });
  return total;
}

double WirelengthModel::value(const PlaceProblem& p) const { return run_nets(p, false); }

std::unique_ptr<WirelengthModel> make_wirelength_model(const std::string& name,
                                                       double gamma) {
  if (name == "LSE" || name == "lse") return std::make_unique<LseWirelength>(gamma);
  if (name == "WA" || name == "wa") return std::make_unique<WaWirelength>(gamma);
  throw std::runtime_error("unknown wirelength model '" + name + "'");
}

}  // namespace rp
