#include "route/router.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "route/estimator.hpp"
#include "util/assert.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/telemetry.hpp"

namespace rp {

GlobalRouter::GlobalRouter(RoutingGrid& grid, RouterOptions opt)
    : grid_(grid), opt_(opt), h_base_((grid.nx() - 1) * grid.ny()) {
  const auto edges = static_cast<std::size_t>(grid.num_h_edges() + grid.num_v_edges());
  history_.assign(edges, 0.0);
  edges_.resize(edges);
  const auto tiles = static_cast<std::size_t>(grid.nx()) * static_cast<std::size_t>(grid.ny());
  tile_x_.resize(tiles);
  tile_y_.resize(tiles);
  for (std::size_t t = 0; t < tiles; ++t) {
    tile_x_[t] = static_cast<int>(t % static_cast<std::size_t>(grid.nx()));
    tile_y_[t] = static_cast<int>(t / static_cast<std::size_t>(grid.nx()));
  }
  dist_.resize(tiles);
  came_.resize(tiles);
  stamp_.assign(tiles, 0);
}

void GlobalRouter::refresh_base(std::size_t e) {
  const double len = is_h(static_cast<int>(e)) ? grid_.tile_w() : grid_.tile_h();
  edges_[e].base = len * (1.0 + history_[e]);
}

double GlobalRouter::edge_cost(int e) const {
  const EdgeState& st = edges_[static_cast<std::size_t>(e)];
  const double overuse = std::max(0.0, st.use + 1.0 - st.cap);
  double c = st.base * (1.0 + pres_fac_ * overuse);
  if (st.blocked) c *= opt_.blocked_penalty;
  return c;
}

double GlobalRouter::route_segment(const Segment& s, std::vector<int>& path, int margin) {
  const int nx = grid_.nx(), ny = grid_.ny();
  const int bx0 = std::max(0, std::min(s.x0, s.x1) - margin);
  const int bx1 = std::min(nx - 1, std::max(s.x0, s.x1) + margin);
  const int by0 = std::max(0, std::min(s.y0, s.y1) - margin);
  const int by1 = std::min(ny - 1, std::max(s.y0, s.y1) + margin);
  const auto tile = [nx](int ix, int iy) { return iy * nx + ix; };

  const double min_pitch = std::min(grid_.tile_w(), grid_.tile_h());
  const auto heur = [&](int ix, int iy) {
    return (std::abs(ix - s.x1) + std::abs(iy - s.y1)) * min_pitch;
  };

  if (++epoch_ == 0) {  // stamp wrap-around: invalidate every tile once
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    epoch_ = 1;
  }
  const auto seen = [&](int t) { return stamp_[static_cast<std::size_t>(t)] == epoch_; };
  // Ties on f pop the smaller tile id first; tile ids order tiles row-major
  // exactly like ids local to the segment's box would, so the search order
  // does not depend on the id space.
  const auto heap_cmp = std::greater<HeapEntry>();
  open_.clear();
  const int start = tile(s.x0, s.y0);
  stamp_[static_cast<std::size_t>(start)] = epoch_;
  dist_[static_cast<std::size_t>(start)] = 0.0;
  came_[static_cast<std::size_t>(start)] = -1;
  open_.emplace_back(heur(s.x0, s.y0), start);

  const int goal = tile(s.x1, s.y1);
  while (!open_.empty()) {
    std::pop_heap(open_.begin(), open_.end(), heap_cmp);
    const auto [f, u] = open_.back();
    open_.pop_back();
    const int ux = tile_x_[static_cast<std::size_t>(u)];
    const int uy = tile_y_[static_cast<std::size_t>(u)];
    const double g = dist_[static_cast<std::size_t>(u)];
    if (f > g + heur(ux, uy) + 1e-12) continue;  // stale entry
    if (u == goal) break;
    struct Nb {
      int ix, iy, edge;
    };
    const Nb nbs[4] = {
        {ux - 1, uy, ux > bx0 ? h_id(ux - 1, uy) : -1},
        {ux + 1, uy, ux < bx1 ? h_id(ux, uy) : -1},
        {ux, uy - 1, uy > by0 ? v_id(ux, uy - 1) : -1},
        {ux, uy + 1, uy < by1 ? v_id(ux, uy) : -1},
    };
    for (const auto& nb : nbs) {
      if (nb.edge < 0) continue;
      const int v = tile(nb.ix, nb.iy);
      const auto uv = static_cast<std::size_t>(v);
      const double ng = g + edge_cost(nb.edge);
      if (!seen(v) || ng < dist_[uv]) {
        stamp_[uv] = epoch_;
        dist_[uv] = ng;
        came_[uv] = nb.edge;
        open_.emplace_back(ng + heur(nb.ix, nb.iy), v);
        std::push_heap(open_.begin(), open_.end(), heap_cmp);
      }
    }
  }

  if (!seen(goal)) return -1.0;  // unreachable (shouldn't happen)
  // Walk back from goal to start via stored edges.
  double length = 0.0;
  int cx = s.x1, cy = s.y1;
  while (!(cx == s.x0 && cy == s.y0)) {
    const int e = came_[static_cast<std::size_t>(tile(cx, cy))];
    RP_ASSERT(e >= 0, "router backtrace broke");
    path.push_back(e);
    const auto [ix, iy] = edge_xy(e);
    if (is_h(e)) {
      length += grid_.tile_w();
      // Edge connects (ix,iy)-(ix+1,iy); figure out which side we came from.
      cx = (cx == ix + 1 && cy == iy) ? ix : ix + 1;
      cy = iy;
    } else {
      length += grid_.tile_h();
      cy = (cy == iy + 1 && cx == ix) ? iy : iy + 1;
      cx = ix;
    }
  }
  return length;
}

RouteStats GlobalRouter::route(const Design& d) {
  RP_TRACE_SPAN("route");
  const GridMap& m = grid_.map();
  grid_.clear_usage();
  pres_fac_ = opt_.pres_fac_init;
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const int ei = static_cast<int>(e);
    const auto [ix, iy] = edge_xy(ei);
    EdgeState& st = edges_[e];
    st.cap = is_h(ei) ? grid_.h_cap(ix, iy) : grid_.v_cap(ix, iy);
    st.blocked = st.cap < 1e-6;
    st.use = 0.0;
    refresh_base(e);
  }

  // Build segments from net MSTs (pin positions snapped to tiles).
  std::vector<Segment> segs;
  std::vector<Point> pts;
  for (NetId n = 0; n < d.num_nets(); ++n) {
    const Net& net = d.net(n);
    if (net.degree() < 2) continue;
    pts.clear();
    for (const PinId p : net.pins) pts.push_back(d.pin_pos(p));
    for (const auto& [a, b] : net_topology(pts)) {
      Segment s;
      s.x0 = m.ix_of(pts[static_cast<std::size_t>(a)].x);
      s.y0 = m.iy_of(pts[static_cast<std::size_t>(a)].y);
      s.x1 = m.ix_of(pts[static_cast<std::size_t>(b)].x);
      s.y1 = m.iy_of(pts[static_cast<std::size_t>(b)].y);
      s.net = n;
      if (s.x0 == s.x1 && s.y0 == s.y1) continue;
      segs.push_back(s);
    }
  }

  std::vector<std::vector<int>> paths(segs.size());
  RouteStats stats;
  stats.segments = static_cast<int>(segs.size());
  RP_COUNT("route.segments", stats.segments);

  // Initial routing pass.
  for (std::size_t i = 0; i < segs.size(); ++i) {
    route_segment(segs[i], paths[i], opt_.bbox_margin);
    for (const int e : paths[i]) add_edge_usage(e, 1.0);
  }

  for (int it = 1; it <= opt_.max_iterations; ++it) {
    obs::check_interrupt();  // SIGINT/SIGTERM: unwind between rip-up rounds
    stats.iterations = it;
    RP_COUNT("route.ripup_rounds", 1);
    // Identify overflowed edges; bump history.
    std::vector<char> edge_over(history_.size(), 0);
    int over_edges = 0;
    for (std::size_t e = 0; e < edges_.size(); ++e) {
      // overuse without the +1 lookahead:
      const double use = edges_[e].use, cap = edges_[e].cap;
      if (use > cap + 1e-9) {
        edge_over[e] = 1;
        ++over_edges;
        history_[e] += opt_.hist_incr * (use - cap) / std::max(1.0, cap);
        refresh_base(e);
      }
    }
    if (over_edges == 0) break;
    if (it == opt_.max_iterations) break;  // out of budget; report as-is

    // Rip up & reroute segments using overflowed edges.
    pres_fac_ *= opt_.pres_fac_mult;
    const int margin = opt_.bbox_margin + it * opt_.bbox_grow_per_iter;
    int rerouted = 0;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      bool bad = false;
      for (const int e : paths[i]) {
        if (edge_over[static_cast<std::size_t>(e)]) {
          bad = true;
          break;
        }
      }
      if (!bad) continue;
      for (const int e : paths[i]) add_edge_usage(e, -1.0);
      paths[i].clear();
      route_segment(segs[i], paths[i], margin);
      for (const int e : paths[i]) add_edge_usage(e, 1.0);
      ++rerouted;
    }
    RP_COUNT("route.segments_rerouted", rerouted);
    RP_DEBUG("router iter %d: %d overflowed edges, %d segments rerouted", it, over_edges,
             rerouted);
  }

  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const int ei = static_cast<int>(e);
    const auto [ix, iy] = edge_xy(ei);
    if (is_h(ei))
      grid_.add_h(ix, iy, edges_[e].use);
    else
      grid_.add_v(ix, iy, edges_[e].use);
  }
  stats.wirelength = grid_.used_wirelength();
  stats.total_overflow = grid_.total_overflow();
  stats.max_utilization = grid_.max_utilization();
  int over_edges = 0;
  for (const double u : grid_.edge_utilizations())
    if (u > 1.0 + 1e-9) ++over_edges;
  stats.overflowed_edges = over_edges;
  // Blocked (≈zero-capacity) edges are excluded from utilization stats but
  // any usage forced through them is still overflow — hence the
  // total_overflow term, not just the edge count.
  stats.overflow_free = over_edges == 0 && stats.total_overflow <= 1e-9;
  return stats;
}

}  // namespace rp
