#include "route/router.hpp"

#include <algorithm>
#include <cmath>

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
  cost_.resize(edges);
  const auto tiles = static_cast<std::size_t>(grid.nx()) * static_cast<std::size_t>(grid.ny());
  tile_x_.resize(tiles);
  tile_y_.resize(tiles);
  for (std::size_t t = 0; t < tiles; ++t) {
    tile_x_[t] = static_cast<int>(t % static_cast<std::size_t>(grid.nx()));
    tile_y_[t] = static_cast<int>(t / static_cast<std::size_t>(grid.nx()));
  }
  tiles_.resize(tiles);
}

void GlobalRouter::open_sift_up(std::size_t i, OpenEntry e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(e < open_[parent])) break;
    open_[i] = open_[parent];
    tiles_[static_cast<std::size_t>(open_[i].tile)].pos = static_cast<int>(i);
    i = parent;
  }
  open_[i] = e;
  tiles_[static_cast<std::size_t>(e.tile)].pos = static_cast<int>(i);
}

void GlobalRouter::open_push_or_decrease(TileState& st, int t, double f) {
  if (st.pos < 0) {
    open_.push_back({f, t});
    open_sift_up(open_.size() - 1, {f, t});
  } else {
    open_sift_up(static_cast<std::size_t>(st.pos), {f, t});
  }
}

GlobalRouter::OpenEntry GlobalRouter::open_pop() {
  const OpenEntry top = open_.front();
  tiles_[static_cast<std::size_t>(top.tile)].pos = -1;
  const OpenEntry last = open_.back();
  open_.pop_back();
  const std::size_t n = open_.size();
  if (n > 0) {
    // Sift `last` down from the root.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c)
        if (open_[c] < open_[best]) best = c;
      if (!(open_[best] < last)) break;
      open_[i] = open_[best];
      tiles_[static_cast<std::size_t>(open_[i].tile)].pos = static_cast<int>(i);
      i = best;
    }
    open_[i] = last;
    tiles_[static_cast<std::size_t>(last.tile)].pos = static_cast<int>(i);
  }
  return top;
}

void GlobalRouter::refresh_base(std::size_t e) {
  const double len = is_h(static_cast<int>(e)) ? grid_.tile_w() : grid_.tile_h();
  edges_[e].base = len * (1.0 + history_[e]);
}

void GlobalRouter::refresh_cost(std::size_t e) {
  const EdgeState& st = edges_[e];
  const double overuse = std::max(0.0, st.use + 1.0 - st.cap);
  double c = st.base * (1.0 + pres_fac_ * overuse);
  if (st.blocked) c *= opt_.blocked_penalty;
  cost_[e] = c;
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
    for (TileState& st : tiles_) st.stamp = 0;
    epoch_ = 1;
  }
  // Ties on f pop the smaller tile id first; tile ids order tiles row-major
  // exactly like ids local to the segment's box would, so the search order
  // does not depend on the id space.
  open_.clear();
  const int start = tile(s.x0, s.y0);
  tiles_[static_cast<std::size_t>(start)] = {0.0, -1, -1, epoch_};
  open_push_or_decrease(tiles_[static_cast<std::size_t>(start)], start, heur(s.x0, s.y0));

  const int goal = tile(s.x1, s.y1);
  while (!open_.empty()) {
    const int u = open_pop().tile;
    if (u == goal) break;
    const int ux = tile_x_[static_cast<std::size_t>(u)];
    const int uy = tile_y_[static_cast<std::size_t>(u)];
    const double g = tiles_[static_cast<std::size_t>(u)].dist;
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
      TileState& st = tiles_[static_cast<std::size_t>(v)];
      const double ng = g + cost_[static_cast<std::size_t>(nb.edge)];
      if (st.stamp != epoch_) {
        st = {ng, nb.edge, -1, epoch_};
      } else if (ng < st.dist) {
        st.dist = ng;
        st.came = nb.edge;
      } else {
        continue;
      }
      // A tile that was already expanded goes back on the open list.
      open_push_or_decrease(st, v, ng + heur(nb.ix, nb.iy));
    }
  }

  if (tiles_[static_cast<std::size_t>(goal)].stamp != epoch_) return -1.0;  // unreachable
  // Walk back from goal to start via stored edges.
  double length = 0.0;
  int cx = s.x1, cy = s.y1;
  while (!(cx == s.x0 && cy == s.y0)) {
    const int e = tiles_[static_cast<std::size_t>(tile(cx, cy))].came;
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
    refresh_cost(e);
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
    for (std::size_t e = 0; e < edges_.size(); ++e) refresh_cost(e);
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
