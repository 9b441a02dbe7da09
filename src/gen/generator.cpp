#include "gen/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "route/estimator.hpp"
#include "route/routegrid.hpp"
#include "util/assert.hpp"
#include "util/logger.hpp"
#include "util/rng.hpp"

namespace rp {

namespace {

/// Module-tree scaffold used during generation. Cells are created in DFS
/// order so every module's subtree owns a contiguous cell-id range
/// [begin, end) — uniform sampling inside a subtree is O(1).
struct GenModule {
  int parent = -1;
  int depth = 0;
  std::vector<int> children;
  int target_cells = 0;  ///< Leaf modules: number of std cells to create.
  int begin = 0;         ///< First cell id in subtree (set during creation).
  int end = 0;           ///< One past last cell id in subtree.
  std::string path;      ///< "mA/mB" (empty for root).
};

struct Tree {
  std::vector<GenModule> mods;
  std::vector<int> leaves;
};

Tree build_module_tree(const BenchmarkSpec& spec, Rng& rng) {
  Tree t;
  t.mods.push_back(GenModule{});
  t.mods[0].target_cells = spec.num_std_cells;
  if (spec.flat) {
    t.leaves.push_back(0);
    return t;
  }
  // BFS split: any module over the leaf size gets `hier_fanout` children with
  // randomized proportions (keeps subtree sizes uneven like real designs).
  for (int m = 0; m < static_cast<int>(t.mods.size()); ++m) {
    const int n = t.mods[m].target_cells;
    if (n <= spec.leaf_module_cells || spec.hier_fanout < 2) {
      t.leaves.push_back(m);
      continue;
    }
    std::vector<double> w(static_cast<std::size_t>(spec.hier_fanout));
    double sum = 0;
    for (auto& x : w) {
      x = 0.5 + rng.uniform();  // proportions in [0.5, 1.5)
      sum += x;
    }
    int assigned = 0;
    for (int c = 0; c < spec.hier_fanout; ++c) {
      int share = (c + 1 == spec.hier_fanout)
                      ? n - assigned
                      : static_cast<int>(n * w[static_cast<std::size_t>(c)] / sum);
      share = std::max(share, 1);
      assigned += share;
      GenModule child;
      child.parent = m;
      child.depth = t.mods[m].depth + 1;
      child.target_cells = share;
      child.path = (t.mods[m].path.empty() ? "" : t.mods[m].path + "/") +
                   "m" + std::to_string(t.mods.size());
      t.mods[m].children.push_back(static_cast<int>(t.mods.size()));
      t.mods.push_back(std::move(child));
    }
    t.mods[m].target_cells = 0;  // interior node holds no direct cells
  }
  return t;
}

/// Sample a net degree with mean ~= spec.avg_net_degree: 2 + geometric tail.
int sample_degree(const BenchmarkSpec& spec, Rng& rng) {
  const double extra = std::max(0.0, spec.avg_net_degree - 2.0);
  const double p = 1.0 / (1.0 + extra);  // geometric success prob
  int k = 2;
  while (k < spec.max_net_degree && rng.uniform() > p) ++k;
  return k;
}

}  // namespace

Design generate_benchmark(const BenchmarkSpec& spec) {
  RP_ASSERT(spec.num_std_cells > 0, "spec needs cells");
  RP_ASSERT(spec.target_utilization > 0 && spec.target_utilization < 1.0,
            "utilization must be in (0,1)");
  Rng rng(spec.seed);
  Design d;
  d.set_name(spec.name);

  // ---- 1. module tree & standard cells (DFS order => contiguous subtrees) --
  Tree tree = build_module_tree(spec, rng);
  double std_area = 0.0;
  {
    // DFS to create cells leaf-by-leaf in subtree order.
    std::vector<int> stack{0};
    std::vector<int> order;  // DFS pre-order of modules
    while (!stack.empty()) {
      const int m = stack.back();
      stack.pop_back();
      order.push_back(m);
      const auto& ch = tree.mods[m].children;
      for (auto it = ch.rbegin(); it != ch.rend(); ++it) stack.push_back(*it);
    }
    // create cells for leaves in DFS order
    for (const int m : order) {
      GenModule& gm = tree.mods[m];
      gm.begin = d.num_cells();
      if (gm.children.empty()) {
        for (int i = 0; i < gm.target_cells; ++i) {
          const double w =
              spec.site_width * static_cast<double>(rng.range(1, 8));
          const std::string name =
              (gm.path.empty() ? "" : gm.path + "/") + "o" + std::to_string(d.num_cells());
          const CellId c = d.add_cell(name, w, spec.row_height, CellKind::StdCell);
          std_area += d.cell(c).area();
        }
      }
      gm.end = d.num_cells();  // provisional; fixed up below for interior nodes
    }
    // subtree end = max over children (post-order fixup, reverse DFS works
    // because children appear after parents in `order`)
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      GenModule& gm = tree.mods[*it];
      for (const int c : gm.children) {
        gm.begin = std::min(gm.begin, tree.mods[c].begin);
        gm.end = std::max(gm.end, tree.mods[c].end);
      }
    }
    // Leaves were collected in BFS order; the binary search below needs them
    // sorted by their (disjoint) cell-id ranges.
    std::sort(tree.leaves.begin(), tree.leaves.end(),
              [&](int a, int b) { return tree.mods[a].begin < tree.mods[b].begin; });
  }
  const int num_std = d.num_cells();

  // ---- 2. macros ----
  // Total macro area so that macro_area_fraction = macro/(macro+std).
  const double f = std::clamp(spec.macro_area_fraction, 0.0, 0.8);
  const double macro_total_area = spec.num_macros > 0 ? std_area * f / (1.0 - f) : 0.0;
  std::vector<CellId> macros;
  double placeable_macro_area = 0.0;
  if (spec.num_macros > 0) {
    macros.assign(static_cast<std::size_t>(spec.num_macros), kInvalidId);
    // Uneven macro sizes: area shares weighted by U(0.4, 1.6)^2.
    std::vector<double> shares(static_cast<std::size_t>(spec.num_macros));
    double ssum = 0;
    for (auto& s : shares) {
      const double u = rng.uniform(0.4, 1.6);
      s = u * u;
      ssum += s;
    }
    for (int i = 0; i < spec.num_macros; ++i) {
      const double area = macro_total_area * shares[static_cast<std::size_t>(i)] / ssum;
      // Height: multiple of row height, aspect ratio in [0.5, 2].
      const double ar = rng.uniform(0.5, 2.0);
      double h = std::sqrt(area * ar);
      h = std::max(spec.row_height * 2, std::round(h / spec.row_height) * spec.row_height);
      const double w = std::max(spec.site_width * 4, area / h);
      const CellId c = d.add_cell("macro" + std::to_string(i), w, h, CellKind::Macro);
      macros[static_cast<std::size_t>(i)] = c;
      placeable_macro_area += d.cell(c).area();
    }
  }

  // ---- 3. die & rows ----
  const double movable_area = std_area + placeable_macro_area;
  const double die_area = movable_area / spec.target_utilization;
  double die_w = std::sqrt(die_area);
  // Round to whole rows/sites.
  const int nrows = std::max(4, static_cast<int>(die_area / die_w / spec.row_height + 0.5));
  die_w = std::ceil(die_area / (nrows * spec.row_height) / spec.site_width) * spec.site_width;
  const Rect die{0, 0, die_w, nrows * spec.row_height};
  d.set_die(die);
  for (int r = 0; r < nrows; ++r) {
    d.add_row(Row{die.ly + r * spec.row_height, spec.row_height, die.lx, die.hx,
                  spec.site_width});
  }

  // ---- 4. place macros (fixed ones become blockages) ----
  // Fixed macros are dropped in randomized non-overlapping positions with a
  // bias toward edges/corners (like pre-placed RAMs), creating the narrow
  // channels the routability flow must handle. Movable macros start at the
  // die center.
  {
    std::vector<Rect> placed;
    const int nfixed = static_cast<int>(std::llround(spec.fixed_macro_ratio * spec.num_macros));
    for (int i = 0; i < spec.num_macros; ++i) {
      const CellId c = macros[static_cast<std::size_t>(i)];
      Cell& k = d.cell(c);
      if (i < nfixed) {
        bool ok = false;
        for (int attempt = 0; attempt < 300 && !ok; ++attempt) {
          // Bias: pull toward the nearest edge by squaring a centered sample.
          const auto biased = [&](double span) {
            const double u = rng.uniform(-1.0, 1.0);
            const double v = (u >= 0 ? 1.0 - u * u : u * u - 1.0);  // edge-heavy
            return (v + 1.0) / 2.0 * span;
          };
          double x = die.lx + biased(die.width() - k.w);
          double y = die.ly + biased(die.height() - k.h);
          // snap to rows/sites
          y = die.ly + std::round((y - die.ly) / spec.row_height) * spec.row_height;
          x = die.lx + std::round((x - die.lx) / spec.site_width) * spec.site_width;
          x = std::clamp(x, die.lx, die.hx - k.w);
          y = std::clamp(y, die.ly, die.hy - k.h);
          const Rect r{x, y, x + k.w, y + k.h};
          // keep a one-row halo so channels exist but are narrow
          bool clash = false;
          for (const Rect& p : placed) {
            if (r.expand(spec.row_height).overlaps(p)) {
              clash = true;
              break;
            }
          }
          if (!clash) {
            k.pos = {x, y};
            k.fixed = true;
            placed.push_back(r);
            ok = true;
          }
        }
        if (!ok) {
          // Could not fit as fixed; leave it movable.
          d.set_center(c, die.center());
        }
      } else {
        d.set_center(c, {die.center().x + rng.uniform(-0.1, 0.1) * die.width(),
                         die.center().y + rng.uniform(-0.1, 0.1) * die.height()});
      }
    }
  }

  // ---- 5. I/O pads on the boundary ----
  std::vector<CellId> pads;
  for (int i = 0; i < spec.num_io; ++i) {
    const CellId c = d.add_cell("pad" + std::to_string(i), 1.0, 1.0, CellKind::Terminal);
    Cell& k = d.cell(c);
    const double t = rng.uniform();
    const int side = static_cast<int>(rng.below(4));
    switch (side) {
      case 0: k.pos = {die.lx + t * (die.width() - 1), die.ly}; break;
      case 1: k.pos = {die.lx + t * (die.width() - 1), die.hy - 1}; break;
      case 2: k.pos = {die.lx, die.ly + t * (die.height() - 1)}; break;
      default: k.pos = {die.hx - 1, die.ly + t * (die.height() - 1)}; break;
    }
    pads.push_back(c);
  }

  // ---- 6. random initial positions for movable std cells ----
  for (CellId c = 0; c < num_std; ++c) {
    Cell& k = d.cell(c);
    k.pos = {rng.uniform(die.lx, die.hx - k.w), rng.uniform(die.ly, die.hy - k.h)};
  }

  // ---- 7. nets ----
  const int num_nets = static_cast<int>(num_std * spec.nets_per_cell);
  const auto pin_offset = [&](CellId c) {
    const Cell& k = d.cell(c);
    return Point{rng.uniform(-0.4, 0.4) * k.w, rng.uniform(-0.4, 0.4) * k.h};
  };
  // Module sampling: pick a random cell, then walk up a geometric number of
  // levels; deep modules are chosen often => strong net locality.
  const auto sample_module = [&](int anchor_cell) {
    int m = 0;
    // find the leaf module containing anchor_cell via binary search over
    // leaves (leaves' [begin,end) are disjoint and sorted by construction)
    int lo = 0, hi = static_cast<int>(tree.leaves.size()) - 1;
    while (lo <= hi) {
      const int mid = (lo + hi) / 2;
      const GenModule& gm = tree.mods[tree.leaves[static_cast<std::size_t>(mid)]];
      if (anchor_cell < gm.begin) hi = mid - 1;
      else if (anchor_cell >= gm.end) lo = mid + 1;
      else {
        m = tree.leaves[static_cast<std::size_t>(mid)];
        break;
      }
    }
    // climb with p=0.35 per level
    while (tree.mods[m].parent >= 0 && rng.bernoulli(0.35)) m = tree.mods[m].parent;
    return m;
  };

  for (int n = 0; n < num_nets; ++n) {
    const NetId net = d.add_net('n' + std::to_string(n));
    const int k = sample_degree(spec, rng);
    const int anchor = static_cast<int>(rng.below(static_cast<std::uint64_t>(num_std)));
    int begin = 0, end = num_std;
    if (!spec.flat && rng.bernoulli(spec.net_locality)) {
      const int m = sample_module(anchor);
      begin = tree.mods[m].begin;
      end = tree.mods[m].end;
    }
    if (end - begin < 2) {
      begin = 0;
      end = num_std;
    }
    // anchor + k-1 further distinct-ish cells from [begin, end)
    d.connect(anchor, net, pin_offset(anchor));
    int added = 1;
    int guard = 0;
    CellId prev = anchor;
    while (added < k && guard++ < 8 * k) {
      CellId c = begin + static_cast<CellId>(rng.below(static_cast<std::uint64_t>(end - begin)));
      // occasionally attach a macro pin (macros live outside [0, num_std))
      if (!macros.empty() && rng.bernoulli(0.01))
        c = macros[rng.below(macros.size())];
      if (c == prev) continue;
      bool dup = false;
      for (const PinId p : d.net(net).pins)
        if (d.pin(p).cell == c) {
          dup = true;
          break;
        }
      if (dup) continue;
      d.connect(c, net, pin_offset(c));
      prev = c;
      ++added;
    }
  }
  // pad nets: each pad joins a random existing net (long connections)
  for (const CellId pad : pads) {
    const NetId n = static_cast<NetId>(rng.below(static_cast<std::uint64_t>(d.num_nets())));
    d.connect(pad, n, {0.5, 0.5});
  }

  // ---- 8. fence regions (optional) ----
  for (int fr = 0; fr < spec.num_fence_regions && !tree.leaves.empty(); ++fr) {
    const int m = tree.leaves[rng.below(tree.leaves.size())];
    const GenModule& gm = tree.mods[m];
    if (gm.end - gm.begin < 10) continue;
    // area needed with slack
    double area = 0;
    for (CellId c = gm.begin; c < gm.end; ++c) area += d.cell(c).area();
    const double side_w = std::min(die.width() / 2, std::sqrt(area / 0.6));
    const double side_h = std::min(die.height() / 2, area / 0.6 / side_w);
    const double x = rng.uniform(die.lx, die.hx - side_w);
    double y = rng.uniform(die.ly, die.hy - side_h);
    y = die.ly + std::round((y - die.ly) / spec.row_height) * spec.row_height;
    Region reg;
    reg.name = "fence" + std::to_string(fr);
    reg.rects.push_back(Rect{x, y, x + side_w, y + side_h});
    const int rid = d.add_region(std::move(reg));
    for (CellId c = gm.begin; c < gm.end; ++c) d.set_region(c, rid);
  }

  // ---- 9. routing grid, with SELF-CALIBRATED capacities ----
  // Closed-form demand estimates (Donath etc.) drift badly with design size,
  // so the generator measures its own demand instead: it builds a cheap
  // hierarchy-driven PROXY placement (recursive area bisection of the module
  // tree, cells uniform inside their module's slice — roughly what a good
  // placer produces for a hierarchical design), runs the probabilistic
  // L-route estimator on it, and sets each direction's capacity to
  // track_supply × 1.35 × the measured mean edge demand. Since hotspot
  // demand runs ~2-3x the mean, track_supply ≈ 1.0-1.3 yields designs whose
  // hotspots just overflow — the congestion-prone contest regime —
  // consistently across sizes.
  {
    RouteGridInfo rg;
    rg.nx = spec.route_tiles_x > 0
                ? spec.route_tiles_x
                : std::max(10, static_cast<int>(die.width() / (2 * spec.row_height)));
    rg.ny = spec.route_tiles_y > 0
                ? spec.route_tiles_y
                : std::max(10, static_cast<int>(die.height() / (2 * spec.row_height)));
    rg.macro_porosity = spec.macro_porosity;

    // Save real start positions; build the proxy placement.
    std::vector<Point> saved(static_cast<std::size_t>(num_std));
    for (CellId c = 0; c < num_std; ++c) saved[static_cast<std::size_t>(c)] = d.cell(c).pos;
    {
      // Recursive bisection of the die among module subtrees by cell count.
      struct Task {
        int module;
        Rect rect;
      };
      Rng prng = rng.split();
      std::vector<Task> stack{{0, die}};
      while (!stack.empty()) {
        const Task t = stack.back();
        stack.pop_back();
        const GenModule& gm = tree.mods[t.module];
        if (gm.children.empty()) {
          for (CellId c = gm.begin; c < gm.end; ++c) {
            Cell& k = d.cell(c);
            k.pos = {prng.uniform(t.rect.lx, std::max(t.rect.lx, t.rect.hx - k.w)),
                     prng.uniform(t.rect.ly, std::max(t.rect.ly, t.rect.hy - k.h))};
          }
          continue;
        }
        // Split along the longer axis into area-proportional slices.
        double total = 0;
        for (const int ch : gm.children)
          total += std::max(1, tree.mods[ch].end - tree.mods[ch].begin);
        const bool horiz = t.rect.width() >= t.rect.height();
        double cur = horiz ? t.rect.lx : t.rect.ly;
        for (const int ch : gm.children) {
          const double frac =
              std::max(1, tree.mods[ch].end - tree.mods[ch].begin) / total;
          Rect r = t.rect;
          if (horiz) {
            r.lx = cur;
            cur += frac * t.rect.width();
            r.hx = cur;
          } else {
            r.ly = cur;
            cur += frac * t.rect.height();
            r.hy = cur;
          }
          stack.push_back({ch, r});
        }
      }
    }
    // Measure demand on the proxy placement with UNIT capacities and the
    // real macro derating in place: the probe's per-edge use/cap ratio then
    // reflects the structural hotspots (module concentration + blockage
    // shadowing), not just the average. The base capacity is anchored at the
    // 85th percentile of that ratio: at track_supply == 1.0 the proxy's
    // top-15% edges sit at or above full capacity, which after the placer
    // optimizes and the router negotiates leaves a competent placement just
    // grazing overflow in its hotspots. Residual size/flatness drift is
    // absorbed by the per-benchmark track_supply values (see suite.cpp).
    d.set_route_grid(RouteGridInfo{rg.nx, rg.ny, 1.0, 1.0, 1.0, rg.macro_porosity});
    {
      RoutingGrid probe(d, /*include_movable_macros=*/false);
      estimate_probabilistic(d, probe);
      std::vector<double> hr, vr;
      for (int iy = 0; iy < probe.ny(); ++iy)
        for (int ix = 0; ix + 1 < probe.nx(); ++ix)
          if (probe.h_cap(ix, iy) > 0.05) hr.push_back(probe.h_use(ix, iy) / probe.h_cap(ix, iy));
      for (int iy = 0; iy + 1 < probe.ny(); ++iy)
        for (int ix = 0; ix < probe.nx(); ++ix)
          if (probe.v_cap(ix, iy) > 0.05) vr.push_back(probe.v_use(ix, iy) / probe.v_cap(ix, iy));
      const auto p85 = [](std::vector<double>& v) {
        if (v.empty()) return 1.0;
        const auto k = static_cast<std::size_t>(0.85 * (v.size() - 1));
        std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
        return std::max(1e-6, v[k]);
      };
      // Flat designs have no module structure for the proxy to exploit: the
      // measured (random-placement) hotspot demand overstates what a real
      // placer achieves; discount it.
      const double discount = spec.flat ? 0.45 : 1.0;
      rg.h_capacity = std::max(4.0, spec.track_supply * discount * p85(hr));
      rg.v_capacity = std::max(4.0, spec.track_supply * discount * p85(vr));
    }
    // Restore the random start positions.
    for (CellId c = 0; c < num_std; ++c) d.cell(c).pos = saved[static_cast<std::size_t>(c)];
    d.set_route_grid(rg);
  }

  d.finalize();
  RP_INFO("generated '%s': %d std cells, %d macros (%d fixed), %d nets, %d pins, "
          "die %.0fx%.0f, util %.1f%%, hier depth %d",
          d.name().c_str(), num_std, d.num_macros(), d.num_macros() - d.num_movable_macros(),
          d.num_nets(), d.num_pins(), die.width(), die.height(), 100 * d.utilization(),
          d.hierarchy().max_depth());
  return d;
}

}  // namespace rp
