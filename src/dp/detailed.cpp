#include "dp/detailed.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "dp/hungarian.hpp"
#include "legal/subrow.hpp"
#include "model/incremental.hpp"
#include "util/assert.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/telemetry.hpp"

namespace rp {

namespace {

/// Row-structured view of a legalized placement; keeps cells sorted by x
/// within each subrow and supports the moves the optimizer makes.
class RowView {
 public:
  explicit RowView(Design& d) : d_(d), index_(build_subrows(d)) { rebuild(); }

  /// Re-derive row membership from current positions (after ISM moves).
  void rebuild() {
    rows_.assign(index_.subrows().size(), {});
    where_.clear();
    for (const CellId c : d_.movable_cells()) {
      const Cell& k = d_.cell(c);
      if (k.kind != CellKind::StdCell) continue;
      const int s = find_subrow(d_.cell_rect(c));
      if (s < 0) continue;  // cell not cleanly in a subrow; leave it alone
      rows_[static_cast<std::size_t>(s)].push_back(c);
      where_[c] = s;
    }
    for (auto& row : rows_) {
      std::sort(row.begin(), row.end(),
                [&](CellId a, CellId b) { return d_.cell(a).pos.x < d_.cell(b).pos.x; });
    }
  }

  const SubrowIndex& index() const { return index_; }
  int subrow_of(CellId c) const {
    const auto it = where_.find(c);
    return it == where_.end() ? -1 : it->second;
  }
  const std::vector<CellId>& cells_in(int s) const {
    return rows_[static_cast<std::size_t>(s)];
  }
  std::vector<CellId>& cells_in_mutable(int s) { return rows_[static_cast<std::size_t>(s)]; }

  /// Index of the first cell with pos.x >= x in subrow s.
  int lower_bound_x(int s, double x) const {
    const auto& row = rows_[static_cast<std::size_t>(s)];
    const auto it = std::lower_bound(row.begin(), row.end(), x, [&](CellId c, double xx) {
      return d_.cell(c).pos.x < xx;
    });
    return static_cast<int>(it - row.begin());
  }

  /// Gap (free x-interval) that would host a cell of width w at index i in
  /// subrow s (between cells i-1 and i). Returns empty interval if none.
  Interval gap_at(int s, int i) const {
    const Subrow& sr = index_.subrows()[static_cast<std::size_t>(s)];
    const auto& row = rows_[static_cast<std::size_t>(s)];
    const double lo = i == 0 ? sr.lx : d_.cell_rect(row[static_cast<std::size_t>(i - 1)]).hx;
    const double hi =
        i == static_cast<int>(row.size()) ? sr.hx : d_.cell(row[static_cast<std::size_t>(i)]).pos.x;
    return {lo, hi};
  }

  /// Move cell c to subrow s at x (caller checked feasibility).
  void relocate(CellId c, int s, double x) {
    const int old_s = subrow_of(c);
    RP_ASSERT(old_s >= 0, "relocate: unknown cell");
    auto& orow = rows_[static_cast<std::size_t>(old_s)];
    orow.erase(std::find(orow.begin(), orow.end(), c));
    Cell& k = d_.cell(c);
    k.pos = {x, index_.subrows()[static_cast<std::size_t>(s)].y};
    auto& nrow = rows_[static_cast<std::size_t>(s)];
    nrow.insert(nrow.begin() + lower_bound_x(s, x), c);
    where_[c] = s;
  }

  /// Swap two equal-width cells' positions (subrow membership updates too).
  void swap_cells(CellId a, CellId b) {
    const int sa = subrow_of(a), sb = subrow_of(b);
    Cell& ka = d_.cell(a);
    Cell& kb = d_.cell(b);
    std::swap(ka.pos, kb.pos);
    auto& ra = rows_[static_cast<std::size_t>(sa)];
    auto& rb = rows_[static_cast<std::size_t>(sb)];
    *std::find(ra.begin(), ra.end(), a) = b;
    *std::find(rb.begin(), rb.end(), b) = a;
    where_[a] = sb;
    where_[b] = sa;
    if (sa == sb) {
      // same row: the two replacements above put both back; re-sort locally
      auto& row = ra;
      std::sort(row.begin(), row.end(),
                [&](CellId x, CellId y) { return d_.cell(x).pos.x < d_.cell(y).pos.x; });
    }
  }

 private:
  int find_subrow(const Rect& r) const {
    const int band = index_.nearest_band(r.ly);
    if (band < 0) return -1;
    if (std::abs(index_.band_y(band) - r.ly) > 1e-6) return -1;
    const auto [first, last] = index_.band_range(band);
    for (int s = first; s < last; ++s) {
      const Subrow& sr = index_.subrows()[static_cast<std::size_t>(s)];
      if (r.lx >= sr.lx - 1e-6 && r.hx <= sr.hx + 1e-6) return s;
    }
    return -1;
  }

  Design& d_;
  SubrowIndex index_;
  std::vector<std::vector<CellId>> rows_;
  std::unordered_map<CellId, int> where_;
};

/// Incremental cost evaluation: HPWL over a net set + congestion term.
class CostEval {
 public:
  CostEval(const Design& d, double cong_weight, const std::optional<GridMap>& geom,
           const Grid2D<double>& cong)
      : d_(d), cw_(cong_weight), geom_(geom), cong_(cong) {}

  double nets_cost(std::span<const NetId> nets) const {
    double s = 0.0;
    for (const NetId n : nets) s += d_.net(n).weight * d_.net_hpwl(n);
    return s;
  }

  double cell_cong_cost(CellId c) const {
    if (cw_ == 0.0 || !geom_) return 0.0;
    const Point p = d_.cell_center(c);
    const double g = cong_(geom_->ix_of(p.x), geom_->iy_of(p.y));
    // Only congestion beyond 80% utilization is penalized; scale by the
    // cell's pin count — pins are what actually create routing demand.
    return cw_ * static_cast<double>(d_.cell(c).pins.size()) * std::max(0.0, g - 0.8);
  }

  /// Congestion cost of c trialed at lower-left `ll` without mutating the
  /// design — the center is formed by the same pos + size/2 expression as
  /// cell_cong_cost sees after a mutate-and-measure, so values match bitwise.
  double cell_cong_cost_at(CellId c, Point ll) const {
    if (cw_ == 0.0 || !geom_) return 0.0;
    const Cell& k = d_.cell(c);
    const Point p{ll.x + k.w / 2, ll.y + k.h / 2};
    const double g = cong_(geom_->ix_of(p.x), geom_->iy_of(p.y));
    return cw_ * static_cast<double>(k.pins.size()) * std::max(0.0, g - 0.8);
  }

  /// Would placing cell c's footprint at (x, y) violate fence exclusivity?
  /// Fenced cells must stay inside their fence; unfenced cells must stay out
  /// of every fence.
  bool fence_ok(CellId c, double x, double y) const {
    const Cell& k = d_.cell(c);
    const Rect r{x, y, x + k.w, y + k.h};
    if (k.region != kInvalidId) {
      for (const Rect& fr : d_.region(k.region).rects)
        if (fr.expand(1e-6).contains(r)) return true;
      return false;
    }
    for (int reg = 0; reg < d_.num_regions(); ++reg)
      for (const Rect& fr : d_.region(reg).rects)
        if (fr.overlaps(r)) return false;
    return true;
  }

 private:
  const Design& d_;
  double cw_;
  const std::optional<GridMap>& geom_;
  const Grid2D<double>& cong_;
};

/// Optimal x-interval for a cell: [median of net-box lows, median of highs],
/// with the cell's own pins removed from each net box. Same for y.
struct OptRegion {
  Interval x, y;
  bool valid = false;
};

OptRegion optimal_region(const Design& d, CellId c) {
  std::vector<double> xlo, xhi, ylo, yhi;
  for (const PinId p : d.cell(c).pins) {
    const NetId n = d.pin(p).net;
    BBox bb;
    for (const PinId q : d.net(n).pins) {
      if (d.pin(q).cell == c) continue;
      bb.add(d.pin_pos(q));
    }
    if (bb.empty()) continue;
    xlo.push_back(bb.r.lx);
    xhi.push_back(bb.r.hx);
    ylo.push_back(bb.r.ly);
    yhi.push_back(bb.r.hy);
  }
  OptRegion o;
  if (xlo.empty()) return o;
  const auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2), v.end());
    return v[v.size() / 2];
  };
  o.x = {median(xlo), median(xhi)};
  o.y = {median(ylo), median(yhi)};
  if (o.x.hi < o.x.lo) std::swap(o.x.lo, o.x.hi);
  if (o.y.hi < o.y.lo) std::swap(o.y.lo, o.y.hi);
  o.valid = true;
  return o;
}

}  // namespace

void DetailedPlacer::set_congestion(GridMap map_geom, Grid2D<double> congestion) {
  cong_geom_ = map_geom;
  cong_ = std::move(congestion);
}

DetailedPlaceStats DetailedPlacer::run(Design& d) {
  DetailedPlaceStats stats;
  // The evaluator's topology (per-cell sorted net lists) serves both modes;
  // its cached net boxes and costs are consulted only when opt_.incremental
  // is set. Candidate deltas are bitwise identical either way — min/max box
  // updates are exact and every sum runs in the same ascending-net order —
  // which the determinism gate enforces by diffing the two settings.
  IncrementalEval inc(d);
  const bool use_inc = opt_.incremental;
  if (use_inc && cong_geom_) inc.build_occupancy(*cong_geom_);
  stats.hpwl_before = use_inc ? inc.total_cost() : d.hpwl();
  Rng rng(opt_.seed);
  RowView rows(d);
  CostEval eval(d, opt_.congestion_weight, cong_geom_, cong_);
  std::vector<NetId> net_union;  // swap-candidate scratch, reused

  std::vector<CellId> order;
  for (const CellId c : d.movable_cells())
    if (d.cell(c).kind == CellKind::StdCell && rows.subrow_of(c) >= 0) order.push_back(c);

  for (int pass = 0; pass < opt_.passes; ++pass) {
    obs::check_interrupt();  // SIGINT/SIGTERM: unwind between DP passes
    RP_COUNT("dp.passes", 1);
    // ---------------- global swap / relocation ----------------
    if (opt_.enable_global_swap) {
      rng.shuffle(order);
      for (const CellId c : order) {
        const OptRegion opt_r = optimal_region(d, c);
        if (!opt_r.valid) continue;
        const Cell& k = d.cell(c);
        const Point cur = d.cell_center(c);
        // Already inside its optimal region: nothing to gain.
        if (opt_r.x.contains(cur.x) && opt_r.y.contains(cur.y)) continue;
        const double tx = opt_r.x.clamp(cur.x);
        const double ty = opt_r.y.clamp(cur.y);

        const int band = rows.index().nearest_band(ty - k.h / 2);
        if (band < 0) continue;
        double best_delta = -1e-9;  // require strict improvement
        int best_s = -1;
        double best_x = 0.0;
        CellId best_swap = kInvalidId;

        // The relocation "before" is invariant while c sits at its original
        // spot: its net list and cost are computed once per cell, not once
        // per gap candidate.
        const std::span<const NetId> nets_c = inc.cell_nets(c);
        const double before_c =
            (use_inc ? inc.nets_cost(nets_c) : eval.nets_cost(nets_c)) +
            eval.cell_cong_cost(c);

        for (int b = std::max(0, band - 1);
             b <= std::min(rows.index().num_bands() - 1, band + 1); ++b) {
          const auto [first, last] = rows.index().band_range(b);
          for (int s = first; s < last; ++s) {
            const Subrow& sr = rows.index().subrows()[static_cast<std::size_t>(s)];
            if (tx < sr.lx - 2 * k.w || tx > sr.hx + 2 * k.w) continue;
            const int at = rows.lower_bound_x(s, tx);
            // Try the gaps at insertion indices around the target.
            for (int gi = std::max(0, at - 1);
                 gi <= std::min(static_cast<int>(rows.cells_in(s).size()), at + 1); ++gi) {
              const Interval gap = rows.gap_at(s, gi);
              if (gap.length() < k.w) continue;
              const double x = std::clamp(tx - k.w / 2, gap.lo, gap.hi - k.w);
              if (!eval.fence_ok(c, x, sr.y)) continue;
              double after;
              if (use_inc) {
                after = inc.trial_move(c, {x, sr.y}) +
                        eval.cell_cong_cost_at(c, {x, sr.y});
              } else {
                const Point old_pos = d.cell(c).pos;
                d.cell(c).pos = {x, sr.y};
                after = eval.nets_cost(nets_c) + eval.cell_cong_cost(c);
                d.cell(c).pos = old_pos;
              }
              const double delta = before_c - after;
              if (delta > best_delta) {
                best_delta = delta;
                best_s = s;
                best_x = x;
                best_swap = kInvalidId;
              }
            }
            // Try swapping with equal-width cells near the target.
            for (int ci = std::max(0, at - 2);
                 ci < std::min(static_cast<int>(rows.cells_in(s).size()), at + 2); ++ci) {
              const CellId o = rows.cells_in(s)[static_cast<std::size_t>(ci)];
              if (o == c || d.cell(o).w != k.w || d.cell(o).h != k.h) continue;
              if (d.cell(o).region != k.region) continue;
              // One merge of the two sorted per-cell net lists replaces the
              // collect-sort-unique pass both sides used to repeat.
              inc.union_nets(c, o, net_union);
              const double before = (use_inc ? inc.nets_cost(net_union)
                                             : eval.nets_cost(net_union)) +
                                    eval.cell_cong_cost(c) + eval.cell_cong_cost(o);
              double after;
              if (use_inc) {
                after = inc.trial_swap(c, o, net_union) +
                        eval.cell_cong_cost_at(c, d.cell(o).pos) +
                        eval.cell_cong_cost_at(o, d.cell(c).pos);
              } else {
                std::swap(d.cell(c).pos, d.cell(o).pos);
                after = eval.nets_cost(net_union) + eval.cell_cong_cost(c) +
                        eval.cell_cong_cost(o);
                std::swap(d.cell(c).pos, d.cell(o).pos);
              }
              const double delta = before - after;
              if (delta > best_delta) {
                best_delta = delta;
                best_s = s;
                best_swap = o;
              }
            }
          }
        }
        if (best_s >= 0) {
          if (best_swap != kInvalidId) {
            const Point old_c = d.cell(c).pos;
            const Point old_o = d.cell(best_swap).pos;
            rows.swap_cells(c, best_swap);
            if (use_inc) {
              inc.refresh_cell(c);
              inc.refresh_cell(best_swap);
              inc.occupancy_move(c, old_c, d.cell(c).pos);
              inc.occupancy_move(best_swap, old_o, d.cell(best_swap).pos);
            }
            ++stats.swaps;
          } else {
            const Point old_c = d.cell(c).pos;
            rows.relocate(c, best_s, best_x);
            if (use_inc) {
              inc.refresh_cell(c);
              inc.occupancy_move(c, old_c, d.cell(c).pos);
            }
            ++stats.relocations;
          }
        }
      }
    }

    // ---------------- local reorder ----------------
    if (opt_.enable_reorder && opt_.reorder_window >= 2) {
      const int w = std::min(opt_.reorder_window, 4);
      for (int s = 0; s < static_cast<int>(rows.index().subrows().size()); ++s) {
        const auto& row = rows.cells_in(s);
        if (static_cast<int>(row.size()) < w) continue;
        for (int i = 0; i + w <= static_cast<int>(row.size()); ++i) {
          // Current window cells & their packed start.
          std::vector<CellId> win(row.begin() + i, row.begin() + i + w);
          // Windows touching fence regions are skipped: permuting them could
          // slide a fenced cell across its fence boundary.
          bool fenced = false;
          for (const CellId c : win)
            if (d.cell(c).region != kInvalidId) fenced = true;
          if (fenced) continue;
          const double x0 = d.cell(win[0]).pos.x;
          const double gap_end = rows.gap_at(s, i + w).hi;  // right slack limit
          std::vector<NetId> nets;
          for (const CellId c : win) {
            const auto cn = inc.cell_nets(c);
            nets.insert(nets.end(), cn.begin(), cn.end());
          }
          std::sort(nets.begin(), nets.end());
          nets.erase(std::unique(nets.begin(), nets.end()), nets.end());

          std::vector<Point> orig(win.size());
          for (std::size_t j = 0; j < win.size(); ++j) orig[j] = d.cell(win[j]).pos;
          const double before = use_inc ? inc.nets_cost(nets) : eval.nets_cost(nets);

          std::vector<int> perm(win.size());
          for (std::size_t j = 0; j < perm.size(); ++j) perm[j] = static_cast<int>(j);
          std::vector<int> best_perm = perm;
          double best_after = before;
          while (std::next_permutation(perm.begin(), perm.end())) {
            double x = x0;
            bool fits = true;
            for (const int j : perm) {
              Cell& k = d.cell(win[static_cast<std::size_t>(j)]);
              k.pos.x = x;
              x += k.w;
              if (x > gap_end + 1e-9) fits = false;
            }
            if (fits) {
              const double after = eval.nets_cost(nets);
              if (after < best_after - 1e-12) {
                best_after = after;
                best_perm = perm;
              }
            }
          }
          // Apply the best (or restore original).
          if (best_after < before - 1e-12) {
            double x = x0;
            bool ok = true;
            for (const int j : best_perm) {
              Cell& k = d.cell(win[static_cast<std::size_t>(j)]);
              if (!eval.fence_ok(win[static_cast<std::size_t>(j)], x, k.pos.y)) ok = false;
              k.pos.x = x;
              x += k.w;
            }
            if (!ok) {  // window straddles a fence: undo
              for (std::size_t j = 0; j < win.size(); ++j) d.cell(win[j]).pos = orig[j];
              continue;
            }
            ++stats.reorders;
            if (use_inc) {
              inc.refresh_nets(nets);
              for (std::size_t j = 0; j < win.size(); ++j)
                inc.occupancy_move(win[j], orig[j], d.cell(win[j]).pos);
            }
            // Row order may have changed; fix the slice.
            auto& mrow = rows.cells_in_mutable(s);
            std::sort(mrow.begin() + i, mrow.begin() + i + w, [&](CellId a, CellId b) {
              return d.cell(a).pos.x < d.cell(b).pos.x;
            });
          } else {
            for (std::size_t j = 0; j < win.size(); ++j) d.cell(win[j]).pos = orig[j];
          }
        }
      }
    }

    // ---------------- independent-set matching ----------------
    if (opt_.enable_ism && opt_.ism_set_size >= 3) {
      // Bucket by (width, height, region); within a bucket, walk cells in
      // row-major order and grow net-disjoint sets of nearby cells.
      std::unordered_map<long long, std::vector<CellId>> buckets;
      for (const CellId c : order) {
        const Cell& k = d.cell(c);
        const long long key =
            static_cast<long long>(k.w * 16) * 1000003LL + static_cast<long long>(k.h * 16) +
            1000000007LL * (k.region + 1);
        buckets[key].push_back(c);
      }
      for (auto& [key, cells] : buckets) {
        if (static_cast<int>(cells.size()) < 3) continue;
        std::sort(cells.begin(), cells.end(), [&](CellId a, CellId b) {
          const Cell& ka = d.cell(a);
          const Cell& kb = d.cell(b);
          return ka.pos.y != kb.pos.y ? ka.pos.y < kb.pos.y : ka.pos.x < kb.pos.x;
        });
        std::vector<CellId> set;
        std::vector<NetId> set_nets;
        const auto flush = [&]() {
          const int n = static_cast<int>(set.size());
          if (n >= 3) {
            // cost[i][j]: cell i at slot j (slots = current positions).
            std::vector<Point> slots(set.size());
            for (std::size_t i = 0; i < set.size(); ++i) slots[i] = d.cell(set[i]).pos;
            std::vector<double> cost(static_cast<std::size_t>(n) * n, 0.0);
            for (int i = 0; i < n; ++i) {
              const CellId c = set[static_cast<std::size_t>(i)];
              if (use_inc) {
                // Net-disjointness makes per-cell costs separable, so each
                // slot is a plain single-cell trial — no mutation at all.
                for (int j = 0; j < n; ++j)
                  cost[static_cast<std::size_t>(i * n + j)] =
                      inc.trial_move(c, slots[static_cast<std::size_t>(j)]) +
                      eval.cell_cong_cost_at(c, slots[static_cast<std::size_t>(j)]);
              } else {
                const Point orig = d.cell(c).pos;
                const auto nets = inc.cell_nets(c);
                for (int j = 0; j < n; ++j) {
                  d.cell(c).pos = slots[static_cast<std::size_t>(j)];
                  cost[static_cast<std::size_t>(i * n + j)] =
                      eval.nets_cost(nets) + eval.cell_cong_cost(c);
                }
                d.cell(c).pos = orig;
              }
            }
            const std::vector<int> assign = hungarian(cost, n);
            double before = 0.0;
            for (int i = 0; i < n; ++i) before += cost[static_cast<std::size_t>(i * n + i)];
            const double after = assignment_cost(cost, n, assign);
            if (after < before - 1e-12) {
              for (int i = 0; i < n; ++i) {
                if (assign[static_cast<std::size_t>(i)] != i) ++stats.ism_moves;
                d.cell(set[static_cast<std::size_t>(i)]).pos =
                    slots[static_cast<std::size_t>(assign[static_cast<std::size_t>(i)])];
              }
              if (use_inc)
                for (int i = 0; i < n; ++i)
                  if (assign[static_cast<std::size_t>(i)] != i) {
                    const CellId c = set[static_cast<std::size_t>(i)];
                    inc.refresh_cell(c);
                    inc.occupancy_move(c, slots[static_cast<std::size_t>(i)],
                                       d.cell(c).pos);
                  }
            }
          }
          set.clear();
          set_nets.clear();
        };
        for (const CellId c : cells) {
          const std::span<const NetId> cn = inc.cell_nets(c);  // already sorted
          bool clash = false;
          for (const NetId n : cn)
            if (std::binary_search(set_nets.begin(), set_nets.end(), n)) {
              clash = true;
              break;
            }
          if (clash) {
            flush();
          }
          set.push_back(c);
          set_nets.insert(set_nets.end(), cn.begin(), cn.end());
          std::sort(set_nets.begin(), set_nets.end());
          if (static_cast<int>(set.size()) >= opt_.ism_set_size) flush();
        }
        flush();
      }
      // ISM may have reordered cells within rows; rebuild the row view.
      rows.rebuild();
    }
  }

  stats.hpwl_after = use_inc ? inc.total_cost() : d.hpwl();
  if (use_inc && inc.cross_check())
    RP_ASSERT(stats.hpwl_after == d.hpwl(),
              "incremental: total cost drifted from Design::hpwl()");
  return stats;
}

}  // namespace rp
