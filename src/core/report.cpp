#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "route/estimator.hpp"
#include "util/grid.hpp"

namespace rp {

EvalResult evaluate_placement(const Design& d, const EvalOptions& opt) {
  RoutingGrid grid(d, /*include_movable_macros=*/true);
  return evaluate_placement(d, opt, grid);
}

EvalResult evaluate_placement(const Design& d, const EvalOptions& opt,
                              RoutingGrid& grid) {
  EvalResult r;
  r.hpwl = d.hpwl();
  if (opt.run_router) {
    GlobalRouter router(grid, opt.router);
    r.route = router.route(d);
  } else {
    estimate_probabilistic(d, grid);
    r.route.wirelength = grid.used_wirelength();
    r.route.total_overflow = grid.total_overflow();
    r.route.max_utilization = grid.max_utilization();
  }
  r.congestion = congestion_metrics(grid);
  r.scaled_hpwl = scaled_hpwl(r.hpwl, r.congestion.rc);
  if (opt.check_legal) r.legality = check_legality(d);
  return r;
}

std::string congestion_ascii(const Design& d, const RoutingGrid& grid, int max_cols) {
  const Grid2D<double> cong = grid.tile_congestion();

  // Macro mask for display.
  Grid2D<double> macro_cover(grid.nx(), grid.ny(), 0.0);
  for (CellId c = 0; c < d.num_cells(); ++c) {
    const Cell& k = d.cell(c);
    if (!k.fixed || !k.is_macro()) continue;
    grid.map().rasterize(d.cell_rect(c),
                         [&](int ix, int iy, double a) { macro_cover(ix, iy) += a; });
  }

  const int step = std::max(1, (grid.nx() + max_cols - 1) / max_cols);
  std::ostringstream os;
  for (int iy = grid.ny() - 1; iy >= 0; iy -= step) {
    for (int ix = 0; ix < grid.nx(); ix += step) {
      // Aggregate the step×step block.
      double u = 0.0, mc = 0.0;
      for (int dy = 0; dy < step && iy - dy >= 0; ++dy)
        for (int dx = 0; dx < step && ix + dx < grid.nx(); ++dx) {
          u = std::max(u, cong(ix + dx, iy - dy));
          mc = std::max(mc, macro_cover(ix + dx, iy - dy) / grid.map().bin_area());
        }
      char ch = ' ';
      if (u >= 1.05) ch = '#';
      else if (u >= 0.95) ch = '+';
      else if (u >= 0.80) ch = ':';
      else if (u >= 0.50) ch = '.';
      if (mc > 0.6 && u < 0.95) ch = 'M';
      os << ch;
    }
    os << '\n';
  }
  return os.str();
}

TableWriter::TableWriter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TableWriter::row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

std::string TableWriter::str() const {
  std::vector<std::size_t> w(headers_.size(), 0);
  for (std::size_t i = 0; i < headers_.size(); ++i) w[i] = headers_[i].size();
  for (const auto& r : rows_)
    for (std::size_t i = 0; i < r.size() && i < w.size(); ++i)
      w[i] = std::max(w[i], r[i].size());

  std::ostringstream os;
  const auto line = [&] {
    for (const std::size_t wi : w) os << std::string(wi + 2, '-');
    os << '\n';
  };
  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < w.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : std::string();
      os << c << std::string(w[i] + 2 - c.size(), ' ');
    }
    os << '\n';
  };
  line();
  emit(headers_);
  line();
  for (const auto& r : rows_) emit(r);
  line();
  return os.str();
}

std::string TableWriter::num(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

std::string TableWriter::eng(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3e", v);
  return buf;
}

}  // namespace rp
