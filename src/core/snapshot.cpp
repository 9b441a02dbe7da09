#include "core/snapshot.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "util/json.hpp"
#include "util/logger.hpp"

namespace rp {

namespace {

/// Stage/name fragments become file names; keep them path-safe.
std::string sanitize(std::string s) {
  for (char& c : s)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '.')) c = '_';
  return s;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    RP_ERROR("snapshot: cannot open '%s'", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fputc('\n', f);
  std::fclose(f);
  if (!ok) RP_ERROR("snapshot: short write to '%s'", path.c_str());
  return ok;
}

}  // namespace

SnapshotRecorder::SnapshotRecorder(SnapshotOptions opt) : opt_(std::move(opt)) {
  if (opt_.dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(opt_.dir) / "maps", ec);
  if (ec) {
    RP_ERROR("snapshot: cannot create '%s': %s", opt_.dir.c_str(),
             ec.message().c_str());
    return;
  }
  ok_ = true;
}

SnapshotRecorder::~SnapshotRecorder() {
  if (ok_ && !finalized_) finalize();
}

void SnapshotRecorder::record_grid(const std::string& stage, const std::string& name,
                                   const Grid2D<double>& g) {
  if (!ok_) return;
  MapEntry e;
  e.seq = seq_++;
  e.stage = stage;
  e.name = name;
  e.nx = g.nx();
  e.ny = g.ny();
  e.stats = grid_stats(g);
  char base[256];
  std::snprintf(base, sizeof base, "maps/%03d_%s_%s", e.seq, sanitize(stage).c_str(),
                sanitize(name).c_str());
  e.grid_rel = std::string(base) + ".grid";
  write_grid_bin(opt_.dir + "/" + e.grid_rel, g);
  if (opt_.render_ppm) {
    e.ppm_rel = std::string(base) + ".ppm";
    write_grid_ppm(opt_.dir + "/" + e.ppm_rel, g);
  }
  if (opt_.render_svg) {
    e.svg_rel = std::string(base) + ".svg";
    write_grid_svg(opt_.dir + "/" + e.svg_rel, g);
  }
  maps_.push_back(std::move(e));
}

void SnapshotRecorder::record_point(const GpTracePoint& p) {
  if (ok_) points_.push_back(p);
}

void SnapshotRecorder::record_round(const SnapshotRoundRecord& r) {
  if (ok_) rounds_.push_back(r);
}

bool SnapshotRecorder::finalize() {
  if (!ok_ || finalized_) return ok_;
  finalized_ = true;

  JsonWriter conv(2);
  conv.begin_object();
  conv.kv("schema_version", 1);
  conv.key("points").begin_array();
  for (const GpTracePoint& p : points_) {
    // A reheat round's points carry level -r; the file splits that into
    // level 0, round r.
    conv.begin_object();
    conv.kv("level", std::max(p.level, 0));
    conv.kv("round", std::max(-p.level, 0));
    conv.kv("outer", p.outer);
    conv.kv("hpwl", p.hpwl);
    conv.kv("overflow", p.overflow);
    conv.kv("lambda", p.lambda);
    conv.kv("gamma", p.gamma);
    conv.kv("inflation", p.inflation);
    conv.end_object();
  }
  conv.end_array();
  conv.key("rounds").begin_array();
  for (const SnapshotRoundRecord& r : rounds_) {
    conv.begin_object();
    conv.kv("round", r.round);
    conv.kv("rc", r.congestion.rc);
    conv.kv("ace_005", r.congestion.ace_005);
    conv.kv("ace_1", r.congestion.ace_1);
    conv.kv("ace_2", r.congestion.ace_2);
    conv.kv("ace_5", r.congestion.ace_5);
    conv.kv("peak_utilization", r.congestion.peak_utilization);
    conv.kv("total_overflow", r.congestion.total_overflow);
    conv.kv("overflowed_edges", r.congestion.overflowed_edges);
    conv.kv("cells_inflated", r.cells_inflated);
    conv.kv("mean_inflation", r.mean_inflation);
    conv.end_object();
  }
  conv.end_array();
  conv.end_object();
  bool ok = write_text_file(opt_.dir + "/convergence.json", conv.str());

  JsonWriter man(2);
  man.begin_object();
  man.kv("schema_version", 1);
  man.kv("tool", "routplace-snapshot");
  man.kv("convergence", "convergence.json");
  man.kv("num_points", static_cast<int>(points_.size()));
  man.kv("num_rounds", static_cast<int>(rounds_.size()));
  man.key("maps").begin_array();
  for (const MapEntry& e : maps_) {
    man.begin_object();
    man.kv("seq", e.seq);
    man.kv("stage", e.stage);
    man.kv("name", e.name);
    man.kv("grid", e.grid_rel);
    if (!e.ppm_rel.empty()) man.kv("ppm", e.ppm_rel);
    if (!e.svg_rel.empty()) man.kv("svg", e.svg_rel);
    man.kv("nx", e.nx);
    man.kv("ny", e.ny);
    man.kv("min", e.stats.min);
    man.kv("max", e.stats.max);
    man.kv("mean", e.stats.mean);
    man.kv("non_finite", e.stats.non_finite);
    man.end_object();
  }
  man.end_array();
  man.end_object();
  ok = write_text_file(opt_.dir + "/manifest.json", man.str()) && ok;
  RP_INFO("snapshot: %d maps, %d convergence points -> '%s'",
          static_cast<int>(maps_.size()), static_cast<int>(points_.size()),
          opt_.dir.c_str());
  return ok;
}

Grid2D<double> inflation_map(const PlaceProblem& p, const GridMap& gm) {
  Grid2D<double> wsum(gm.nx(), gm.ny(), 0.0);  // Σ area·inflate
  Grid2D<double> asum(gm.nx(), gm.ny(), 0.0);  // Σ area
  for (int v = 0; v < p.num_nodes(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const PlaceNode& n = p.nodes[vi];
    if (n.fixed || n.area() <= 0) continue;
    const Rect r{p.x[vi] - 0.5 * n.w, p.y[vi] - 0.5 * n.h, p.x[vi] + 0.5 * n.w,
                 p.y[vi] + 0.5 * n.h};
    gm.rasterize(r, [&](int ix, int iy, double a) {
      wsum(ix, iy) += a * p.inflate[vi];
      asum(ix, iy) += a;
    });
  }
  Grid2D<double> out(gm.nx(), gm.ny(), 1.0);
  for (std::size_t i = 0; i < out.data().size(); ++i)
    if (asum.data()[i] > 0) out.data()[i] = wsum.data()[i] / asum.data()[i];
  return out;
}

Grid2D<double> displacement_map(const PlaceProblem& p, const std::vector<double>& x0,
                                const std::vector<double>& y0, const GridMap& gm) {
  Grid2D<double> dsum(gm.nx(), gm.ny(), 0.0);
  Grid2D<double> cnt(gm.nx(), gm.ny(), 0.0);
  for (int v = 0; v < p.num_nodes(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (p.nodes[vi].fixed || vi >= x0.size()) continue;
    const double dx = p.x[vi] - x0[vi], dy = p.y[vi] - y0[vi];
    const int ix = gm.ix_of(p.x[vi]), iy = gm.iy_of(p.y[vi]);
    dsum(ix, iy) += std::hypot(dx, dy);
    cnt(ix, iy) += 1.0;
  }
  Grid2D<double> out(gm.nx(), gm.ny(), 0.0);
  for (std::size_t i = 0; i < out.data().size(); ++i)
    if (cnt.data()[i] > 0) out.data()[i] = dsum.data()[i] / cnt.data()[i];
  return out;
}

Grid2D<double> displacement_map(const Design& d, const std::vector<Point>& before,
                                const GridMap& gm) {
  Grid2D<double> dsum(gm.nx(), gm.ny(), 0.0);
  Grid2D<double> cnt(gm.nx(), gm.ny(), 0.0);
  for (CellId c = 0; c < d.num_cells(); ++c) {
    if (d.cell(c).fixed || static_cast<std::size_t>(c) >= before.size()) continue;
    const Point now = d.cell_center(c);
    const Point was = before[static_cast<std::size_t>(c)];
    const int ix = gm.ix_of(now.x), iy = gm.iy_of(now.y);
    dsum(ix, iy) += std::hypot(now.x - was.x, now.y - was.y);
    cnt(ix, iy) += 1.0;
  }
  Grid2D<double> out(gm.nx(), gm.ny(), 0.0);
  for (std::size_t i = 0; i < out.data().size(); ++i)
    if (cnt.data()[i] > 0) out.data()[i] = dsum.data()[i] / cnt.data()[i];
  return out;
}

}  // namespace rp
