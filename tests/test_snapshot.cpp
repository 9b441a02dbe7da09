// Spatial observability: heatmap serialization, the snapshot recorder, the
// report/snapshot diff engine, and byte-level determinism of a full flow run
// with snapshots enabled.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "core/flow.hpp"
#include "core/report_diff.hpp"
#include "core/snapshot.hpp"
#include "gen/generator.hpp"
#include "util/heatmap.hpp"
#include "util/json.hpp"
#include "util/logger.hpp"

namespace rp {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Grid2D<double> ramp_grid(int nx, int ny) {
  Grid2D<double> g(nx, ny);
  for (int iy = 0; iy < ny; ++iy)
    for (int ix = 0; ix < nx; ++ix) g(ix, iy) = ix + 10.0 * iy;
  return g;
}

// ---- util/heatmap ----

TEST(Heatmap, BinaryRoundTripIsExact) {
  Grid2D<double> g = ramp_grid(7, 5);
  g(3, 2) = -1.25e-9;
  g(0, 4) = 3.0e17;
  const std::string bytes = grid_to_bytes(g);
  EXPECT_EQ(bytes.size(), 12u + sizeof(double) * g.size());
  EXPECT_EQ(bytes.substr(0, 4), "RPG1");

  Grid2D<double> back;
  ASSERT_TRUE(grid_from_bytes(bytes, back));
  ASSERT_EQ(back.nx(), g.nx());
  ASSERT_EQ(back.ny(), g.ny());
  for (int iy = 0; iy < g.ny(); ++iy)
    for (int ix = 0; ix < g.nx(); ++ix) EXPECT_EQ(back(ix, iy), g(ix, iy));

  // Same grid in, same bytes out — the determinism contract.
  EXPECT_EQ(grid_to_bytes(g), bytes);
}

TEST(Heatmap, RejectsCorruptBytes) {
  Grid2D<double> out;
  EXPECT_FALSE(grid_from_bytes("", out));
  EXPECT_FALSE(grid_from_bytes("JUNK", out));
  std::string bytes = grid_to_bytes(ramp_grid(3, 3));
  bytes[0] = 'X';  // bad magic
  EXPECT_FALSE(grid_from_bytes(bytes, out));
  bytes = grid_to_bytes(ramp_grid(3, 3));
  bytes.pop_back();  // truncated payload
  EXPECT_FALSE(grid_from_bytes(bytes, out));
}

TEST(Heatmap, FileRoundTrip) {
  const fs::path dir = fs::temp_directory_path() / "rp_heatmap_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const Grid2D<double> g = ramp_grid(4, 6);
  ASSERT_TRUE(write_grid_bin((dir / "g.grid").string(), g));
  Grid2D<double> back;
  ASSERT_TRUE(read_grid_bin((dir / "g.grid").string(), back));
  EXPECT_EQ(back.data(), g.data());
  EXPECT_FALSE(read_grid_bin((dir / "absent.grid").string(), back));
  fs::remove_all(dir);
}

TEST(Heatmap, StatsSkipNonFinite) {
  Grid2D<double> g(2, 2);
  g(0, 0) = 1.0;
  g(1, 0) = 3.0;
  g(0, 1) = std::numeric_limits<double>::quiet_NaN();
  g(1, 1) = std::numeric_limits<double>::infinity();
  const GridStats s = grid_stats(g);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_EQ(s.non_finite, 2);
}

TEST(Heatmap, ColorRampEndpoints) {
  unsigned char lo[3], hi[3], clamped[3];
  heat_color(0.0, lo);
  heat_color(1.0, hi);
  heat_color(42.0, clamped);  // out-of-range input clamps
  EXPECT_GT(lo[2], lo[0]);    // cold end is blue-dominant
  EXPECT_GT(hi[0], hi[2]);    // hot end is red-dominant
  EXPECT_EQ(hi[0], clamped[0]);
  EXPECT_EQ(hi[1], clamped[1]);
  EXPECT_EQ(hi[2], clamped[2]);
}

TEST(Heatmap, PpmAndSvgAreWellFormed) {
  const Grid2D<double> g = ramp_grid(8, 4);
  const std::string ppm = grid_to_ppm(g, 0.0, 0.0, /*px_scale=*/2);
  EXPECT_EQ(ppm.substr(0, 2), "P6");
  EXPECT_NE(ppm.find("16 8"), std::string::npos);  // 2x upscaled dims
  // Header + one RGB byte triple per pixel.
  const std::string header = ppm.substr(0, ppm.find("255\n") + 4);
  EXPECT_EQ(ppm.size() - header.size(), 3u * 16 * 8);

  const std::string svg = grid_to_svg(g);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
}

// ---- SnapshotRecorder ----

TEST(Snapshot, RecorderWritesManifestAndArtifacts) {
  const fs::path dir = fs::temp_directory_path() / "rp_snap_rec_test";
  fs::remove_all(dir);

  SnapshotOptions opt;
  opt.dir = dir.string();
  opt.render_svg = true;
  {
    SnapshotRecorder rec(opt);
    ASSERT_TRUE(rec.ok());
    rec.record_grid("round1", "overflow", ramp_grid(5, 5));
    rec.record_grid("round1", "weird name/with:junk", ramp_grid(2, 2));
    GpTracePoint p;
    p.outer = 1;
    p.hpwl = 123.0;
    rec.record_point(p);
    SnapshotRoundRecord r;
    r.round = 1;
    r.cells_inflated = 7;
    rec.record_round(r);
    EXPECT_EQ(rec.num_maps(), 2);
    EXPECT_EQ(rec.num_points(), 1);
    EXPECT_TRUE(rec.finalize());
  }

  const JsonValue man = json_parse(slurp(dir / "manifest.json"));
  EXPECT_EQ(man.at("schema_version").num, 1.0);
  ASSERT_EQ(man.at("maps").arr.size(), 2u);
  const JsonValue& m0 = man.at("maps").arr[0];
  EXPECT_EQ(m0.at("stage").str, "round1");
  EXPECT_EQ(m0.at("name").str, "overflow");
  EXPECT_EQ(m0.at("nx").num, 5.0);
  EXPECT_EQ(m0.at("ny").num, 5.0);
  // Paths in the manifest are dir-relative, exist, and parse as grids.
  for (const JsonValue& m : man.at("maps").arr) {
    const fs::path grid = dir / m.at("grid").str;
    ASSERT_TRUE(fs::exists(grid)) << grid;
    Grid2D<double> g;
    EXPECT_TRUE(read_grid_bin(grid.string(), g));
    EXPECT_TRUE(fs::exists(dir / m.at("ppm").str));
  }
  // Hostile map names are sanitized into flat filenames under maps/.
  EXPECT_EQ(man.at("maps").arr[1].at("grid").str.find("maps/"), 0u);
  EXPECT_EQ(man.at("maps").arr[1].at("grid").str.find('/', 5), std::string::npos);

  const JsonValue conv = json_parse(slurp(dir / "convergence.json"));
  ASSERT_EQ(conv.at("points").arr.size(), 1u);
  EXPECT_DOUBLE_EQ(conv.at("points").arr[0].at("hpwl").num, 123.0);
  ASSERT_EQ(conv.at("rounds").arr.size(), 1u);
  EXPECT_EQ(conv.at("rounds").arr[0].at("cells_inflated").num, 7.0);
  fs::remove_all(dir);
}

TEST(Snapshot, ConvergenceSplitsReheatRoundsFromLevels) {
  // GP traces a reheat round r as level -r; convergence.json reports it as
  // level 0, round r, and a main-descent level k as level k, round 0.
  const fs::path dir = fs::temp_directory_path() / "rp_snap_conv_test";
  fs::remove_all(dir);
  SnapshotOptions opt;
  opt.dir = dir.string();
  {
    SnapshotRecorder rec(opt);
    ASSERT_TRUE(rec.ok());
    GpTracePoint p;
    p.level = 2;
    p.outer = 4;
    p.gamma = 8.5;
    rec.record_point(p);
    p.level = -3;
    p.outer = 1;
    rec.record_point(p);
    EXPECT_TRUE(rec.finalize());
  }
  const JsonValue conv = json_parse(slurp(dir / "convergence.json"));
  ASSERT_EQ(conv.at("points").arr.size(), 2u);
  const JsonValue& main = conv.at("points").arr[0];
  EXPECT_EQ(main.at("level").num, 2.0);
  EXPECT_EQ(main.at("round").num, 0.0);
  EXPECT_EQ(main.at("outer").num, 4.0);
  EXPECT_DOUBLE_EQ(main.at("gamma").num, 8.5);
  const JsonValue& reheat = conv.at("points").arr[1];
  EXPECT_EQ(reheat.at("level").num, 0.0);
  EXPECT_EQ(reheat.at("round").num, 3.0);
  EXPECT_EQ(reheat.at("outer").num, 1.0);
  fs::remove_all(dir);
}

TEST(Snapshot, RecorderInertOnBadDirectory) {
  const fs::path dir = fs::temp_directory_path() / "rp_snap_bad_test";
  fs::remove_all(dir);
  {
    std::ofstream(dir) << "a file, not a directory";
  }
  SnapshotOptions opt;
  opt.dir = dir.string();
  SnapshotRecorder rec(opt);
  EXPECT_FALSE(rec.ok());
  rec.record_grid("s", "n", ramp_grid(2, 2));  // must not crash
  EXPECT_EQ(rec.num_maps(), 0);
  fs::remove_all(dir);
}

// ---- report_diff engine ----

TEST(ReportDiff, IdenticalDocumentsAreClean) {
  const JsonValue a = json_parse(R"({"eval":{"hpwl":10.5,"rc":1.2},"ok":true})");
  const ReportDiffResult r = diff_json_values(a, a);
  EXPECT_TRUE(r.clean());
  EXPECT_GT(r.values_compared, 0);
  EXPECT_NE(r.format().find("identical"), std::string::npos);
}

TEST(ReportDiff, FindsChangedValueWithDottedPath) {
  const JsonValue a = json_parse(R"({"eval":{"hpwl":100.0},"trace":[1,2,3]})");
  const JsonValue b = json_parse(R"({"eval":{"hpwl":110.0},"trace":[1,2,4]})");
  const ReportDiffResult r = diff_json_values(a, b);
  ASSERT_EQ(r.diffs.size(), 2u);
  EXPECT_EQ(r.diffs[0].path, "eval.hpwl");
  EXPECT_DOUBLE_EQ(r.diffs[0].delta, 10.0);
  EXPECT_EQ(r.diffs[1].path, "trace[2]");
}

TEST(ReportDiff, ToleranceSilencesSmallDeltas) {
  const JsonValue a = json_parse(R"({"hpwl":100.0})");
  const JsonValue b = json_parse(R"({"hpwl":104.0})");
  EXPECT_FALSE(diff_json_values(a, b).clean());  // exact mode
  ReportDiffOptions tol;
  tol.rel_tol = 0.05;
  EXPECT_TRUE(diff_json_values(a, b, tol).clean());
  tol.rel_tol = 0.0;
  tol.abs_tol = 5.0;
  EXPECT_TRUE(diff_json_values(a, b, tol).clean());
}

TEST(ReportDiff, MissingKeysAndTypeChangesReported) {
  const JsonValue a = json_parse(R"({"x":1,"only_a":2})");
  const JsonValue b = json_parse(R"({"x":"one","only_b":3})");
  const ReportDiffResult r = diff_json_values(a, b);
  std::map<std::string, std::pair<std::string, std::string>> got;
  for (const DiffEntry& d : r.diffs) got[d.path] = {d.a, d.b};
  EXPECT_EQ(got.at("only_a").second, "<missing>");
  EXPECT_EQ(got.at("only_b").first, "<missing>");
  EXPECT_TRUE(got.count("x"));  // number vs string
}

TEST(ReportDiff, DefaultIgnoresSkipVolatileKeys) {
  const JsonValue a = json_parse(
      R"({"hpwl":1.0,"stage_times":{"flow":9.0},"build":{"compiler":"x"}})");
  const JsonValue b = json_parse(
      R"({"hpwl":1.0,"stage_times":{"flow":2.0},"build":{"compiler":"y"}})");
  EXPECT_TRUE(diff_json_values(a, b).clean());
  ReportDiffOptions all;
  all.default_ignores = false;
  EXPECT_FALSE(diff_json_values(a, b, all).clean());
}

TEST(ReportDiff, MissingFileIsAnError) {
  const ReportDiffResult r = diff_report_files("/nonexistent/a.json", "/nonexistent/b.json");
  EXPECT_TRUE(r.error);
  EXPECT_FALSE(r.clean());
}

TEST(ReportDiff, SnapshotDirsSelfCleanAndGridDeltaDetected) {
  const fs::path dir_a = fs::temp_directory_path() / "rp_snapdiff_a";
  const fs::path dir_b = fs::temp_directory_path() / "rp_snapdiff_b";
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);

  for (const fs::path& dir : {dir_a, dir_b}) {
    SnapshotOptions opt;
    opt.dir = dir.string();
    SnapshotRecorder rec(opt);
    ASSERT_TRUE(rec.ok());
    rec.record_grid("round1", "overflow", ramp_grid(6, 6));
    GpTracePoint p;
    p.hpwl = 55.0;
    rec.record_point(p);
    ASSERT_TRUE(rec.finalize());
  }
  EXPECT_TRUE(diff_snapshot_dirs(dir_a.string(), dir_b.string()).clean());

  // Perturb one cell in B's grid: the diff must localize it to that map.
  {
    Grid2D<double> g = ramp_grid(6, 6);
    g(2, 3) += 0.5;
    const JsonValue man = json_parse(slurp(dir_b / "manifest.json"));
    ASSERT_TRUE(
        write_grid_bin((dir_b / man.at("maps").arr[0].at("grid").str).string(), g));
  }
  const ReportDiffResult r = diff_snapshot_dirs(dir_a.string(), dir_b.string());
  EXPECT_FALSE(r.clean());
  ASSERT_FALSE(r.diffs.empty());
  EXPECT_NE(r.diffs[0].path.find("round1/overflow"), std::string::npos);
  // ... and an adequate tolerance accepts the perturbation.
  ReportDiffOptions tol;
  tol.abs_tol = 1.0;
  EXPECT_TRUE(diff_snapshot_dirs(dir_a.string(), dir_b.string(), tol).clean());
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

// ---- map builders + flow integration ----

TEST(Snapshot, FlowEmitsDeterministicSnapshotTrees) {
  Logger::set_level(LogLevel::Error);
  const fs::path dir_a = fs::temp_directory_path() / "rp_snap_flow_a";
  const fs::path dir_b = fs::temp_directory_path() / "rp_snap_flow_b";

  const auto run_once = [](const fs::path& dir) {
    fs::remove_all(dir);
    Design d = generate_benchmark(tiny_spec(73));
    FlowOptions opt = routability_driven_options();
    opt.skip_dp = true;  // keep the test fast; DP doesn't touch snapshots
    opt.snapshot.dir = dir.string();
    PlacementFlow flow(opt);
    return flow.run(d);
  };
  const FlowResult ra = run_once(dir_a);
  const FlowResult rb = run_once(dir_b);
  EXPECT_EQ(ra.snapshot_dir, dir_a.string());

  // The capture actually happened: manifest indexes round + final maps.
  const JsonValue man = json_parse(slurp(dir_a / "manifest.json"));
  ASSERT_FALSE(man.at("maps").arr.empty());
  std::map<std::string, int> by_name;
  for (const JsonValue& m : man.at("maps").arr)
    ++by_name[m.at("stage").str + "/" + m.at("name").str];
  EXPECT_TRUE(by_name.count("round1/overflow"));
  EXPECT_TRUE(by_name.count("round1/density"));
  EXPECT_TRUE(by_name.count("round1/inflation"));
  EXPECT_TRUE(by_name.count("final/congestion"));
  EXPECT_TRUE(by_name.count("final/displacement"));

  const JsonValue conv = json_parse(slurp(dir_a / "convergence.json"));
  EXPECT_EQ(conv.at("points").arr.size(), ra.gp_trace.size());

  // Byte-level determinism: same seed, same tree. Compare every file.
  std::map<std::string, std::string> files_a, files_b;
  for (const auto& e : fs::recursive_directory_iterator(dir_a))
    if (e.is_regular_file())
      files_a[fs::relative(e.path(), dir_a).string()] = slurp(e.path());
  for (const auto& e : fs::recursive_directory_iterator(dir_b))
    if (e.is_regular_file())
      files_b[fs::relative(e.path(), dir_b).string()] = slurp(e.path());
  ASSERT_FALSE(files_a.empty());
  ASSERT_EQ(files_a.size(), files_b.size());
  for (const auto& [rel, bytes] : files_a) {
    ASSERT_TRUE(files_b.count(rel)) << rel;
    EXPECT_EQ(bytes, files_b.at(rel)) << rel << " differs between identical runs";
  }
  // The structural differ agrees.
  EXPECT_TRUE(diff_snapshot_dirs(dir_a.string(), dir_b.string()).clean());
  EXPECT_DOUBLE_EQ(ra.eval.hpwl, rb.eval.hpwl);
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

TEST(Snapshot, DisabledSnapshotsLeaveNoTrace) {
  Logger::set_level(LogLevel::Error);
  Design d = generate_benchmark(tiny_spec(74));
  FlowOptions opt = routability_driven_options();
  opt.skip_dp = true;
  PlacementFlow flow(opt);
  const FlowResult r = flow.run(d);
  EXPECT_TRUE(r.snapshot_dir.empty());
}

TEST(Snapshot, DisplacementMapBinsMovement) {
  Design d = generate_benchmark(tiny_spec(75));
  std::vector<Point> before(d.num_cells());
  for (CellId c = 0; c < d.num_cells(); ++c) before[c] = d.cell_center(c);
  // Shift every movable cell by (3, 4): mean displacement must be 5 in every
  // bin that holds movable cells, and 0 where only fixed cells live.
  for (CellId c = 0; c < d.num_cells(); ++c) {
    if (d.cell(c).fixed) continue;
    d.set_center(c, {before[c].x + 3.0, before[c].y + 4.0});
  }
  const GridMap gm(d.die(), 8, 8);
  const Grid2D<double> disp = displacement_map(d, before, gm);
  bool any = false;
  for (const double v : disp.data()) {
    if (v == 0.0) continue;
    any = true;
    EXPECT_NEAR(v, 5.0, 1e-9);
  }
  EXPECT_TRUE(any);
}

}  // namespace
}  // namespace rp
