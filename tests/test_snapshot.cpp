// Spatial observability: heatmap serialization, the snapshot recorder, and
// byte-level determinism of a full flow run with snapshots enabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/flow.hpp"
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

/// An RPG1 header with the given dims and no payload.
std::string grid_header(std::uint32_t nx, std::uint32_t ny) {
  std::string h = "RPG1";
  h.append(reinterpret_cast<const char*>(&nx), sizeof nx);
  h.append(reinterpret_cast<const char*>(&ny), sizeof ny);
  return h;
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
  // Header-only file with dims above INT_MAX: nx*ny*8 wraps to 0 in size_t.
  EXPECT_FALSE(grid_from_bytes(grid_header(0x80000000u, 0x80000000u), out));
  // Dims that fit an int, but nx*ny*8 = 2^64 + 32 wraps to a 32-byte payload.
  EXPECT_FALSE(grid_from_bytes(grid_header(1263665316u, 1824726041u) +
                                   std::string(32, '\0'),
                               out));
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

// ---- SnapshotRecorder ----

TEST(Snapshot, RecorderWritesManifestAndArtifacts) {
  const fs::path dir = fs::temp_directory_path() / "rp_snap_rec_test";
  fs::remove_all(dir);

  SnapshotOptions opt;
  opt.dir = dir.string();
  {
    SnapshotRecorder rec(opt);
    ASSERT_TRUE(rec.ok());
    rec.record_grid("round1", "overflow", ramp_grid(5, 5));
    rec.record_grid("round1", "weird name/with:junk", ramp_grid(2, 2));
    EXPECT_EQ(rec.num_maps(), 2);
    EXPECT_TRUE(rec.finalize());
  }

  const JsonValue man = json_parse(slurp(dir / "manifest.json"));
  EXPECT_EQ(man.at("schema_version").num, 2.0);
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
  }
  // A map is its .grid file and nothing else: no rendering is written.
  for (const auto& f : fs::directory_iterator(dir / "maps"))
    EXPECT_EQ(f.path().extension(), ".grid") << f.path();
  // Hostile map names are sanitized into flat filenames under maps/.
  EXPECT_EQ(man.at("maps").arr[1].at("grid").str.find("maps/"), 0u);
  EXPECT_EQ(man.at("maps").arr[1].at("grid").str.find('/', 5), std::string::npos);
  // The directory holds the manifest and the maps, nothing else.
  std::vector<std::string> top;
  for (const auto& f : fs::directory_iterator(dir)) top.push_back(f.path().filename().string());
  std::sort(top.begin(), top.end());
  EXPECT_EQ(top, (std::vector<std::string>{"manifest.json", "maps"}));
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
