// Legalization: subrow construction, Tetris, Abacus (incl. the
// cluster-collapse optimality property), the macro legalizer, and
// fence-region handling. Parameterized across both std-cell legalizers.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "db/validate.hpp"
#include "gen/generator.hpp"
#include "legal/legalizer.hpp"
#include "legal/macro_legalizer.hpp"
#include "legal/subrow.hpp"
#include "util/logger.hpp"

namespace rp {
namespace {

class LegalTest : public ::testing::Test {
 protected:
  void SetUp() override { Logger::set_level(LogLevel::Error); }
};

// ---------------- subrows ----------------

TEST_F(LegalTest, SubrowsCoverRowsWithoutObstacles) {
  Design d;
  d.set_die({0, 0, 100, 20});
  d.add_row(Row{0, 10, 0, 100, 1});
  d.add_row(Row{10, 10, 0, 100, 1});
  d.add_cell("a", 5, 10);
  d.finalize();
  const auto srs = build_subrows(d);
  ASSERT_EQ(srs.size(), 2u);
  EXPECT_DOUBLE_EQ(srs[0].lx, 0);
  EXPECT_DOUBLE_EQ(srs[0].hx, 100);
  EXPECT_DOUBLE_EQ(srs[1].y, 10);
}

TEST_F(LegalTest, SubrowsSplitAroundObstacle) {
  Design d;
  d.set_die({0, 0, 100, 20});
  d.add_row(Row{0, 10, 0, 100, 1});
  d.add_row(Row{10, 10, 0, 100, 1});
  const CellId m = d.add_cell("blk", 20, 10, CellKind::Macro);
  d.cell(m).fixed = true;
  d.cell(m).pos = {40, 0};  // blocks row 0, x 40..60
  d.add_cell("a", 5, 10);
  d.finalize();
  const auto srs = build_subrows(d);
  ASSERT_EQ(srs.size(), 3u);
  EXPECT_DOUBLE_EQ(srs[0].lx, 0);
  EXPECT_DOUBLE_EQ(srs[0].hx, 40);
  EXPECT_DOUBLE_EQ(srs[1].lx, 60);
  EXPECT_DOUBLE_EQ(srs[1].hx, 100);
  EXPECT_DOUBLE_EQ(srs[2].width(), 100);
}

TEST_F(LegalTest, SubrowsDropSlivers) {
  Design d;
  d.set_die({0, 0, 100, 10});
  d.add_row(Row{0, 10, 0, 100, 1});
  const CellId m = d.add_cell("blk", 99.5, 10, CellKind::Macro);
  d.cell(m).fixed = true;
  d.cell(m).pos = {0, 0};
  d.add_cell("a", 0.2, 10);
  d.finalize();
  EXPECT_TRUE(build_subrows(d, 1.0).empty());
}

TEST_F(LegalTest, ClipSubrowsToFence) {
  Design d;
  d.set_die({0, 0, 100, 30});
  for (int r = 0; r < 3; ++r) d.add_row(Row{r * 10.0, 10, 0, 100, 1});
  d.add_cell("a", 5, 10);
  d.finalize();
  const auto all = build_subrows(d);
  const auto clipped = clip_subrows(all, Rect{20, 0, 60, 20});
  ASSERT_EQ(clipped.size(), 2u);  // rows 0 and 1 fit fully inside vertically
  EXPECT_DOUBLE_EQ(clipped[0].lx, 20);
  EXPECT_DOUBLE_EQ(clipped[0].hx, 60);
}

TEST_F(LegalTest, SubrowIndexNearestBand) {
  std::vector<Subrow> srs;
  for (int i = 0; i < 5; ++i) {
    Subrow s;
    s.y = i * 10.0;
    s.height = 10;
    s.lx = 0;
    s.hx = 100;
    srs.push_back(s);
  }
  const SubrowIndex idx(srs);
  EXPECT_EQ(idx.num_bands(), 5);
  EXPECT_EQ(idx.nearest_band(0.0), 0);
  EXPECT_EQ(idx.nearest_band(14.0), 1);
  EXPECT_EQ(idx.nearest_band(16.0), 2);
  EXPECT_EQ(idx.nearest_band(1000.0), 4);
  EXPECT_EQ(idx.nearest_band(-50.0), 0);
}

TEST_F(LegalTest, SnapToSite) {
  Subrow sr;
  sr.lx = 3.0;
  sr.site_w = 2.0;
  EXPECT_DOUBLE_EQ(snap_to_site(sr, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(snap_to_site(sr, 5.9), 5.0);
  EXPECT_DOUBLE_EQ(snap_to_site(sr, 6.1), 7.0);
}

// ---------------- std-cell legalizers (parameterized) ----------------

std::unique_ptr<Legalizer> make_legalizer(const std::string& name) {
  LegalizeOptions opt;
  if (name == "tetris") return std::make_unique<TetrisLegalizer>(opt);
  return std::make_unique<AbacusLegalizer>(opt);
}

class LegalizerP : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { Logger::set_level(LogLevel::Error); }
};

TEST_P(LegalizerP, ProducesLegalPlacementOnBenchmark) {
  Design d = generate_benchmark(tiny_spec(21));
  // Park movable macros legally first (flow order), then legalize std cells.
  legalize_macros(d);
  freeze_macros(d);
  const auto lg = make_legalizer(GetParam());
  const LegalizeStats st = lg->run(d);
  EXPECT_EQ(st.failed, 0);
  const LegalityReport rep = check_legality(d);
  EXPECT_TRUE(rep.ok()) << GetParam() << ": "
                        << (rep.messages.empty() ? "" : rep.messages[0].c_str());
}

TEST_P(LegalizerP, SmallDisplacementWhenAlreadySpread) {
  // Cells pre-placed on a near-legal grid: displacement must stay tiny.
  Design d;
  d.set_die({0, 0, 200, 40});
  for (int r = 0; r < 4; ++r) d.add_row(Row{r * 10.0, 10, 0, 200, 1});
  int id = 0;
  for (int r = 0; r < 4; ++r)
    for (int i = 0; i < 10; ++i) {
      const CellId c = d.add_cell('c' + std::to_string(id++), 8, 10);
      d.cell(c).pos = {i * 16.0 + 0.3, r * 10.0 + 0.4};  // slightly off-grid
    }
  d.add_net("n");
  d.finalize();
  const auto lg = make_legalizer(GetParam());
  const LegalizeStats st = lg->run(d);
  EXPECT_TRUE(check_legality(d).ok());
  EXPECT_LT(st.avg_disp(), 3.0) << GetParam();
  EXPECT_LT(st.max_disp, 12.0) << GetParam();
}

TEST_P(LegalizerP, HandlesOverfullRegionByOverflowing) {
  // All cells dumped at one corner: legalizer must spread them legally.
  Design d;
  d.set_die({0, 0, 100, 50});
  for (int r = 0; r < 5; ++r) d.add_row(Row{r * 10.0, 10, 0, 100, 1});
  for (int i = 0; i < 40; ++i) {
    const CellId c = d.add_cell('c' + std::to_string(i), 10, 10);
    d.cell(c).pos = {1.0 + 0.01 * i, 1.0};
  }
  d.add_net("n");
  d.finalize();
  const auto lg = make_legalizer(GetParam());
  const LegalizeStats st = lg->run(d);
  EXPECT_EQ(st.failed, 0);
  EXPECT_TRUE(check_legality(d).ok()) << GetParam();
}

TEST_P(LegalizerP, RespectsFenceRegions) {
  Design d;
  d.set_die({0, 0, 100, 40});
  for (int r = 0; r < 4; ++r) d.add_row(Row{r * 10.0, 10, 0, 100, 1});
  Region reg;
  reg.name = "f";
  reg.rects.push_back(Rect{0, 0, 50, 20});
  const int rid = d.add_region(std::move(reg));
  for (int i = 0; i < 8; ++i) {
    const CellId c = d.add_cell('f' + std::to_string(i), 8, 10);
    d.set_region(c, rid);
    d.cell(c).pos = {80.0, 30.0};  // start OUTSIDE the fence
  }
  for (int i = 0; i < 8; ++i) {
    const CellId c = d.add_cell('u' + std::to_string(i), 8, 10);
    d.cell(c).pos = {40.0 + i, 15.0};
  }
  d.add_net("n");
  d.finalize();
  const auto lg = make_legalizer(GetParam());
  lg->run(d);
  const LegalityReport rep = check_legality(d);
  EXPECT_EQ(rep.region_violations, 0) << GetParam();
  EXPECT_EQ(rep.overlaps, 0) << GetParam();
}

TEST_P(LegalizerP, AvoidsFixedObstacles) {
  Design d;
  d.set_die({0, 0, 100, 30});
  for (int r = 0; r < 3; ++r) d.add_row(Row{r * 10.0, 10, 0, 100, 1});
  const CellId m = d.add_cell("blk", 40, 30, CellKind::Macro);
  d.cell(m).fixed = true;
  d.cell(m).pos = {30, 0};  // center block
  for (int i = 0; i < 10; ++i) {
    const CellId c = d.add_cell('c' + std::to_string(i), 8, 10);
    d.cell(c).pos = {45.0, 10.0};  // inside the obstacle
  }
  d.add_net("n");
  d.finalize();
  const auto lg = make_legalizer(GetParam());
  const LegalizeStats st = lg->run(d);
  EXPECT_EQ(st.failed, 0);
  EXPECT_TRUE(check_legality(d).ok()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Legalizers, LegalizerP, ::testing::Values("tetris", "abacus"));

TEST_F(LegalTest, AbacusBeatsTetrisOnDisplacement) {
  // The quality claim that justifies Abacus as the default.
  double disp[2];
  int i = 0;
  for (const char* name : {"tetris", "abacus"}) {
    Design d = generate_benchmark(tiny_spec(22));
    legalize_macros(d);
    freeze_macros(d);
    const auto lg = make_legalizer(name);
    disp[i++] = lg->run(d).total_disp;
  }
  EXPECT_LE(disp[1], disp[0] * 1.1);  // abacus no worse (usually better)
}

// ---------------- macro legalizer ----------------

TEST_F(LegalTest, MacroLegalizerRemovesOverlap) {
  Design d;
  d.set_die({0, 0, 200, 200});
  for (int r = 0; r < 20; ++r) d.add_row(Row{r * 10.0, 10, 0, 200, 1});
  for (int i = 0; i < 4; ++i) {
    const CellId m = d.add_cell('m' + std::to_string(i), 50, 50, CellKind::Macro);
    d.cell(m).pos = {70, 70};  // all piled at the center
  }
  d.add_cell("a", 5, 10);
  d.add_net("n");
  d.finalize();
  const MacroLegalizeStats st = legalize_macros(d);
  EXPECT_EQ(st.failed, 0);
  EXPECT_EQ(st.macros, 4);
  for (int i = 0; i < 4; ++i)
    for (int j = i + 1; j < 4; ++j)
      EXPECT_FALSE(d.cell_rect(i).overlaps(d.cell_rect(j))) << i << "," << j;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(d.die().contains(d.cell_rect(i))) << i;
    // Row-aligned.
    EXPECT_NEAR(std::fmod(d.cell(i).pos.y, 10.0), 0.0, 1e-9);
  }
}

TEST_F(LegalTest, MacroLegalizerAvoidsFixedMacros) {
  Design d;
  d.set_die({0, 0, 200, 200});
  for (int r = 0; r < 20; ++r) d.add_row(Row{r * 10.0, 10, 0, 200, 1});
  const CellId f = d.add_cell("fixed", 80, 80, CellKind::Macro);
  d.cell(f).fixed = true;
  d.cell(f).pos = {60, 60};
  const CellId m = d.add_cell("mov", 40, 40, CellKind::Macro);
  d.cell(m).pos = {80, 80};  // inside the fixed macro
  d.add_cell("a", 5, 10);
  d.add_net("n");
  d.finalize();
  const MacroLegalizeStats st = legalize_macros(d);
  EXPECT_EQ(st.failed, 0);
  EXPECT_FALSE(d.cell_rect(m).overlaps(d.cell_rect(f)));
}

TEST_F(LegalTest, MacroLegalizerHonorsHalo) {
  Design d;
  d.set_die({0, 0, 300, 300});
  for (int r = 0; r < 30; ++r) d.add_row(Row{r * 10.0, 10, 0, 300, 1});
  const CellId f = d.add_cell("fixed", 60, 60, CellKind::Macro);
  d.cell(f).fixed = true;
  d.cell(f).pos = {100, 100};
  const CellId m = d.add_cell("mov", 40, 40, CellKind::Macro);
  d.cell(m).pos = {120, 120};
  d.add_cell("a", 5, 10);
  d.add_net("n");
  d.finalize();
  MacroLegalizeOptions opt;
  opt.halo = 10.0;
  legalize_macros(d, opt);
  // At least the halo distance to the fixed macro.
  const Rect rm = d.cell_rect(m).expand(10.0 - 1e-6);
  EXPECT_FALSE(rm.overlaps(d.cell_rect(f)));
}

TEST_F(LegalTest, FreezeMacrosUpdatesMovableList) {
  Design d = generate_benchmark(tiny_spec(23));
  const int before = d.num_movable();
  const int mm = d.num_movable_macros();
  ASSERT_GT(mm, 0);
  legalize_macros(d);
  freeze_macros(d);
  EXPECT_EQ(d.num_movable(), before - mm);
  EXPECT_EQ(d.num_movable_macros(), 0);
}

TEST_F(LegalTest, FullLegalizationPipelineOnBenchmark) {
  Design d = generate_benchmark(small_spec(24));
  legalize_macros(d);
  freeze_macros(d);
  AbacusLegalizer lg;
  const LegalizeStats st = lg.run(d);
  EXPECT_EQ(st.failed, 0);
  const LegalityReport rep = check_legality(d);
  EXPECT_TRUE(rep.ok()) << (rep.messages.empty() ? "" : rep.messages[0].c_str());
}

}  // namespace
}  // namespace rp
