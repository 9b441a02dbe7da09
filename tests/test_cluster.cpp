// Multilevel clustering: conservation invariants, fixed/region/macro
// exclusions, hierarchy-affinity behaviour, and projection.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "cluster/multilevel.hpp"
#include "gen/generator.hpp"
#include "util/logger.hpp"

namespace rp {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override { Logger::set_level(LogLevel::Error); }

  static ClusterOptions small_opts() {
    ClusterOptions o;
    o.target_nodes = 100;
    o.max_levels = 6;
    return o;
  }
};

double movable_area(const PlaceProblem& p) {
  double a = 0;
  for (const auto& n : p.nodes)
    if (!n.fixed) a += n.area();
  return a;
}

int movable_count(const PlaceProblem& p) {
  int c = 0;
  for (const auto& n : p.nodes)
    if (!n.fixed) ++c;
  return c;
}

TEST_F(ClusterTest, CoarsensTowardTarget) {
  const Design d = generate_benchmark(small_spec(41));
  Multilevel ml(d, small_opts());
  EXPECT_GE(ml.num_levels(), 3);
  EXPECT_LT(movable_count(ml.level(ml.top()).prob),
            movable_count(ml.level(0).prob) / 2);
}

TEST_F(ClusterTest, AreaConservedAcrossLevels) {
  const Design d = generate_benchmark(small_spec(41));
  Multilevel ml(d, small_opts());
  const double base = movable_area(ml.level(0).prob);
  for (int l = 1; l < ml.num_levels(); ++l) {
    EXPECT_NEAR(movable_area(ml.level(l).prob), base, 1e-6 * base) << "level " << l;
  }
}

TEST_F(ClusterTest, FixedNodesSurviveUnmerged) {
  const Design d = generate_benchmark(small_spec(41));
  Multilevel ml(d, small_opts());
  int fixed0 = 0;
  for (const auto& n : ml.level(0).prob.nodes)
    if (n.fixed) ++fixed0;
  for (int l = 1; l < ml.num_levels(); ++l) {
    int fl = 0;
    for (const auto& n : ml.level(l).prob.nodes)
      if (n.fixed) ++fl;
    EXPECT_EQ(fl, fixed0) << "level " << l;
  }
}

TEST_F(ClusterTest, MacrosNeverClustered) {
  const Design d = generate_benchmark(small_spec(41));
  Multilevel ml(d, small_opts());
  int m0 = 0;
  for (const auto& n : ml.level(0).prob.nodes)
    if (n.macro) ++m0;
  for (int l = 1; l < ml.num_levels(); ++l) {
    int m = 0;
    for (const auto& n : ml.level(l).prob.nodes)
      if (n.macro) ++m;
    EXPECT_EQ(m, m0) << "level " << l;
  }
}

TEST_F(ClusterTest, MappingIsConsistent) {
  const Design d = generate_benchmark(small_spec(41));
  Multilevel ml(d, small_opts());
  for (int l = 1; l < ml.num_levels(); ++l) {
    const auto& map = ml.level(l).fine_to_coarse;
    ASSERT_EQ(map.size(), ml.level(l - 1).prob.nodes.size()) << "level " << l;
    for (const int c : map) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, ml.level(l).prob.num_nodes());
    }
  }
}

TEST_F(ClusterTest, NoNetDegreeBelowTwo) {
  const Design d = generate_benchmark(small_spec(41));
  Multilevel ml(d, small_opts());
  for (int l = 0; l < ml.num_levels(); ++l) {
    for (const PlaceNet& n : ml.level(l).prob.nets) {
      EXPECT_GE(n.degree(), 2) << "level " << l;
    }
  }
}

TEST_F(ClusterTest, PinCountShrinks) {
  const Design d = generate_benchmark(small_spec(41));
  Multilevel ml(d, small_opts());
  for (int l = 1; l < ml.num_levels(); ++l) {
    EXPECT_LT(ml.level(l).prob.pins.size(), ml.level(l - 1).prob.pins.size())
        << "level " << l;
  }
}

TEST_F(ClusterTest, RegionsNeverMix) {
  BenchmarkSpec s = small_spec(42);
  s.num_fence_regions = 1;
  const Design d = generate_benchmark(s);
  ClusterOptions o = small_opts();
  Multilevel ml(d, o);
  // Every coarse node that any fenced fine node maps to must carry that
  // region id.
  for (int l = 1; l < ml.num_levels(); ++l) {
    const Level& fine = ml.level(l - 1);
    const Level& coarse = ml.level(l);
    for (int v = 0; v < fine.prob.num_nodes(); ++v) {
      const int cv = coarse.fine_to_coarse[static_cast<std::size_t>(v)];
      EXPECT_EQ(coarse.region[static_cast<std::size_t>(cv)],
                fine.region[static_cast<std::size_t>(v)])
          << "level " << l << " node " << v;
    }
  }
}

TEST_F(ClusterTest, HierarchyBonusIncreasesIntraModuleMerges) {
  // With the hierarchy bonus ON, a larger fraction of merges happen between
  // cells of the same module than with the bonus OFF.
  BenchmarkSpec s = small_spec(43);
  s.flat = false;
  const Design d = generate_benchmark(s);

  const auto intra_module_fraction = [&](bool use_hier) {
    ClusterOptions o = small_opts();
    o.use_hierarchy = use_hier;
    o.hier_bonus = 1.5;
    o.max_levels = 1;  // one pass: inspect direct merges
    Multilevel ml(d, o);
    if (ml.num_levels() < 2) return 0.0;
    const Level& fine = ml.level(0);
    const Level& coarse = ml.level(1);
    // Group fine nodes by coarse target; count pairs in the same hier node.
    std::unordered_map<int, std::vector<int>> members;
    for (int v = 0; v < fine.prob.num_nodes(); ++v)
      members[coarse.fine_to_coarse[static_cast<std::size_t>(v)]].push_back(v);
    int merges = 0, intra = 0;
    for (const auto& [cv, vs] : members) {
      if (vs.size() != 2) continue;
      ++merges;
      if (fine.hier[static_cast<std::size_t>(vs[0])] ==
          fine.hier[static_cast<std::size_t>(vs[1])])
        ++intra;
    }
    return merges > 0 ? static_cast<double>(intra) / merges : 0.0;
  };

  const double with_h = intra_module_fraction(true);
  const double without_h = intra_module_fraction(false);
  EXPECT_GT(with_h, without_h);
}

TEST_F(ClusterTest, DescendPlacesFineNearCoarse) {
  const Design d = generate_benchmark(small_spec(41));
  Multilevel ml(d, small_opts());
  ASSERT_GE(ml.num_levels(), 2);
  const int top = ml.top();
  // Move all coarse clusters to a known point, project, and check.
  Level& coarse = ml.level(top);
  for (int v = 0; v < coarse.prob.num_nodes(); ++v) {
    if (coarse.prob.nodes[static_cast<std::size_t>(v)].fixed) continue;
    coarse.prob.x[static_cast<std::size_t>(v)] = 123.0;
    coarse.prob.y[static_cast<std::size_t>(v)] = 77.0;
  }
  ml.descend();
  EXPECT_EQ(ml.num_levels(), top);
  const Level& fine = ml.level(top - 1);
  for (int v = 0; v < fine.prob.num_nodes(); ++v) {
    const auto& n = fine.prob.nodes[static_cast<std::size_t>(v)];
    if (n.fixed) continue;
    EXPECT_NEAR(fine.prob.x[static_cast<std::size_t>(v)], 123.0, n.w + 1.0) << v;
    EXPECT_NEAR(fine.prob.y[static_cast<std::size_t>(v)], 77.0, n.h + 1.0) << v;
  }
  // Each further call pops one level until only level 0 is left.
  for (int l = top - 1; l > 0; --l) {
    ml.descend();
    EXPECT_EQ(ml.num_levels(), l);
  }
  EXPECT_EQ(ml.level(0).prob.num_nodes(), d.num_cells());
}

struct BitHash {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t bits) {
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
};

TEST_F(ClusterTest, MultilevelBitsPinned) {
  // Every level's mapping, nodes, pins and nets, with the hierarchy bonus
  // on and off. Clustering breaks affinity ties in pair-map iteration
  // order, so a change to how the pair map or the adjacency is stored
  // must reproduce these bits exactly.
  const Design d = generate_benchmark(medium_spec());
  for (const auto& [use_hier, want_levels, want] :
       {std::tuple{true, 3, 0x7140b1845a7eedd4ULL}, std::tuple{false, 3, 0x096777abc9be9996ULL}}) {
    ClusterOptions o;
    o.use_hierarchy = use_hier;
    const Multilevel ml(d, o);
    BitHash h;
    for (int l = 0; l < ml.num_levels(); ++l) {
      const Level& lv = ml.level(l);
      for (const int c : lv.fine_to_coarse) h.add(c);
      for (const PlaceNode& n : lv.prob.nodes) {
        h.add(n.w);
        h.add(n.h);
        h.add(static_cast<int>(n.fixed));
      }
      for (const PlacePin& p : lv.prob.pins) {
        h.add(p.node);
        h.add(p.ox);
        h.add(p.oy);
      }
      for (const PlaceNet& n : lv.prob.nets) {
        h.add(n.pin_begin);
        h.add(n.pin_end);
        h.add(n.weight);
      }
    }
    EXPECT_EQ(ml.num_levels(), want_levels) << "use_hierarchy=" << use_hier;
    EXPECT_EQ(h.h, want) << "use_hierarchy=" << use_hier;
  }
}

TEST_F(ClusterTest, SingleLevelWhenTargetLarge) {
  const Design d = generate_benchmark(tiny_spec(44));
  ClusterOptions o;
  o.target_nodes = 1000000;
  Multilevel ml(d, o);
  EXPECT_EQ(ml.num_levels(), 1);
}

TEST_F(ClusterTest, CoarseHpwlTracksFine) {
  // Clustering must not destroy the wirelength structure: the coarse HPWL
  // (clusters at member centroids) stays below the fine HPWL.
  const Design d = generate_benchmark(small_spec(45));
  Multilevel ml(d, small_opts());
  const double fine = ml.level(0).prob.hpwl();
  for (int l = 1; l < ml.num_levels(); ++l) {
    EXPECT_LE(ml.level(l).prob.hpwl(), fine * 1.05) << "level " << l;
  }
}

}  // namespace
}  // namespace rp
