#pragma once
// Multilevel clustering for the analytical global placer.
//
// Levels of PlaceProblem are built by repeated first-choice matching: each
// movable node merges with its highest-affinity neighbor. The affinity of
// two nodes sharing nets is the NTUplace-style connectivity-over-area score,
// multiplied by a HIERARCHY BONUS when both instances live deep in the same
// RTL module:
//
//   aff(u,v) = [ Σ_{e ∋ u,v} w_e / (deg_e − 1) ] / (area_u + area_v)
//              × (1 + hier_bonus · common_ancestor_depth(u, v))
//
// This is the paper's hierarchical-design lever: module-local cells cluster
// first, so the coarse placement already reflects the design hierarchy, and
// module cells land together (shorter module-internal nets, fewer module
// wires crossing congested channels).
//
// Fixed nodes, fence regions, and oversized nodes are respected: fixed nodes
// are never merged, clusters never span two different regions, and nodes
// larger than `max_cluster_area_ratio` × average never grow further.

#include <vector>

#include "model/problem.hpp"
#include "util/rng.hpp"

namespace rp {

struct ClusterOptions {
  int target_nodes = 3000;           ///< Stop coarsening at this movable count.
  double min_reduction = 0.05;       ///< Stop if a pass shrinks less than this.
  int max_levels = 8;
  int max_affinity_net_degree = 16;  ///< Ignore larger nets when scoring.
  double max_cluster_area_ratio = 24.0;  ///< × average movable area.
  double hier_bonus = 0.15;           ///< Per shared-module-level multiplier.
  bool use_hierarchy = true;         ///< The paper's "h"; ablation toggles this.
  std::uint64_t seed = 17;
};

/// One placement level. Level 0 is the original problem (node == cell id).
struct Level {
  PlaceProblem prob;
  std::vector<int> hier;    ///< HierTree node per problem node.
  std::vector<int> region;  ///< Fence region per node (-1 none).
  /// For level > 0: node id in THIS level for each node of the next finer
  /// level. Empty at level 0.
  std::vector<int> fine_to_coarse;
};

/// The level stack, finest at index 0. The global placer places the
/// coarsest level, then descend()s, so once level 0 is being placed it is
/// the only level still alive.
class Multilevel {
 public:
  /// Build the full level stack from a finalized design.
  Multilevel(const Design& d, const ClusterOptions& opt);

  /// Levels still alive; descend() lowers this by one.
  int num_levels() const { return static_cast<int>(levels_.size()); }
  Level& level(int l) { return levels_[static_cast<std::size_t>(l)]; }
  const Level& level(int l) const { return levels_[static_cast<std::size_t>(l)]; }
  /// Coarsest level index.
  int top() const { return num_levels() - 1; }

  /// Copy the coarsest level's cluster positions down to the next finer
  /// level's nodes (declustering), then release the coarsest level.
  void descend();

 private:
  const Design& design_;
  ClusterOptions opt_;
  std::vector<Level> levels_;

  /// One first-choice matching pass; returns false if reduction too small.
  bool coarsen_once(Rng& rng);
  /// Partner of each node of the coarsest level in one first-choice
  /// matching (-1: unmatched); merged nodes stay below `max_area`.
  std::vector<int> first_choice_match(Rng& rng, double max_area) const;
};

}  // namespace rp
