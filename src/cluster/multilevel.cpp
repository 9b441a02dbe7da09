#include "cluster/multilevel.hpp"

#include <algorithm>
#include <cmath>
#include <memory_resource>
#include <unordered_map>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/assert.hpp"
#include "util/logger.hpp"
#include "util/telemetry.hpp"

namespace rp {

namespace {
// Arena bytes reserved per pin of the level being coarsened: the pair map's
// buckets and nodes plus the CSR adjacency take about 112 on generated
// designs (1.4-1.7 pairs per pin). A pass that needs more grows the arena
// by further blocks.
constexpr std::size_t kArenaBytesPerPin = 128;

// Hand the heap's free pages back to the OS. Once a few multi-megabyte
// blocks have been freed, glibc raises its mmap threshold and serves vectors
// of that size from its main heap, where free() cannot return a hole below
// live blocks. Without this, a popped level, or whatever the caller left
// fragmented before clustering, stays resident.
void release_free_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}
}  // namespace

Multilevel::Multilevel(const Design& d, const ClusterOptions& opt)
    : design_(d), opt_(opt) {
  release_free_heap();
  Level l0;
  l0.prob = make_problem(d);
  l0.hier.resize(static_cast<std::size_t>(d.num_cells()));
  l0.region.resize(static_cast<std::size_t>(d.num_cells()));
  for (CellId c = 0; c < d.num_cells(); ++c) {
    l0.hier[static_cast<std::size_t>(c)] = d.cell(c).hier;
    l0.region[static_cast<std::size_t>(c)] = d.cell(c).region;
  }
  levels_.push_back(std::move(l0));

  Rng rng(opt_.seed);
  for (int pass = 0; pass < opt_.max_levels; ++pass) {
    int movable = 0;
    for (const auto& n : levels_.back().prob.nodes)
      if (!n.fixed) ++movable;
    if (movable <= opt_.target_nodes) break;
    if (!coarsen_once(rng)) break;
    RP_COUNT("cluster.coarsen_passes", 1);
  }
  RP_INFO("multilevel: %d levels (finest %zu nodes, coarsest %zu nodes)", num_levels(),
          levels_.front().prob.nodes.size(), levels_.back().prob.nodes.size());
}

std::vector<int> Multilevel::first_choice_match(Rng& rng, double max_area) const {
  const Level& fine = levels_.back();
  const PlaceProblem& fp = fine.prob;
  const int n = fp.num_nodes();

  // ---- adjacency with affinity weights ----
  // The pair map and the adjacency live in one arena that dies with this
  // call, before the coarse level is built, so their many small nodes leave
  // no fragments between the levels' vectors.
  const std::size_t pins = fp.pins.size();
  // (Its initial size must be positive, even for a level with no pins.)
  std::pmr::monotonic_buffer_resource arena(std::max<std::size_t>(pins, 1) * kArenaBytesPerPin);
  // Connectivity weight per pair, w_e / (deg-1), accumulated over shared nets.
  std::pmr::unordered_map<std::uint64_t, double> pair_w(&arena);
  pair_w.reserve(pins * 2);
  for (const PlaceNet& net : fp.nets) {
    const int deg = net.degree();
    if (deg < 2 || deg > opt_.max_affinity_net_degree) continue;
    const double w = net.weight / (deg - 1);
    for (int i = net.pin_begin; i < net.pin_end; ++i) {
      for (int j = i + 1; j < net.pin_end; ++j) {
        int a = fp.pins[static_cast<std::size_t>(i)].node;
        int b = fp.pins[static_cast<std::size_t>(j)].node;
        if (a == b) continue;
        if (a > b) std::swap(a, b);
        pair_w[(static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint32_t>(b)] += w;
      }
    }
  }
  // Bucketize per node as CSR, each row in pair-map iteration order: the
  // matching below keeps the first of equal affinities, so this order
  // decides ties.
  std::pmr::vector<int> adj_begin(static_cast<std::size_t>(n) + 1, 0, &arena);
  for (const auto& kv : pair_w) {
    ++adj_begin[static_cast<std::size_t>(kv.first >> 32) + 1];
    ++adj_begin[static_cast<std::size_t>(kv.first & 0xffffffffu) + 1];
  }
  for (int v = 0; v < n; ++v)
    adj_begin[static_cast<std::size_t>(v) + 1] += adj_begin[static_cast<std::size_t>(v)];
  std::pmr::vector<std::pair<int, double>> adj(pair_w.size() * 2, &arena);
  std::pmr::vector<int> fill(adj_begin.begin(), adj_begin.end() - 1, &arena);
  for (const auto& [key, w] : pair_w) {
    const int a = static_cast<int>(key >> 32);
    const int b = static_cast<int>(key & 0xffffffffu);
    adj[static_cast<std::size_t>(fill[static_cast<std::size_t>(a)]++)] = {b, w};
    adj[static_cast<std::size_t>(fill[static_cast<std::size_t>(b)]++)] = {a, w};
  }

  // ---- first-choice matching ----
  std::vector<int> match(static_cast<std::size_t>(n), -1);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v)
    if (!fp.nodes[static_cast<std::size_t>(v)].fixed) order.push_back(v);
  rng.shuffle(order);

  for (const int v : order) {
    if (match[static_cast<std::size_t>(v)] != -1) continue;
    const auto& nv = fp.nodes[static_cast<std::size_t>(v)];
    if (nv.area() > max_area || nv.macro) continue;
    int best = -1;
    double best_aff = 0.0;
    for (int k = adj_begin[static_cast<std::size_t>(v)];
         k < adj_begin[static_cast<std::size_t>(v) + 1]; ++k) {
      const auto [u, w] = adj[static_cast<std::size_t>(k)];
      if (match[static_cast<std::size_t>(u)] != -1 || u == v) continue;
      const auto& nu = fp.nodes[static_cast<std::size_t>(u)];
      if (nu.fixed || nu.macro) continue;
      if (nu.area() + nv.area() > max_area) continue;
      if (fine.region[static_cast<std::size_t>(u)] != fine.region[static_cast<std::size_t>(v)])
        continue;
      double aff = w / (nu.area() + nv.area());
      if (opt_.use_hierarchy) {
        const int depth = design_.hierarchy().common_ancestor_depth(
            fine.hier[static_cast<std::size_t>(u)], fine.hier[static_cast<std::size_t>(v)]);
        aff *= 1.0 + opt_.hier_bonus * depth;
      }
      if (aff > best_aff) {
        best_aff = aff;
        best = u;
      }
    }
    if (best >= 0) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    }
  }
  return match;
}

bool Multilevel::coarsen_once(Rng& rng) {
  const Level& fine = levels_.back();
  const PlaceProblem& fp = fine.prob;
  const int n = fp.num_nodes();

  double avg_area = 0.0;
  int movable = 0;
  for (const auto& nd : fp.nodes)
    if (!nd.fixed) {
      avg_area += nd.area();
      ++movable;
    }
  avg_area /= std::max(1, movable);
  const double max_area = opt_.max_cluster_area_ratio * avg_area;

  const std::vector<int> match = first_choice_match(rng, max_area);
  int merged = 0;
  for (int v = 0; v < n; ++v)
    if (match[static_cast<std::size_t>(v)] > v) ++merged;
  if (merged < static_cast<int>(opt_.min_reduction * movable)) return false;

  // ---- build the coarse level ----
  Level coarse;
  std::vector<int> f2c(static_cast<std::size_t>(n), -1);
  PlaceProblem& cp = coarse.prob;
  cp.die = fp.die;
  const auto add_coarse_node = [&](int rep) {
    const int id = cp.num_nodes();
    cp.nodes.push_back(fp.nodes[static_cast<std::size_t>(rep)]);
    cp.x.push_back(fp.x[static_cast<std::size_t>(rep)]);
    cp.y.push_back(fp.y[static_cast<std::size_t>(rep)]);
    cp.inflate.push_back(fp.inflate[static_cast<std::size_t>(rep)]);
    coarse.hier.push_back(fine.hier[static_cast<std::size_t>(rep)]);
    coarse.region.push_back(fine.region[static_cast<std::size_t>(rep)]);
    return id;
  };
  for (int v = 0; v < n; ++v) {
    if (f2c[static_cast<std::size_t>(v)] != -1) continue;
    const int u = match[static_cast<std::size_t>(v)];
    if (u == -1 || fp.nodes[static_cast<std::size_t>(v)].fixed) {
      f2c[static_cast<std::size_t>(v)] = add_coarse_node(v);
      continue;
    }
    // Merge v and u into one square cluster at their area-weighted centroid.
    const auto& nv = fp.nodes[static_cast<std::size_t>(v)];
    const auto& nu = fp.nodes[static_cast<std::size_t>(u)];
    const double area = nv.area() + nu.area();
    const double av = nv.area(), au = nu.area();
    const int id = cp.num_nodes();
    PlaceNode cn;
    const double side = std::sqrt(area);
    cn.w = side;
    cn.h = side;
    cn.fixed = false;
    cn.macro = false;
    cp.nodes.push_back(cn);
    cp.x.push_back((fp.x[static_cast<std::size_t>(v)] * av + fp.x[static_cast<std::size_t>(u)] * au) /
                   area);
    cp.y.push_back((fp.y[static_cast<std::size_t>(v)] * av + fp.y[static_cast<std::size_t>(u)] * au) /
                   area);
    // Inflation carries as the area-weighted mean.
    cp.inflate.push_back((fp.inflate[static_cast<std::size_t>(v)] * av +
                          fp.inflate[static_cast<std::size_t>(u)] * au) /
                         area);
    // Cluster hierarchy = the deeper common ancestor of the two members.
    coarse.hier.push_back(av >= au ? fine.hier[static_cast<std::size_t>(v)]
                                   : fine.hier[static_cast<std::size_t>(u)]);
    coarse.region.push_back(fine.region[static_cast<std::size_t>(v)]);
    f2c[static_cast<std::size_t>(v)] = id;
    f2c[static_cast<std::size_t>(u)] = id;
  }

  // Coarse nets: collapse pins onto clusters, dedupe, drop internal nets.
  std::vector<int> seen(cp.nodes.size(), -1);
  for (std::size_t ni = 0; ni < fp.nets.size(); ++ni) {
    const PlaceNet& net = fp.nets[ni];
    PlaceNet cnet;
    cnet.weight = net.weight;
    cnet.pin_begin = static_cast<int>(cp.pins.size());
    for (int i = net.pin_begin; i < net.pin_end; ++i) {
      const PlacePin& pin = fp.pins[static_cast<std::size_t>(i)];
      const int cnode = f2c[static_cast<std::size_t>(pin.node)];
      if (seen[static_cast<std::size_t>(cnode)] == static_cast<int>(ni)) continue;
      seen[static_cast<std::size_t>(cnode)] = static_cast<int>(ni);
      // Keep pin offsets only for unmerged singleton nodes; cluster pins
      // collapse to the cluster center.
      const bool singleton = match[static_cast<std::size_t>(pin.node)] == -1;
      cp.pins.push_back(PlacePin{cnode, singleton ? pin.ox : 0.0, singleton ? pin.oy : 0.0});
    }
    cnet.pin_end = static_cast<int>(cp.pins.size());
    if (cnet.degree() < 2) {
      cp.pins.resize(static_cast<std::size_t>(cnet.pin_begin));
      continue;
    }
    cp.nets.push_back(cnet);
  }

  coarse.fine_to_coarse = std::move(f2c);
  cp.validate();
  RP_DEBUG("coarsen: %d -> %d nodes, %zu -> %zu nets", n, cp.num_nodes(), fp.nets.size(),
           cp.nets.size());
  levels_.push_back(std::move(coarse));
  return true;
}

void Multilevel::descend() {
  RP_ASSERT(num_levels() >= 2, "descend: already at the finest level");
  const Level& coarse = levels_.back();
  Level& fine = levels_[levels_.size() - 2];
  RP_ASSERT(coarse.fine_to_coarse.size() == fine.prob.nodes.size(),
            "descend: mapping size mismatch");
  // Tiny deterministic stagger so the two members of a cluster do not start
  // exactly coincident (helps the next level's spreading break symmetry).
  for (int v = 0; v < fine.prob.num_nodes(); ++v) {
    if (fine.prob.nodes[static_cast<std::size_t>(v)].fixed) continue;
    const int c = coarse.fine_to_coarse[static_cast<std::size_t>(v)];
    const double jx = ((v * 2654435761u) % 1000) / 1000.0 - 0.5;
    const double jy = ((v * 0x9E3779B9u) % 1000) / 1000.0 - 0.5;
    fine.prob.x[static_cast<std::size_t>(v)] =
        coarse.prob.x[static_cast<std::size_t>(c)] + jx * fine.prob.nodes[static_cast<std::size_t>(v)].w * 0.25;
    fine.prob.y[static_cast<std::size_t>(v)] =
        coarse.prob.y[static_cast<std::size_t>(c)] + jy * fine.prob.nodes[static_cast<std::size_t>(v)].h * 0.25;
  }
  fine.prob.clamp_to_die();
  levels_.pop_back();
  release_free_heap();
}

}  // namespace rp
