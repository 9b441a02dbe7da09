// flowbench — one full-size placement job of a pinned workload, driven
// through the library's public API. Nothing under src/ is instrumented for
// it: spans are taken here, around the calls into each layer.
//
//   flowbench --workload <name> --mode flow|traced [--threads N]
//
//  flow    Generate the design kSetups times (setup_s is the median), then run
//          PlacementFlow::run once on a fresh ObsContext and report the
//          end-to-end measurements. One process is one job, so the peak RSS
//          read at exit belongs to this job alone.
//  traced  Rebuild the flow from its public stage calls, in the order
//          PlacementFlow::run makes them, with a span around each call. Then
//          replay single kernel calls at the GP-exit state for per-call
//          times. The span tree is reported with each span's self time.
//
// --threads overrides the workload's pool size (run.py's 1-thread baseline
// job); the placement must not change with it.
//
// The last stdout line is one JSON object of raw facts (metrics, hashes,
// spans, fingerprint); perfbench/run.py checks jobs and aggregates them.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/multilevel.hpp"
#include "core/build_info.hpp"
#include "core/flow.hpp"
#include "db/validate.hpp"
#include "gen/generator.hpp"
#include "model/density.hpp"
#include "model/objective.hpp"
#include "model/problem.hpp"
#include "model/wirelength.hpp"
#include "route/estimator.hpp"
#include "route/metrics.hpp"
#include "route/router.hpp"
#include "solver/cg.hpp"
#include "util/json.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/parallel.hpp"
#include "util/profiler.hpp"
#include "util/simd.hpp"

namespace {

using namespace rp;
using Clock = std::chrono::steady_clock;

// A 24k-cell generation takes well under 0.1 s, so one sample is mostly
// scheduling noise; the median of several is steady.
constexpr int kSetups = 9;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------------ workloads

struct Workload {
  const char* name;
  int cells;            ///< 0: the toy tiny_spec() instance (self-test).
  double track_supply;
  bool routability;     ///< routability_driven_options() vs wirelength_driven.
  int threads;
  /// The routed regime run.py holds the workload to: "congested" (RC >= 103,
  /// overflow, every inflation round taken), "open" (no overflow, RC < 100),
  /// or "" (unchecked).
  const char* regime;
};

// The instance is the one `routplace --gen 24000 --seed 3 --supply <s>`
// builds. It is fixed: every job of a workload places the same design, so
// quality and the placement hash must repeat exactly across jobs.
constexpr Workload kWorkloads[] = {
    {"congested_rdp_t4", 24000, 1.0, true, 4, "congested"},
    {"open_wl_t4", 24000, 3.0, false, 4, "open"},
    {"selftest_tiny", 0, 0.0, true, 2, ""},
};

BenchmarkSpec workload_spec(const Workload& w) {
  if (w.cells == 0) return tiny_spec();
  // small_spec()'s preset fields written out, so a change to the generator
  // presets (or to paper_suite()'s supply table) cannot move the workload.
  BenchmarkSpec s;
  s.name = "gen" + std::to_string(w.cells);
  s.seed = 3;
  s.num_std_cells = w.cells;
  s.num_macros = 6;
  s.macro_area_fraction = 0.22;
  s.leaf_module_cells = 200;
  s.num_io = 32;
  s.track_supply = w.track_supply;
  return s;
}

FlowOptions workload_options(const Workload& w) {
  return w.routability ? routability_driven_options() : wirelength_driven_options();
}

// ------------------------------------------------------------------- hashing

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void add(const T& v) {
    bytes(&v, sizeof v);
  }
};

std::string hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Everything the placer reads from a generated design: floorplan, routing
/// grid, cells with their start positions, and the pin-level netlist.
std::string design_hash(const Design& d) {
  Fnv f;
  f.add(d.die());
  const RouteGridInfo& rg = d.route_grid();
  f.add(rg.nx);
  f.add(rg.ny);
  f.add(rg.h_capacity);
  f.add(rg.v_capacity);
  f.add(rg.wire_spacing);
  f.add(rg.macro_porosity);
  for (const Row& r : d.rows()) f.add(r);
  for (const Cell& c : d.cells()) {
    f.add(c.w);
    f.add(c.h);
    f.add(c.kind);
    f.add(c.fixed);
    f.add(c.pos);
    f.add(c.region);
    f.add(c.hier);
  }
  for (const Net& n : d.nets()) {
    f.add(n.weight);
    for (const PinId p : n.pins) {
      f.add(d.pin(p).cell);
      f.add(d.pin(p).offset);
    }
  }
  return hex(f.h);
}

/// The placement result: every cell's lower-left corner and fixed flag.
std::string placement_hash(const Design& d) {
  Fnv f;
  for (const Cell& c : d.cells()) {
    f.add(c.pos);
    f.add(c.fixed);
  }
  return hex(f.h);
}

// ------------------------------------------------------------------ platform

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

void write_fingerprint(JsonWriter& j, int threads) {
  const BuildInfo& b = build_info();
  j.key("fingerprint").begin_object();
  j.kv("cpu_model", cpu_model());
  j.kv("nproc", parallel::hardware_threads());
  j.kv("pool_threads", threads);
  j.kv("simd", simd::level_name(simd::active_level()));
  j.kv("compiler", b.compiler);
  j.kv("build_type", b.build_type);
  j.kv("flags", b.flags);
  j.end_object();
}

// --------------------------------------------------------------------- spans

/// Spans recorded from outside the library: name, parent, start, end.
class SpanTree {
 public:
  class Scope {
   public:
    Scope(SpanTree& t, const char* name) : t_(t) { t_.open(name); }
    ~Scope() { t_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTree& t_;
  };

  double seconds(const std::string& name) const {
    double s = 0.0;
    for (const Span& sp : spans_)
      if (sp.name == name) s += sp.end - sp.begin;
    return s;
  }

  /// Each span with its total and self time (total minus its children).
  void write(JsonWriter& j) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& sp : spans_)
      if (sp.parent >= 0) child[static_cast<std::size_t>(sp.parent)] += sp.end - sp.begin;
    j.key("spans").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      j.begin_object();
      j.kv("name", sp.name);
      j.kv("parent", sp.parent);
      j.kv("total_s", sp.end - sp.begin);
      j.kv("self_s", sp.end - sp.begin - child[i]);
      j.end_object();
    }
    j.end_array();
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double begin = 0.0;
    double end = 0.0;
  };

  void open(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    open_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back({name, parent, seconds_since(t0_), 0.0});
  }
  void close() {
    spans_[static_cast<std::size_t>(open_.back())].end = seconds_since(t0_);
    open_.pop_back();
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ------------------------------------------------------------------- helpers

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median wall time of `reps` calls of fn(), in milliseconds.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(1e3 * seconds_since(t0));
  }
  return median(ms);
}

using Metrics = std::map<std::string, double>;

double counter(const obs::ObsContext& ctx, const char* name) {
  return static_cast<double>(ctx.registry().counter_value(name));
}

void add_quality(Metrics& m, const EvalResult& e) {
  m["hpwl"] = e.hpwl;
  m["scaled_hpwl"] = e.scaled_hpwl;
  m["rc"] = e.congestion.rc;
  m["routed_wl"] = e.route.wirelength;
  m["route.overflow"] = e.congestion.total_overflow;
  m["route.overflowed_edges"] = e.congestion.overflowed_edges;
}

Design generate(const Workload& w, int setups, Metrics& m) {
  std::vector<double> t;
  Design d;
  for (int i = 0; i < setups; ++i) {
    const auto t0 = Clock::now();
    d = generate_benchmark(workload_spec(w));
    t.push_back(seconds_since(t0));
  }
  m["setup_s"] = median(t);
  m["gen.cells"] = d.num_cells();
  m["gen.nets"] = d.num_nets();
  m["gen.pins"] = d.num_pins();
  return d;
}

// ------------------------------------------------------------------ the jobs

struct JobResult {
  Metrics m;
  std::string placement;
  bool legal = false;
  int inflation_rounds = 0;
};

/// The user's view: one untraced PlacementFlow::run.
JobResult run_flow(const Workload& w, Design& d) {
  JobResult r;
  FlowOptions opt = workload_options(w);
  opt.obs = std::make_shared<obs::ObsContext>();
  PlacementFlow flow(opt);
  const auto t0 = Clock::now();
  const FlowResult fr = flow.run(d);
  r.m["flow_s"] = seconds_since(t0);
  r.m["place_s"] = fr.times.get("global") + fr.times.get("macro_legal") +
                   fr.times.get("legal") + fr.times.get("detailed");
  r.m["peak_rss_mb"] = peak_rss_mb();
  add_quality(r.m, fr.eval);
  r.m["legal.failed_cells"] = fr.legal.failed;
  r.placement = placement_hash(d);
  r.legal = fr.eval.legality.ok();
  r.inflation_rounds = fr.gp.inflation_rounds;
  return r;
}

/// The flow rebuilt from its public stage calls, spans around each, then
/// per-call kernel replays at the GP-exit state.
JobResult run_traced(const Workload& w, Design& d, SpanTree& spans) {
  JobResult r;
  Metrics& m = r.m;
  const FlowOptions opt = workload_options(w);
  const Design initial = d;  // for the clustering replay
  Design gp_exit;  // for the kernel replays

  obs::ObsContext ctx;
  GlobalPlacer gp(opt.gp);
  GpStats gs;
  LegalizeStats ls;
  DetailedPlaceStats dps;
  EvalResult ev;
  parallel::reset_pool_profile();
  parallel::set_pool_profiling(true);
  {
    obs::ScopedBind bind(&ctx);
    SpanTree::Scope root(spans, "flow");
    {
      SpanTree::Scope s(spans, "core.gp");
      gs = gp.run(d);
    }
    {
      SpanTree::Scope s(spans, "trace.gp_exit_copy");
      gp_exit = d;
    }
    {
      SpanTree::Scope s(spans, "legal.macro");
      legalize_macros(d, opt.macro_legal);
      freeze_macros(d);
    }
    {
      SpanTree::Scope s(spans, "legal.cells");
      AbacusLegalizer lg(opt.legal);
      ls = lg.run(d);
    }
    {
      SpanTree::Scope s(spans, "dp");
      DetailedPlaceOptions dpo = opt.dp;
      std::optional<RoutingGrid> rg;
      if (opt.congestion_aware_dp) {
        SpanTree::Scope e(spans, "dp.estimate");
        rg.emplace(d, true);
        estimate_probabilistic(d, *rg);
        dpo.congestion_weight =
            opt.dp_congestion_weight > 0.0 ? opt.dp_congestion_weight : 2.0 * d.row_height();
      }
      SpanTree::Scope e(spans, "dp.run");
      DetailedPlacer dp(dpo);
      if (rg) dp.set_congestion(rg->map(), rg->tile_congestion());
      dps = dp.run(d);
    }
    {
      SpanTree::Scope s(spans, "eval");
      ev.hpwl = d.hpwl();
      RoutingGrid grid(d, /*include_movable_macros=*/true);
      {
        SpanTree::Scope e(spans, "route.route");
        GlobalRouter router(grid, opt.eval.router);
        ev.route = router.route(d);
      }
      {
        SpanTree::Scope e(spans, "route.metrics");
        ev.congestion = congestion_metrics(grid);
        ev.scaled_hpwl = scaled_hpwl(ev.hpwl, ev.congestion.rc);
      }
      SpanTree::Scope e(spans, "db.legality");
      ev.legality = check_legality(d);
    }
  }
  parallel::set_pool_profiling(false);

  add_quality(m, ev);
  r.placement = placement_hash(d);
  r.legal = ev.legality.ok();
  r.inflation_rounds = gs.inflation_rounds;

  double levels_s = 0.0, routability_s = 0.0;
  for (const auto& [name, sec] : gp.times().entries()) {
    if (name.rfind("level", 0) == 0 && name.find('/') == std::string::npos) levels_s += sec;
    const std::size_t slash = name.rfind('/');
    if (name.substr(slash == std::string::npos ? 0 : slash + 1) == "routability")
      routability_s += sec;
  }
  m["core.gp_levels_s"] = levels_s;
  m["core.routability_s"] = routability_s;
  m["core.gp_outer_iters"] = counter(ctx, "gp.outer_iters");
  m["core.inflation_rounds"] = gs.inflation_rounds;
  m["core.cells_inflated"] = counter(ctx, "gp.cells_inflated");
  m["model.wl_evals"] = counter(ctx, "parallel.wl_evals");
  m["model.density_evals"] = counter(ctx, "parallel.density_evals");
  m["solver.cg_calls"] = counter(ctx, "solver.cg_calls");
  m["solver.cg_iters"] = counter(ctx, "solver.cg_iters");
  m["solver.iters_per_eval"] =
      m["solver.cg_iters"] / std::max(1.0, m["model.wl_evals"]);
  m["route.estimates"] = counter(ctx, "route.estimates");
  m["route.segments"] = counter(ctx, "route.segments");
  m["route.segments_rerouted"] = counter(ctx, "route.segments_rerouted");
  m["route.reroute_ratio"] =
      m["route.segments_rerouted"] / std::max(1.0, m["route.segments"]);
  m["route.ripup_rounds"] = counter(ctx, "route.ripup_rounds");
  m["legal.failed_cells"] = ls.failed;
  m["legal.avg_disp"] = ls.avg_disp();
  m["dp.moves_accepted"] =
      static_cast<double>(dps.swaps + dps.relocations + dps.reorders + dps.ism_moves);
  m["dp.hpwl_gain_frac"] = dps.improvement();

  const parallel::PoolProfile pp = parallel::pool_profile();
  double wait_ns = 0.0;
  for (const parallel::WorkerProfile& wp : pp.workers) wait_ns += static_cast<double>(wp.wait_ns);
  m["parallel.efficiency"] = pp.efficiency_mean;
  m["parallel.busy_s"] = pp.busy_ns * 1e-9;
  m["parallel.wait_s"] = wait_ns * 1e-9;
  m["parallel.regions"] = static_cast<double>(pp.regions);

  m["trace.flow_s"] = spans.seconds("flow");
  m["core.gp_s"] = spans.seconds("core.gp");
  m["legal.macro_s"] = spans.seconds("legal.macro");
  m["legal.cells_s"] = spans.seconds("legal.cells");
  m["dp.estimate_s"] = spans.seconds("dp.estimate");
  m["dp.s"] = spans.seconds("dp.run");
  m["route.route_s"] = spans.seconds("route.route");
  m["db.legality_check_s"] = spans.seconds("db.legality");

  // Replays run on their own context so their counter bumps stay out of the
  // flow's layer counts above.
  obs::ObsContext replay_ctx;
  obs::ScopedBind bind(&replay_ctx);
  {
    std::vector<double> t;
    int levels = 0;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      const Multilevel ml(initial, opt.gp.cluster);
      t.push_back(seconds_since(t0));
      levels = ml.num_levels();
    }
    m["cluster.build_s"] = median(t);
    m["cluster.levels"] = levels;
  }
  {
    RoutingGrid rg(gp_exit, true);
    m["route.estimate_ms"] = median_ms(5, [&] { estimate_probabilistic(gp_exit, rg); });
  }
  PlaceProblem prob = make_problem(gp_exit);
  DensityConfig dc;
  dc.target_density = opt.gp.target_density;
  DensityModel dens(prob, dc);
  const double bin = std::max(dens.grid().bin_w(), dens.grid().bin_h());
  WaWirelength wl(opt.gp.gamma_final_bins * bin);
  std::vector<double> gx(prob.nodes.size()), gy(prob.nodes.size());
  const auto clear = [&] {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
  };
  wl.eval(prob, gx, gy);  // warm-up: builds the CSR view and scratch
  m["model.wa_eval_ms"] = median_ms(15, [&] {
    clear();
    wl.eval(prob, gx, gy);
  });
  dens.eval(prob, gx, gy);
  m["model.density_eval_ms"] = median_ms(15, [&] {
    clear();
    dens.eval(prob, gx, gy);
  });
  PlacementObjective obj(prob, wl, dens);
  obj.set_lambda(obj.balanced_lambda());
  const std::vector<double> z0 = obj.pack();
  std::vector<double> g(z0.size());
  m["model.objective_eval_ms"] = median_ms(15, [&] { obj.eval(z0, g); });

  CgOptions cgo;  // the GP's per-outer solve settings (global_placer.cpp)
  cgo.max_iters = opt.gp.cg_iters;
  cgo.trust_radius = opt.gp.trust_bins * bin;
  cgo.f_rel_tol = 1e-5;
  cgo.max_backtracks = 4;
  std::vector<double> z = z0;
  const auto t0 = Clock::now();
  minimize_cg([&](std::span<const double> zz, std::span<double> gg) { return obj.eval(zz, gg); },
              z, cgo);
  m["solver.cg_solve_ms"] = 1e3 * seconds_since(t0);
  return r;
}

int usage() {
  std::fputs("usage: flowbench --workload <name> --mode flow|traced [--threads N]\n", stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, mode = "flow";
  int threads = 0;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    if (a == "--workload") workload = argv[i + 1];
    else if (a == "--mode") mode = argv[i + 1];
    else if (a == "--threads") threads = std::atoi(argv[i + 1]);
    else return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads)
    if (workload == k.name) w = &k;
  if (w == nullptr || (mode != "flow" && mode != "traced") || threads < 0) return usage();
  if (threads == 0) threads = w->threads;

  // Hygiene before anything is timed: quiet logging, profiler off, the pool
  // at its final size, SIMD dispatch resolved.
  Logger::set_level(LogLevel::Warn);
  profiler::set_enabled(false);
  parallel::set_num_threads(threads);
  (void)simd::ops();

  JobResult r;
  Metrics gen;
  SpanTree spans;
  std::string dhash;
  try {
    Design d = generate(*w, mode == "flow" ? kSetups : 1, gen);
    dhash = design_hash(d);
    r = mode == "flow" ? run_flow(*w, d) : run_traced(*w, d, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    return 1;
  }
  r.m.insert(gen.begin(), gen.end());

  JsonWriter j;
  j.begin_object();
  j.kv("workload", w->name);
  j.kv("mode", mode);
  j.kv("regime", w->regime);
  j.kv("flow", w->routability ? "routability" : "wirelength");
  j.kv("design_hash", dhash);
  j.kv("placement_hash", r.placement);
  j.kv("legal", r.legal);
  j.kv("inflation_rounds", r.inflation_rounds);
  j.kv("routability_rounds", workload_options(*w).gp.routability.rounds);
  j.kv("threads", threads);
  write_fingerprint(j, threads);
  j.key("metrics").begin_object();
  for (const auto& [name, v] : r.m) j.kv(name, v);
  j.end_object();
  if (mode == "traced") spans.write(j);
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}
