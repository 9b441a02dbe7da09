// Micro-benchmarks of the flow's hot kernels: bell-shaped density
// evaluation, the probabilistic congestion estimator, the global router,
// legalization, and the hierarchy-aware clustering pass. These back the
// runtime-breakdown discussion and guard against performance regressions.
//
// The *Threads benchmarks sweep the pool size over 1/2/4/8 for each parallel
// kernel, and a custom main() additionally emits machine-readable speedup
// rows ({"schema":"kernel_speedup",...} JSONL) into $RP_BENCH_JSON so the
// perf-trajectory tooling can track parallel scaling alongside flow metrics.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/multilevel.hpp"
#include "core/flow.hpp"
#include "gen/generator.hpp"
#include "legal/legalizer.hpp"
#include "legal/macro_legalizer.hpp"
#include "model/density.hpp"
#include "model/incremental.hpp"
#include "model/wirelength.hpp"
#include "route/estimator.hpp"
#include "route/router.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace {

const rp::Design& bench_design() {
  static const rp::Design d = [] {
    rp::Logger::set_level(rp::LogLevel::Error);
    return rp::generate_benchmark(rp::small_spec(99));
  }();
  return d;
}

void BM_DensityEval(benchmark::State& state) {
  using namespace rp;
  PlaceProblem p = make_problem(bench_design());
  DensityConfig cfg;
  DensityModel dm(p, cfg);
  std::vector<double> gx(p.nodes.size()), gy(p.nodes.size());
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    benchmark::DoNotOptimize(dm.eval(p, gx, gy));
  }
  state.SetItemsProcessed(state.iterations() * p.num_nodes());
}
BENCHMARK(BM_DensityEval);

void BM_DensityOverflow(benchmark::State& state) {
  using namespace rp;
  PlaceProblem p = make_problem(bench_design());
  DensityConfig cfg;
  DensityModel dm(p, cfg);
  for (auto _ : state) benchmark::DoNotOptimize(dm.overflow(p));
  state.SetItemsProcessed(state.iterations() * p.num_nodes());
}
BENCHMARK(BM_DensityOverflow);

void BM_ProbabilisticEstimate(benchmark::State& state) {
  using namespace rp;
  const Design& d = bench_design();
  RoutingGrid grid(d, true);
  for (auto _ : state) {
    estimate_probabilistic(d, grid);
    benchmark::DoNotOptimize(grid.total_overflow());
  }
  state.SetItemsProcessed(state.iterations() * d.num_nets());
}
BENCHMARK(BM_ProbabilisticEstimate);

void BM_RudyMap(benchmark::State& state) {
  using namespace rp;
  const Design& d = bench_design();
  const GridMap map(d.die(), 64, 64);
  for (auto _ : state) benchmark::DoNotOptimize(rudy_map(d, map));
  state.SetItemsProcessed(state.iterations() * d.num_nets());
}
BENCHMARK(BM_RudyMap);

void BM_GlobalRoute(benchmark::State& state) {
  using namespace rp;
  const Design& d = bench_design();
  for (auto _ : state) {
    RoutingGrid grid(d, true);
    GlobalRouter router(grid);
    benchmark::DoNotOptimize(router.route(d));
  }
  state.SetItemsProcessed(state.iterations() * d.num_nets());
}
BENCHMARK(BM_GlobalRoute);

void BM_AbacusLegalize(benchmark::State& state) {
  using namespace rp;
  for (auto _ : state) {
    state.PauseTiming();
    Design d = generate_benchmark(small_spec(99));
    legalize_macros(d);
    freeze_macros(d);
    state.ResumeTiming();
    AbacusLegalizer lg;
    benchmark::DoNotOptimize(lg.run(d));
  }
  state.SetItemsProcessed(state.iterations() * bench_design().num_movable());
}
BENCHMARK(BM_AbacusLegalize)->Unit(benchmark::kMillisecond);

void BM_TetrisLegalize(benchmark::State& state) {
  using namespace rp;
  for (auto _ : state) {
    state.PauseTiming();
    Design d = generate_benchmark(small_spec(99));
    legalize_macros(d);
    freeze_macros(d);
    state.ResumeTiming();
    TetrisLegalizer lg;
    benchmark::DoNotOptimize(lg.run(d));
  }
  state.SetItemsProcessed(state.iterations() * bench_design().num_movable());
}
BENCHMARK(BM_TetrisLegalize)->Unit(benchmark::kMillisecond);

void BM_ClusteringPass(benchmark::State& state) {
  using namespace rp;
  const Design& d = bench_design();
  ClusterOptions opt;
  opt.target_nodes = 200;
  for (auto _ : state) {
    Multilevel ml(d, opt);
    benchmark::DoNotOptimize(ml.num_levels());
  }
  state.SetItemsProcessed(state.iterations() * d.num_cells());
}
BENCHMARK(BM_ClusteringPass)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- threaded

void BM_WirelengthEvalThreads(benchmark::State& state) {
  using namespace rp;
  parallel::set_num_threads(static_cast<int>(state.range(0)));
  PlaceProblem p = make_problem(bench_design());
  const auto wl = make_wirelength_model("WA", 4.0);
  std::vector<double> gx(p.nodes.size()), gy(p.nodes.size());
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    benchmark::DoNotOptimize(wl->eval(p, gx, gy));
  }
  state.SetItemsProcessed(state.iterations() * p.num_nets());
  parallel::set_num_threads(1);
}
BENCHMARK(BM_WirelengthEvalThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_DensityEvalThreads(benchmark::State& state) {
  using namespace rp;
  parallel::set_num_threads(static_cast<int>(state.range(0)));
  PlaceProblem p = make_problem(bench_design());
  DensityConfig cfg;
  DensityModel dm(p, cfg);
  std::vector<double> gx(p.nodes.size()), gy(p.nodes.size());
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    benchmark::DoNotOptimize(dm.eval(p, gx, gy));
  }
  state.SetItemsProcessed(state.iterations() * p.num_nodes());
  parallel::set_num_threads(1);
}
BENCHMARK(BM_DensityEvalThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ProbabilisticEstimateThreads(benchmark::State& state) {
  using namespace rp;
  parallel::set_num_threads(static_cast<int>(state.range(0)));
  const Design& d = bench_design();
  NetlistCsr csr = NetlistCsr::from_design(d);
  RoutingGrid grid(d, true);
  for (auto _ : state) {
    estimate_probabilistic(d, csr, grid);
    benchmark::DoNotOptimize(grid.total_overflow());
  }
  state.SetItemsProcessed(state.iterations() * d.num_nets());
  parallel::set_num_threads(1);
}
BENCHMARK(BM_ProbabilisticEstimateThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ------------------------------------------------------- speedup JSONL rows

/// Seconds per call, doubling the batch until the measurement is >= 50 ms.
double time_kernel(const std::function<void()>& fn) {
  fn();  // warm caches and lazy setup
  for (int iters = 1;; iters *= 2) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const double sec = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    if (sec >= 0.05 || iters >= (1 << 22)) return sec / iters;
  }
}

/// Median (lower-of-middle-two for even sizes); 0.0 on an empty sample.
double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = (v.size() - 1) / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

/// Sweep each parallel kernel over 1/2/4/8 threads; print a table and, when
/// $RP_BENCH_JSON is set, append one JSONL row per (kernel, threads) pair.
void emit_speedup_rows() {
  using namespace rp;
  PlaceProblem p = make_problem(bench_design());
  const Design& d = bench_design();
  const auto wl = make_wirelength_model("WA", 4.0);
  DensityConfig cfg;
  DensityModel dm(p, cfg);
  NetlistCsr csr = NetlistCsr::from_design(d);
  RoutingGrid grid(d, true);
  std::vector<double> gx(p.nodes.size()), gy(p.nodes.size());

  struct Kernel {
    const char* name;
    std::function<void()> fn;
  };
  const Kernel kernels[] = {
      {"wirelength_wa", [&] {
         std::fill(gx.begin(), gx.end(), 0.0);
         std::fill(gy.begin(), gy.end(), 0.0);
         benchmark::DoNotOptimize(wl->eval(p, gx, gy));
       }},
      {"density", [&] {
         std::fill(gx.begin(), gx.end(), 0.0);
         std::fill(gy.begin(), gy.end(), 0.0);
         benchmark::DoNotOptimize(dm.eval(p, gx, gy));
       }},
      {"congestion", [&] {
         estimate_probabilistic(d, csr, grid);
         benchmark::DoNotOptimize(grid.total_overflow());
       }},
  };

  const char* json_path = std::getenv("RP_BENCH_JSON");
  std::ofstream json;
  if (json_path != nullptr && json_path[0] != '\0')
    json.open(json_path, std::ios::app);

  std::printf("\nparallel kernel scaling (hardware threads: %d)\n",
              parallel::hardware_threads());
  std::printf("%-16s %8s %14s %10s\n", "kernel", "threads", "sec/iter", "speedup");
  for (const Kernel& k : kernels) {
    double t1 = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
      parallel::set_num_threads(threads);
      const double t = time_kernel(k.fn);
      if (threads == 1) t1 = t;
      const double speedup = t > 0.0 ? t1 / t : 0.0;
      std::printf("%-16s %8d %14.3e %9.2fx\n", k.name, threads, t, speedup);
      if (json.is_open())
        json << "{\"schema\":\"kernel_speedup\",\"kernel\":\"" << k.name
             << "\",\"threads\":" << threads << ",\"sec_per_iter\":" << t
             << ",\"speedup_vs_1\":" << speedup << "}\n";
    }
  }
  parallel::set_num_threads(1);
}

// ------------------------------------------------- SIMD speedup JSONL rows

/// Time the vectorizable kernels with dispatch forced off (scalar) and back
/// on auto, single-threaded so the ratio isolates the vector win. Appends
/// {"schema":"simd_speedup",...} rows keyed kernel.simd.<name>.t1.* by
/// bench_trend.py, which floors speedup_vs_off at 1.0 (dispatch must never
/// make a kernel slower than the scalar path it replaces).
void emit_simd_speedup_rows() {
  using namespace rp;
  parallel::set_num_threads(1);
  // Realistic mixed-size fanout (the suite's default avg degree of 3.4
  // leaves the per-net exp batches tail-dominated; multi-pin nets are where
  // the vector lanes fill up).
  BenchmarkSpec spec = medium_spec(99);
  spec.avg_net_degree = 8.0;
  spec.max_net_degree = 48;
  const Design d = generate_benchmark(spec);
  PlaceProblem p = make_problem(d);
  const auto wl = make_wirelength_model("WA", 4.0);
  DensityConfig cfg;
  DensityModel dm(p, cfg);
  std::vector<double> gx(p.nodes.size()), gy(p.nodes.size());
  // CG-style BLAS loop: the solver's per-iteration axpy/dot pattern on
  // vectors the size of the placement problem.
  std::vector<double> vx(p.nodes.size(), 1.0), vy(p.nodes.size(), 2.0);

  struct Kernel {
    const char* name;
    std::function<void()> fn;
  };
  const Kernel kernels[] = {
      {"wirelength_wa", [&] {
         std::fill(gx.begin(), gx.end(), 0.0);
         std::fill(gy.begin(), gy.end(), 0.0);
         benchmark::DoNotOptimize(wl->eval(p, gx, gy));
       }},
      {"density", [&] {
         std::fill(gx.begin(), gx.end(), 0.0);
         std::fill(gy.begin(), gy.end(), 0.0);
         benchmark::DoNotOptimize(dm.eval(p, gx, gy));
       }},
      {"cg_blas", [&] {
         const simd::Ops& ops = simd::ops();
         ops.axpy(0.5, vx.data(), vy.size(), vy.data());
         benchmark::DoNotOptimize(ops.dot(vx.data(), vy.data(), vy.size()));
       }},
  };

  const char* json_path = std::getenv("RP_BENCH_JSON");
  std::ofstream json;
  if (json_path != nullptr && json_path[0] != '\0')
    json.open(json_path, std::ios::app);

  std::printf("\nsimd kernel speedup (host: %s, threads: 1)\n",
              simd::level_name(simd::resolve("auto")));
  std::printf("%-16s %14s %14s %10s\n", "kernel", "scalar s/iter",
              "simd s/iter", "speedup");
  for (const Kernel& k : kernels) {
    // Interleave the arms (off/auto/off/auto...) so host drift on a shared
    // box hits both equally; min-of-reps discards preempted windows.
    double t_off = 1e300, t_auto = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      simd::set_from_string("off");
      t_off = std::min(t_off, time_kernel(k.fn));
      simd::set_from_string("auto");
      t_auto = std::min(t_auto, time_kernel(k.fn));
    }
    const double speedup = t_auto > 0.0 ? t_off / t_auto : 0.0;
    std::printf("%-16s %14.3e %14.3e %9.2fx\n", k.name, t_off, t_auto, speedup);
    if (json.is_open())
      json << "{\"schema\":\"simd_speedup\",\"kernel\":\"" << k.name
           << "\",\"threads\":1,\"off_sec\":" << t_off
           << ",\"auto_sec\":" << t_auto
           << ",\"speedup_vs_off\":" << speedup << "}\n";
  }
  simd::set_from_string("auto");
}

// ---------------------------------------- DP candidate-eval JSONL row

/// Cost of scoring one detailed-placement candidate move: the pre-PR-8
/// mutate-and-measure path (write the position, walk every pin of every net
/// on the cell, restore) vs IncrementalEval::trial_move (cached boxes,
/// second extremes, no mutation). Appends a {"schema":"dp_candidate_speedup"}
/// row keyed kernel.dp_candidate_eval.t1.speedup_vs_full.
void emit_dp_candidate_rows() {
  using namespace rp;
  // Higher-fanout design than the kernel suite's: the full path is
  // O(Σ degree of the cell's nets) per candidate while the incremental one
  // is O(#nets), so realistic mixed-size fanout is where the gap lives.
  BenchmarkSpec spec = medium_spec(99);
  spec.avg_net_degree = 8.0;
  spec.max_net_degree = 48;
  Design d = generate_benchmark(spec);
  IncrementalEval inc(d);
  const std::vector<CellId>& movable = d.movable_cells();
  constexpr int kBatch = 1024;

  // Deterministic candidate list: each sampled cell nudged by a cell-width.
  std::vector<std::pair<CellId, Point>> cand;
  cand.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    const CellId c = movable[static_cast<std::size_t>(i * 7) % movable.size()];
    const Cell& k = d.cell(c);
    cand.emplace_back(c, Point{k.pos.x + k.w, k.pos.y});
  }

  double sink = 0.0;
  std::vector<NetId> nets;
  // The old cost per candidate: collect + dedupe the cell's nets, measure
  // the before cost, mutate, measure again, restore. (The incremental path
  // amortizes the collection into construction and the before cost into one
  // cached sum per cell, so its per-candidate cost is trial_move alone.)
  const auto full_eval = [&] {
    for (const auto& [c, target] : cand) {
      nets.clear();
      for (const PinId pin : d.cell(c).pins) nets.push_back(d.pin(pin).net);
      std::sort(nets.begin(), nets.end());
      nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
      double before = 0.0;
      for (const NetId n : nets) before += d.net(n).weight * d.net_hpwl(n);
      const Point old = d.cell(c).pos;
      d.cell(c).pos = target;
      double after = 0.0;
      for (const NetId n : nets) after += d.net(n).weight * d.net_hpwl(n);
      d.cell(c).pos = old;
      sink += before - after;
    }
  };
  const auto inc_eval = [&] {
    for (const auto& [c, target] : cand) sink += inc.trial_move(c, target);
  };
  double full_sec = 1e300, inc_sec = 1e300;
  for (int rep = 0; rep < 3; ++rep) {  // interleaved arms, min-of-reps
    full_sec = std::min(full_sec, time_kernel(full_eval));
    inc_sec = std::min(inc_sec, time_kernel(inc_eval));
  }
  full_sec /= kBatch;
  inc_sec /= kBatch;
  benchmark::DoNotOptimize(sink);
  const double speedup = inc_sec > 0.0 ? full_sec / inc_sec : 0.0;

  std::printf("\ndp candidate evaluation (per move trial)\n");
  std::printf("  full re-eval          %8.1f ns\n", full_sec * 1e9);
  std::printf("  incremental delta     %8.1f ns  (%.2fx)\n", inc_sec * 1e9,
              speedup);

  const char* json_path = std::getenv("RP_BENCH_JSON");
  if (json_path != nullptr && json_path[0] != '\0') {
    std::ofstream json(json_path, std::ios::app);
    if (json.is_open())
      json << "{\"schema\":\"dp_candidate_speedup\",\"threads\":1"
           << ",\"full_sec\":" << full_sec
           << ",\"incremental_sec\":" << inc_sec
           << ",\"speedup_vs_full\":" << speedup << "}\n";
  }
}

// ----------------------------------------------- event-bus overhead JSONL row

/// Measure the observability event bus (PR 7): raw emit cost into the ring,
/// emit cost with an open NDJSON stream, and — the number that matters — the
/// wall-time ratio of a full flow with the progress stream on vs off. The
/// contract is <2% flow overhead; bench_trend.py gates "overhead_ratio" as
/// an absolute limit (> 1.02 fails), not as a baseline-relative metric.
void emit_event_bus_rows() {
  using namespace rp;

  // Raw emit: ring buffer only (the always-on cost every run pays).
  obs::EventBus ring_bus;
  constexpr int kBatch = 4096;
  const double ring_sec = time_kernel([&] {
    for (int i = 0; i < kBatch; ++i) {
      obs::Event e = ring_bus.make(obs::EventKind::GpIter, "bench");
      e.i1 = i;
      e.d0 = 1.0 + i;
      ring_bus.emit(e);
    }
  }) / kBatch;

  // Streamed emit: ring + NDJSON serialization + write() per event.
  obs::EventBus stream_bus;
  double stream_sec = 0.0;
  if (stream_bus.open_stream("/dev/null")) {
    stream_sec = time_kernel([&] {
      for (int i = 0; i < kBatch; ++i) {
        obs::Event e = stream_bus.make(obs::EventKind::GpIter, "bench");
        e.i1 = i;
        e.d0 = 1.0 + i;
        stream_bus.emit(e);
      }
    }) / kBatch;
    stream_bus.close_stream();
  }

  // Full-flow wall time, stream off vs on (min of k, arms interleaved so
  // drift hits both equally). The tiny design keeps the pair under a second.
  auto flow_sec = [](bool stream) {
    auto ctx = std::make_shared<obs::ObsContext>();
    if (stream) ctx->events().open_stream("/dev/null");
    obs::ScopedBind bind(ctx.get());
    Design d = generate_benchmark(tiny_spec(17));
    FlowOptions opt = routability_driven_options();
    opt.obs = ctx;
    PlacementFlow flow(opt);
    const auto t0 = std::chrono::steady_clock::now();
    flow.run(d);
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
  };
  // Median of PER-PAIR ratios, not a ratio of per-arm minima: the flow runs
  // ~200 ms with several-percent scheduler jitter, so min(on)/min(off)
  // inherits the jitter of whichever arm got luckier and flirted with the
  // absolute 1.02 ceiling on an idle machine. Adjacent off/on runs share
  // machine state, so their ratio cancels drift, and the median shrugs off
  // a single hiccup while staying centered on the true overhead.
  double off_sec = 1e300, on_sec = 1e300;
  std::vector<double> pair_ratios;
  flow_sec(false);  // warm caches/pool before timing either arm
  for (int rep = 0; rep < 15; ++rep) {
    // Alternate which arm goes first so monotone drift (thermal, frequency
    // scaling) biases as many pairs down as up instead of all of them up.
    const bool on_first = (rep & 1) != 0;
    const double first = flow_sec(on_first);
    const double second = flow_sec(!on_first);
    const double off = on_first ? second : first;
    const double on = on_first ? first : second;
    off_sec = std::min(off_sec, off);
    on_sec = std::min(on_sec, on);
    if (off > 0.0) pair_ratios.push_back(on / off);
  }
  const double ratio = median_of(pair_ratios);

  const double events_per_sec = ring_sec > 0.0 ? 1.0 / ring_sec : 0.0;
  std::printf("\nevent bus overhead\n");
  std::printf("  emit (ring only)      %8.1f ns/event (%.2e events/sec)\n",
              ring_sec * 1e9, events_per_sec);
  std::printf("  emit (NDJSON stream)  %8.1f ns/event\n", stream_sec * 1e9);
  std::printf("  flow stream off/on    %.3fs / %.3fs (ratio %.4f)\n",
              off_sec, on_sec, ratio);

  const char* json_path = std::getenv("RP_BENCH_JSON");
  if (json_path != nullptr && json_path[0] != '\0') {
    std::ofstream json(json_path, std::ios::app);
    if (json.is_open())
      json << "{\"schema\":\"event_bus_overhead\""
           << ",\"events_per_sec\":" << events_per_sec
           << ",\"emit_ns\":" << ring_sec * 1e9
           << ",\"emit_streamed_ns\":" << stream_sec * 1e9
           << ",\"flow_off_sec\":" << off_sec
           << ",\"flow_on_sec\":" << on_sec
           << ",\"overhead_ratio\":" << ratio << "}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_speedup_rows();
  emit_simd_speedup_rows();
  emit_dp_candidate_rows();
  emit_event_bus_rows();
  return 0;
}
