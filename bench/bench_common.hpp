#pragma once
// Shared plumbing for the per-table / per-figure bench binaries.
//
// Every binary regenerates one table or figure of the paper's evaluation
// (see DESIGN.md, "Experiment index"). They all run on the deterministic
// synthetic suite from gen/suite.cpp.
//
// Environment knobs:
//   RP_BENCH_QUICK=1        shrink the suite (~1/8 of the cells) for smoke runs.
//   RP_BENCH_JSON=<file>    append one run-report JSON line per flow run
//                           (same schema as `routplace --report-json`), so the
//                           perf-trajectory tooling consumes bench output
//                           without scraping tables.
//   RP_THREADS=<n>          pool size, as for routplace (default: every
//                           hardware thread); placements do not depend on it.

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/run_report.hpp"
#include "gen/generator.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/parallel.hpp"
#include "util/profiler.hpp"

namespace rp::bench {

inline bool quick_mode() {
  const char* q = std::getenv("RP_BENCH_QUICK");
  return q != nullptr && q[0] == '1';
}

/// The evaluation suite, honoring RP_BENCH_QUICK.
inline std::vector<BenchmarkSpec> suite() {
  std::vector<BenchmarkSpec> s = paper_suite();
  if (quick_mode()) {
    for (auto& spec : s) {
      spec.num_std_cells = std::max(500, spec.num_std_cells / 8);
      spec.num_macros = std::max(3, spec.num_macros / 2);
    }
  }
  return s;
}

struct FlowRun {
  std::string bench;
  std::string flow;
  FlowResult result;
};

/// Append `run`'s report as one JSON line to $RP_BENCH_JSON (no-op if unset).
inline void maybe_emit_report(const BenchmarkSpec& spec, const FlowRun& run,
                              const FlowOptions& opt, const Design& d) {
  const char* path = std::getenv("RP_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  RunReportMeta meta = make_report_meta(d, "generated", run.flow, spec.seed);
  meta.design = run.bench;
  std::ofstream out(path, std::ios::app);
  if (!out) {
    RP_WARN("RP_BENCH_JSON: cannot open '%s'", path);
    return;
  }
  out << run_report_json(meta, opt, run.result, /*indent=*/0) << "\n";
  // With RP_PROFILE on, also append one profile_region row per region so
  // bench_trend.py tracks kernel latency quantiles alongside flow metrics;
  // the regions are the run's own, in its context.
  obs::ScopedBind bind(run.result.obs.get());
  out << profiler::region_jsonl_rows(run.bench, run.flow);
}

/// Run one flow variant on a freshly generated instance of `spec`.
inline FlowRun run_flow(const BenchmarkSpec& spec, const std::string& flow_name,
                        const FlowOptions& opt) {
  // Opt-in profiling for bench runs (the CLI path does this in run_cli).
  if (profiler::env_requested() && !profiler::enabled()) profiler::set_enabled(true);
  parallel::reset_pool_profile();  // the pool profile is process-wide; count this run only
  Design d = generate_benchmark(spec);
  PlacementFlow flow(opt);
  FlowRun r;
  r.bench = spec.name;
  r.flow = flow_name;
  r.result = flow.run(d);
  maybe_emit_report(spec, r, opt, d);
  return r;
}

/// Geometric mean of a list of positive values (0 entries skipped).
inline double geomean(const std::vector<double>& v) {
  double s = 0;
  int n = 0;
  for (const double x : v) {
    if (x > 0) {
      s += std::log(x);
      ++n;
    }
  }
  return n > 0 ? std::exp(s / n) : 0.0;
}

/// Every paper bench starts here: sizes the pool by routplace's policy
/// (RP_THREADS, else every hardware thread) and prints the header, with the
/// thread count the runtimes below were measured at.
inline void banner(const char* id, const char* what) {
  parallel::set_num_threads(parallel::resolve_threads(0));
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, what);
  std::printf("(synthetic suite; see DESIGN.md for the substitution rationale)\n");
  std::printf("threads: %d\n", parallel::num_threads());
  if (quick_mode()) std::printf("[RP_BENCH_QUICK=1: reduced-size smoke run]\n");
  std::printf("==============================================================\n");
}

}  // namespace rp::bench
