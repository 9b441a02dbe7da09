#pragma once
// Shared plumbing for the per-table / per-figure bench binaries.
//
// Every binary regenerates one table or figure of the paper's evaluation
// (see DESIGN.md, "Experiment index"). They all run on the deterministic
// synthetic suite from gen/suite.cpp.
//
// Environment knobs:
//   RP_BENCH_QUICK=1        shrink the suite (~1/8 of the cells) for smoke runs.
//   RP_THREADS=<n>          pool size, as for routplace (default: every
//                           hardware thread); placements do not depend on it.

#include <cstdlib>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "gen/generator.hpp"
#include "util/logger.hpp"
#include "util/parallel.hpp"

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

/// Run one flow variant on a freshly generated instance of `spec`.
inline FlowRun run_flow(const BenchmarkSpec& spec, const std::string& flow_name,
                        const FlowOptions& opt) {
  Design d = generate_benchmark(spec);
  PlacementFlow flow(opt);
  FlowRun r;
  r.bench = spec.name;
  r.flow = flow_name;
  r.result = flow.run(d);
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
