// Congestion study: run the wirelength-driven baseline and the
// routability-driven flow on the same benchmark and compare the contest
// metrics side by side — the paper's headline experiment in miniature.
// Also prints ASCII congestion heat maps of both results.
//
//   $ ./examples/congestion_study [num_std_cells] [seed] [track_supply]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/flow.hpp"
#include "gen/generator.hpp"
#include "util/logger.hpp"

int main(int argc, char** argv) {
  using namespace rp;
  Logger::set_level(LogLevel::Warn);

  BenchmarkSpec spec = small_spec(11);
  if (argc > 2 && std::string(argv[1]) == "suite") {
    // "suite <index> [track_supply]": run on a paper-suite entry.
    spec = paper_suite()[static_cast<std::size_t>(std::atoi(argv[2]))];
    if (argc > 3) spec.track_supply = std::atof(argv[3]);
  } else {
    if (argc > 1) spec.num_std_cells = std::atoi(argv[1]);
    if (argc > 2) spec.seed = static_cast<std::uint64_t>(std::atoll(argv[2]));
    if (argc > 3) spec.track_supply = std::atof(argv[3]);
  }

  std::printf("benchmark: %d std cells, %d macros, seed %llu\n\n", spec.num_std_cells,
              spec.num_macros, static_cast<unsigned long long>(spec.seed));

  struct Run {
    const char* name;
    FlowOptions opt;
    FlowResult res;
    std::string map;
  };
  Run runs[2] = {{"WL-driven (baseline)", wirelength_driven_options(), {}, {}},
                 {"Routability-driven", routability_driven_options(), {}, {}}};

  for (Run& r : runs) {
    Design d = generate_benchmark(spec);  // identical instance per flow
    PlacementFlow flow(r.opt);
    r.res = flow.run(d);
    r.map = congestion_ascii(d, *r.res.eval_grid, 48);
  }

  std::printf("%-24s %12s %12s %8s %8s %10s %8s\n", "flow", "HPWL", "scaledHPWL", "RC",
              "peak", "overflow", "time(s)");
  for (const Run& r : runs) {
    std::printf("%-24s %12.4e %12.4e %8.1f %8.2f %10.0f %8.1f\n", r.name, r.res.eval.hpwl,
                r.res.eval.scaled_hpwl, r.res.eval.congestion.rc,
                r.res.eval.congestion.peak_utilization,
                r.res.eval.congestion.total_overflow, r.res.times.total());
  }

  const double oi = runs[0].res.eval.congestion.total_overflow;
  const double oo = runs[1].res.eval.congestion.total_overflow;
  if (oi > 0)
    std::printf("\noverflow reduction: %.1f%%  (HPWL cost: %+.2f%%)\n",
                100.0 * (oi - oo) / oi,
                100.0 * (runs[1].res.eval.hpwl - runs[0].res.eval.hpwl) /
                    runs[0].res.eval.hpwl);

  for (const Run& r : runs) {
    std::printf("\n--- congestion map: %s ('#'>105%%, '+'>95%%, ':'>80%%, 'M' macro) ---\n%s",
                r.name, r.map.c_str());
  }
  return 0;
}
