// Figure 6 — congestion maps before/after routability optimization.
//
// ASCII heat maps of routed edge congestion for the baseline and the
// routability-driven flow on the medium hierarchical benchmark, plus the
// hotspot histogram (edges per utilization bucket) behind the picture.

#include <cstdio>

#include "bench_common.hpp"
#include "core/report.hpp"

int main() {
  using namespace rp;
  using namespace rp::bench;
  Logger::set_level(LogLevel::Warn);
  banner("Fig. 6", "congestion heat maps: baseline vs routability-driven");

  BenchmarkSpec spec = suite()[2];

  for (const bool routability : {false, true}) {
    Design d = generate_benchmark(spec);
    PlacementFlow flow(routability ? routability_driven_options()
                                   : wirelength_driven_options());
    const FlowResult r = flow.run(d);

    // Both views read the grid the flow's eval stage routed.
    std::printf("\n--- %s ---\n", routability ? "routability-driven" : "wl-driven");
    std::fputs(congestion_ascii(d, *r.eval_grid, 64).c_str(), stdout);

    // Histogram of routed edge utilization.
    const auto utils = r.eval_grid->edge_utilizations();
    const double buckets[] = {0.5, 0.8, 0.95, 1.0, 1.05, 1.2, 10.0};
    const char* labels[] = {"<50%", "50-80%", "80-95%", "95-100%", "100-105%",
                            "105-120%", ">120%"};
    int counts[7] = {};
    for (const double u : utils) {
      for (int b = 0; b < 7; ++b) {
        if (u <= buckets[b]) {
          ++counts[b];
          break;
        }
      }
    }
    std::printf("edge-utilization histogram: ");
    for (int b = 0; b < 7; ++b) std::printf("%s:%d ", labels[b], counts[b]);
    std::printf("\n");
  }
  return 0;
}
