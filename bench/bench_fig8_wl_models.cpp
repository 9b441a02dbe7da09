// Figure 8 — wirelength-model study (WA vs LSE).
//
// Two parts:
//  (a) accuracy: |model − HPWL| / HPWL for WA and LSE across a γ sweep on
//      random netlists (WA must sit strictly below LSE at every γ — the
//      paper-series' theoretical claim);
//  (b) speed: median wall time of a full model+gradient evaluation.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "gen/generator.hpp"
#include "model/wirelength.hpp"
#include "util/logger.hpp"

namespace {

rp::PlaceProblem bench_problem() {
  rp::Logger::set_level(rp::LogLevel::Error);
  rp::BenchmarkSpec spec = rp::small_spec(88);
  spec.num_std_cells = 4000;
  const rp::Design d = rp::generate_benchmark(spec);
  return rp::make_problem(d);
}

void accuracy_table() {
  using namespace rp;
  const PlaceProblem p = bench_problem();
  const double hp = p.hpwl();
  std::printf("\n(a) model error vs gamma (relative to HPWL %.4e, %d nets)\n", hp,
              p.num_nets());
  std::printf("%10s %14s %14s %10s\n", "gamma", "LSE err", "WA err", "WA/LSE");
  for (const double frac : {0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    const double gamma = frac * 9.0;  // in row heights
    LseWirelength lse(gamma);
    WaWirelength wa(gamma);
    const double le = std::abs(lse.value(p) - hp) / hp;
    const double we = std::abs(wa.value(p) - hp) / hp;
    std::printf("%10.2f %13.4f%% %13.4f%% %10.3f\n", gamma, 100 * le, 100 * we,
                le > 0 ? we / le : 0.0);
  }
}

/// Median wall time of `reps` calls of fn(), in milliseconds.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  std::sort(ms.begin(), ms.end());
  const std::size_t n = ms.size();
  return n % 2 ? ms[n / 2] : 0.5 * (ms[n / 2 - 1] + ms[n / 2]);
}

void speed_table() {
  using namespace rp;
  const PlaceProblem p = bench_problem();
  constexpr int kReps = 51;
  LseWirelength lse(9.0);
  WaWirelength wa(9.0);
  std::vector<double> gx(p.nodes.size()), gy(p.nodes.size());
  volatile double sink = 0;  // keeps every timed result observable
  const auto model_eval = [&](const WirelengthModel& m) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    sink = sink + m.eval(p, gx, gy);
  };
  const double lse_ms = median_ms(kReps, [&] { model_eval(lse); });
  const double wa_ms = median_ms(kReps, [&] { model_eval(wa); });
  const double hpwl_ms = median_ms(kReps, [&] { sink = sink + p.hpwl(); });
  const double pins = static_cast<double>(p.pins.size());
  std::printf("\n(b) evaluation speed (median of %d, %zu pins)\n", kReps, p.pins.size());
  std::printf("%-22s %10s %12s\n", "kernel", "ms/eval", "Mpins/s");
  const auto row = [&](const char* name, double ms) {
    std::printf("%-22s %10.3f %12.1f\n", name, ms, ms > 0 ? pins / (ms * 1e3) : 0.0);
  };
  row("LSE value+gradient", lse_ms);
  row("WA value+gradient", wa_ms);
  row("exact HPWL", hpwl_ms);
  std::printf("WA/LSE time ratio: %.2f\n", lse_ms > 0 ? wa_ms / lse_ms : 0.0);
}

}  // namespace

int main() {
  std::printf("==============================================================\n");
  std::printf("Fig. 8 — wirelength models: WA vs LSE accuracy & speed\n");
  std::printf("==============================================================\n");
  accuracy_table();
  speed_table();
  return 0;
}
