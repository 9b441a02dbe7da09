// Figure 7 — scalability.
//
// Runtime of the full routability-driven flow (with per-stage split), peak
// memory and quality versus design size, 1k → 32k std cells. The
// paper-series claims near-linear scaling of the multilevel analytical
// engine; the "s/kcell" column makes that visible directly. "peak MB" is the
// process's peak RSS after the run: sizes ascend, so that high-water mark is
// the run's own peak.

#include <cstdio>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

int main() {
  using namespace rp;
  using namespace rp::bench;
  Logger::set_level(LogLevel::Warn);
  banner("Fig. 7", "runtime scaling vs design size (routability-driven flow)");

  std::vector<int> sizes = {1000, 2000, 4000, 8000, 16000, 32000};
  if (quick_mode()) sizes = {500, 1000, 2000};

  TableWriter t({"cells", "GP s", "legal s", "DP s", "eval s", "total s", "s/kcell",
                 "peak MB", "HPWL", "overflow", "legal?"});
  for (const int n : sizes) {
    BenchmarkSpec spec = medium_spec(77);
    spec.name = "scale-" + std::to_string(n);
    spec.num_std_cells = n;
    spec.num_macros = std::max(4, n / 2000);
    spec.track_supply = 1.0;
    const FlowRun r = run_flow(spec, "routability", routability_driven_options());
    const FlowResult& fr = r.result;
    t.row({std::to_string(n), TableWriter::num(fr.times.get("global"), 1),
           TableWriter::num(fr.times.get("macro_legal") + fr.times.get("legal"), 2),
           TableWriter::num(fr.times.get("detailed"), 2),
           TableWriter::num(fr.times.get("eval"), 2),
           TableWriter::num(fr.times.total(), 1),
           TableWriter::num(1000.0 * fr.times.total() / n, 2),
           TableWriter::num(telemetry::peak_rss_kb() / 1024.0, 1),
           TableWriter::eng(fr.eval.hpwl),
           TableWriter::num(fr.eval.congestion.total_overflow, 0),
           fr.eval.legality.ok() ? "yes" : "NO"});
  }
  std::fputs(t.str().c_str(), stdout);
  return 0;
}
