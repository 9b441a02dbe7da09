#pragma once
// Structured (machine-readable) run reports.
//
// A run report is one JSON document capturing everything a single
// PlacementFlow::run produced: the design/seed/options fingerprint, the
// evaluation bundle (HPWL, scaled HPWL, ACE/RC, overflow, legality), per-stage
// stats (GP, macro legal, legal, DP), the full GP convergence trace and one
// record per routability round, the nested stage-time breakdown, a snapshot
// of every telemetry counter, and the process peak RSS. Emitted by
// `routplace --report-json <file>`; checked by scripts/check_report.py,
// diffed by scripts/report_diff.py, and pinned by the committed
// tests/golden/gen700_s13.report.json.
//
// Schema (stable keys; see DESIGN.md "Observability" for the full contract):
//   schema_version, tool, build{git_describe, compiler, build_type, flags,
//   cxx_standard}, design{...}, options{...}, eval{...}, gp{...},
//   gp_trace[...], gp_rounds[...], macro_legal{...}, legal{...}, dp{...},
//   stage_times{...}, stage_total_sec, counters{...},
//   peak_rss_kb, snapshot_dir
//   v3 additions: optional "parse" block (Bookshelf input: mode + per-repair
//   counters) and optional "error" block (failed runs only: code, message,
//   where = failing file:line, stage, exit_code — see util/error.hpp).
//   v4 additions: "events" block (event-bus totals); the parse block's
//   repair counts are now read from the run's ObsContext counters
//   ("parse.repair.*") instead of a RunReportMeta field, and the whole
//   report reads counters through FlowResult::obs when set — so a
//   report for run A is correct even while run B is bound on this thread.
//   v5 additions: an optional "resources" block (a sampled RSS/CPU/pool-busy
//   timeline). It is no longer written; the version stays 5 because the
//   block was always optional. The "gauges" block (named values that copied
//   eval/gp fields) is no longer written either.
//   v6 additions: gp_trace[i].gamma (the WL smoothing width) and the
//   gp_rounds array (per routability round: round, the estimated
//   CongestionMetrics fields, cells_inflated, mean_inflation).

#include <cstdint>
#include <string>

#include "core/flow.hpp"
#include "util/error.hpp"

namespace rp {

/// Provenance the FlowResult itself does not carry.
struct RunReportMeta {
  std::string design;             ///< Design name.
  std::string source;             ///< "bookshelf" | "generated" | "api".
  std::string mode;               ///< "routability" | "wirelength" | "custom".
  std::uint64_t seed = 0;         ///< Generator seed (0 for file input).
  int cells = 0;
  int nets = 0;
  int macros = 0;
  double die_w = 0.0;
  double die_h = 0.0;
  double row_height = 0.0;
  /// Bookshelf provenance ("strict"/"lenient"; empty for generated input —
  /// empty suppresses the report's "parse" block). Repair COUNTS are no
  /// longer carried here: they live in the run's ObsContext ("parse.repair.*"
  /// counters) and the report reads them from there.
  std::string parse_mode;
};

/// A failed run's classification for the report's "error" block.
struct RunErrorInfo {
  bool failed = false;   ///< False: no "error" block is written.
  std::string code;      ///< "ParseError" | "ValidationError" | ...
  std::string message;
  std::string where;     ///< Failing file:line (input or source).
  std::string stage;     ///< Pipeline stage ("parse", "gp/level2", ...).
  int exit_code = 0;

  static RunErrorInfo from(const Error& e) {
    return {true, e.code_name(), e.message(), e.where(), e.stage(), e.exit_code()};
  }
};

/// Fill a RunReportMeta's design-shape fields from a Design.
RunReportMeta make_report_meta(const Design& d, const std::string& source,
                               const std::string& mode, std::uint64_t seed);

/// Serialize the run report document (pretty-printed, indent 2).
std::string run_report_json(const RunReportMeta& meta, const FlowOptions& opt,
                            const FlowResult& r, const RunErrorInfo& err = {});

/// Write run_report_json() to a file; returns false (and logs) on failure.
bool write_run_report(const std::string& path, const RunReportMeta& meta,
                      const FlowOptions& opt, const FlowResult& r,
                      const RunErrorInfo& err = {});

}  // namespace rp
