#pragma once
// Campaign orchestration for `rp_sweep` — cross-run observability.
//
// A CAMPAIGN is a cartesian grid of routplace configurations × seeds,
// described by one JSON spec:
//
//   {
//     "name": "ablation",
//     "base": { "gen": 2000, "rounds": 3 },          // fixed flags
//     "axes": { "mode": ["routability", "wirelength"],
//               "threads": [1, 4] },                 // varied flags
//     "seeds": [1, 2, 3]
//   }
//
// Axis/base values map to CLI arguments by JSON type: a string or number is
// a flag WITH a value ("--mode routability"), `true` is a bare flag
// ("--skip-dp"), and `null`/`false` OMITS the flag for that cell — which is
// how a grid can mix, say, a generator leg with a deliberately failing
// `--aux bad.aux` leg. Flags are allowlisted: output/orchestration flags
// (--out, --report-json, --seed, ...) belong to the orchestrator and are
// rejected in a spec.
//
// rp_sweep expands the grid, fans runs out across CHILD PROCESSES (at most
// --jobs concurrent), and captures every run's artifacts into a
// deterministic directory layout:
//
//   <campaign>/campaign.json              manifest (schema "rp_campaign" v1)
//   <campaign>/runs/<cell>__s<seed>/      one directory per run:
//       out.pl report.json flight.json (error exits)
//       stdout.log stderr.log status.json
//
// FAILED RUNS ARE RECORDED, NEVER DROPPED: the manifest entry carries the
// child's exit code mapped through the documented exit-code contract
// (util/error.hpp) plus the "error" block copied from the run report, and
// the flight dump stays in the run directory.
//
// DETERMINISM + RESUME. The manifest contains no timestamps or durations —
// for a deterministic placer, two invocations of the same spec produce
// byte-identical campaign.json files (the sweep_smoke ctest enforces this).
// Each run directory gets a status.json after its child exits; re-running a
// campaign directory skips every run whose status.json matches its id+args,
// so re-running a FINISHED campaign is a no-op that only rewrites the
// (identical) manifest.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rp {

/// One axis value, already resolved from its JSON form.
struct AxisValue {
  enum class Kind {
    Omit,   ///< JSON null/false: flag absent in this cell.
    Flag,   ///< JSON true: bare "--flag".
    Value,  ///< JSON string/number: "--flag <text>".
  };
  Kind kind = Kind::Value;
  std::string text;   ///< CLI value (Kind::Value only).
  std::string label;  ///< Cell-id fragment ("off" / "on" / sanitized text).
};

struct SweepAxis {
  std::string flag;  ///< routplace option name, no leading "--".
  std::vector<AxisValue> values;
};

struct SweepSpec {
  std::string name = "campaign";
  std::vector<std::pair<std::string, AxisValue>> base;  ///< Sorted by flag.
  std::vector<SweepAxis> axes;                          ///< Sorted by flag.
  std::vector<std::uint64_t> seeds;                     ///< Spec order.
};

/// One expanded run of the grid.
struct SweepRun {
  std::string id;    ///< "<cell>__s<seed>" — the directory name under runs/.
  std::string cell;  ///< Grid-cell id (axes only; seed excluded).
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, std::string>> config;  ///< axis -> label.
  std::vector<std::string> args;  ///< routplace args (orchestrator output
                                  ///< flags NOT included; run_campaign adds
                                  ///< --out/--report-json/... itself).
};

/// What one run came to. `skipped` marks a resume hit (status.json matched).
struct SweepRunResult {
  SweepRun run;
  bool skipped = false;
  int exit_code = 0;
  std::string status;  ///< sweep_status_name(exit_code).
  bool has_report = false;
  bool has_flight = false;
  bool has_error = false;  ///< Report carried an "error" block:
  std::string error_code, error_message, error_where, error_stage;
};

/// Parse + validate a campaign spec document. `where` names the source (a
/// path) for error messages. Throws Error(ParseError) on malformed JSON and
/// Error(ValidationError) on a structurally valid spec that asks for
/// something illegal (unknown/reserved flag, bad seed, empty axis, ...).
SweepSpec parse_sweep_spec(const std::string& text, const std::string& where);

/// Deterministic cartesian expansion: first axis varies slowest, seeds
/// innermost. Calling twice yields identical vectors.
std::vector<SweepRun> expand_grid(const SweepSpec& spec);

/// Child-process self-reported failures on the fork/exec path (shell
/// convention territory, deliberately above the taxonomy's 3..7): the child
/// could not redirect its stdio into the run directory, or execv failed.
inline constexpr int kSpawnRedirectFailed = 126;
inline constexpr int kSpawnExecFailed = 127;

/// Exit code -> stable status name: 0 "ok", 1 "not_legal", 2 "usage_error",
/// 3..7 the error-taxonomy code names ("ParseError", ...), 126/127
/// "spawn_redirect_failed"/"spawn_exec_failed", 128+N "signal_N", anything
/// else "failed_<code>".
std::string sweep_status_name(int exit_code);

/// Serialize the campaign manifest (schema "rp_campaign" v1). Deterministic:
/// contains no timestamps, durations, or host state.
std::string campaign_manifest_json(const SweepSpec& spec,
                                   const std::vector<SweepRunResult>& results,
                                   int indent = 2);

/// Serialize one run's status.json (schema "rp_run_status" v1).
std::string run_status_json(const SweepRunResult& r);

/// True when `status_json_text` parses as a status document for exactly this
/// run (same id AND same args) — the resume-safety predicate.
bool run_status_matches(const std::string& status_json_text, const SweepRun& run);

struct SweepOptions {
  std::string spec_path;  ///< Campaign spec JSON.
  std::string out_dir;    ///< Campaign directory (created if missing).
  std::string routplace;  ///< Path to the routplace binary.
  int jobs = 0;           ///< Max concurrent children; <= 0 = hardware.
  bool dry_run = false;   ///< Expand + print, execute nothing, write nothing.
};

struct SweepOutcome {
  std::string name;     ///< Campaign name (from the spec).
  int executed = 0;     ///< Children actually spawned.
  int skipped = 0;      ///< Resume hits.
  int ok = 0;           ///< status == "ok".
  int failed = 0;       ///< Everything else.
  std::vector<SweepRunResult> results;  ///< Grid order.
};

/// Execute a campaign end to end: read the spec, expand, fan out, capture,
/// write per-run status.json files and the campaign.json manifest. Throws
/// Error for spec/setup problems (unreadable spec, unwritable directory,
/// missing binary); per-run failures are RESULTS, not exceptions.
SweepOutcome run_campaign(const SweepOptions& opt);

}  // namespace rp
