#!/usr/bin/env python3
"""Run a routplace campaign: a configuration x seed grid described by one
JSON spec, fanned out across child processes.

    {
      "name": "ablation",
      "base": {"gen": 2000, "rounds": 3},                  fixed flags
      "axes": {"mode": ["routability", "wirelength"],
               "threads": [1, 4]},                         varied flags
      "seeds": [1, 2, 3]
    }

A string or number value becomes "--flag value", true a bare "--flag", and
null/false omits the flag from that cell. Axes are sorted by flag; the first
axis varies slowest and seeds are innermost. Flags are checked by routplace
itself: before any run starts, each cell's arguments go once through
`routplace <args> --help`, which runs the real command-line parser and exits
2 on a bad argument. Output paths and --seed belong to this script
(RESERVED below).

Layout (no timestamps anywhere, so a repeated campaign is byte-identical):

    <out>/campaign.json              manifest (schema rp_campaign v1)
    <out>/runs/<cell>__s<seed>/      out.pl report.json flight.json
                                     stdout.log stderr.log status.json

A run whose status.json matches its id and args is not run again, so
re-running a finished campaign only rewrites the identical manifest. An
interrupted run (Ctrl-C, SIGTERM) gets no status.json, so it runs again. Failed
runs are recorded with their exit status and the report's error block.
After the manifest, one markdown row per cell gives ok/runs and the median
[p25, p75] of HPWL, scaled HPWL, RC and routed overflow over its ok runs.

Usage: campaign.py --spec SPEC --out DIR --routplace BIN [--jobs N]
Exit codes: 0 every run ok, 1 some run failed or was not legal, 2 usage,
3 spec parse error, 4 spec validation error, 6 setup resource error,
130 interrupted (no manifest is written).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

PARSE_ERROR, VALIDATION_ERROR, RESOURCE_ERROR, INTERRUPTED = 3, 4, 6, 7

# Flags this script owns: a spec setting them would corrupt the run layout
# or bypass the seeds array.
RESERVED = {"out", "report-json", "flight-json", "snapshot-dir",
            "snapshot-every", "seed", "help", "map"}

STATUS_NAMES = ["ok", "not_legal", "usage_error", "ParseError",
                "ValidationError", "NumericError", "ResourceError",
                "Interrupted"]

# Table columns: label, path into report.json.
METRICS = [("HPWL", ("eval", "hpwl")),
           ("scaled HPWL", ("eval", "scaled_hpwl")),
           ("RC", ("eval", "congestion", "rc")),
           ("overflow", ("eval", "congestion", "total_overflow"))]


class CampaignError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def status_name(exit_code):
    """Exit code -> stable status name (README "Error handling & exit
    codes"); 128+N is signal N."""
    if 0 <= exit_code < len(STATUS_NAMES):
        return STATUS_NAMES[exit_code]
    if exit_code >= 128:
        return f"signal_{exit_code - 128}"
    return f"failed_{exit_code}"


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def format_number(v):
    """Shortest decimal that round-trips (a spec's 0.45 stays "0.45")."""
    v = float(v)
    if v.is_integer() and abs(v) < 9.0e15:
        return str(int(v))
    for prec in range(1, 18):
        text = "%.*g" % (prec, v)
        if float(text) == v:
            break
    return text


def sanitize_label(s):
    """Basename with every byte outside [A-Za-z0-9._+-] turned into '-',
    capped at 48 bytes, so a value is safe in a directory name."""
    base = s.rsplit("/", 1)[-1] or "x"
    safe = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._+-"
    return "".join(chr(b) if b in safe else "-"
                   for b in base.encode())[:48]


def axis_value(v, flag):
    """JSON value -> (argv tail, cell label)."""
    if v is None or v is False:
        return [], "off"
    if v is True:
        return [f"--{flag}"], "on"
    if is_number(v) or isinstance(v, str):
        text = format_number(v) if is_number(v) else v
        return [f"--{flag}", text], sanitize_label(text)
    raise CampaignError(VALIDATION_ERROR,
                        f"value for '{flag}' must be a scalar "
                        "(string/number/bool/null)")


def check_flag(flag):
    if flag in RESERVED:
        raise CampaignError(VALIDATION_ERROR,
                            f"flag '{flag}' is managed by campaign.py (output "
                            "paths and --seed come from the script)")


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def parse_spec(text):
    """Spec text or bytes -> dict(name, base, axes, seeds); base and axes
    hold (flag, values) pairs sorted by flag."""
    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except ValueError as e:
        raise CampaignError(PARSE_ERROR, f"spec: {e}") from None
    if not isinstance(doc, dict):
        raise CampaignError(PARSE_ERROR, "spec: top level must be a JSON object")
    try:
        return check_spec(doc)
    except OverflowError:
        raise CampaignError(VALIDATION_ERROR,
                            "spec: a number is too large for a double") from None


def check_spec(doc):
    unknown = set(doc) - {"name", "base", "axes", "seeds"}
    if unknown:
        raise CampaignError(VALIDATION_ERROR,
                            f"unknown spec key '{min(unknown)}' "
                            "(expected name/base/axes/seeds)")
    name = doc.get("name", "campaign")
    if not isinstance(name, str) or not name:
        raise CampaignError(VALIDATION_ERROR, "'name' must be a non-empty string")
    base, axes = doc.get("base", {}), doc.get("axes", {})
    if not isinstance(base, dict) or not isinstance(axes, dict):
        raise CampaignError(VALIDATION_ERROR,
                            "'base' and 'axes' must be objects keyed by flag")
    spec = {"name": name, "base": [], "axes": []}
    for flag in sorted(base):
        check_flag(flag)
        spec["base"].append((flag, axis_value(base[flag], flag)))
    for flag in sorted(axes):
        check_flag(flag)
        if flag in base:
            raise CampaignError(VALIDATION_ERROR,
                                f"flag '{flag}' appears in both 'base' and 'axes'")
        vals = axes[flag]
        if not isinstance(vals, list) or not vals:
            raise CampaignError(VALIDATION_ERROR,
                                f"axis '{flag}' must be a non-empty array")
        values = [axis_value(v, flag) for v in vals]
        labels = [label for _, label in values]
        if len(set(labels)) != len(labels):
            raise CampaignError(VALIDATION_ERROR,
                                f"axis '{flag}' has two values with one cell label")
        spec["axes"].append((flag, values))
    seeds = doc.get("seeds", [1])
    if not isinstance(seeds, list) or not seeds or not all(
            is_number(s) and s >= 0 and float(s).is_integer() for s in seeds):
        raise CampaignError(VALIDATION_ERROR,
                            "'seeds' must be a non-empty array of "
                            "non-negative integers")
    spec["seeds"] = [int(s) for s in seeds]
    if len(set(spec["seeds"])) != len(seeds):
        raise CampaignError(VALIDATION_ERROR,
                            "duplicate seed (run directories would collide)")
    return spec


def expand_grid(spec):
    """Runs in grid order: first axis slowest, seeds innermost."""
    combos = [[]]
    for flag, values in spec["axes"]:
        combos = [c + [(flag, v)] for c in combos for v in values]
    base_args = [a for _, (argv, _) in spec["base"] for a in argv]
    runs = []
    for combo in combos:
        cell = "_".join(f"{flag}-{label}" for flag, (_, label) in combo) or "all"
        args = base_args + [a for _, (argv, _) in combo for a in argv]
        for seed in spec["seeds"]:
            runs.append({"id": f"{cell}__s{seed}", "cell": cell, "seed": seed,
                         "config": {flag: label for flag, (_, label) in combo},
                         "args": args + ["--seed", str(seed)]})
    return runs


def read_json(path):
    """Parsed document, or None when the file is missing or malformed."""
    try:
        return json.loads(Path(path).read_text(), parse_constant=reject_constant)
    except (OSError, ValueError):
        return None


def dump(doc):
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def resumed_exit_code(run, run_dir):
    """Recorded exit code when status.json matches this run's id and args."""
    st = read_json(run_dir / "status.json")
    if (isinstance(st, dict) and st.get("schema") == "rp_run_status"
            and st.get("id") == run["id"] and is_number(st.get("exit_code"))
            and st.get("args") == run["args"]):
        return int(st["exit_code"])
    return None


def execute(routplace, run, run_dir, stop):
    """Runs one child; None when the campaign was stopped before it began."""
    if stop.is_set():
        return None
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "status.json").unlink(missing_ok=True)
    argv = [routplace, *run["args"], "--out", str(run_dir / "out.pl"),
            "--report-json", str(run_dir / "report.json"),
            "--flight-json", str(run_dir / "flight.json")]
    with open(run_dir / "stdout.log", "wb") as out, \
         open(run_dir / "stderr.log", "wb") as err:
        code = subprocess.run(argv, stdout=out, stderr=err).returncode
    code = 128 - code if code < 0 else code
    if stop.is_set() or code in (INTERRUPTED, 128 + signal.SIGINT,
                                 128 + signal.SIGTERM):
        return code  # no status.json: a resume runs it again
    status = {"schema": "rp_run_status", "v": 1, "id": run["id"],
              "exit_code": code, "status": status_name(code),
              "args": run["args"]}
    (run_dir / "status.json").write_text(dump(status))
    print(f"campaign: {run['id']} -> {status_name(code)} (exit {code})",
          file=sys.stderr, flush=True)
    return code


def manifest_entry(run, code, run_dir, report):
    entry = {"id": run["id"], "cell": run["cell"], "seed": run["seed"],
             "dir": f"runs/{run['id']}", "config": run["config"],
             "args": run["args"], "exit_code": code,
             "status": status_name(code),
             "artifacts": {"report": (run_dir / "report.json").exists(),
                           "flight": (run_dir / "flight.json").exists()}}
    if isinstance(report, dict) and "error" in report:
        err = report["error"] if isinstance(report["error"], dict) else {}
        entry["error"] = {k: err[k] if isinstance(err.get(k), str) else ""
                          for k in ("code", "message", "where", "stage")}
    return entry


def percentile(sorted_vals, q):
    """Linear interpolation between the closest ranks."""
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def metric(report, path):
    for key in path:
        report = report.get(key) if isinstance(report, dict) else None
    return report if is_number(report) else None


def cell_table(entries, reports):
    """Markdown: one row per cell, median [p25, p75] over its ok runs."""
    rows = ["| cell | ok/runs | " + " | ".join(m for m, _ in METRICS) + " |",
            "|---" * (len(METRICS) + 2) + "|"]
    cells = {}
    for e, report in zip(entries, reports):
        cells.setdefault(e["cell"], []).append((e["status"] == "ok", report))
    for cell, runs in cells.items():
        ok = [report for is_ok, report in runs if is_ok]
        cols = []
        for _, path in METRICS:
            vals = sorted(v for v in (metric(r, path) for r in ok)
                          if v is not None)
            cols.append(f"{percentile(vals, 0.5):.4g} [{percentile(vals, 0.25):.4g}, "
                        f"{percentile(vals, 0.75):.4g}]" if vals else "-")
        rows.append(f"| {cell} | {len(ok)}/{len(runs)} | " + " | ".join(cols) + " |")
    return "\n".join(rows)


def validate_cells(routplace, runs):
    """Each cell's argv through routplace's own parser: `--help` parses the
    whole command line, then exits 0 without placing, or 2 on a bad flag."""
    seen = set()
    for run in runs:
        if run["cell"] in seen:
            continue
        seen.add(run["cell"])
        proc = subprocess.run([routplace, *run["args"], "--help"],
                              capture_output=True, text=True, errors="replace")
        if proc.returncode == 2:
            raise CampaignError(VALIDATION_ERROR,
                                f"cell '{run['cell']}': {proc.stderr.strip()}")
        if proc.returncode != 0:
            raise CampaignError(RESOURCE_ERROR,
                                f"'{routplace} --help' exited {proc.returncode}")


def execute_campaign(spec_path, out_dir, routplace, jobs):
    try:
        text = Path(spec_path).read_bytes()
    except OSError as e:
        raise CampaignError(RESOURCE_ERROR, f"cannot read spec: {e}") from None
    spec = parse_spec(text)
    runs = expand_grid(spec)
    if not os.access(routplace, os.X_OK):
        raise CampaignError(RESOURCE_ERROR,
                            f"routplace binary not found: '{routplace}'")
    validate_cells(routplace, runs)
    try:
        (out_dir / "runs").mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise CampaignError(RESOURCE_ERROR,
                            f"cannot create campaign directory: {e}") from None

    dirs = [out_dir / "runs" / r["id"] for r in runs]
    codes = [resumed_exit_code(r, d) for r, d in zip(runs, dirs)]
    resumed = [c is not None for c in codes]
    todo = [i for i, c in enumerate(codes) if c is None]
    stop = threading.Event()
    try:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            try:
                for i, code in zip(todo, pool.map(
                        lambda i: execute(routplace, runs[i], dirs[i], stop),
                        todo)):
                    codes[i] = code
            except BaseException:
                stop.set()  # queued runs do not start; running ones record nothing
                raise
    except OSError as e:
        raise CampaignError(RESOURCE_ERROR, f"run setup failed: {e}") from None

    reports = [read_json(d / "report.json") for d in dirs]
    entries = [manifest_entry(*z) for z in zip(runs, codes, dirs, reports)]
    ok = sum(e["status"] == "ok" for e in entries)
    manifest = {"schema": "rp_campaign", "v": 1, "name": spec["name"],
                "total": len(entries), "ok": ok, "failed": len(entries) - ok,
                "seeds": spec["seeds"],
                "base": {flag: label for flag, (_, label) in spec["base"]},
                "axes": [{"flag": flag, "labels": [label for _, label in values]}
                         for flag, values in spec["axes"]],
                "runs": entries}
    try:
        (out_dir / "campaign.json").write_text(dump(manifest))
    except OSError as e:
        raise CampaignError(RESOURCE_ERROR, f"cannot write manifest: {e}") from None

    print(f"\ncampaign '{spec['name']}': {len(entries)} run(s): {ok} ok, "
          f"{len(entries) - ok} failed ({len(todo)} executed, "
          f"{len(entries) - len(todo)} resumed)")
    for e, was_resumed in zip(entries, resumed):
        print(f"  {e['id']:<40} {e['status']:<16} exit {e['exit_code']}"
              + ("  (resumed)" if was_resumed else ""))
        if "error" in e:
            err = e["error"]
            print(f"      {err['code']}: {err['message']} [{err['where']}]")
    print(f"manifest: {out_dir / 'campaign.json'}\n")
    print(cell_table(entries, reports))
    return 0 if ok == len(entries) else 1


def main():
    ap = argparse.ArgumentParser(
        description="Run a routplace configuration x seed campaign.")
    ap.add_argument("--spec", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--routplace", required=True)
    ap.add_argument("--jobs", type=int, default=0,
                    help="max concurrent runs (default: CPU count)")
    args = ap.parse_args()
    jobs = args.jobs if args.jobs > 0 else os.cpu_count() or 1
    try:
        return execute_campaign(args.spec, args.out, args.routplace, jobs)
    except CampaignError as e:
        print(f"campaign: {e}", file=sys.stderr)
        return e.code
    except KeyboardInterrupt:
        print("campaign: interrupted; re-run to resume", file=sys.stderr)
        return 128 + signal.SIGINT


if __name__ == "__main__":
    sys.exit(main())
