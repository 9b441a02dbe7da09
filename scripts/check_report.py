#!/usr/bin/env python3
"""Telemetry contract check for the routplace binary.

Runs `routplace --gen ... --threads 2 --report-json ... --snapshot-dir` on
a small generated design and validates:
  * the run report against the schema documented in DESIGN.md
    ("Observability"), including cross-checks between the report and the
    summary the binary printed; any NaN/Inf anywhere in the report is an
    error (the C++ JSON writer must emit null for non-finite values, and no
    metric is allowed to be null);
  * a stage_times entry for every flow stage, each multilevel level, and
    the routability rounds;
  * that pool workers ran chunks: parallel.worker_chunks > 0 on that run,
    and 0 on a small --threads 1 run;
  * the absence of the "profile", "resources" and "gauges" blocks (an old
    v2 profiler block, an old v5 sampled timeline and the named values that
    copied eval/gp fields, none of them written any more);
  * the GP history: gp_trace points (with gamma) and one gp_rounds record
    per routability round, numbered 1..n, n = gp.inflation_rounds;
  * the snapshot directory: manifest schema 2 (maps only) and grid-file
    sizes matching the declared dimensions;
  * the failure contract (schema v3): a malformed Bookshelf benchmark must
    exit 3 (ParseError) and still write a report whose "error" block carries
    code/message/where (file:line)/stage/exit_code, plus a "parse" block with
    the parse mode and repair counters, and a --flight-json dump: schema
    "rp_flight" v1, reason ParseError, seq-ordered ring events ending in the
    terminal error event, and the counter snapshot.

Usage: check_report.py /path/to/routplace [--keep]
Exit code 0 on success; prints every failed expectation otherwise.
"""

import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from render_report import read_grid

FAILURES = []


def load_json_strict(path, what):
    """json.loads that rejects NaN/Infinity literals instead of accepting
    them (Python's default is more lenient than the JSON spec)."""
    def bad_constant(name):
        FAILURES.append(f"{what}: non-finite constant '{name}' in JSON")
        return 0.0
    try:
        return json.loads(Path(path).read_text(), parse_constant=bad_constant)
    except json.JSONDecodeError as e:
        FAILURES.append(f"{what}: not valid JSON: {e}")
        return None


def check_finite(obj, where):
    """Recursively fail on NaN/Inf floats anywhere in a parsed document."""
    if isinstance(obj, float):
        check(math.isfinite(obj), f"{where}: non-finite value {obj!r}")
    elif isinstance(obj, dict):
        for k, v in obj.items():
            check_finite(v, f"{where}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            check_finite(v, f"{where}[{i}]")


def check(cond, what):
    if not cond:
        FAILURES.append(what)
    return cond


def expect_keys(obj, keys, where):
    for k in keys:
        check(k in obj, f"{where}: missing key '{k}'")


def validate_report(report, stdout_text):
    expect_keys(report, [
        "schema_version", "tool", "build", "design", "mode", "parallel",
        "options", "eval", "gp", "gp_trace", "gp_rounds", "macro_legal",
        "legal", "dp",
        "stage_times", "stage_total_sec", "counters", "peak_rss_kb",
        "snapshot_dir",
    ], "report")
    if FAILURES:
        return

    check(report["schema_version"] == 6, "report: schema_version != 6")
    check(report["tool"] == "routplace", "report: tool != routplace")

    # v4: the event-bus totals block.
    events = report.get("events")
    if check(isinstance(events, dict), "report.events missing or not an object"):
        expect_keys(events, ["emitted", "flight_capacity"], "report.events")
        check(events.get("emitted", 0) > 0, "report.events.emitted not positive")
        check(events.get("flight_capacity", 0) > 0,
              "report.events.flight_capacity not positive")
    check_finite(report, "report")

    build = report["build"]
    expect_keys(build, ["git_describe", "compiler", "build_type", "flags",
                        "cxx_standard"], "report.build")
    check(bool(build.get("git_describe")), "report.build.git_describe empty")
    check(bool(build.get("compiler")), "report.build.compiler empty")
    check(build.get("cxx_standard", 0) >= 202002,
          "report.build.cxx_standard is not C++20 or later")

    par = report["parallel"]
    expect_keys(par, ["threads", "hardware_threads", "regions", "chunks",
                      "worker_chunks"], "report.parallel")
    check(par.get("threads", 0) >= 1, "report.parallel.threads < 1")
    check(par.get("hardware_threads", 0) >= 1,
          "report.parallel.hardware_threads < 1")
    check(par.get("regions", 0) > 0,
          "report.parallel.regions not positive (kernels never used the pool)")
    check(par.get("chunks", 0) >= par.get("regions", 0),
          "report.parallel.chunks < regions")
    check(par.get("worker_chunks", -1) <= par.get("chunks", 0),
          "report.parallel.worker_chunks > chunks")

    design = report["design"]
    expect_keys(design, ["name", "source", "seed", "cells", "nets", "macros",
                         "die_w", "die_h", "row_height"], "report.design")
    check(design["cells"] > 0, "report.design.cells not positive")

    ev = report["eval"]
    expect_keys(ev, ["hpwl", "scaled_hpwl", "congestion", "route", "legality"],
                "report.eval")
    expect_keys(ev["congestion"], ["rc", "ace_005", "ace_1", "ace_2", "ace_5",
                                   "total_overflow", "overflowed_edges",
                                   "peak_utilization"], "report.eval.congestion")
    check(ev["hpwl"] > 0, "report.eval.hpwl not positive")
    check(ev["scaled_hpwl"] >= ev["hpwl"] - 1e-9,
          "report.eval.scaled_hpwl < hpwl")
    check(ev["legality"]["ok"] is True, "report.eval.legality.ok is not true")

    # Cross-check the report against the human-readable summary: the binary
    # prints HPWL/scaled HPWL/RC with %.4e / %.1f — the JSON must round to
    # the same strings.
    m = re.search(r"HPWL\s+([0-9.e+-]+)", stdout_text)
    if check(m is not None, "stdout: no HPWL line"):
        check(f"{ev['hpwl']:.4e}" == m.group(1),
              f"HPWL mismatch: report {ev['hpwl']:.4e} vs printed {m.group(1)}")
    m = re.search(r"scaled HPWL\s+([0-9.e+-]+)", stdout_text)
    if check(m is not None, "stdout: no scaled HPWL line"):
        check(f"{ev['scaled_hpwl']:.4e}" == m.group(1),
              f"scaled HPWL mismatch: report {ev['scaled_hpwl']:.4e} "
              f"vs printed {m.group(1)}")
    m = re.search(r"RC\s+([0-9.]+)", stdout_text)
    if check(m is not None, "stdout: no RC line"):
        check(f"{ev['congestion']['rc']:.1f}" == m.group(1),
              f"RC mismatch: report {ev['congestion']['rc']:.1f} "
              f"vs printed {m.group(1)}")

    gp = report["gp"]
    expect_keys(gp, ["final_hpwl", "final_overflow", "total_outer", "levels",
                     "inflation_rounds", "mean_inflation"], "report.gp")
    check(gp["total_outer"] > 0, "report.gp.total_outer not positive")
    check(len(report["gp_trace"]) >= gp["levels"],
          "report.gp_trace shorter than the level count")
    for i, pt in enumerate(report["gp_trace"]):
        expect_keys(pt, ["level", "outer", "hpwl", "overflow", "lambda",
                         "gamma", "inflation"], f"report.gp_trace[{i}]")
        check(pt.get("gamma", 0) > 0, f"report.gp_trace[{i}].gamma not positive")
    rounds = report["gp_rounds"]
    check(len(rounds) == gp["inflation_rounds"],
          f"report.gp_rounds has {len(rounds)} records, "
          f"gp.inflation_rounds is {gp['inflation_rounds']}")
    for i, r in enumerate(rounds):
        expect_keys(r, ["round", "rc", "ace_005", "ace_1", "ace_2", "ace_5",
                        "peak_utilization", "total_overflow",
                        "overflowed_edges", "cells_inflated",
                        "mean_inflation"], f"report.gp_rounds[{i}]")
        check(all(type(v) in (int, float) for v in r.values()),
              f"report.gp_rounds[{i}] holds a non-numeric value")
        check(r.get("round") == i + 1,
              f"report.gp_rounds[{i}].round is {r.get('round')}, not {i + 1}")

    check(report["counters"].get("gp.outer_iters", 0) > 0,
          "report.counters.gp.outer_iters not positive")
    check(report["counters"].get("solver.cg_iters", 0) > 0,
          "report.counters.solver.cg_iters not positive")
    check(report["stage_total_sec"] > 0, "report.stage_total_sec not positive")
    check(report["peak_rss_kb"] > 0, "report.peak_rss_kb not positive")
    stages = ["global", "global/clustering", "macro_legal", "legal",
              "detailed", "eval"]
    stages += [f"global/level{lvl}" for lvl in range(gp["levels"])]
    if gp["inflation_rounds"] > 0:
        stages.append("global/level0/routability")
    for stage in stages:
        check(stage in report["stage_times"],
              f"report.stage_times missing '{stage}'")


def validate_retired_blocks(report):
    """Blocks older reports carry and current ones do not: "profile" (the
    in-process profiler's region histograms and pool section), "resources"
    (a v5 sampled RSS/CPU timeline) and "gauges" (named values that copied
    the eval and gp blocks). Stage time lives in stage_times, the top-level
    peak_rss_kb is the process high-water mark, and each former gauge is
    read from its own block."""
    for key in ("profile", "resources", "gauges"):
        check(key not in report, f"report: '{key}' block present (no longer written)")


def validate_parse_block(report, expect_mode):
    """Schema v3 'parse' block: Bookshelf mode + lenient-repair counters."""
    if not check("parse" in report,
                 "report: no 'parse' block for Bookshelf input"):
        return
    parse = report["parse"]
    expect_keys(parse, ["mode", "repairs"], "report.parse")
    if FAILURES:
        return
    check(parse["mode"] == expect_mode,
          f"report.parse.mode '{parse['mode']}' != '{expect_mode}'")
    repairs = parse["repairs"]
    fields = ["dangling_pins", "empty_nets", "duplicate_nodes",
              "synthesized_net_names", "clamped_fixed_cells",
              "count_mismatches", "unknown_pl_nodes", "total"]
    expect_keys(repairs, fields, "report.parse.repairs")
    if FAILURES:
        return
    for f in fields:
        check(isinstance(repairs[f], int) and repairs[f] >= 0,
              f"report.parse.repairs.{f} not a non-negative integer")
    check(repairs["total"] == sum(repairs[f] for f in fields[:-1]),
          "report.parse.repairs.total != sum of the individual counters")


def validate_error_block(report, expect_code, expect_exit):
    """Schema v3 'error' block written by failed runs."""
    if not check("error" in report, "failed run report: no 'error' block"):
        return
    err = report["error"]
    expect_keys(err, ["code", "message", "where", "stage", "exit_code"],
                "report.error")
    if FAILURES:
        return
    check(err["code"] == expect_code,
          f"report.error.code '{err['code']}' != '{expect_code}'")
    check(err["exit_code"] == expect_exit,
          f"report.error.exit_code {err['exit_code']} != {expect_exit}")
    check(bool(err["message"]), "report.error.message empty")
    check(re.search(r":\d+$", err["where"]) is not None,
          f"report.error.where '{err['where']}' is not file:line")
    check(bool(err["stage"]), "report.error.stage empty")


def validate_flight(path):
    """The flight-recorder document dumped on a ParseError exit."""
    if not check(path.exists(), "malformed input: no flight dump written"):
        return
    doc = load_json_strict(path, "flight dump")
    if doc is None:
        return
    check(doc.get("schema") == "rp_flight", "flight: schema != rp_flight")
    check(doc.get("version") == 1, "flight: version != 1")
    check(doc.get("reason") == "ParseError", "flight: reason != ParseError")
    events = doc.get("events")
    if not check(isinstance(events, list) and events, "flight: events empty"):
        return
    check(doc.get("events_total", -1) >= len(events),
          "flight: events_total < len(events)")
    for i, ev in enumerate(events):
        for key in ("seq", "t_ms", "event", "label", "i", "d"):
            check(key in ev, f"flight events[{i}]: missing '{key}'")
    seqs = [ev.get("seq", -1) for ev in events]
    check(seqs == sorted(seqs), "flight: events not seq-ordered (oldest first)")
    check(events[-1].get("event") == "error",
          "flight: last ring entry is not the terminal error event")
    check(isinstance(doc.get("counters"), dict), "flight: counters missing")
    check("gauges" not in doc, "flight: 'gauges' present (no longer written)")


def run_negative_path(binary, tmp):
    """A malformed benchmark must exit 3 (ParseError) and still write a
    schema-valid report whose 'error' block points at the failing file:line,
    and a flight dump."""
    bench = tmp / "badbench"
    bench.mkdir()
    (bench / "m.aux").write_text(
        "RowBasedPlacement : m.nodes m.nets m.wts m.pl m.scl\n")
    # Truncated node record: width present, height missing.
    (bench / "m.nodes").write_text(
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n  a 4 8\n  b 6\n")
    (bench / "m.nets").write_text(
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
        "NetDegree : 2 n0\n  a I : 0 0\n  b O : 0 0\n")
    (bench / "m.wts").write_text("UCLA wts 1.0\n")
    (bench / "m.pl").write_text("UCLA pl 1.0\na 0 0 : N\nb 20 0 : N\n")
    (bench / "m.scl").write_text(
        "UCLA scl 1.0\nNumRows : 1\n"
        "CoreRow Horizontal\n Coordinate : 0\n Height : 8\n Sitewidth : 1\n"
        " SubrowOrigin : 0 NumSites : 100\nEnd\n")

    report_path = tmp / "bad.report.json"
    flight_path = tmp / "bad.flight.json"
    cmd = [str(binary), "--aux", str(bench / "m.aux"),
           "--out", str(tmp / "bad.pl"), "--report-json", str(report_path),
           "--flight-json", str(flight_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    check(proc.returncode == 3,
          f"malformed input: exit {proc.returncode}, expected 3 (ParseError)")
    check("ParseError" in proc.stderr,
          "malformed input: stderr does not mention ParseError")
    validate_flight(flight_path)
    if not check(report_path.exists(),
                 "malformed input: no report written on failure"):
        return
    report = load_json_strict(report_path, "failed-run report")
    if report is None:
        return
    check(report.get("schema_version") == 6,
          "failed-run report: schema_version != 6")
    validate_error_block(report, "ParseError", 3)
    validate_parse_block(report, "strict")
    if "error" in report:
        check("m.nodes" in report["error"].get("where", ""),
              "failed-run report: error.where does not name m.nodes")


def run_single_thread(binary, tmp):
    """On --threads 1 every chunk runs on the calling thread."""
    report_path = tmp / "t1.report.json"
    cmd = [str(binary), "--gen", "200", "--seed", "7", "--rounds", "1",
           "--threads", "1", "--out", str(tmp / "t1.pl"),
           "--report-json", str(report_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if not check(proc.returncode == 0,
                 f"--threads 1 run exited {proc.returncode}"):
        return
    report = load_json_strict(report_path, "--threads 1 report")
    if report is None:
        return
    par = report.get("parallel", {})
    check(par.get("regions", 0) > 0, "--threads 1 report: no parallel regions")
    check(par.get("worker_chunks") == 0,
          f"--threads 1 report: parallel.worker_chunks "
          f"{par.get('worker_chunks')} != 0")


def validate_snapshots(snap_dir, rounds_ran):
    manifest = load_json_strict(snap_dir / "manifest.json", "manifest")
    if manifest is None:
        return
    expect_keys(manifest, ["schema_version", "tool", "maps"], "manifest")
    if FAILURES:
        return
    check(manifest["schema_version"] == 2, "manifest: schema_version != 2")
    check(sorted(p.name for p in snap_dir.iterdir()) == ["manifest.json", "maps"],
          "snapshot dir holds more than manifest.json and maps/")
    check(manifest["tool"] == "routplace-snapshot",
          "manifest: tool != routplace-snapshot")
    check_finite(manifest, "manifest")

    maps = manifest["maps"]
    check(len(maps) > 0, "manifest: no maps captured")
    names_by_stage = {}
    for i, m in enumerate(maps):
        expect_keys(m, ["seq", "stage", "name", "grid", "nx", "ny", "min",
                        "max", "mean", "non_finite"], f"manifest.maps[{i}]")
        if FAILURES:
            return
        check(m["non_finite"] == 0,
              f"manifest.maps[{i}] ({m['stage']}/{m['name']}): "
              f"{m['non_finite']} non-finite grid cells")
        grid_path = snap_dir / m["grid"]
        if check(grid_path.exists(), f"manifest: grid file '{m['grid']}' missing"):
            try:
                nx, ny, vals = read_grid(grid_path)
            except ValueError as e:
                check(False, str(e))
                continue
            check((nx, ny) == (m["nx"], m["ny"]),
                  f"{m['grid']}: dims {nx}x{ny} != manifest {m['nx']}x{m['ny']}")
            check(all(math.isfinite(v) for v in vals),
                  f"{m['grid']}: non-finite cell values")
        names_by_stage.setdefault(m["stage"], set()).add(m["name"])

    # Acceptance contract: density/overflow/inflation per routability round.
    for rnd in range(1, rounds_ran + 1):
        for name in ("density", "overflow", "inflation", "congestion",
                     "demand", "capacity"):
            check(name in names_by_stage.get(f"round{rnd}", set()),
                  f"manifest: round{rnd} missing '{name}' map")
    for name in ("demand", "capacity", "overflow", "congestion", "displacement"):
        check(name in names_by_stage.get("final", set()),
              f"manifest: final stage missing '{name}' map")


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    binary = Path(sys.argv[1])
    if not binary.exists():
        print(f"check_report: binary '{binary}' not found")
        return 2

    rounds = 2
    threads = 2  # >= 2 so pool workers run chunks
    with tempfile.TemporaryDirectory(prefix="rp_check_report_") as tmp:
        tmp = Path(tmp)
        report_path = tmp / "run.report.json"
        snap_dir = tmp / "snapshots"
        cmd = [str(binary), "--gen", "600", "--seed", "7", "--rounds",
               str(rounds), "--threads", str(threads),
               "--out", str(tmp / "out.pl"),
               "--report-json", str(report_path),
               "--snapshot-dir", str(snap_dir)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=280)
        if not check(proc.returncode == 0,
                     f"routplace exited {proc.returncode}:\n{proc.stderr[-2000:]}"):
            print("\n".join(FAILURES))
            return 1
        if not check(report_path.exists(), "report file not written"):
            print("\n".join(FAILURES))
            return 1

        report = load_json_strict(report_path, "report")
        if report is None:
            print("\n".join(FAILURES))
            return 1

        validate_report(report, proc.stdout)
        validate_retired_blocks(report)
        check(report.get("parallel", {}).get("worker_chunks", 0) > 0,
              f"report.parallel.worker_chunks not positive: no pool worker ran "
              f"a chunk (ran with {threads} threads)")
        # Inflation may converge early; only require the rounds that ran.
        ran_rounds = min(rounds, report.get("gp", {}).get("inflation_rounds", 0))
        if check(snap_dir.is_dir(), "snapshot dir not created"):
            validate_snapshots(snap_dir, ran_rounds)
        check("parse" not in report,
              "report: 'parse' block present for generated (non-Bookshelf) input")
        check("error" not in report,
              "report: 'error' block present on a successful run")
        run_single_thread(binary, tmp)
        run_negative_path(binary, tmp)

    if FAILURES:
        print("check_report: FAILED")
        for f in FAILURES:
            print(f"  - {f}")
        return 1
    print("check_report: OK (report schema-valid and consistent)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
