#!/usr/bin/env python3
"""NDJSON progress-stream and flight-recorder contract check.

Runs the routplace binary twice:

  1. A successful run with `--progress-ndjson` + `--report-json` and
     validates the live event stream:
       * every line is a standalone JSON object with schema "rp_progress",
         version 1, and a known "event" kind (the stream has no other
         schema);
       * "seq" counts 0,1,2,... with no gaps and "t_ms" is monotone
         non-decreasing (the two volatile fields — everything else in a line
         is deterministic, see util/event_bus.hpp);
       * the stream opens with run_begin and closes with run_end;
       * stage_begin/stage_end lines pair up stack-wise per stage name;
       * gp_iter lines carry finite hpwl/overflow payloads and their count
         matches the report's counters;
       * the line count equals the report's "events.emitted" total — the
         cross-check that the stream did not drop or duplicate events.

  2. A run on a malformed Bookshelf input with `--flight-json` +
     `--progress-ndjson`, which must exit 3 (ParseError) and leave
       * a terminal "error" event as the stream's last line, and
       * a valid flight document: schema "rp_flight" v1, reason ParseError,
         events_total consistent with the events array, every ring entry
         carrying seq/t_ms/event/label/i/d fields, and a counter snapshot.

Usage: check_progress.py /path/to/routplace [--keep]
Exit code 0 on success; prints every failed expectation otherwise.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

FAILURES = []

EVENT_KINDS = {
    "run_begin", "run_end", "stage_begin", "stage_end", "gp_iter",
    "route_round", "watchdog", "guard", "parse_repair", "error",
}


def check(cond, what):
    if not cond:
        FAILURES.append(what)
    return cond


def load_ndjson(path, what):
    """Parse an NDJSON file into a list of dicts; every line must be a
    complete JSON object on its own (a tailing reader sees whole events)."""
    lines = []
    text = Path(path).read_text()
    for i, raw in enumerate(text.splitlines()):
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            FAILURES.append(f"{what}: line {i + 1} is not valid JSON: {e}")
            return None
        if not check(isinstance(obj, dict), f"{what}: line {i + 1} not an object"):
            return None
        lines.append(obj)
    check(text.endswith("\n") or not text,
          f"{what}: stream does not end with a newline")
    return lines


def validate_stream(lines, what):
    """Schema + ordering invariants every rp_progress stream must satisfy."""
    if not check(len(lines) > 0, f"{what}: stream is empty"):
        return
    stacks = {}  # stage name -> open count (begin/end pair up per name)
    prev_t = -math.inf
    for i, ev in enumerate(lines):
        where = f"{what}: line {i + 1}"
        for key in ("schema", "v", "seq", "t_ms", "event"):
            if not check(key in ev, f"{where}: missing '{key}'"):
                return
        check(ev["schema"] == "rp_progress", f"{where}: schema != rp_progress")
        check(ev["v"] == 1, f"{where}: v != 1")
        check(ev["seq"] == i, f"{where}: seq {ev['seq']} != {i} (gap or dup)")
        check(ev["t_ms"] >= prev_t, f"{where}: t_ms went backwards")
        check(math.isfinite(ev["t_ms"]), f"{where}: t_ms not finite")
        prev_t = ev["t_ms"]
        kind = ev["event"]
        if not check(kind in EVENT_KINDS, f"{where}: unknown event '{kind}'"):
            continue
        if kind == "stage_begin":
            stacks[ev.get("stage")] = stacks.get(ev.get("stage"), 0) + 1
        elif kind == "stage_end":
            name = ev.get("stage")
            if check(stacks.get(name, 0) > 0,
                     f"{where}: stage_end '{name}' without open stage_begin"):
                stacks[name] -= 1
        elif kind == "gp_iter":
            for key in ("tag", "level", "outer", "hpwl", "overflow"):
                check(key in ev, f"{where}: gp_iter missing '{key}'")
            check(math.isfinite(ev.get("hpwl", math.nan)) and ev.get("hpwl", -1) > 0,
                  f"{where}: gp_iter hpwl not positive/finite")
            check(math.isfinite(ev.get("overflow", math.nan)),
                  f"{where}: gp_iter overflow not finite")
        elif kind == "route_round":
            for key in ("round", "cells_inflated", "overflow", "rc"):
                check(key in ev, f"{where}: route_round missing '{key}'")
    terminal = lines[-1]["event"]
    check(terminal in ("run_end", "error"),
          f"{what}: last event '{terminal}' is neither run_end nor error")
    if terminal == "run_end":
        # A clean run opens with run_begin and closes every stage it opened;
        # an error unwind may never reach the flow (parse failures) and may
        # legitimately leave the failing stage open.
        check(lines[0]["event"] == "run_begin",
              f"{what}: first event != run_begin")
        open_stages = {k: v for k, v in stacks.items() if v}
        check(not open_stages, f"{what}: unclosed stages at run_end: {open_stages}")


def validate_success_run(binary, tmp):
    stream = tmp / "progress.ndjson"
    report_path = tmp / "report.json"
    cmd = [str(binary), "--gen", "500", "--seed", "11",
           "--out", str(tmp / "out.pl"),
           "--progress-ndjson", str(stream),
           "--report-json", str(report_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if not check(proc.returncode == 0,
                 f"success run: exit {proc.returncode}\n{proc.stderr}"):
        return
    lines = load_ndjson(stream, "success stream")
    if lines is None or not check(len(lines) > 0, "success stream: empty"):
        return
    validate_stream(lines, "success stream")
    check(lines[-1].get("event") == "run_end", "success stream: no run_end")

    try:
        report = json.loads(report_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        FAILURES.append(f"success run: report unreadable: {e}")
        return
    events = report.get("events", {})
    check(events.get("emitted") == len(lines),
          f"report.events.emitted {events.get('emitted')} != "
          f"stream line count {len(lines)}")
    # Convergence points on the stream match the GP iteration counter.
    gp_iters = sum(1 for e in lines if e["event"] == "gp_iter")
    counted = report.get("counters", {}).get("gp.outer_iters")
    check(gp_iters == counted,
          f"stream gp_iter count {gp_iters} != counters.gp.outer_iters {counted}")
    rounds = sum(1 for e in lines if e["event"] == "route_round")
    counted_rounds = report.get("counters", {}).get("gp.inflation_rounds", 0)
    check(rounds == counted_rounds,
          f"stream route_round count {rounds} != "
          f"counters.gp.inflation_rounds {counted_rounds}")


def validate_error_run(binary, tmp):
    bench = tmp / "bad_bench"
    bench.mkdir(exist_ok=True)
    (bench / "m.aux").write_text("RowBasedPlacement : m.nodes m.nets m.pl m.scl\n")
    (bench / "m.nodes").write_text(
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n"
        "  a 1 10\n  b not_a_number 10\n")
    (bench / "m.nets").write_text(
        "UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n")
    (bench / "m.pl").write_text("UCLA pl 1.0\n  a 0 0 : N\n  b 2 0 : N\n")
    (bench / "m.scl").write_text(
        "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n Coordinate : 0\n"
        " Height : 10\n Sitewidth : 1\n Sitespacing : 1\n"
        " SubrowOrigin : 0 NumSites : 100\nEnd\n")

    stream = tmp / "err.ndjson"
    flight = tmp / "flight.json"
    cmd = [str(binary), "--aux", str(bench / "m.aux"),
           "--out", str(tmp / "err.pl"),
           "--progress-ndjson", str(stream),
           "--flight-json", str(flight)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    check(proc.returncode == 3,
          f"error run: exit {proc.returncode}, expected 3 (ParseError)")

    lines = load_ndjson(stream, "error stream")
    if lines is not None and check(len(lines) > 0, "error stream: empty"):
        validate_stream(lines, "error stream")
        last = lines[-1]
        check(last.get("event") == "error", "error stream: last event != error")
        check(last.get("code") == "ParseError",
              f"error stream: terminal code {last.get('code')!r} != ParseError")
        check(last.get("exit_code") == 3,
              "error stream: terminal exit_code != 3")

    if not check(flight.exists(), "error run: no flight.json written"):
        return
    try:
        doc = json.loads(flight.read_text())
    except json.JSONDecodeError as e:
        FAILURES.append(f"flight.json: not valid JSON: {e}")
        return
    check(doc.get("schema") == "rp_flight", "flight: schema != rp_flight")
    check(doc.get("version") == 1, "flight: version != 1")
    check(doc.get("reason") == "ParseError", "flight: reason != ParseError")
    events = doc.get("events", [])
    total = doc.get("events_total", -1)
    check(isinstance(events, list) and events, "flight: events empty")
    check(total >= len(events), "flight: events_total < len(events)")
    check(len(events) <= total, "flight: more events than events_total")
    for i, ev in enumerate(events):
        for key in ("seq", "t_ms", "event", "label", "i", "d"):
            check(key in ev, f"flight events[{i}]: missing '{key}'")
        check(ev.get("event") in EVENT_KINDS,
              f"flight events[{i}]: unknown event {ev.get('event')!r}")
    seqs = [e.get("seq", -1) for e in events]
    check(seqs == sorted(seqs), "flight: events not seq-ordered (oldest first)")
    if events:
        check(events[-1].get("event") == "error",
              "flight: last ring entry is not the terminal error event")
    check(isinstance(doc.get("counters"), dict), "flight: counters missing")
    check(isinstance(doc.get("gauges"), dict), "flight: gauges missing")


def main():
    if len(sys.argv) < 2:
        print("usage: check_progress.py /path/to/routplace [--keep]")
        return 2
    binary = Path(sys.argv[1])
    keep = "--keep" in sys.argv[2:]
    tmp = Path(tempfile.mkdtemp(prefix="rp_check_progress_"))
    try:
        validate_success_run(binary, tmp)
        validate_error_run(binary, tmp)
    finally:
        if keep:
            print(f"artifacts kept in {tmp}")
        else:
            shutil.rmtree(tmp, ignore_errors=True)
    if FAILURES:
        print(f"check_progress: {len(FAILURES)} failure(s)")
        for f in FAILURES:
            print(f"  FAIL: {f}")
        return 1
    print("check_progress: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
