#!/usr/bin/env python3
"""Determinism gate for the parallel + SIMD + incremental kernels.

Runs the full flow on the same generated design across the configuration
matrix the determinism contract covers, and demands that everything
observable is IDENTICAL between every pair:

  run_1: --threads 1,     RP_SIMD=off,  --incremental-eval off
  run_n: --threads <max>, RP_SIMD=auto, --incremental-eval on
  run_s: --threads 1,     RP_SIMD=auto, --incremental-eval on,
         RP_CHECK_INCREMENTAL=1 (every cached/trialed cost self-verifies
         against a from-scratch recompute and aborts on a bit mismatch)

run_1 vs run_n proves thread- AND vector- AND incremental-invariance in
one comparison (run_n's report must count chunks that pool workers ran,
parallel.worker_chunks > 0, and run_1's must count none); run_1 vs run_s
isolates the SIMD/incremental axes at a fixed thread count with the
cross-checker armed. Identical means:

1. the .pl placement files are byte-identical;
2. every snapshot artifact (the manifest and every grid) is byte-identical;
3. report_diff.diff finds no difference between the run reports at zero
   tolerance. It skips only the top-level keys in report_diff.VOLATILE
   (timings, RSS, build stamp, output path, and the "parallel" and "simd"
   provenance blocks), so every counter and the event count
   (events.emitted) must match too.

One more leg pins the flow across commits, not just across
configurations: report_diff.diff must find run_1's report identical to the
committed golden report tests/golden/gen700_s13.report.json. So any change
to a placement, a metric, the GP trace or rounds, a counter or the event
count fails here unless the golden is re-recorded on purpose, from the
repository root:

  mkdir -p /tmp/g && RP_SIMD=off build/src/core/routplace --gen 700 \
      --seed 13 --rounds 2 --threads 1 --incremental-eval off \
      --out /tmp/g/out.pl --snapshot-dir /tmp/g/snapshots \
      --report-json tests/golden/gen700_s13.report.json

Usage: check_threads_determinism.py <routplace> [threads]
Exit code 0 on success. `threads` defaults to max(4, hardware).
"""

import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from report_diff import diff

FAILURES = []

GOLDEN_REPORT = (Path(__file__).resolve().parent.parent
                 / "tests" / "golden" / "gen700_s13.report.json")


def check(cond, what):
    if not cond:
        FAILURES.append(what)
    return cond


def run_flow(routplace, outdir, threads, env=None, extra_args=()):
    outdir.mkdir()
    report = outdir / "run.report.json"
    snap = outdir / "snapshots"
    cmd = [str(routplace), "--gen", "700", "--seed", "13", "--rounds", "2",
           "--threads", str(threads), "--out", str(outdir / "out.pl"),
           "--report-json", str(report), "--snapshot-dir", str(snap)]
    cmd += list(extra_args)
    run_env = dict(os.environ)
    run_env.update(env or {})
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=280,
                          env=run_env)
    label = outdir.name
    if not check(proc.returncode == 0,
                 f"routplace [{label}] exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}"):
        return None
    check(report.exists(), f"[{label}]: report not written")
    check((snap / "manifest.json").exists(),
          f"[{label}]: snapshots not written")
    return outdir


def compare_trees(dir_a, dir_b):
    """Byte-compare every file present in either tree (recursive)."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    check(files_a == files_b,
          f"file sets differ ({dir_a.name} vs {dir_b.name}): "
          f"only-a={sorted(map(str, files_a - files_b))} "
          f"only-b={sorted(map(str, files_b - files_a))}")
    for rel in sorted(files_a & files_b):
        if rel.name == "run.report.json":
            continue  # reports are compared semantically below
        check(filecmp.cmp(dir_a / rel, dir_b / rel, shallow=False),
              f"'{rel}' differs between {dir_a.name} and {dir_b.name}")


def load_report(run):
    return json.loads((run / "run.report.json").read_text())


def compare_reports(what, doc_a, doc_b):
    diffs = diff(doc_a, doc_b)
    return check(not diffs, f"{what}: {len(diffs)} report difference(s):\n"
                 + "\n".join(f"    {p}: {a} -> {b}" for p, a, b, _ in diffs[:40]))


def compare_runs(run_a, run_b):
    """Apply checks 1-3 of the contract to one pair of runs."""
    compare_trees(run_a, run_b)
    compare_reports(f"{run_a.name} vs {run_b.name}", load_report(run_a),
                    load_report(run_b))


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__)
        return 2
    routplace = Path(sys.argv[1])
    if not routplace.exists():
        print(f"check_threads_determinism: '{routplace}' not found")
        return 2
    max_threads = int(sys.argv[2]) if len(sys.argv) == 3 \
        else max(4, os.cpu_count() or 1)

    with tempfile.TemporaryDirectory(prefix="rp_threads_det_") as tmp:
        tmp = Path(tmp)
        run_1 = run_flow(routplace, tmp / "t1", 1,
                         env={"RP_SIMD": "off"},
                         extra_args=["--incremental-eval", "off"])
        run_n = run_flow(routplace, tmp / "tN", max_threads,
                         env={"RP_SIMD": "auto"},
                         extra_args=["--incremental-eval", "on"])
        run_s = run_flow(routplace, tmp / "t1simd", 1,
                         env={"RP_SIMD": "auto", "RP_CHECK_INCREMENTAL": "1"},
                         extra_args=["--incremental-eval", "on"])
        if run_1 is None or run_n is None or run_s is None:
            print("\n".join(FAILURES))
            return 1

        compare_runs(run_1, run_n)
        compare_runs(run_1, run_s)

        # Golden leg: run_1 must still reproduce the committed report.
        rep_1, rep_n, rep_s = map(load_report, (run_1, run_n, run_s))
        compare_reports(
            f"run_1 vs the golden report {GOLDEN_REPORT.name} (re-record it "
            f"as this script's docstring says only if the change is intended)",
            json.loads(GOLDEN_REPORT.read_text()), rep_1)

        # Sanity: the runs really exercised the asymmetric configurations
        # (the asymmetry is the point).
        check(rep_n["parallel"]["threads"] == max_threads,
              f"report says threads={rep_n['parallel']['threads']}, "
              f"expected {max_threads}")
        check(rep_n["parallel"]["worker_chunks"] > 0,
              "tN report: no pool worker ran a chunk "
              "(parallel.worker_chunks == 0)")
        for label, rep in (("t1", rep_1), ("t1simd", rep_s)):
            check(rep["parallel"]["worker_chunks"] == 0,
                  f"{label} report: parallel.worker_chunks "
                  f"{rep['parallel']['worker_chunks']} != 0 on one thread")
        check(rep_1["simd"]["requested"] == "off"
              and rep_1["simd"]["active"] == "scalar",
              f"t1 run did not run scalar kernels: {rep_1['simd']}")
        check(rep_n["simd"]["requested"] == "auto",
              f"tN run did not request auto dispatch: {rep_n['simd']}")
        check(rep_1["simd"]["incremental_eval"] is False,
              "t1 run unexpectedly used incremental eval")
        check(rep_n["simd"]["incremental_eval"] is True
              and rep_s["simd"]["incremental_eval"] is True,
              "tN/t1simd runs did not use incremental eval")

    if FAILURES:
        print("check_threads_determinism: FAILED")
        for f in FAILURES:
            print(f"  - {f}")
        return 1
    print(f"check_threads_determinism: OK (threads 1/{max_threads} x "
          f"RP_SIMD off/auto x incremental off/on: placement, snapshots, "
          f"and report all identical; run_1 matches {GOLDEN_REPORT.name})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
