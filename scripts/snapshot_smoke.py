#!/usr/bin/env python3
"""End-to-end smoke test of the spatial-observability toolchain.

1. Runs the flow on a small generated design with --snapshot-dir and
   --report-json.
2. Renders the HTML dashboard with scripts/render_report.py and sanity-checks
   its content (embedded heatmaps, convergence curves, the rounds table).
3. Runs scripts/report_diff.py on the report/snapshots against themselves
   and demands a zero-diff, zero-exit result.
4. Injects each kind of difference into a copy of the report or of the
   snapshot dir and demands report_diff.py names it with exit 1, or is
   silenced by an adequate tolerance; an unreadable report exits 2.

Usage: snapshot_smoke.py <routplace>
Exit code 0 on success.
"""

import copy
import json
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
FAILURES = []


def check(cond, what):
    if not cond:
        FAILURES.append(what)
    return cond


def run(cmd, what, timeout=280):
    proc = subprocess.run([str(c) for c in cmd], capture_output=True, text=True,
                          timeout=timeout)
    return proc if check(proc.returncode == 0,
                         f"{what} exited {proc.returncode}:\n{proc.stderr[-2000:]}") \
        else None


def report_diff(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "report_diff.py")] + [str(a) for a in args],
        capture_output=True, text=True, timeout=120)


def expect_diff(what, args, code, names=()):
    """report_diff.py <args> must exit `code` and print every string in names."""
    proc = report_diff(*args)
    check(proc.returncode == code,
          f"{what}: exited {proc.returncode} (want {code}):\n"
          f"{proc.stdout[-2000:]}{proc.stderr[-500:]}")
    for name in names:
        check(name in proc.stdout, f"{what}: output does not name '{name}':\n"
              f"{proc.stdout[-2000:]}")


def check_report_diffs(tmp, report):
    doc = json.loads(report.read_text())

    def variant(name, edit):
        d = copy.deepcopy(doc)
        edit(d)
        path = tmp / f"{name}.report.json"
        path.write_text(json.dumps(d))
        return path

    # A metric regression is caught, and an adequate tolerance silences it.
    def regress(d):
        d["eval"]["hpwl"] *= 1.10
        d["eval"]["congestion"]["rc"] += 5.0
    bad = variant("regressed", regress)
    expect_diff("regression", [report, bad], 1,
                ["eval.hpwl", "eval.congestion.rc"])
    expect_diff("tolerant regression",
                [report, bad, "--rel-tol", "0.2", "--abs-tol", "10"], 0)

    # A type change (a bool is never the number 1) and a missing key.
    def retype(d):
        d["eval"]["legality"]["ok"] = 1
        d["gp"]["levels"] = str(d["gp"]["levels"])
        del d["dp"]["swaps"]
    expect_diff("type change + missing key", [report, variant("retyped", retype)],
                1, ["eval.legality.ok: true -> 1", "gp.levels:",
                    "dp.swaps:", "<missing>"])

    # An array length change names the array and the missing element.
    n = len(doc["gp_trace"])
    expect_diff("array length", [report, variant("short", lambda d: d["gp_trace"].pop())],
                1, [f"gp_trace: <array[{n}]> -> <array[{n - 1}]>",
                    f"gp_trace[{n - 1}]:"])

    # A difference in the 11th significant digit prints as two values.
    fine_a, fine_b = tmp / "fine_a.json", tmp / "fine_b.json"
    fine_a.write_text('{"v": 12563.29567}')
    fine_b.write_text('{"v": 12563.295671}')
    expect_diff("11th digit", [fine_a, fine_b], 1,
                ["v: 12563.29567 -> 12563.295671"])

    # Volatile keys are skipped; an unreadable report is an error.
    expect_diff("volatile keys",
                [report, variant("volatile", lambda d: d["stage_times"].clear())], 0)
    garbage = tmp / "garbage.report.json"
    garbage.write_text("{ not json")
    expect_diff("malformed report", [report, garbage], 2)
    expect_diff("absent report", [report, tmp / "absent.report.json"], 2)


def check_snapshot_diffs(tmp, report, snap):
    manifest = json.loads((snap / "manifest.json").read_text())
    m0 = manifest["maps"][0]
    key = f"map:{m0['stage']}/{m0['name']}"

    # One perturbed cell is caught under the map's name and silenced by
    # an adequate tolerance.
    perturbed = tmp / "snap_perturbed"
    shutil.copytree(snap, perturbed)
    grid = perturbed / m0["grid"]
    raw = bytearray(grid.read_bytes())
    (v,) = struct.unpack_from("<d", raw, 12)
    struct.pack_into("<d", raw, 12, v + 0.5)
    grid.write_bytes(bytes(raw))
    expect_diff("perturbed cell", [report, report, "--snapshots", snap, perturbed],
                1, [f"{key}: 1 cells differ"])
    expect_diff("tolerant perturbed cell",
                [report, report, "--snapshots", snap, perturbed, "--abs-tol", "1"], 0)

    # A map missing from one manifest.
    missing = tmp / "snap_missing"
    shutil.copytree(snap, missing)
    short = dict(manifest, maps=manifest["maps"][1:])
    (missing / "manifest.json").write_text(json.dumps(short))
    expect_diff("missing map", [report, report, "--snapshots", snap, missing], 1,
                [f"{key}: <present> -> <missing>"])


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    routplace = Path(sys.argv[1])
    if not routplace.exists():
        print(f"snapshot_smoke: '{routplace}' not found")
        return 2

    with tempfile.TemporaryDirectory(prefix="rp_snapshot_smoke_") as tmp:
        tmp = Path(tmp)
        report = tmp / "run.report.json"
        snap = tmp / "snapshots"
        if run([routplace, "--gen", "500", "--seed", "3", "--rounds", "2",
                "--out", tmp / "out.pl", "--report-json", report,
                "--snapshot-dir", snap], "routplace") is None:
            print("\n".join(FAILURES))
            return 1
        check(report.exists(), "report not written")
        check((snap / "manifest.json").exists(), "snapshot manifest not written")

        # Render the dashboard and check it actually embeds the artifacts.
        html_out = tmp / "run.html"
        if run([sys.executable, SCRIPTS / "render_report.py", report,
                "--snapshots", snap, "-o", html_out],
               "render_report.py") is not None:
            text = html_out.read_text() if html_out.exists() else ""
            check("<html" in text, "dashboard: not HTML")
            check(text.count("data:image/png") >= 5,
                  "dashboard: fewer than 5 embedded heatmaps")
            check("Convergence" in text, "dashboard: no convergence section")
            check("Routability rounds" in text, "dashboard: no rounds table")
            check("Stage times" in text, "dashboard: no stage-time section")

        # Self-diff must be exactly clean.
        proc = report_diff(report, report, "--snapshots", snap, snap)
        check(proc.returncode == 0,
              f"self-diff exited {proc.returncode}:\n{proc.stdout[-2000:]}")
        check(proc.stdout.count("identical") == 2,
              "self-diff did not report both documents 'identical'")

        check_report_diffs(tmp, report)
        check_snapshot_diffs(tmp, report, snap)

    if FAILURES:
        print("snapshot_smoke: FAILED")
        for f in FAILURES:
            print(f"  - {f}")
        return 1
    print("snapshot_smoke: OK (capture -> render -> self-diff -> every "
          "injected difference caught)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
