#!/usr/bin/env python3
"""Campaign orchestration smoke test (the sweep_smoke ctest).

Drives the real `rp_sweep` binary through a tiny 2x2x2-seed campaign and
asserts the cross-run observability contract end to end:

  * the campaign completes with exit 0 and every run directory holds the
    captured artifacts (report.json with a positive peak_rss_kb,
    status.json);
  * re-running the FINISHED campaign directory is a no-op: every run is
    resumed (no child respawned) and campaign.json is byte-identical;
  * a second invocation into a FRESH directory produces a byte-identical
    campaign.json — the manifest is a pure function of (spec, results);
  * `render_report.py --campaign` renders the dashboard and writes
    campaign_summary.json whose deterministic content (quality; runtime
    and RSS scrubbed as documented volatile) matches between the two
    invocations;
  * a campaign with a deliberately failing grid cell (--aux pointing at a
    malformed benchmark) exits 1, RECORDS the failed run in the manifest
    with exit code 3 / status ParseError / the report's error block, and
    the failure shows up in the rendered failure matrix.

All child exit codes are taken from subprocess.run (never shell pipelines,
whose $? reports the last pipe stage).

Usage: sweep_smoke.py <rp_sweep> <routplace> <render_report.py> [--keep]
Exit code 0 on success; prints every failed expectation otherwise.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

FAILURES = []

# Documented-volatile metrics: wall time and memory move between two
# invocations of the same campaign; quality must not.
VOLATILE_SUMMARY_METRICS = {"runtime_sec", "peak_rss_kb"}


def check(cond, what):
    if not cond:
        FAILURES.append(what)
    return cond


def run(cmd, timeout=240):
    return subprocess.run([str(c) for c in cmd], capture_output=True,
                          text=True, timeout=timeout)


def write_spec(path, extra_axes=None):
    spec = {
        "name": "smoke",
        "base": {"gen": 200, "rounds": 1},
        "axes": extra_axes if extra_axes is not None else {
            "mode": ["routability", "wirelength"],
            "threads": [1, 2],
        },
        "seeds": [1, 2],
    }
    path.write_text(json.dumps(spec, indent=1) + "\n")
    return spec


def scrubbed_summary(path):
    doc = json.loads(path.read_text())
    for cell in doc.get("cells", []):
        cell["metrics"] = {k: v for k, v in cell["metrics"].items()
                           if k not in VOLATILE_SUMMARY_METRICS}
    return doc


def validate_run_dirs(camp_dir, runs):
    for r in runs:
        rdir = camp_dir / r["dir"]
        for name in ("report.json", "status.json", "out.pl"):
            check((rdir / name).exists(), f"{r['id']}: missing {name}")
        report_path = rdir / "report.json"
        if not report_path.exists():
            continue
        report = json.loads(report_path.read_text())
        check(report.get("schema_version") == 5,
              f"{r['id']}: report schema_version != 5")
        check(report.get("peak_rss_kb", 0) > 0,
              f"{r['id']}: peak_rss_kb not positive")


def main():
    if len(sys.argv) < 4:
        print(__doc__)
        return 2
    rp_sweep, routplace = Path(sys.argv[1]), Path(sys.argv[2])
    render_report = Path(sys.argv[3])
    keep = "--keep" in sys.argv[4:]
    for p in (rp_sweep, routplace, render_report):
        if not p.exists():
            print(f"sweep_smoke: '{p}' not found")
            return 2

    tmp = Path(tempfile.mkdtemp(prefix="rp_sweep_smoke_"))
    try:
        spec_path = tmp / "spec.json"
        write_spec(spec_path)
        dir_a, dir_b = tmp / "campA", tmp / "campB"

        # --- first invocation: 2 (mode) x 2 (threads) x 2 seeds = 8 runs.
        proc = run([rp_sweep, "--spec", spec_path, "--out", dir_a,
                    "--routplace", routplace, "--jobs", "2"])
        check(proc.returncode == 0,
              f"campaign A: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        manifest_path = dir_a / "campaign.json"
        if not check(manifest_path.exists(), "campaign A: no campaign.json"):
            print("\n".join(f"  FAIL: {f}" for f in FAILURES))
            return 1
        manifest_a = json.loads(manifest_path.read_text())
        check(manifest_a.get("schema") == "rp_campaign",
              "manifest: schema != rp_campaign")
        check(manifest_a.get("total") == 8,
              f"manifest: total {manifest_a.get('total')} != 8")
        check(manifest_a.get("ok") == 8,
              f"manifest: ok {manifest_a.get('ok')} != 8")
        validate_run_dirs(dir_a, manifest_a.get("runs", []))

        # --- resume: re-running the finished directory is a no-op.
        bytes_before = manifest_path.read_bytes()
        proc = run([rp_sweep, "--spec", spec_path, "--out", dir_a,
                    "--routplace", routplace, "--jobs", "2"])
        check(proc.returncode == 0,
              f"campaign A resume: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        check(proc.stdout.count("(resumed)") == 8,
              f"resume: expected 8 resumed runs, stdout:\n{proc.stdout}")
        check(manifest_path.read_bytes() == bytes_before,
              "resume: campaign.json changed on a finished campaign")

        # --- determinism: a fresh directory yields the same manifest bytes.
        proc = run([rp_sweep, "--spec", spec_path, "--out", dir_b,
                    "--routplace", routplace, "--jobs", "2"])
        check(proc.returncode == 0,
              f"campaign B: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        check((dir_b / "campaign.json").read_bytes() == bytes_before,
              "campaign.json differs between two invocations of the same spec")

        # --- dashboards: render both, compare the deterministic content.
        for d in (dir_a, dir_b):
            proc = run([sys.executable, render_report, "--campaign", d])
            check(proc.returncode == 0,
                  f"render --campaign {d.name}: exit {proc.returncode}\n"
                  f"{proc.stderr[-2000:]}")
            for name in ("campaign.html", "campaign_summary.json"):
                check((d / name).exists(), f"{d.name}: {name} not written")
        if (dir_a / "campaign_summary.json").exists() and \
           (dir_b / "campaign_summary.json").exists():
            check(scrubbed_summary(dir_a / "campaign_summary.json")
                  == scrubbed_summary(dir_b / "campaign_summary.json"),
                  "campaign_summary.json differs (beyond runtime/RSS) "
                  "between invocations")

        # --- failure leg: a grid with one deliberately broken cell.
        # An aux that names too few files is a ParseError at bad.aux:1 —
        # before any referenced file is opened (which would be a
        # ResourceError and a different exit code).
        bad_aux = tmp / "bad.aux"
        bad_aux.write_text("RowBasedPlacement : only.nodes\n")
        fail_spec = tmp / "fail_spec.json"
        spec = {
            "name": "smoke-fail",
            "base": {"gen": 200, "rounds": 0},
            "axes": {"aux": [None, str(bad_aux)]},
            "seeds": [1],
        }
        fail_spec.write_text(json.dumps(spec) + "\n")
        dir_f = tmp / "campF"
        proc = run([rp_sweep, "--spec", fail_spec, "--out", dir_f,
                    "--routplace", routplace, "--jobs", "2"])
        check(proc.returncode == 1,
              f"failure campaign: exit {proc.returncode}, expected 1")
        fman = json.loads((dir_f / "campaign.json").read_text())
        failed = [r for r in fman.get("runs", []) if r.get("status") != "ok"]
        if check(len(failed) == 1,
                 f"failure campaign: {len(failed)} failed runs, expected 1"):
            r = failed[0]
            check(r.get("exit_code") == 3,
                  f"failed run: exit_code {r.get('exit_code')} != 3")
            check(r.get("status") == "ParseError",
                  f"failed run: status {r.get('status')!r} != 'ParseError'")
            err = r.get("error") or {}
            check(err.get("code") == "ParseError",
                  f"failed run: manifest error block missing/wrong: {err}")
            check(r.get("artifacts", {}).get("flight") is True,
                  "failed run: flight dump not recorded in the manifest")
        proc = run([sys.executable, render_report, "--campaign", dir_f])
        check(proc.returncode == 0,
              f"render failure campaign: exit {proc.returncode}\n{proc.stderr}")
        if (dir_f / "campaign.html").exists():
            page = (dir_f / "campaign.html").read_text()
            check("Failure matrix" in page and "ParseError" in page,
                  "failure campaign page does not show the failed cell")
        if (dir_f / "campaign_summary.json").exists():
            sdoc = json.loads((dir_f / "campaign_summary.json").read_text())
            check(len(sdoc.get("failures", [])) == 1
                  and sdoc["failures"][0].get("error", {}).get("code")
                  == "ParseError",
                  "campaign_summary failures[] does not carry the error block")
    finally:
        if keep:
            print(f"artifacts kept in {tmp}")
        else:
            shutil.rmtree(tmp, ignore_errors=True)

    if FAILURES:
        print(f"sweep_smoke: {len(FAILURES)} failure(s)")
        for f in FAILURES:
            print(f"  FAIL: {f}")
        return 1
    print("sweep_smoke: all checks passed (8-run campaign deterministic, "
          "resume no-op, dashboards rendered, failure leg recorded)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
