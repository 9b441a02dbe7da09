#!/usr/bin/env python3
"""Campaign smoke test (the campaign_smoke ctest).

Drives scripts/campaign.py over the real routplace binary and checks:

  * an 8-run 2x2x2-seed campaign exits 0 with every run's artifacts
    (report.json at schema_version 6 with a positive peak_rss_kb,
    status.json, out.pl, the two logs);
  * re-running the finished directory resumes all 8 runs and leaves
    campaign.json byte-identical; editing one status.json's args, and
    overwriting another with a non-object, re-runs those two runs only;
  * Ctrl-C on the campaign's process group records no in-flight run as
    finished, so the next invocation runs them again;
  * a fresh directory gives a byte-identical campaign.json and the same
    printed table;
  * a grid cell with a malformed --aux exits 1 and is recorded as exit 3
    ParseError with the report's error block and the flight dump, and a
    resume keeps those recorded exit codes;
  * grid expansion (ids, args, the no-axes cell "all") and status_name,
    through the script imported as a module;
  * malformed JSON exits 3 and every illegal spec exits 4, both before a
    runs/ directory exists.

Usage: campaign_smoke.py <routplace> [--keep]
Exit code 0 on success; prints every failed expectation otherwise.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import campaign  # noqa: E402

SCRIPT = Path(__file__).resolve().parent / "campaign.py"
FAILURES = []


def check(cond, what):
    if not cond:
        FAILURES.append(what)
    return cond


def campaign_argv(spec_path, out_dir, routplace):
    return [sys.executable, str(SCRIPT), "--spec", str(spec_path),
            "--out", str(out_dir), "--routplace", str(routplace), "--jobs", "2"]


def invoke(spec_path, out_dir, routplace):
    return subprocess.run(campaign_argv(spec_path, out_dir, routplace),
                          capture_output=True, text=True, timeout=300)


def executed_ids(stdout):
    """Ids of the runs an invocation executed rather than resumed."""
    return [line.split()[0] for line in stdout.splitlines()
            if line.startswith("  ") and " exit " in line
            and "(resumed)" not in line]


def table(stdout):
    return [line for line in stdout.splitlines() if line.startswith("|")]


def validate_run_dirs(camp_dir, runs):
    for r in runs:
        rdir = camp_dir / r["dir"]
        for name in ("report.json", "status.json", "out.pl", "stdout.log",
                     "stderr.log"):
            check((rdir / name).exists(), f"{r['id']}: missing {name}")
        if (rdir / "report.json").exists():
            report = json.loads((rdir / "report.json").read_text())
            check(report.get("schema_version") == 6,
                  f"{r['id']}: report schema_version != 6")
            check(report.get("peak_rss_kb", 0) > 0,
                  f"{r['id']}: peak_rss_kb not positive")


def grid_legs(routplace, tmp):
    spec_path = tmp / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "smoke", "base": {"gen": 200, "rounds": 1},
        "axes": {"mode": ["routability", "wirelength"], "threads": [1, 2]},
        "seeds": [1, 2]}) + "\n")
    dir_a, dir_b = tmp / "campA", tmp / "campB"

    proc = invoke(spec_path, dir_a, routplace)
    check(proc.returncode == 0,
          f"campaign A: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    manifest_path = dir_a / "campaign.json"
    if not check(manifest_path.exists(), "campaign A: no campaign.json"):
        return
    manifest = json.loads(manifest_path.read_text())
    check(manifest.get("schema") == "rp_campaign", "manifest: schema != rp_campaign")
    text = manifest_path.read_text()
    for banned in ("time", "date", "duration", "elapsed", "host"):
        check(banned not in text, f"manifest holds volatile-looking '{banned}'")
    check(manifest.get("total") == 8 and manifest.get("ok") == 8,
          f"manifest: total/ok {manifest.get('total')}/{manifest.get('ok')} != 8/8")
    validate_run_dirs(dir_a, manifest.get("runs", []))
    table_a = table(proc.stdout)
    check(len(table_a) == 2 + 4 and all("| 2/2 |" in row for row in table_a[2:]),
          f"campaign A: expected 4 cell rows at 2/2 ok:\n{proc.stdout}")

    bytes_a = manifest_path.read_bytes()
    proc = invoke(spec_path, dir_a, routplace)
    check(proc.returncode == 0, f"resume: exit {proc.returncode}\n{proc.stderr}")
    check(proc.stdout.count("(resumed)") == 8,
          f"resume: expected 8 resumed runs, stdout:\n{proc.stdout}")
    check(manifest_path.read_bytes() == bytes_a,
          "resume: campaign.json changed on a finished campaign")

    edited_id, garbled_id = manifest["runs"][3]["id"], manifest["runs"][5]["id"]
    status_path = dir_a / "runs" / edited_id / "status.json"
    status = json.loads(status_path.read_text())
    status["args"].append("--verbose")
    status_path.write_text(json.dumps(status))
    (dir_a / "runs" / garbled_id / "status.json").write_text("[]")
    proc = invoke(spec_path, dir_a, routplace)
    rerun = executed_ids(proc.stdout)
    check(proc.returncode == 0 and rerun == [edited_id, garbled_id],
          f"edited status.json: expected {edited_id} and {garbled_id} re-run, "
          f"got {rerun}\n{proc.stderr[-2000:]}")
    check(manifest_path.read_bytes() == bytes_a,
          "edited status.json: re-run changed campaign.json")

    proc = invoke(spec_path, dir_b, routplace)
    check(proc.returncode == 0, f"campaign B: exit {proc.returncode}\n{proc.stderr}")
    check((dir_b / "campaign.json").read_bytes() == bytes_a,
          "campaign.json differs between two invocations of the same spec")
    check(table(proc.stdout) == table_a,
          "printed table differs between two invocations of the same spec")


def failure_leg(routplace, tmp):
    # An aux naming too few files is a ParseError at bad.aux:1, raised
    # before any referenced file is opened.
    bad_aux = tmp / "bad.aux"
    bad_aux.write_text("RowBasedPlacement : only.nodes\n")
    spec_path = tmp / "fail_spec.json"
    spec_path.write_text(json.dumps({
        "name": "smoke-fail", "base": {"gen": 200, "rounds": 0},
        "axes": {"aux": [None, str(bad_aux)]}, "seeds": [1]}) + "\n")
    dir_f = tmp / "campF"
    proc = invoke(spec_path, dir_f, routplace)
    check(proc.returncode == 1, f"failure campaign: exit {proc.returncode}, expected 1")
    if not check((dir_f / "campaign.json").exists(), "failure campaign: no manifest"):
        return
    runs = json.loads((dir_f / "campaign.json").read_text()).get("runs", [])
    failed = [r for r in runs if r.get("status") != "ok"]
    if check(len(failed) == 1, f"failure campaign: {len(failed)} failed runs, expected 1"):
        r = failed[0]
        check(r.get("exit_code") == 3 and r.get("status") == "ParseError",
              f"failed run: exit {r.get('exit_code')} status {r.get('status')!r}")
        check((r.get("error") or {}).get("code") == "ParseError",
              f"failed run: error block missing or wrong: {r.get('error')}")
        check(r.get("artifacts", {}).get("flight") is True,
              "failed run: flight dump not recorded in the manifest")
    check(any("| aux-bad.aux | 0/1 |" in row for row in table(proc.stdout)),
          f"failure campaign: table lacks the failed cell:\n{proc.stdout}")
    bytes_f = (dir_f / "campaign.json").read_bytes()
    proc = invoke(spec_path, dir_f, routplace)
    check(proc.returncode == 1 and proc.stdout.count("(resumed)") == 2
          and (dir_f / "campaign.json").read_bytes() == bytes_f,
          "failure campaign: resume did not keep the recorded exit codes")


def interrupt_leg(routplace, tmp):
    # Ctrl-C in a terminal signals the whole foreground process group: the
    # script and every child it started.
    spec_path = tmp / "int_spec.json"
    spec_path.write_text(json.dumps({
        "name": "smoke-int", "base": {"gen": 2000, "rounds": 1},
        "seeds": [1, 2, 3, 4]}) + "\n")
    dir_i = tmp / "campI"
    proc = subprocess.Popen(campaign_argv(spec_path, dir_i, routplace),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    deadline = time.monotonic() + 120
    while (time.monotonic() < deadline and proc.poll() is None
           and not any((dir_i / "runs").glob("*/stdout.log"))):
        time.sleep(0.05)
    time.sleep(0.5)
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGINT)
    proc.communicate(timeout=300)
    check(proc.returncode == 128 + signal.SIGINT,
          f"interrupt: campaign exit {proc.returncode}, expected 130")
    finished = sorted(p.parent.name for p in (dir_i / "runs").glob("*/status.json"))
    check(len(finished) < 4, "interrupt: every run finished before the SIGINT")
    for run_id in finished:
        st = json.loads((dir_i / "runs" / run_id / "status.json").read_text())
        check(st.get("exit_code") == 0,
              f"interrupt: {run_id} recorded as finished with exit "
              f"{st.get('exit_code')}")
    rerun = invoke(spec_path, dir_i, routplace)
    resumed = sorted(line.split()[0] for line in rerun.stdout.splitlines()
                     if "(resumed)" in line)
    check(rerun.returncode == 0 and resumed == finished
          and len(executed_ids(rerun.stdout)) == 4 - len(finished),
          f"interrupt: resume ran {executed_ids(rerun.stdout)} and resumed "
          f"{resumed}, expected to resume exactly {finished}\n{rerun.stdout}")


def module_legs():
    spec = campaign.parse_spec(json.dumps({
        "base": {"gen": 100},
        "axes": {"skip-dp": [None, True], "inflate-rate": [0.45, 2]},
        "seeds": [7]}))
    got = [(r["id"], r["args"]) for r in campaign.expand_grid(spec)]
    want = [
        ("inflate-rate-0.45_skip-dp-off__s7",
         ["--gen", "100", "--inflate-rate", "0.45", "--seed", "7"]),
        ("inflate-rate-0.45_skip-dp-on__s7",
         ["--gen", "100", "--inflate-rate", "0.45", "--skip-dp", "--seed", "7"]),
        ("inflate-rate-2_skip-dp-off__s7",
         ["--gen", "100", "--inflate-rate", "2", "--seed", "7"]),
        ("inflate-rate-2_skip-dp-on__s7",
         ["--gen", "100", "--inflate-rate", "2", "--skip-dp", "--seed", "7"]),
    ]
    check(got == want, f"grid expansion: got {got}")
    spec = campaign.parse_spec('{"base": {"gen": 50}}')
    runs = campaign.expand_grid(spec)
    check(spec["name"] == "campaign" and [(r["cell"], r["id"]) for r in runs]
          == [("all", "all__s1")], f"no-axes spec: got {spec['name']}, {runs}")
    check(campaign.parse_spec('{"seeds": [3, 1, 2]}')["seeds"] == [3, 1, 2],
          "seeds do not keep spec order")
    names = ["ok", "not_legal", "usage_error", "ParseError", "ValidationError",
             "NumericError", "ResourceError", "Interrupted"]
    check([campaign.status_name(c) for c in range(8)] == names,
          "status_name: taxonomy codes 0..7 misnamed")
    check(campaign.status_name(128 + 9) == "signal_9", "status_name: signal 9")
    check(campaign.status_name(42) == "failed_42", "status_name: exit 42")
    check(campaign.status_name(-1) == "failed_-1", "status_name: exit -1")


def spec_error_legs(routplace, tmp):
    cases = [
        ("truncated JSON", '{"base": {"gen": 200,', 3),
        ("reserved flag", '{"base": {"seed": 3}}', 4),
        ("retired flag", '{"base": {"profile": true}}', 4),
        ("unknown flag", '{"axes": {"bogus": [1, 2]}}', 4),
        ("bad value", '{"axes": {"mode": ["routability", "foo"]}}', 4),
        ("duplicate seed", '{"seeds": [1, 1]}', 4),
        ("negative seed", '{"seeds": [-2]}', 4),
        ("unknown key", '{"sseeds": [1]}', 4),
        ("empty axis", '{"axes": {"mode": []}}', 4),
        ("base and axes", '{"base": {"mode": "routability"},'
                          ' "axes": {"mode": ["wirelength"]}}', 4),
        ("non-scalar value", '{"base": {"gen": [200]}}', 4),
        ("seed beyond a double", '{"seeds": [1' + '0' * 400 + ']}', 4),
        ("value beyond a double", '{"base": {"gen": 1' + '0' * 400 + '}}', 4),
    ]
    for i, (what, text, want) in enumerate(cases):
        spec_path = tmp / f"bad_spec{i}.json"
        spec_path.write_text(text)
        out = tmp / f"bad{i}"
        proc = invoke(spec_path, out, routplace)
        check(proc.returncode == want,
              f"{what}: exit {proc.returncode}, expected {want}\n{proc.stderr}")
        check(not (out / "runs").exists(), f"{what}: runs/ was created")


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    routplace = Path(sys.argv[1])
    keep = "--keep" in sys.argv[2:]
    if not routplace.exists():
        print(f"campaign_smoke: '{routplace}' not found")
        return 2
    tmp = Path(tempfile.mkdtemp(prefix="rp_campaign_smoke_"))
    try:
        module_legs()
        spec_error_legs(routplace, tmp)
        grid_legs(routplace, tmp)
        failure_leg(routplace, tmp)
        interrupt_leg(routplace, tmp)
    finally:
        if keep:
            print(f"artifacts kept in {tmp}")
        else:
            shutil.rmtree(tmp, ignore_errors=True)
    if FAILURES:
        print(f"campaign_smoke: {len(FAILURES)} failure(s)")
        for f in FAILURES:
            print(f"  FAIL: {f}")
        return 1
    print("campaign_smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
