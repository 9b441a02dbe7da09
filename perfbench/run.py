#!/usr/bin/env python3
"""Full-size placement-flow benchmark; BENCHMARK.json names its metrics.

    python3 perfbench/run.py --workload congested_rdp_t4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/flowbench from the repository's src/ into
.bench_build/perfbench, then runs placement jobs of the workload, one
process per job (so each job's peak RSS is its own):

  --trace 0  untraced PlacementFlow::run jobs until --seconds have passed
             (at least one); prints every end-to-end metric, the median
             over the jobs.
  --trace 1  one untraced job, the same job on 1 thread (the serial
             baseline behind parallel.t1_flow_s and parallel.speedup), then
             one traced job (the flow rebuilt from its public stage calls, a
             span around each); prints every per-layer metric and the span
             tree with self times.

The workload instances are pinned (generator seed 3, see flowbench.cpp), so
--seed is recorded with each result but does not change the inputs: every
job of a workload must reproduce the same placement and quality exactly.

A job fails unless all of these hold:
  * the placement is legal, no cell failed legalization, every metric is
    finite;
  * its placement hash equals that of the run's other jobs and the hash
    earlier runs in this checkout recorded in .bench_build/perfbench/
    ledger.json for the same design and flow at any thread count (so the
    1-thread job must agree with the workload's own thread count);
  * a traced job's composed-flow hash equals the untraced job's hash;
  * the workload stays in its regime: congested_rdp_* route to RC >= 103
    with overflow > 0 after all inflation rounds; open_wl_t4 routes with
    zero overflow and RC < 100.
The last stdout line is {"correct", "attempted", "failed", "metrics"}.
Full job records land in .bench_build/perfbench/results/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "flowbench"
LEDGER = BUILD / "ledger.json"

# No job may start after this many seconds of a run (each must finish in 180).
JOB_START_LIMIT_S = 100.0
JOB_TIMEOUT_S = 170.0


def build():
    """Configure once, then (re)build flowbench; exits 2 when the build fails."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target", "flowbench"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            sys.stderr.write(f"perfbench: build step failed: {' '.join(cmd)}\n")
            sys.exit(2)


def run_job(workload, mode, threads):
    """One flowbench process (threads 0: the workload's own). Returns
    (record or None, wall seconds, error)."""
    t0 = time.monotonic()
    try:
        p = subprocess.run([str(BINARY), "--workload", workload, "--mode", mode,
                            "--threads", str(threads)],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - t0, "timed out"
    wall = time.monotonic() - t0
    if p.returncode != 0:
        return None, wall, f"exit {p.returncode}: {p.stderr.strip()[-500:]}"
    try:
        return json.loads(p.stdout.strip().splitlines()[-1]), wall, None
    except (ValueError, IndexError):
        return None, wall, "no JSON record on stdout"


def job_problems(job, names):
    """Checks that need only the job itself."""
    m, regime = job["metrics"], job["regime"]
    problems = []
    for n in names:
        v = m.get(n)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"metric {n} missing or not finite ({v!r})")
    if not job["legal"]:
        problems.append("placement not legal")
    if m.get("legal.failed_cells") != 0:
        problems.append(f"{m.get('legal.failed_cells')} cells failed legalization")
    # Overflow is judged by overflowed edges: the summed track overflow of a
    # clean routing can read 1e-14 after floating-point accumulation.
    rc, edges = m.get("rc", math.nan), m.get("route.overflowed_edges", math.nan)
    if regime == "congested":
        if not rc >= 103:
            problems.append(f"regime: RC {rc} < 103")
        if not edges > 0:
            problems.append(f"regime: routed overflow on {edges} edges, expected > 0")
        if job["inflation_rounds"] != job["routability_rounds"]:
            problems.append(f"regime: {job['inflation_rounds']} of "
                            f"{job['routability_rounds']} inflation rounds taken")
    elif regime == "open":
        if edges != 0:
            problems.append(f"regime: routed overflow on {edges} edges, expected 0")
        if not rc < 100:
            problems.append(f"regime: RC {rc} >= 100")
    return problems


def ledger_key(job):
    """Placements are a function of design and flow, never of thread count."""
    return f"{job['design_hash']}/{job['flow']}"


def hash_problems(jobs, ledger):
    """Per job: placement hash against the run's first job and the ledger."""
    ref = jobs[0]["placement_hash"]
    out = []
    for job in jobs:
        h, recorded = job["placement_hash"], ledger.get(ledger_key(job))
        p = []
        if h != ref:
            p.append(f"placement hash {h} != {ref} of this run's first job")
        if recorded is not None and recorded != h:
            p.append(f"placement hash {h} != {recorded} recorded for {ledger_key(job)}")
        out.append(p)
    return out


def span_problems(spans):
    """The traced self times must add up to the root span."""
    root = [s for s in spans if s["parent"] < 0]
    if len(root) != 1:
        return [f"{len(root)} root spans"]
    total = sum(s["self_s"] for s in spans)
    if not math.isclose(total, root[0]["total_s"], rel_tol=1e-9, abs_tol=1e-9):
        return [f"self times sum to {total}, root span is {root[0]['total_s']}"]
    return []


def span_tree_text(spans):
    depth, lines = {}, []
    for i, s in enumerate(spans):
        depth[i] = 0 if s["parent"] < 0 else depth[s["parent"]] + 1
        lines.append(f"# {'  ' * depth[i]}{s['name']:<{28 - 2 * depth[i]}} "
                     f"total {s['total_s']:10.4f} s  self {s['self_s']:10.4f} s")
    return "\n".join(lines)


def load_ledger():
    try:
        return json.loads(LEDGER.read_text())
    except (OSError, ValueError):
        return {}


def save_ledger(ledger):
    tmp = LEDGER.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, LEDGER)


def measure(workload, seconds, trace, spec, use_ledger=True):
    """Run and check the jobs of one benchmark run. Returns (result, record)."""
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]

    def roles():
        """(role, mode, threads) of each job; the serial role is the untraced
        flow on 1 thread."""
        if trace:
            yield from (("flow", "flow", 0), ("serial", "flow", 1), ("traced", "traced", 0))
            return
        start = time.monotonic()
        yield "flow", "flow", 0
        while time.monotonic() - start < min(seconds, JOB_START_LIMIT_S):
            yield "flow", "flow", 0

    jobs, attempted, errors = [], 0, []
    for role, mode, threads in roles():
        attempted += 1
        job, wall, err = run_job(workload, mode, threads)
        if job is None:
            errors.append(f"{role} job: {err}")
            continue
        job["role"] = role
        job["wall_s"] = wall
        jobs.append(job)

    ledger = load_ledger() if use_ledger else {}
    failed = attempted - len(jobs)
    for job in jobs:
        job["problems"] = job_problems(job, e2e if job["mode"] == "flow" else [])
    for job, p in zip(jobs, hash_problems(jobs, ledger) if jobs else []):
        job["problems"] += p
    traced = next((j for j in jobs if j["role"] == "traced"), None)
    serial = next((j for j in jobs if j["role"] == "serial"), None)
    untraced = [j for j in jobs if j["role"] == "flow"]
    if traced is not None:
        traced["problems"] += span_problems(traced["spans"])
        tm = traced["metrics"]
        if untraced:
            tm["trace.overhead_ratio"] = tm["trace.flow_s"] / untraced[0]["metrics"]["flow_s"]
        if serial is not None:
            tm["parallel.t1_flow_s"] = serial["metrics"]["flow_s"]
            if untraced:
                tm["parallel.speedup"] = tm["parallel.t1_flow_s"] / untraced[0]["metrics"]["flow_s"]
        traced["problems"] += job_problems(traced, layer)
    failed += sum(1 for j in jobs if j["problems"])
    errors += [f"{j['role']} job: {p}" for j in jobs for p in j["problems"]]

    if use_ledger and jobs and not errors and ledger_key(jobs[0]) not in ledger:
        ledger[ledger_key(jobs[0])] = jobs[0]["placement_hash"]
        save_ledger(ledger)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    if trace:
        source = [traced] if traced is not None else []
        names = layer
    else:
        source, names = untraced, e2e
    for n in names:
        vals = [j["metrics"][n] for j in source
                if isinstance(j["metrics"].get(n), (int, float))]
        if vals:
            metrics[n] = {"value": statistics.median(vals), "unit": units[n]}
    result = {"correct": failed == 0 and len(metrics) == len(names),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": workload, "trace": trace, "jobs": jobs, "errors": errors,
              "result": result}
    return result, record


def print_run(record, seed):
    jobs = record["jobs"]
    if jobs:
        stamp = dict(jobs[0]["fingerprint"], seed=seed,
                     design_hash=jobs[0]["design_hash"],
                     placement_hash=jobs[0]["placement_hash"])
        print("# fingerprint " + json.dumps(stamp, sort_keys=True))
    for j in jobs:
        m = j["metrics"]
        print(f"# {j['role']:6} job, {j['threads']} threads: wall {j['wall_s']:.2f} s, hpwl {m.get('hpwl', 0):.6e}, "
              f"rc {m.get('rc', 0):.2f}, overflow {m.get('route.overflow', 0):.0f}, "
              f"placement {j['placement_hash']}")
        if "spans" in j:
            print(span_tree_text(j["spans"]))
    for e in record["errors"]:
        print(f"# FAILED {e}")
    r = record["result"]
    print(f"# fail_frac {r['failed']}/{r['attempted']}")


def selftest(spec):
    """Toy-size run of the whole driver: every named metric is emitted with
    its unit, traced self times add up to the root span, and both job kinds
    reproduce one placement."""
    problems = []
    for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        result, record = measure("selftest_tiny", 0, trace, spec, use_ledger=False)
        print_run(record, None)
        problems += record["errors"]
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"result keys {sorted(result)}")
        for m in names:
            got = result["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                problems.append(f"trace {trace}: metric {m['name']} emitted as {got!r}")
        if len(result["metrics"]) != len(names):
            problems.append(f"trace {trace}: {len(result['metrics'])} metrics, "
                            f"expected {len(names)}")
        if not any(j["role"] == "traced" for j in record["jobs"]) and trace:
            problems.append("no traced job ran")
    for p in problems:
        print(f"selftest: {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if not args.selftest and args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")
    build()
    if args.selftest:
        return selftest(spec)

    result, record = measure(args.workload, args.seconds, args.trace, spec)
    if not record["jobs"]:
        for e in record["errors"]:
            sys.stderr.write(f"perfbench: {e}\n")
        return 1
    record["seed"] = args.seed
    out = BUILD / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print_run(record, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
