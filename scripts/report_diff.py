#!/usr/bin/env python3
"""Compare two routplace run reports, and optionally two snapshot
directories, for regression gating.

Both documents are walked in lockstep and every leaf is compared under a
dotted/indexed path ("eval.congestion.rc", "gp_trace[3].hpwl"). Two numbers
match when

    |a - b| <= abs_tol + rel_tol * max(|a|, |b|)

so the default tolerances of 0 demand equality. A bool is a bool, never the
number 0 or 1. The top-level keys in VOLATILE are skipped: they differ
between two runs that place identically (wall clock, memory, the build
stamp, thread-pool and SIMD-dispatch provenance, the output location).

--snapshots pairs the maps of two snapshot manifests by stage/name and
compares their dimensions and every cell under the same rule.

Usage: report_diff.py A B [--snapshots DA DB] [--rel-tol f] [--abs-tol f]
Exit code: 0 identical within tolerance, 1 differences, 2 usage or
read error.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from render_report import read_grid

VOLATILE = ("build", "parallel", "simd", "stage_times", "stage_total_sec",
            "peak_rss_kb", "snapshot_dir")


def _kind(v):
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, (int, float)):
        return "number"
    if isinstance(v, dict):
        return "object"
    if isinstance(v, list):
        return "array"
    return "string" if isinstance(v, str) else "null"


def _render(v):
    kind = _kind(v)
    if kind == "number":
        return repr(v)
    if kind == "array":
        return f"<array[{len(v)}]>"
    if kind == "object":
        return f"<object{{{len(v)}}}>"
    return json.dumps(v)


def _numbers_differ(a, b, rel_tol, abs_tol):
    if not (math.isfinite(a) and math.isfinite(b)):
        return a != b
    return abs(a - b) > abs_tol + rel_tol * max(abs(a), abs(b))


def diff(a, b, rel_tol=0.0, abs_tol=0.0):
    """Differences between two parsed reports, as (path, a, b, delta) tuples:
    a and b rendered for printing, delta = |a - b| for numbers, else None."""
    out = []

    def walk(path, x, y):
        kx, ky = _kind(x), _kind(y)
        if kx != ky:
            out.append((path, _render(x), _render(y), None))
        elif kx == "object":
            for k in sorted(x.keys() | y.keys()):
                if not path and k in VOLATILE:
                    continue
                p = f"{path}.{k}" if path else k
                if k not in x:
                    out.append((p, "<missing>", _render(y[k]), None))
                elif k not in y:
                    out.append((p, _render(x[k]), "<missing>", None))
                else:
                    walk(p, x[k], y[k])
        elif kx == "array":
            if len(x) != len(y):
                out.append((path, _render(x), _render(y), None))
            for i in range(max(len(x), len(y))):
                p = f"{path}[{i}]"
                if i >= len(x):
                    out.append((p, "<missing>", _render(y[i]), None))
                elif i >= len(y):
                    out.append((p, _render(x[i]), "<missing>", None))
                else:
                    walk(p, x[i], y[i])
        elif kx == "number":
            if _numbers_differ(x, y, rel_tol, abs_tol):
                out.append((path, _render(x), _render(y), abs(x - y)))
        elif x != y:
            out.append((path, _render(x), _render(y), None))

    walk("", a, b)
    return out


def diff_snapshots(dir_a, dir_b, rel_tol=0.0, abs_tol=0.0):
    """Map-by-map differences between two snapshot directories. Raises
    OSError/ValueError/KeyError when a manifest or grid cannot be read."""
    def maps(d):
        manifest = json.loads((Path(d) / "manifest.json").read_text())
        return {f"{m['stage']}/{m['name']}": Path(d) / m["grid"]
                for m in manifest["maps"]}

    maps_a, maps_b = maps(dir_a), maps(dir_b)
    out = []
    for key in sorted(maps_a.keys() | maps_b.keys()):
        path = f"map:{key}"
        if key not in maps_b:
            out.append((path, "<present>", "<missing>", None))
            continue
        if key not in maps_a:
            out.append((path, "<missing>", "<present>", None))
            continue
        nxa, nya, va = read_grid(maps_a[key])
        nxb, nyb, vb = read_grid(maps_b[key])
        if (nxa, nya) != (nxb, nyb):
            out.append((path, f"{nxa}x{nya}", f"{nxb}x{nyb}", None))
            continue
        bad = [abs(x - y) for x, y in zip(va, vb)
               if _numbers_differ(x, y, rel_tol, abs_tol)]
        if bad:
            finite = [d for d in bad if math.isfinite(d)]
            out.append((path, f"{len(bad)} cells differ", f"of {len(va)}",
                        max(finite) if finite else None))
    return out


def print_diffs(title, diffs):
    print(f"{title}:")
    if not diffs:
        print("  identical")
        return
    print(f"  {len(diffs)} difference(s):")
    for path, a, b, delta in diffs:
        tail = f"  (|delta| {delta:.6g})" if delta else ""
        print(f"  {path}: {a} -> {b}{tail}")


def main():
    ap = argparse.ArgumentParser(
        description="Compare two routplace run reports (exit 0 identical "
                    "within tolerance, 1 differences, 2 error).")
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--snapshots", nargs=2, type=Path, metavar=("DA", "DB"),
                    help="also compare two snapshot directories")
    ap.add_argument("--rel-tol", type=float, default=0.0)
    ap.add_argument("--abs-tol", type=float, default=0.0)
    args = ap.parse_args()

    try:
        docs = [json.loads(p.read_text()) for p in (args.a, args.b)]
        found = diff(*docs, args.rel_tol, args.abs_tol)
        print_diffs(f"report diff ({args.a} vs {args.b})", found)
        if args.snapshots:
            da, db = args.snapshots
            snap = diff_snapshots(da, db, args.rel_tol, args.abs_tol)
            print_diffs(f"snapshot diff ({da} vs {db})", snap)
            found += snap
    except (OSError, ValueError, KeyError) as e:
        print(f"report_diff: {e}", file=sys.stderr)
        return 2
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
