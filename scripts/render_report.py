#!/usr/bin/env python3
"""Render a routplace run report (+ optional snapshot dir) as a single
self-contained HTML dashboard: headline metrics, the stage-time tree,
convergence curves and a heatmap gallery.

Stdlib only — heatmaps are decoded from the binary .grid files and embedded
as data-URI PNGs written by a minimal zlib-based encoder, convergence curves
are inline SVG.

This script is the one renderer of snapshot maps: routplace writes each map
only as an RPG1 .grid file.

Usage: render_report.py report.json [--snapshots DIR] [-o out.html]

With --campaign <dir> (an rp_sweep output directory holding campaign.json)
the tool renders a COMPARATIVE dashboard over every run in the campaign
instead: per-grid-cell quality/runtime/RSS distributions (five-number box
plots over seeds), seed-variance tables, an HPWL-vs-overflow pareto
scatter, and the failure matrix (cell x seed status grid — failed runs
carry their exit code and error block). Alongside the HTML it writes
campaign_summary.json, a deterministic per-cell aggregate document, into
the campaign directory.

Usage: render_report.py --campaign <dir> [-o out.html]
"""

import argparse
import base64
import html
import json
import math
import struct
import sys
import zlib
from pathlib import Path

# Heat ramp: dark blue -> cyan -> green -> yellow -> red.
RAMP = [(20, 24, 82), (0, 130, 200), (10, 180, 110), (245, 205, 45), (225, 35, 35)]


def heat_color(t):
    if not math.isfinite(t):
        t = 1.0
    t = min(1.0, max(0.0, t))
    s = t * 4.0
    i = min(3, int(s))
    f = s - i
    return tuple(round(RAMP[i][c] + f * (RAMP[i + 1][c] - RAMP[i][c])) for c in range(3))


def read_grid(path):
    """Parse an RPG1 binary grid -> (nx, ny, row-major values)."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"RPG1":
        raise ValueError(f"{path}: bad magic")
    nx, ny = struct.unpack_from("<II", raw, 4)
    vals = struct.unpack_from(f"<{nx * ny}d", raw, 12)
    return nx, ny, vals


def png_encode(width, height, rows):
    """Minimal PNG: 8-bit RGB, no filtering. rows = list of RGB byte rows."""
    def chunk(tag, data):
        body = tag + data
        return struct.pack(">I", len(data)) + body + struct.pack(">I", zlib.crc32(body))

    raw = b"".join(b"\x00" + r for r in rows)
    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(raw, 9))
            + chunk(b"IEND", b""))


def grid_png_datauri(nx, ny, vals, lo=None, hi=None):
    finite = [v for v in vals if math.isfinite(v)]
    if lo is None:
        lo = min(finite) if finite else 0.0
    if hi is None:
        hi = max(finite) if finite else 1.0
    if hi <= lo:
        hi = lo + 1.0
    rows = []
    for iy in range(ny - 1, -1, -1):  # top row = highest y (die orientation)
        row = bytearray()
        for ix in range(nx):
            row += bytes(heat_color((vals[iy * nx + ix] - lo) / (hi - lo)))
        rows.append(bytes(row))
    png = png_encode(nx, ny, rows)
    return "data:image/png;base64," + base64.b64encode(png).decode()


def svg_polyline(series, width=460, height=150, color="#1565c0", log_y=False):
    """One series as an SVG line chart with min/max labels."""
    if not series:
        return "<svg/>"
    vals = [math.log10(max(v, 1e-300)) if log_y else v for v in series]
    vlo, vhi = min(vals), max(vals)
    if vhi <= vlo:
        vhi = vlo + 1.0
    pad = 6
    pts = []
    for i, v in enumerate(vals):
        x = pad + (width - 2 * pad) * (i / max(1, len(vals) - 1))
        y = height - pad - (height - 2 * pad) * ((v - vlo) / (vhi - vlo))
        pts.append(f"{x:.1f},{y:.1f}")
    lab_hi = f"{10 ** vhi:.3g}" if log_y else f"{vhi:.3g}"
    lab_lo = f"{10 ** vlo:.3g}" if log_y else f"{vlo:.3g}"
    return (f'<svg width="{width}" height="{height}" class="chart">'
            f'<rect width="{width}" height="{height}" class="chartbg"/>'
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{" ".join(pts)}"/>'
            f'<text x="{pad}" y="12" class="lab">{lab_hi}</text>'
            f'<text x="{pad}" y="{height - 2}" class="lab">{lab_lo}</text></svg>')


def stage_tree_html(stage_times, total):
    items = []
    for name, sec in stage_times.items():
        depth = name.count("/")
        pct = 100.0 * sec / total if total > 0 else 0.0
        bar = max(0.5, pct)
        items.append(
            f'<div class="stage" style="margin-left:{depth * 18}px">'
            f'<span class="stagename">{html.escape(name.split("/")[-1])}</span>'
            f'<span class="bar" style="width:{bar:.1f}%"></span>'
            f'<span class="stagesec">{sec:.3f}s ({pct:.1f}%)</span></div>')
    return "\n".join(items)


def metric_cards(report):
    ev = report.get("eval", {})
    cong = ev.get("congestion", {})
    gp = report.get("gp", {})
    cards = [
        ("HPWL", f"{ev.get('hpwl', 0):.4e}"),
        ("scaled HPWL", f"{ev.get('scaled_hpwl', 0):.4e}"),
        ("RC", f"{cong.get('rc', 0):.1f}"),
        ("overflow", f"{cong.get('total_overflow', 0):.0f} tracks"),
        ("peak util", f"{cong.get('peak_utilization', 0):.2f}"),
        ("legal", "yes" if ev.get("legality", {}).get("ok") else "NO"),
        ("GP iters", f"{gp.get('total_outer', 0)}"),
        ("inflation", f"{gp.get('mean_inflation', 1):.3f}x"),
    ]
    out = []
    for label, value in cards:
        bad = label == "legal" and value == "NO"
        out.append(f'<div class="card{" bad" if bad else ""}">'
                   f'<div class="cardval">{html.escape(value)}</div>'
                   f'<div class="cardlab">{html.escape(label)}</div></div>')
    return "\n".join(out)


STAGE_COLORS = ["#4a90d9", "#2e7d32", "#c62828", "#8e6bbf", "#d98b2b", "#2b9fa8"]


def gallery_html(snap_dir):
    manifest = json.loads((snap_dir / "manifest.json").read_text())
    by_stage = {}
    for m in manifest.get("maps", []):
        by_stage.setdefault(m["stage"], []).append(m)
    out = []
    for stage, maps in by_stage.items():
        out.append(f'<h3>{html.escape(stage)}</h3><div class="gallery">')
        for m in maps:
            try:
                nx, ny, vals = read_grid(snap_dir / m["grid"])
                uri = grid_png_datauri(nx, ny, vals)
            except (OSError, ValueError) as e:
                out.append(f'<div class="mapcell">unreadable: {html.escape(str(e))}</div>')
                continue
            out.append(
                f'<figure class="mapcell"><img src="{uri}" width="{min(220, nx * 8)}" '
                f'alt="{html.escape(m["name"])}"/>'
                f'<figcaption>{html.escape(m["name"])}<br/>'
                f'<span class="range">[{m.get("min", 0):.3g}, {m.get("max", 0):.3g}]'
                f'</span></figcaption></figure>')
        out.append("</div>")
    return "\n".join(out), manifest


# ------------------------------------------------------------------ campaign

CAMPAIGN_METRICS = [
    # key, label, report extractor, lower-is-better
    ("hpwl", "HPWL", lambda r: r.get("eval", {}).get("hpwl")),
    ("scaled_hpwl", "scaled HPWL", lambda r: r.get("eval", {}).get("scaled_hpwl")),
    ("rc", "RC", lambda r: r.get("eval", {}).get("congestion", {}).get("rc")),
    ("overflow", "overflow",
     lambda r: r.get("eval", {}).get("congestion", {}).get("total_overflow")),
    ("runtime_sec", "runtime (s)", lambda r: r.get("stage_total_sec")),
    ("peak_rss_kb", "peak RSS (kB)", lambda r: r.get("peak_rss_kb")),
]


def percentile(sorted_vals, q):
    """Linear-interpolation percentile over an already-sorted list."""
    if not sorted_vals:
        return None
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = q * (len(sorted_vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1.0 - frac) + sorted_vals[hi] * frac


def five_number(vals):
    s = sorted(vals)
    return {"min": s[0], "p25": percentile(s, 0.25), "median": percentile(s, 0.5),
            "p75": percentile(s, 0.75), "max": s[-1], "n": len(s)}


def load_campaign(campaign_dir):
    """Read campaign.json + every run's report.json (tolerating missing /
    truncated reports from failed runs). Returns (manifest, runs) where each
    run dict gains a "report" key (dict or None)."""
    manifest = json.loads((campaign_dir / "campaign.json").read_text())
    runs = []
    for run in manifest.get("runs", []):
        report = None
        report_path = campaign_dir / run.get("dir", "") / "report.json"
        if report_path.exists():
            try:
                report = json.loads(report_path.read_text())
            except (OSError, json.JSONDecodeError):
                report = None
        runs.append(dict(run, report=report))
    return manifest, runs


def campaign_cells(runs):
    """Group runs by grid cell, preserving manifest (grid) order."""
    cells = {}
    for run in runs:
        cells.setdefault(run["cell"], []).append(run)
    return cells


def cell_stats(cell_runs):
    """Five-number stats per metric over the cell's OK runs."""
    stats = {}
    ok = [r for r in cell_runs if r.get("status") == "ok" and r["report"]]
    for key, _label, extract in CAMPAIGN_METRICS:
        vals = [v for v in (extract(r["report"]) for r in ok)
                if isinstance(v, (int, float)) and math.isfinite(v)]
        if vals:
            stats[key] = five_number(vals)
    return stats


def campaign_summary_doc(manifest, runs):
    """The deterministic aggregate document (campaign_summary.json).
    Volatile metrics (runtime, RSS) are aggregated like the rest — the
    sweep_smoke gate scrubs them before comparing two invocations."""
    cells = campaign_cells(runs)
    cell_docs = []
    for cell, cell_runs in cells.items():
        cell_docs.append({
            "cell": cell,
            "config": dict(cell_runs[0].get("config", [])) if isinstance(
                cell_runs[0].get("config"), list) else cell_runs[0].get("config", {}),
            "seeds": [r["seed"] for r in cell_runs],
            "ok": sum(1 for r in cell_runs if r.get("status") == "ok"),
            "failed": sum(1 for r in cell_runs if r.get("status") != "ok"),
            "metrics": cell_stats(cell_runs),
        })
    failures = [{
        "id": r["id"], "cell": r["cell"], "seed": r["seed"],
        "exit_code": r.get("exit_code"), "status": r.get("status"),
        **({"error": r["error"]} if r.get("error") else {}),
    } for r in runs if r.get("status") != "ok"]
    return {
        "schema": "rp_campaign_summary",
        "version": 1,
        "name": manifest.get("name", "campaign"),
        "total": len(runs),
        "ok": sum(1 for r in runs if r.get("status") == "ok"),
        "failed": len(failures),
        "cells": cell_docs,
        "failures": failures,
    }


def svg_box(stats, lo, hi, width=220, height=18):
    """One horizontal five-number box plot on a shared [lo, hi] scale."""
    span = hi - lo if hi > lo else 1.0
    x = lambda v: 4 + (width - 8) * (v - lo) / span
    mid = height / 2
    parts = [f'<svg width="{width}" height="{height}" class="box">']
    parts.append(f'<line x1="{x(stats["min"]):.1f}" y1="{mid}" '
                 f'x2="{x(stats["max"]):.1f}" y2="{mid}" class="whisker"/>')
    bx, bw = x(stats["p25"]), max(1.0, x(stats["p75"]) - x(stats["p25"]))
    parts.append(f'<rect x="{bx:.1f}" y="2" width="{bw:.1f}" '
                 f'height="{height - 4}" class="iqr"/>')
    mx = x(stats["median"])
    parts.append(f'<line x1="{mx:.1f}" y1="1" x2="{mx:.1f}" '
                 f'y2="{height - 1}" class="median"/>')
    parts.append("</svg>")
    return "".join(parts)


def campaign_distributions_html(cells):
    """Per-metric section: one box plot per cell on a shared scale."""
    parts = []
    for key, label, _extract in CAMPAIGN_METRICS:
        rows = [(cell, stats[key]) for cell, stats in cells.items() if key in stats]
        if not rows:
            continue
        lo = min(s["min"] for _, s in rows)
        hi = max(s["max"] for _, s in rows)
        parts.append(f"<h3>{html.escape(label)}</h3>")
        parts.append('<table class="kv"><tr><td>cell</td><td>distribution</td>'
                     "<td>min</td><td>median</td><td>max</td><td>spread</td></tr>")
        for cell, s in rows:
            spread = (s["max"] - s["min"]) / s["median"] if s["median"] else 0.0
            parts.append(
                f"<tr><td>{html.escape(cell)}</td>"
                f'<td>{svg_box(s, lo, hi)}</td>'
                f"<td>{s['min']:.4g}</td><td>{s['median']:.4g}</td>"
                f"<td>{s['max']:.4g}</td><td>{100 * spread:.2f}%</td></tr>")
        parts.append("</table>")
    return "\n".join(parts)


def campaign_failure_matrix_html(manifest, runs):
    """Cell x seed status grid; every failed run shows exit code + error."""
    seeds = manifest.get("seeds", sorted({r["seed"] for r in runs}))
    cells = campaign_cells(runs)
    by_key = {(r["cell"], r["seed"]): r for r in runs}
    parts = ['<table class="kv"><tr><td>cell \\ seed</td>']
    parts += [f"<td>s{s}</td>" for s in seeds]
    parts.append("</tr>")
    for cell in cells:
        parts.append(f"<tr><td>{html.escape(cell)}</td>")
        for s in seeds:
            r = by_key.get((cell, s))
            if r is None:
                parts.append("<td>—</td>")
            elif r.get("status") == "ok":
                parts.append('<td class="ok">ok</td>')
            else:
                parts.append(f'<td class="fail">{html.escape(r.get("status", "?"))} '
                             f'(exit {r.get("exit_code")})</td>')
        parts.append("</tr>")
    parts.append("</table>")
    failed = [r for r in runs if r.get("status") != "ok"]
    if failed:
        parts.append("<h3>Failure detail</h3><table class='kv'>"
                     "<tr><td>run</td><td>exit</td><td>error</td></tr>")
        for r in failed:
            err = r.get("error") or {}
            detail = (f"{err.get('code', '?')}: {err.get('message', '')} "
                      f"[{err.get('where', '')}]" if err else
                      "(no error block — see stderr.log / flight.json)")
            parts.append(f"<tr><td>{html.escape(r['id'])}</td>"
                         f"<td>{r.get('exit_code')}</td>"
                         f"<td>{html.escape(detail)}</td></tr>")
        parts.append("</table>")
    return "\n".join(parts)


def campaign_pareto_html(cells, width=520, height=320):
    """HPWL (x) vs routed overflow (y) scatter, one point per OK run,
    colored per grid cell — the quality-vs-routability trade-off at a
    glance."""
    points = []  # (cell_index, cell, hpwl, overflow, seed)
    for ci, (cell, cell_runs) in enumerate(cells.items()):
        for r in cell_runs:
            if r.get("status") != "ok" or not r["report"]:
                continue
            ev = r["report"].get("eval", {})
            h = ev.get("hpwl")
            o = ev.get("congestion", {}).get("total_overflow")
            if isinstance(h, (int, float)) and isinstance(o, (int, float)):
                points.append((ci, cell, h, o, r["seed"]))
    if not points:
        return "<div class='meta'>no successful runs to plot</div>"
    hlo, hhi = min(p[2] for p in points), max(p[2] for p in points)
    olo, ohi = min(p[3] for p in points), max(p[3] for p in points)
    hspan = hhi - hlo if hhi > hlo else 1.0
    ospan = ohi - olo if ohi > olo else 1.0
    pad = 34
    parts = [f'<svg width="{width}" height="{height}" class="chart">'
             f'<rect width="{width}" height="{height}" class="chartbg"/>']
    for ci, cell, h, o, seed in points:
        x = pad + (width - pad - 10) * (h - hlo) / hspan
        y = height - pad - (height - pad - 10) * (o - olo) / ospan
        color = STAGE_COLORS[ci % len(STAGE_COLORS)]
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="{color}" '
                     f'fill-opacity="0.75"><title>'
                     f'{html.escape(cell)} s{seed}: HPWL {h:.4g}, '
                     f'overflow {o:.0f}</title></circle>')
    parts.append(f'<text x="{pad}" y="{height - 6}" class="lab">'
                 f'HPWL {hlo:.3g} … {hhi:.3g} →</text>')
    parts.append(f'<text x="4" y="14" class="lab">overflow {ohi:.3g} ↑ '
                 f'… {olo:.3g}</text>')
    parts.append("</svg>")
    legend = "".join(
        f'<span class="legend"><span class="dot" style="background:'
        f'{STAGE_COLORS[ci % len(STAGE_COLORS)]}"></span>{html.escape(cell)}</span>'
        for ci, cell in enumerate(cells))
    return "".join(parts) + f"<div class='meta'>{legend}</div>"


def render_campaign(campaign_dir, out_path):
    manifest, runs = load_campaign(campaign_dir)
    cells = campaign_cells(runs)
    summary = campaign_summary_doc(manifest, runs)

    name = summary["name"]
    parts = [f"<!DOCTYPE html><html><head><meta charset='utf-8'>"
             f"<title>campaign: {html.escape(name)}</title>"
             f"<style>{CSS}</style></head><body>"]
    parts.append(f"<h1>campaign: {html.escape(name)}</h1>")
    axes = manifest.get("axes", [])
    axis_desc = " × ".join(
        f"{a['flag']}[{len(a.get('labels', []))}]" for a in axes) or "single cell"
    parts.append(f'<div class="meta">{summary["total"]} runs · '
                 f'{len(cells)} grid cells ({html.escape(axis_desc)}) · '
                 f'{len(manifest.get("seeds", []))} seeds · '
                 f'{summary["ok"]} ok / {summary["failed"]} failed</div>')
    parts.append('<div class="cards">')
    for label, value, bad in (
            ("runs", str(summary["total"]), False),
            ("ok", str(summary["ok"]), False),
            ("failed", str(summary["failed"]), summary["failed"] > 0),
            ("cells", str(len(cells)), False),
            ("seeds", str(len(manifest.get("seeds", []))), False)):
        parts.append(f'<div class="card{" bad" if bad else ""}">'
                     f'<div class="cardval">{value}</div>'
                     f'<div class="cardlab">{label}</div></div>')
    parts.append("</div>")

    parts.append("<h2>Failure matrix</h2>")
    parts.append(campaign_failure_matrix_html(manifest, runs))
    parts.append("<h2>Quality / runtime / RSS distributions</h2>")
    parts.append("<div class='meta'>five-number box plots over seeds, "
                 "shared scale per metric; spread = (max−min)/median</div>")
    parts.append(campaign_distributions_html(cells))
    parts.append("<h2>Pareto: HPWL vs routed overflow</h2>")
    parts.append(campaign_pareto_html(cells))
    parts.append("</body></html>")
    out_path.write_text("\n".join(parts))

    summary_path = campaign_dir / "campaign_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"render_report: wrote {out_path}")
    print(f"render_report: wrote {summary_path}")
    return 0


CSS = """
body { font-family: system-ui, sans-serif; margin: 24px auto; max-width: 1060px;
       color: #1d2430; background: #fafbfc; }
h1 { font-size: 1.4em; } h2 { font-size: 1.15em; margin-top: 1.6em;
  border-bottom: 1px solid #d8dee6; padding-bottom: 4px; }
h3 { font-size: 1em; margin: 1em 0 0.3em; }
.meta { color: #5a6572; font-size: 0.85em; }
.cards { display: flex; flex-wrap: wrap; gap: 10px; margin: 14px 0; }
.card { background: #fff; border: 1px solid #d8dee6; border-radius: 8px;
        padding: 10px 16px; min-width: 110px; }
.card.bad { background: #fde8e8; border-color: #d33; }
.cardval { font-size: 1.15em; font-weight: 600; }
.cardlab { color: #5a6572; font-size: 0.78em; margin-top: 2px; }
.stage { display: flex; align-items: center; gap: 8px; font-size: 0.85em;
         margin: 2px 0; }
.stagename { min-width: 110px; }
.bar { display: inline-block; height: 9px; background: #4a90d9;
       border-radius: 3px; }
.stagesec { color: #5a6572; }
.chart { margin-right: 12px; } .chartbg { fill: #fff; stroke: #d8dee6; }
.lab { font-size: 10px; fill: #5a6572; }
.gallery { display: flex; flex-wrap: wrap; gap: 12px; }
.mapcell { margin: 0; font-size: 0.78em; text-align: center; }
.mapcell img { image-rendering: pixelated; border: 1px solid #d8dee6; }
.range { color: #5a6572; }
table.kv { border-collapse: collapse; font-size: 0.85em; }
table.kv td { border: 1px solid #d8dee6; padding: 3px 10px; }
details { margin: 10px 0; } summary { cursor: pointer; }
.box .whisker { stroke: #8a94a0; stroke-width: 1; }
.box .iqr { fill: #4a90d9; fill-opacity: 0.45; stroke: #1565c0; }
.box .median { stroke: #c62828; stroke-width: 2; }
td.ok { background: #e7f4e8; color: #2e7d32; text-align: center; }
td.fail { background: #fde8e8; color: #b71c1c; }
.legend { margin-right: 14px; white-space: nowrap; }
.dot { display: inline-block; width: 9px; height: 9px; border-radius: 5px;
       margin-right: 4px; }
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("report", type=Path, nargs="?", default=None)
    ap.add_argument("--snapshots", type=Path, default=None,
                    help="snapshot directory (defaults to report's snapshot_dir)")
    ap.add_argument("--campaign", type=Path, default=None,
                    help="rp_sweep campaign directory: render the comparative "
                         "multi-run dashboard instead of a single report")
    ap.add_argument("-o", "--out", type=Path, default=None)
    args = ap.parse_args()

    if args.campaign is not None:
        if not (args.campaign / "campaign.json").exists():
            print(f"render_report: no campaign.json in {args.campaign}",
                  file=sys.stderr)
            return 2
        return render_campaign(args.campaign,
                               args.out or args.campaign / "campaign.html")
    if args.report is None:
        ap.error("either a report.json path or --campaign <dir> is required")

    report = json.loads(args.report.read_text())
    out_path = args.out or args.report.with_suffix(".html")

    snap_dir = args.snapshots
    if snap_dir is None and report.get("snapshot_dir"):
        cand = Path(report["snapshot_dir"])
        if not cand.is_absolute():
            cand = args.report.parent / cand
        if (cand / "manifest.json").exists():
            snap_dir = cand

    design = report.get("design", {})
    build = report.get("build", {})
    parts = [f"<!DOCTYPE html><html><head><meta charset='utf-8'>"
             f"<title>routplace: {html.escape(design.get('name', '?'))}</title>"
             f"<style>{CSS}</style></head><body>"]
    parts.append(f"<h1>routplace run: {html.escape(design.get('name', '?'))}</h1>")
    parts.append(
        f'<div class="meta">mode {html.escape(report.get("mode", "?"))} · '
        f'{design.get("cells", 0)} cells · {design.get("nets", 0)} nets · '
        f'{design.get("macros", 0)} macros · seed {design.get("seed", 0)} · '
        f'build {html.escape(str(build.get("git_describe", "?")))} '
        f'({html.escape(str(build.get("compiler", "?")))}, '
        f'{html.escape(str(build.get("build_type", "?")))})</div>')

    parts.append('<h2>Result</h2><div class="cards">' + metric_cards(report) + "</div>")

    # Convergence: prefer the snapshot history (has gamma + per-round ACE),
    # fall back to the report's gp_trace.
    points = None
    rounds = []
    if snap_dir is not None and (snap_dir / "convergence.json").exists():
        conv = json.loads((snap_dir / "convergence.json").read_text())
        points, rounds = conv.get("points", []), conv.get("rounds", [])
    elif report.get("gp_trace"):
        points = report["gp_trace"]
    if points:
        parts.append("<h2>Convergence</h2>")
        parts.append("<div>HPWL (log) and density overflow per GP outer iteration:</div>")
        parts.append(svg_polyline([p["hpwl"] for p in points], log_y=True))
        parts.append(svg_polyline([p["overflow"] for p in points], color="#c62828"))
    if rounds:
        parts.append("<h3>Routability rounds</h3><table class='kv'><tr>"
                     "<td>round</td><td>RC</td><td>ACE 0.5/1/2/5</td>"
                     "<td>overflow</td><td>cells inflated</td><td>mean infl</td></tr>")
        for r in rounds:
            parts.append(
                f"<tr><td>{r['round']}</td><td>{r['rc']:.1f}</td>"
                f"<td>{r['ace_005']:.1f}/{r['ace_1']:.1f}/{r['ace_2']:.1f}/"
                f"{r['ace_5']:.1f}</td><td>{r['total_overflow']:.0f}</td>"
                f"<td>{r['cells_inflated']}</td><td>{r['mean_inflation']:.3f}</td></tr>")
        parts.append("</table>")

    st = report.get("stage_times", {})
    if st:
        parts.append("<h2>Stage times</h2>")
        parts.append(stage_tree_html(st, report.get("stage_total_sec", 0)))

    if snap_dir is not None:
        parts.append("<h2>Heatmaps</h2>")
        gal, _ = gallery_html(snap_dir)
        parts.append(gal)

    counters = report.get("counters", {})
    if counters:
        parts.append("<details><summary>Counters &amp; gauges</summary>"
                     "<table class='kv'>")
        for k, v in list(counters.items()) + list(report.get("gauges", {}).items()):
            parts.append(f"<tr><td>{html.escape(k)}</td><td>{v}</td></tr>")
        parts.append("</table></details>")

    parts.append("</body></html>")
    out_path.write_text("\n".join(parts))
    print(f"render_report: wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
