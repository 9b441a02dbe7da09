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
    if raw[:4] != b"RPG1" or len(raw) < 12:
        raise ValueError(f"{path}: bad magic")
    nx, ny = struct.unpack_from("<II", raw, 4)
    if len(raw) != 12 + 8 * nx * ny:
        raise ValueError(f"{path}: {len(raw)} bytes for a {nx}x{ny} grid")
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
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("report", type=Path)
    ap.add_argument("--snapshots", type=Path, default=None,
                    help="snapshot directory (defaults to report's snapshot_dir)")
    ap.add_argument("-o", "--out", type=Path, default=None)
    args = ap.parse_args()

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

    points = report.get("gp_trace", [])
    rounds = report.get("gp_rounds", [])
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
        parts.append("<details><summary>Counters</summary><table class='kv'>")
        for k, v in counters.items():
            parts.append(f"<tr><td>{html.escape(k)}</td><td>{v}</td></tr>")
        parts.append("</table></details>")

    parts.append("</body></html>")
    out_path.write_text("\n".join(parts))
    print(f"render_report: wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
