"""ASCII and SVG Gantt charts for concrete schedules.

Both charts use unit-interval columns: column k covers the time interval
(k-1, k], so a bar for an activity running over [x, y] fills columns x+1
through y when x and y are integers; fractional times fill every column
they overlap.  Times before 0 shift the origin and are noted on the chart.
A chart spans at most _MAX_SPAN time units, since it draws one column (or
grid line) per unit; a longer schedule raises ValueError before anything
is drawn.
"""

from __future__ import annotations

import math

__all__ = ["ascii_gantt", "svg_gantt"]

_SCALE = 40
_ROW_H = 28
_BAR_H = 18
_MAX_SPAN = 10_000


def _span(schedule):
    xs = schedule.start._e
    ys = schedule.finish._e
    t0 = min(0, math.floor(min(xs)))
    t_end = max(math.ceil(max(ys)), t0 + 1)
    span = t_end - t0
    if span > _MAX_SPAN:
        # an int of thousands of digits is too long to convert to text
        shown = span if span <= 1 << 63 else "more than 2**63"
        raise ValueError(
            f"schedule spans {shown} time units; a chart draws at most {_MAX_SPAN}"
        )
    return xs, ys, t0, t_end


def ascii_gantt(names, schedule, *, title=None, unit=None):
    """One row per activity, '#' in every unit column the bar overlaps."""
    if len(names) != schedule.n:
        raise ValueError("names and schedule sizes differ")
    xs, ys, t0, t_end = _span(schedule)
    cols = range(t0 + 1, t_end + 1)
    name_w = max(len(nm) for nm in names)
    pad = " " * (name_w + 1)
    lines = []
    if title:
        lines.append(title)
    if any(abs(k) >= 10 for k in cols):
        lines.append(
            pad
            + "".join(
                str((abs(k) // 10) % 10) if k % 10 == 0 else " " for k in cols
            )
        )
    lines.append(pad + "".join(str(abs(k) % 10) for k in cols))
    for i, nm in enumerate(names):
        bar = "".join(
            "#" if xs[i] < k and ys[i] > k - 1 else "." for k in cols
        )
        lines.append(nm.ljust(name_w) + " " + bar)
    if unit:
        lines.append(f"(time unit: {unit})")
    if t0 != 0:
        lines.append(f"(columns start at time {t0})")
    return "\n".join(lines) + "\n"


def _fmt(v):
    return f"{float(v):.2f}"


def svg_gantt(names, schedule, *, title=None, unit=None):
    """Deterministic standalone SVG; same time convention as ascii_gantt."""
    if len(names) != schedule.n:
        raise ValueError("names and schedule sizes differ")
    xs, ys, t0, t_end = _span(schedule)
    n = len(names)
    name_w = max(len(nm) for nm in names)
    left = 8 * name_w + 24
    top = 30 if title else 10
    width = left + (t_end - t0) * _SCALE + 20
    height = top + n * _ROW_H + 34
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">',
        '<style>text{font-family:monospace;font-size:12px;fill:#222}'
        ".grid{stroke:#cccccc;stroke-width:1}"
        ".bar{fill:#4a90d9}</style>",
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        out.append(f'<text x="{left}" y="18">{_esc(title)}</text>')
    axis_y = top + n * _ROW_H
    for t in range(t0, t_end + 1):
        gx = _fmt(left + (t - t0) * _SCALE)
        out.append(
            f'<line class="grid" x1="{gx}" y1="{top}" x2="{gx}" y2="{axis_y}"/>'
        )
        out.append(f'<text x="{gx}" y="{axis_y + 16}" text-anchor="middle">{t}</text>')
    for i, nm in enumerate(names):
        ry = top + i * _ROW_H + (_ROW_H - _BAR_H) // 2
        cy = top + i * _ROW_H + _ROW_H // 2 + 4
        bx = _fmt(left + (xs[i] - t0) * _SCALE)
        bw = _fmt((ys[i] - xs[i]) * _SCALE)
        out.append(f'<text x="{left - 8}" y="{cy}" text-anchor="end">{_esc(nm)}</text>')
        out.append(f'<rect class="bar" x="{bx}" y="{ry}" width="{bw}" height="{_BAR_H}"/>')
    if unit:
        out.append(
            f'<text x="{left}" y="{axis_y + 30}">time unit: {_esc(unit)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(text):
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )
