"""The benchmark's own checks of tropsched's outputs, in exact arithmetic.

Nothing here imports tropsched.  Optima of generated instances come from a
forward critical-path pass; every schedule tropsched prints is checked
against the raw constraints; an infeasibility message must name a cycle
whose reduced lags sum to a positive value.  A check returns None when the
output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction


def durations(inst):
    """Durations, for instances whose start-finish lags are all self loops."""
    dur = [None] * inst.n
    for kind, src, dst, lag in inst.edges:
        if kind == "start-finish":
            if src != dst:
                raise ValueError("the forward pass needs self-loop durations")
            dur[src] = lag if dur[src] is None else max(dur[src], lag)
    return dur


def longest_from(n, edges, dur, source):
    """Longest start-to-start lag sums from source over forward constraints,
    each as (sum, hops) with the fewest hops among the longest chains."""
    preds = [[] for _ in range(n)]
    for kind, src, dst, lag in edges:
        if src < dst and kind == "start-start":
            preds[dst].append((src, lag))
        elif src < dst and kind == "finish-start":
            preds[dst].append((src, dur[src] + lag))
    best = [None] * n
    best[source] = (0, 0)
    for i in range(source + 1, n):
        cands = [(best[j][0] + w, -best[j][1] - 1) for j, w in preds[i] if best[j]]
        if cands:
            w, neg_hops = max(cands)
            best[i] = (w, -neg_hops)
    return best


def earliest_schedule(inst):
    """Earliest starts and finishes of an instance with forward lags only.

    Index order is a topological order, so one pass in that order is the
    critical-path method.  Deadlines are not consulted; the generated
    instances keep them out of reach.
    """
    if any(src > dst for _, src, dst, _ in inst.edges):
        raise ValueError("the forward pass needs forward constraints only")
    dur = durations(inst)
    x = list(inst.release)
    for kind, src, dst, lag in sorted(inst.edges, key=lambda e: e[2]):
        if kind == "start-start" and src != dst:
            x[dst] = max(x[dst], x[src] + lag)
        elif kind == "finish-start":
            x[dst] = max(x[dst], x[src] + dur[src] + lag)
    y = [x[i] + dur[i] for i in range(inst.n)]
    return x, y


def objective_value(objective, x, y):
    if objective == "makespan":
        return max(y) - min(x)
    return max(x) - min(x)


def forward_optimum(inst, objective):
    """Optimum of a feasible forward instance with a common release time.

    The earliest schedule starts its sources at the common release, and no
    schedule can start any of them earlier or shorten a chain behind them,
    so it attains both optima.
    """
    x, y = earliest_schedule(inst)
    return objective_value(objective, x, y)


def violation(inst, x, y):
    """First violated constraint of schedule (x, y), or None."""
    n = inst.n
    cx = [None] * n
    for kind, src, dst, lag in inst.edges:
        if kind == "start-start" and x[dst] < x[src] + lag:
            return f"start-start {src}->{dst}"
        if kind == "finish-start" and x[dst] < y[src] + lag:
            return f"finish-start {src}->{dst}"
        if kind == "start-finish":
            v = x[src] + lag
            cx[dst] = v if cx[dst] is None else max(cx[dst], v)
    for i in range(n):
        if cx[i] != y[i]:
            return f"finish of {i} is {y[i]}, C x gives {cx[i]}"
        if inst.release[i] is not None and x[i] < inst.release[i]:
            return f"release of {i}"
        if x[i] > inst.start_by[i] or y[i] > inst.finish_by[i]:
            return f"deadline of {i}"
    return None


def _schedule_check(inst, objective, optimum, x, y, label):
    bad = violation(inst, x, y)
    if bad:
        return f"{label} schedule infeasible: {bad}"
    got = objective_value(objective, x, y)
    if got != optimum:
        return f"{label} schedule has {objective} {got}, optimum is {optimum}"
    return None


def _num(s):
    return Fraction(s)


def json_check(inst, objective, optimum):
    """solve --format json: the optimum, and both extremes attain it."""

    def check(out, err):
        try:
            doc = json.loads(out)
        except ValueError as e:
            return f"result is not JSON: {e}"
        if doc.get("format") != "tropsched-result/1":
            return f"unexpected format {doc.get('format')!r}"
        if doc["objective"] != objective or list(doc["activities"]) != inst.names:
            return "objective or activity names differ from the request"
        if _num(doc["theta"]) != optimum:
            return f"theta {doc['theta']}, optimum is {optimum}"
        for label in ("low", "high"):
            s = doc["schedules"][label]
            if s is None:
                return f"no {label} schedule"
            bad = _schedule_check(
                inst, objective, optimum,
                [_num(v) for v in s["start"]], [_num(v) for v in s["finish"]], label,
            )
            if bad:
                return bad
        return None

    return check


_ROW_RE = re.compile(r"  (\S+)\s+start=(\S+)\s+finish=(\S+)\Z")


def text_check(inst, objective, optimum):
    """solve text report: the optimum line and every printed schedule."""

    def check(out, err):
        lines = out.splitlines()
        if f"optimum: {optimum}" not in lines:
            return "text report does not state the optimum"
        blocks = []
        for line in lines:
            if line.endswith(":") and "schedule" in line:
                blocks.append({})
            m = _ROW_RE.match(line)
            if m and blocks:
                blocks[-1][m.group(1)] = (_num(m.group(2)), _num(m.group(3)))
        if not blocks:
            return "text report prints no schedule"
        for b, rows in enumerate(blocks):
            if sorted(rows) != sorted(inst.names):
                return f"schedule block {b} does not list every activity"
            x = [rows[nm][0] for nm in inst.names]
            y = [rows[nm][1] for nm in inst.names]
            bad = _schedule_check(inst, objective, optimum, x, y, f"block {b}")
            if bad:
                return bad
        return None

    return check


def ascii_bars(names, x, y):
    """Expected chart rows: column k covers (k-1, k], '#' where a bar overlaps."""
    t0 = min(0, math.floor(min(x)))
    t_end = max(math.ceil(max(y)), t0 + 1)
    width = max(len(nm) for nm in names)
    return [
        nm.ljust(width) + " "
        + "".join("#" if x[i] < k and y[i] > k - 1 else "." for k in range(t0 + 1, t_end + 1))
        for i, nm in enumerate(names)
    ]


def ascii_check(names, x, y, title):
    def check(out, err):
        lines = out.splitlines()
        if not lines or lines[0] != title:
            return "chart does not start with the title"
        missing = [row for row in ascii_bars(names, x, y) if row not in lines]
        if missing:
            return f"chart row wrong or missing: {missing[0]!r}"
        return None

    return check


def svg_check(names, x, y):
    """One bar per activity, widths proportional to durations."""

    def check(out, err):
        try:
            root = ET.fromstring(out)
        except ET.ParseError as e:
            return f"SVG does not parse: {e}"
        bars = [el for el in root.iter() if el.get("class") == "bar"]
        if len(bars) != len(names):
            return f"{len(bars)} bars for {len(names)} activities"
        texts = {el.text for el in root.iter() if el.tag.endswith("text")}
        if not set(names) <= texts:
            return "SVG does not label every activity"
        ratios = {
            round(float(b.get("width")) / float(y[i] - x[i]), 6)
            for i, b in enumerate(bars)
        }
        if len(ratios) != 1:
            return "bar widths are not proportional to durations"
        return None

    return check


def verify_check(x, y, feasible):
    """verify: both objective values of the schedule, then the verdict."""

    def check(out, err):
        lines = out.splitlines()
        want = [f"makespan: {max(y) - min(x)}", f"deviation: {max(x) - min(x)}"]
        if lines[:2] != want:
            return f"verify printed {lines[:2]}, expected {want}"
        if feasible and lines[2:] != ["feasible"]:
            return "feasible schedule not reported feasible"
        if not feasible and not any(l.startswith("violated") for l in lines[2:]):
            return "infeasible schedule reported without a violation"
        return None

    return check


def reduced_lags(inst):
    """R[a][b] as a dict: x_a >= R[a][b] + x_b, with R = B + D C."""
    r = {}

    def put(a, b, w):
        if (a, b) not in r or w > r[(a, b)]:
            r[(a, b)] = w

    sf = [(src, dst, lag) for kind, src, dst, lag in inst.edges if kind == "start-finish"]
    for kind, src, dst, lag in inst.edges:
        if kind == "start-start":
            put(dst, src, lag)
        elif kind == "finish-start":
            for b, k, c in sf:
                if k == src:
                    put(dst, b, lag + c)
    return r


_CYCLE_RE = re.compile(r"activities ([0-9 >-]+)\)")


def cycle_check(inst):
    """Exit 3 naming a cycle of the instance with a positive lag sum."""
    lags = reduced_lags(inst)

    def check(out, err):
        m = _CYCLE_RE.search(err)
        if not m:
            return f"infeasibility message names no cycle: {err.strip()[:200]!r}"
        nodes = [int(t) for t in m.group(1).split(" -> ")]
        if len(nodes) < 2 or nodes[0] != nodes[-1] or len(set(nodes[:-1])) != len(nodes) - 1:
            return "named activities are not an elementary cycle"
        hops = list(zip(nodes, nodes[1:]))
        for orient in (hops, [(b, a) for a, b in hops]):
            if all(h in lags for h in orient) and sum(lags[h] for h in orient) > 0:
                return None
        return "named cycle is not a positive cycle of the instance"

    return check
