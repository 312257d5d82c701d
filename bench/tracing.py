"""Spans around tropsched's callables, installed from outside the package.

Each target is replaced where its caller looks it up (a module global or a
class attribute), so the program's own code is untouched and the original
is restored afterwards.  A span is [name, start, end, parent, note]: parent
is the index of the enclosing span in the same request's list or -1, and
note carries what the span adds to a count (bytes, operations, a fallback).
"""

from __future__ import annotations

import importlib
from statistics import median
from time import perf_counter


def _shape_ops(fn):
    """Max-plus operations (one add, one max) of a kernel call, from shapes."""
    return {
        "matmul": lambda a, b: a.shape[0] * a.shape[1] * b.shape[1],
        "matvec": lambda a, v: a.size,
        "vecmat": lambda v, a: a.size,
        "closure": lambda a: a.shape[0] ** 3,
        "outer_acc": lambda acc, v, w: acc.size,
        "scale_max": lambda acc, s, base: acc.size,
    }[fn]


def _nbytes(args, result):
    return len(result.encode("utf-8"))


def _fallback(args, result):
    return result is None


def _with_matrix(args, result):
    return any(type(a).__name__ == "TropMatrix" for a in args[:2])


# (owner, attribute, span name, note(args, result) or None)
TARGETS = [
    ("tropsched.cli", "main", "cli.main", None),
    ("tropsched.cli", "load_instance", "documents.parse", None),
    ("tropsched.cli", "parse_schedule", "documents.parse", None),
    ("tropsched.cli", "result_to_json", "documents.encode", _nbytes),
    ("tropsched.cli", "result_from_json", "documents.decode", None),
    ("tropsched.cli", "ascii_gantt", "charts.render", _nbytes),
    ("tropsched.cli", "svg_gantt", "charts.render", _nbytes),
    ("tropsched.cli", "solve_makespan", "scheduling.solve", None),
    ("tropsched.cli", "solve_deviation", "scheduling.solve", None),
    ("tropsched.cli", "extract_schedule", "scheduling.extract", None),
    ("tropsched.cli", "verify_schedule", "scheduling.verify", None),
    ("tropsched.scheduling", "reduce_instance", "scheduling.reduce", None),
    ("tropsched.scheduling", "solve_rank_one", "optimize.rank_one", None),
    ("tropsched.optimize", "_scaled_outer_sum", "semiring.generator", None),
    ("tropsched.semiring:TropMatrix", "star", "semiring.star", None),
    ("tropsched.semiring", "_positive_cycle_witness", "semiring.witness", None),
    ("tropsched.semiring:TropMatrix", "__matmul__", "semiring.product", _with_matrix),
    ("tropsched.semiring:TropVector", "__matmul__", "semiring.product", _with_matrix),
] + [
    ("tropsched._kernels", fn, "kernels.convert", _fallback if fn.startswith("from") else None)
    for fn in ("from_payload_rows", "from_payload_vec", "to_payload_rows", "to_payload_vec")
] + [
    ("tropsched._kernels", fn, "kernels.compute", lambda args, result, f=_shape_ops(fn): f(*args))
    for fn in ("matmul", "matvec", "vecmat", "closure", "outer_acc", "scale_max")
]


def _owner(path):
    mod, _, cls = path.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans into self.spans while installed."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._saved = []

    def install(self):
        self.missing = []
        for path, attr, name, note in TARGETS:
            owner = _owner(path)
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, note))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, note):
        stack = self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans = self.spans
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                rec[4] = note(args, result)
            return result

        return traced


# per-layer metric -> (span name, what to sum over that request's spans)
LAYER_TIMES = {
    "cli.self_s": ("cli.main", "self"),
    "documents.parse_s": ("documents.parse", "incl"),
    "documents.encode_s": ("documents.encode", "incl"),
    "documents.decode_s": ("documents.decode", "incl"),
    "charts.render_s": ("charts.render", "incl"),
    "scheduling.solve_s": ("scheduling.solve", "incl"),
    "scheduling.reduce_s": ("scheduling.reduce", "incl"),
    "scheduling.extract_s": ("scheduling.extract", "incl"),
    "scheduling.verify_s": ("scheduling.verify", "incl"),
    "optimize.rank_one_self_s": ("optimize.rank_one", "self"),
    "semiring.star_s": ("semiring.star", "incl"),
    "semiring.witness_s": ("semiring.witness", "incl"),
    "semiring.generator_s": ("semiring.generator", "incl"),
    "semiring.product_s": ("semiring.product", "incl"),
    "kernels.convert_s": ("kernels.convert", "incl"),
    "kernels.compute_s": ("kernels.compute", "incl"),
}
LAYER_COUNTS = {
    "documents.result_bytes": ("documents.encode", "note"),
    "charts.bytes": ("charts.render", "note"),
    "semiring.product_calls": ("semiring.product", "calls"),
    "kernels.convert_calls": ("kernels.convert", "calls"),
    "kernels.convert_fallbacks": ("kernels.convert", "note"),
    "kernels.compute_calls": ("kernels.compute", "calls"),
    "kernels.ops": ("kernels.compute", "note"),
}


def request_layers(spans):
    """Per-layer figures of one request's spans; a layer the request never
    entered is absent, so medians run over the requests that used it."""
    child = [0.0] * len(spans)
    fast = [False] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
        if name == "kernels.compute":
            p = parent
            while p >= 0:
                fast[p] = True
                p = spans[p][3]
    sums = {}
    for i, (name, t0, t1, parent, note) in enumerate(spans):
        acc = sums.setdefault(name, {"incl": 0.0, "self": 0.0, "calls": 0, "note": 0})
        acc["incl"] += t1 - t0
        acc["self"] += t1 - t0 - child[i]
        acc["calls"] += 1
        acc["note"] += int(note or 0)
    out = {}
    for metric, (name, field) in {**LAYER_TIMES, **LAYER_COUNTS}.items():
        if name in sums:
            out[metric] = sums[name][field]
    # products with a matrix operand (the ones a kernel can serve) and stars
    served = [
        fast[i] for i, s in enumerate(spans)
        if s[0] == "semiring.star" or (s[0] == "semiring.product" and s[4])
    ]
    if served:
        out["kernels.fast_ratio"] = sum(served) / len(served)
    return out


def summarize(timed, counted):
    """Medians over requests: times over every traced request, counts over
    the first pass only, so that counts repeat exactly for one seed."""
    out = {}
    for metric in LAYER_TIMES:
        vals = [r[metric] for r in timed if metric in r]
        out[metric] = median(vals) if vals else 0.0
    for metric in [*LAYER_COUNTS, "kernels.fast_ratio"]:
        vals = [r[metric] for r in counted if metric in r]
        out[metric] = median(vals) if vals else 0
    return out
