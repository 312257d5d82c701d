"""Instances and request lists of the four benchmark workloads.

The benchmark keeps its own model of an instance (names, bounds and a list
of lag constraints) so that it can generate inputs, write them in the
instance file format and check tropsched's answers without using tropsched.
Every input is derived from the seed alone.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "vaccination.inst"
FIXTURE_SCHEDULE = ROOT / "tests" / "fixtures" / "vaccination-optimal.sched"
GOLDEN = ROOT / "tests" / "golden.py"

OBJECTIVES = ("makespan", "deviation")


@dataclass
class Instance:
    """Activities with bounds, plus (kind, src, dst, lag) constraints.

    A constraint "kind src -> dst lag" reads as in the instance format: the
    start (or finish) of src plus lag bounds the start (or finish) of dst.
    A bound of None means no bound.
    """

    names: list
    release: list
    start_by: list
    finish_by: list
    edges: list = field(default_factory=list)
    title: str | None = None
    unit: str | None = None

    @property
    def n(self):
        return len(self.names)


def serialize(inst):
    lines = []
    if inst.title:
        lines.append(f"title: {inst.title}")
    if inst.unit:
        lines.append(f"unit: {inst.unit}")
    for i, nm in enumerate(inst.names):
        parts = [f"activity {nm}"]
        for key, vals in (
            ("release", inst.release),
            ("start-by", inst.start_by),
            ("finish-by", inst.finish_by),
        ):
            if vals[i] is not None:
                parts.append(f"{key}={vals[i]}")
        lines.append(" ".join(parts))
    for kind, src, dst, lag in inst.edges:
        lines.append(f"{kind} {inst.names[src]} -> {inst.names[dst]} lag={lag}")
    return "\n".join(lines) + "\n"


def parse(text):
    """Read the subset of the instance format the fixture uses."""
    inst = Instance(names=[], release=[], start_by=[], finish_by=[])
    index = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("title:"):
            inst.title = line[len("title:"):].strip()
            continue
        if line.startswith("unit:"):
            inst.unit = line[len("unit:"):].strip()
            continue
        toks = line.split()
        if toks[0] == "activity":
            index[toks[1]] = len(inst.names)
            inst.names.append(toks[1])
            kv = dict(t.split("=", 1) for t in toks[2:])
            for key, vals in (
                ("release", inst.release),
                ("start-by", inst.start_by),
                ("finish-by", inst.finish_by),
            ):
                vals.append(Fraction(kv[key]) if key in kv else None)
        else:
            kind, src, arrow, dst, lag = toks
            if arrow != "->" or not lag.startswith("lag="):
                raise ValueError(f"cannot read constraint line {raw!r}")
            inst.edges.append((kind, index[src], index[dst], Fraction(lag[4:])))
    return inst


def golden_optima():
    """Hand-derived optima of the fixture, read from the test constants."""
    consts = {}
    for node in ast.parse(GOLDEN.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("MAKESPAN_THETA", "DEVIATION_THETA"):
                consts[name] = ast.literal_eval(node.value)
    return {
        "makespan": Fraction(consts["MAKESPAN_THETA"]),
        "deviation": Fraction(consts["DEVIATION_THETA"]),
    }


def _names(n):
    return [f"act-{i}" for i in range(n)]


def layered(rng, n, scale=1):
    """Feasible instance in the shape of the test suite's layered generator.

    Forward lags only (every constraint runs from a lower to a higher
    index), release 0, and deadlines no precedence chain can reach: each
    hop adds at most 5, so 6n is out of reach.  Every number is multiplied
    by scale.
    """
    edges = []
    for i in range(n):
        edges.append(("start-finish", i, i, scale * rng.randint(1, 5)))
        lags = {}
        for _ in range(min(3, i)):
            j = rng.randint(0, i - 1)
            lags[j] = max(lags.get(j, 0), rng.randint(0, 4))
        edges.extend(("start-start", j, i, scale * lag) for j, lag in lags.items())
        if i and rng.random() < 0.1:
            edges.append(("finish-start", rng.randint(0, i - 1), i, 0))
    return Instance(
        names=_names(n),
        release=[0] * n,
        start_by=[scale * 6 * n] * n,
        finish_by=[scale * (6 * n + 6)] * n,
        edges=edges,
        title=f"layered n={n}",
    )


def chain(rng, n, hops):
    """Infeasible instance whose positive cycles run through every layer.

    Each activity after the first draws one to three predecessors from the
    previous 8 activities, so precedence chains span the project.  A
    maximal time lag from the last activity back to the first is one unit
    tighter than the longest chain between them, which closes a positive
    cycle.  Draws repeat until the fewest-hop such cycle has exactly `hops`
    hops, since the current witness search does one matrix product per hop:
    without this the work per request would vary by about 10% with the seed.
    """
    while True:
        edges = []
        dur = [rng.randint(1, 5) for _ in range(n)]
        for i in range(n):
            edges.append(("start-finish", i, i, dur[i]))
        for i in range(1, n):
            lo = max(0, i - 8)
            for j in rng.sample(range(lo, i), min(i - lo, rng.randint(1, 3))):
                if rng.random() < 0.2:
                    edges.append(("finish-start", j, i, 0))
                else:
                    edges.append(("start-start", j, i, rng.randint(0, 4)))
        longest, chain_hops = oracle.longest_from(n, edges, dur, 0)[n - 1]
        if chain_hops + 1 == hops:
            break
    edges.append(("start-start", n - 1, 0, -(longest - 1)))
    return Instance(
        names=_names(n),
        release=[0] * n,
        start_by=[6 * n] * n,
        finish_by=[6 * n + 6] * n,
        edges=edges,
        title=f"chain n={n}",
    )


@dataclass
class Request:
    """One tropsched CLI call, the exit code it must give, and its check."""

    argv: list
    expect_rc: int
    check: object  # callable(stdout, stderr) -> error text or None


@dataclass(frozen=True)
class Workload:
    """One workload.  n is the instance size (the largest, for cli-small).

    tail_pct is the percentile reported as request_ms_tail: the highest one
    that keeps at least ten requests beyond it in a 30 s run.  When this
    benchmark was added, such runs held 103-112 (cli-small), 27-31
    (solve-int) and 32-36 (infeasible-chain) requests; the percentiles
    leave room for a slower host phase.
    """

    name: str
    n: int
    in_process: bool
    tail_pct: int
    why: str


# Interpreter start and imports dominate: when this benchmark was added, bare
# `python -c pass` took 0.07 s, `import tropsched` 0.23 s and each subcommand
# 0.26-0.32 s.
# Lazy imports, `documents` and `charts` show here; kernel work should not.
CLI_SMALL = Workload(
    "cli-small", 50, False, 88,
    "subprocess solve/chart/verify on the fixture and n<=50: interpreter start,"
    " imports, documents and charts",
)
# The int64 kernel path does nearly all the work: per-operator
# payload<->array conversion (ROADMAP item 2) and the pure-Python
# self-check.  Charts do nothing here.
SOLVE_INT = Workload(
    "solve-int", 300, True, 55,
    "in-process solve --format json on integer n=300: int64 kernels,"
    " conversions, self-check and JSON encoding",
)
# Exact half-integer Fractions: the int64 kernels refuse every input, so
# all products run in the pure-Python payload loops and _scaled_outer_sum
# dominates.  Fraction->int scaling (ROADMAP item 2) must move this one and
# leave solve-int where it is.  Not listed in BENCHMARK.json: on a shared
# 2-vCPU host its run medians spread by 0.21-0.25 between seeds, because
# Fraction arithmetic slows by up to 1.8x in the host's slow phases, which
# last longer than a run.  Run it by name (or with --workload all).
SOLVE_RATIONAL = Workload(
    "solve-rational", 60, True, 60,
    "in-process solve on n=60 half-integer Fractions: every product bypasses"
    " the int64 kernels",
)
# The only workload that runs the positive-cycle witness search: a cycle of
# many hops makes _positive_cycle_witness scan A^k for every k up to its
# length.  A single-closure witness (ROADMAP item 3) must win here without
# losing on solve-int, which runs the same closure on feasible input.
INFEASIBLE_CHAIN = Workload(
    "infeasible-chain", 200, True, 65,
    "in-process solve of n=200 instances with a many-hop positive cycle:"
    " exit 3 through the witness search",
)

WORKLOADS = {w.name: w for w in (CLI_SMALL, SOLVE_INT, SOLVE_RATIONAL, INFEASIBLE_CHAIN)}

# instances per in-process workload, odd so that alternating objectives
# give every instance both; more instances make a run's median depend less
# on the seed
POOL = 5


def _write(work, name, text):
    path = work / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _schedule_text(names, x, y):
    return "".join(f"{nm} {x[i]} {y[i]}\n" for i, nm in enumerate(names))


def _read_schedule(path, names):
    rows = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].split()
        if line:
            rows[line[0]] = (Fraction(line[1]), Fraction(line[2]))
    return [rows[nm][0] for nm in names], [rows[nm][1] for nm in names]


def solve_requests(wl, rng, work):
    """One pass of the three in-process workloads: POOL instances, objectives
    alternating, every request a `solve --format json`."""
    if wl.name == "infeasible-chain":
        # about the typical fewest-hop cycle of these instances
        pool = [chain(rng, wl.n, round(0.32 * wl.n)) for _ in range(POOL)]
    else:
        scale = Fraction(3, 2) if wl.name == "solve-rational" else 1
        pool = [layered(rng, wl.n, scale) for _ in range(POOL)]
    paths = [_write(work, f"inst-{k}.inst", serialize(inst)) for k, inst in enumerate(pool)]
    reqs = []
    for k in range(2 * POOL):
        inst, obj = pool[k % POOL], OBJECTIVES[k % 2]
        argv = ["solve", paths[k % POOL], "--objective", obj, "--format", "json"]
        if wl.name == "infeasible-chain":
            reqs.append(Request(argv, 3, oracle.cycle_check(inst)))
        else:
            check = oracle.json_check(inst, obj, oracle.forward_optimum(inst, obj))
            reqs.append(Request(argv, 0, check))
    return reqs


class SetupError(RuntimeError):
    """tropsched gave a wrong answer while the benchmark prepared its inputs."""


def cli_requests(wl, rng, work, run_cli):
    """One pass of cli-small, shuffled; the first request is the fixture solve.

    Chart requests read result documents that `solve` writes during setup,
    through run_cli(argv) -> (exit code, stdout, stderr).
    """
    fixture = parse(FIXTURE.read_text())
    cases = [(fixture, str(FIXTURE), golden_optima())]
    for k in range(1, 6):
        inst = layered(rng, max(2, wl.n * k // 5))
        path = _write(work, f"small-{k}.inst", serialize(inst))
        cases.append((inst, path, {o: oracle.forward_optimum(inst, o) for o in OBJECTIVES}))

    reqs = []
    for k, (inst, path, opt) in enumerate(cases):
        for j, obj in enumerate(OBJECTIVES):
            fmt = ("text", "json")[(k + j) % 2]
            make = oracle.text_check if fmt == "text" else oracle.json_check
            argv = ["solve", path, "--objective", obj, "--format", fmt]
            reqs.append(Request(argv, 0, make(inst, obj, opt[obj])))

    for k in (0, 2, 4):
        inst, path, opt = cases[k]
        obj = OBJECTIVES[k // 2 % 2]
        doc_path = work / f"result-{k}.json"
        rc, out, err = run_cli(["solve", path, "--objective", obj, "--format", "json",
                                "--out", str(doc_path)])
        text = doc_path.read_text() if rc == 0 and doc_path.exists() else ""
        bad = oracle.json_check(inst, obj, opt[obj])(text, err) if text else f"exit {rc}"
        if bad:
            raise SetupError(f"setup solve of {path}: {bad}")
        doc = json.loads(text)
        title = doc["title"] or f"{obj} = {doc['theta']}"
        members = ("low", "high") if k != 2 else ("high", "low")
        for member, fmt in zip(members, ("ascii", "svg")):
            s = doc["schedules"][member]
            x = [Fraction(v) for v in s["start"]]
            y = [Fraction(v) for v in s["finish"]]
            check = (oracle.ascii_check(inst.names, x, y, title) if fmt == "ascii"
                     else oracle.svg_check(inst.names, x, y))
            argv = ["chart", str(doc_path), "--member", member, "--format", fmt]
            reqs.append(Request(argv, 0, check))

    x, y = _read_schedule(FIXTURE_SCHEDULE, fixture.names)
    reqs.append(Request(["verify", str(FIXTURE), str(FIXTURE_SCHEDULE)], 0,
                        oracle.verify_check(x, y, True)))
    for k in (1, 3, 5):
        inst, path, _ = cases[k]
        x, y = oracle.earliest_schedule(inst)
        sched = _write(work, f"small-{k}.sched", _schedule_text(inst.names, x, y))
        reqs.append(Request(["verify", path, sched], 0, oracle.verify_check(x, y, True)))
    # planted defect: start the target of the last start-start lag one unit
    # too early, which must exit 3
    inst, path, _ = cases[5]
    x, y = oracle.earliest_schedule(inst)
    dur = oracle.durations(inst)
    _, src, dst, lag = [e for e in inst.edges if e[0] == "start-start"][-1]
    x[dst] = x[src] + lag - 1
    y[dst] = x[dst] + dur[dst]
    sched = _write(work, "planted.sched", _schedule_text(inst.names, x, y))
    reqs.append(Request(["verify", path, sched], 3, oracle.verify_check(x, y, False)))

    first, rest = reqs[0], reqs[1:]
    rng.shuffle(rest)
    return [first] + rest
