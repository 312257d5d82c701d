"""Temporal project scheduling on the max-plus semiring.

An instance has n activities with start times x and finish times y tied by
y = C x (start-finish lags; the diagonal carries durations).  Starts obey
start-start lags B (x >= B x), finish-start lags D (x >= D y), release
times g <= x, start deadlines x <= h, and finish deadlines y <= f.

Both objectives reduce to a rank-one optimization over the combined
precedence matrix R = B + D C and the start ceiling s = (f~ C + h~)~:
minimizing the makespan (latest finish minus earliest start) uses the
objective vectors p = 1 and q~ = 1' C, minimizing the start-time spread
(latest start minus earliest start) uses p = q = 1.  The result is the
complete family of optimal schedules x = G u over a parameter box.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import _kernels
from .optimize import (
    InfeasibleError,
    RankOneProblem,
    SolutionFamily,
    family_member,
    solve_rank_one,
)
from .semiring import (
    TropMatrix,
    TropScalar,
    TropVector,
    _FAST_CLOSURE_DIM,
    _p_add,
    _p_lt,
    _p_str,
)

__all__ = [
    "ProjectInstance",
    "Schedule",
    "ScheduleFamily",
    "Violation",
    "ScheduleReport",
    "reduce_instance",
    "solve_makespan",
    "solve_deviation",
    "extract_schedule",
    "verify_schedule",
    "makespan_value",
    "deviation_value",
    "brute_force_oracle",
]

OBJECTIVES = ("makespan", "deviation")


@dataclass(frozen=True)
class ProjectInstance:
    """Matrices and bounds of one scheduling problem.

    start_start[i][j] is the minimum lag from the start of activity j to
    the start of activity i; start_finish[i][j] bounds the finish of i
    from the start of j (and defines y = start_finish @ x); finish_start
    [i][j] is the lag from the finish of j to the start of i.  Bottom
    entries mean "no constraint".  release may contain bottom (no release
    time); the deadline vectors must be finite.
    """

    start_start: TropMatrix
    start_finish: TropMatrix
    finish_start: TropMatrix
    release: TropVector
    start_deadline: TropVector
    finish_deadline: TropVector

    def __post_init__(self):
        if not self.start_start.is_square:
            raise ValueError("start-start matrix must be square")
        n = self.start_start.shape[0]
        for name in ("start_finish", "finish_start"):
            if getattr(self, name).shape != (n, n):
                raise ValueError(f"{name.replace('_', '-')} matrix must be {n}x{n}")
        for name in ("release", "start_deadline", "finish_deadline"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name.replace('_', ' ')} vector must have length {n}")
        if not self.start_finish.is_column_regular:
            j = next(j for j in range(n) if not self.start_finish.col(j).is_nonzero)
            raise ValueError(
                "start-finish matrix must be column-regular"
                f" (activity {j} is on the start side of no start-finish constraint)"
            )
        if not self.start_deadline.is_regular:
            raise ValueError("start deadlines must be finite")
        if not self.finish_deadline.is_regular:
            raise ValueError("finish deadlines must be finite")

    @property
    def n(self):
        return len(self.release)


@dataclass(frozen=True)
class Schedule:
    """Concrete start and finish times of every activity."""

    start: TropVector
    finish: TropVector

    def __post_init__(self):
        if len(self.start) != len(self.finish):
            raise ValueError("start and finish vectors differ in length")
        if not (self.start.is_regular and self.finish.is_regular):
            raise ValueError("schedule times must be finite")

    @property
    def n(self):
        return len(self.start)


@dataclass(frozen=True)
class ScheduleFamily:
    """Every optimal schedule of one instance: x = G u over a parameter box.

    R and s are the reduced precedence matrix and start ceiling the solver
    worked on; C maps optimal starts to finishes.
    """

    objective: str
    solutions: SolutionFamily
    C: TropMatrix
    R: TropMatrix
    s: TropVector

    @property
    def theta(self):
        return self.solutions.theta

    @property
    def G(self):
        return self.solutions.G

    @property
    def u_low(self):
        return self.solutions.u_low

    @property
    def u_high(self):
        return self.solutions.u_high

    @property
    def n(self):
        return self.solutions.n


@dataclass(frozen=True)
class Violation:
    """One violated constraint: its class, the indices, and the excess."""

    kind: str
    where: tuple[int, ...]
    amount: TropScalar
    detail: str


@dataclass(frozen=True)
class ScheduleReport:
    violations: tuple[Violation, ...]

    @property
    def feasible(self):
        return not self.violations


def reduce_instance(inst):
    """Combined precedence matrix R = B + D C and start ceiling s = (f~ C + h~)~.

    R is computed on int64 arrays when all three matrices convert, so the
    solver receives it already in that form; otherwise on payloads.
    """
    R = _combined_int64(inst)
    if R is None:
        R = inst.start_start + (inst.finish_start @ inst.start_finish)
    s_conj = (inst.finish_deadline.conj() @ inst.start_finish) + inst.start_deadline.conj()
    return R, s_conj.conj()


def _combined_int64(inst):
    """R = B + D C on int64 arrays, or None unless the instance is integer,
    has at least _FAST_CLOSURE_DIM activities and R stays within MAG_CAP."""
    if inst.n < _FAST_CLOSURE_DIM:
        return None
    arrays = [
        m._int_array()
        for m in (inst.start_start, inst.finish_start, inst.start_finish)
    ]
    if any(a is None for a in arrays):
        return None
    r = _kernels.max_product(*arrays)
    return None if r is None else TropMatrix._from_int_array(r)


def _solve(inst, objective):
    R, s = reduce_instance(inst)
    ones = TropVector.ones(inst.n)
    if objective == "makespan":
        q = (ones @ inst.start_finish).conj()
    else:
        q = ones
    prob = RankOneProblem(p=ones, q=q, B=R, g=inst.release, h=s)
    try:
        fam = solve_rank_one(prob)
    except InfeasibleError as e:
        if e.kind == "cycle":
            path = " -> ".join(str(i) for i in (*e.cycle, e.cycle[0]))
            raise InfeasibleError(
                f"cyclic precedence with positive total lag (activities {path})",
                kind="cycle",
                cycle=e.cycle,
            ) from e
        raise InfeasibleError(
            "deadlines incompatible with release times", kind="bounds"
        ) from e
    return ScheduleFamily(
        objective=objective, solutions=fam, C=inst.start_finish, R=R, s=s
    )


def solve_makespan(inst):
    """Family of schedules minimizing latest finish minus earliest start."""
    return _solve(inst, "makespan")


def solve_deviation(inst):
    """Family of schedules minimizing latest start minus earliest start."""
    return _solve(inst, "deviation")


def extract_schedule(fam, u):
    """Schedule at parameter u: starts x = G u, finishes y = C x."""
    x = family_member(fam.solutions, u)
    y = fam.C @ x
    if not y.is_regular:
        raise ValueError(
            "some activity has no start-finish constraint defining its completion"
        )
    return Schedule(start=x, finish=y)


def makespan_value(sched):
    """Latest finish minus earliest start."""
    return sched.finish.norm() * sched.start.conj().norm()


def deviation_value(x):
    """Latest entry minus earliest entry of a start-time vector."""
    if isinstance(x, Schedule):
        raise TypeError("deviation_value takes the start-time vector")
    return x.norm() * x.conj().norm()


def _auto_tol(inst, *vectors):
    mats = (inst.start_start, inst.start_finish, inst.finish_start)
    vecs = (inst.release, inst.start_deadline, inst.finish_deadline) + vectors
    lags = [v for m in mats for _, _, v in m._entries()]
    rows = [lags] + [v._e for v in vecs]
    return 1e-9 if any(isinstance(x, float) for row in rows for x in row) else 0


def _finish_times(c_entries, x, n):
    """C x as a payload list from C's finite entries; bottoms in x are
    skipped, and a row with no finite term stays None."""
    cx = [None] * n
    for i, j, lag in c_entries:
        xj = x[j]
        if xj is None:
            continue
        v = lag + xj
        if cx[i] is None or v > cx[i]:
            cx[i] = v
    return cx


def _lag_violations(kind, mat, x, src, name, tol):
    """Violations of x[i] >= lag + src[j] over the finite lags of mat."""
    for i, j, lag in mat._entries():
        sj = src[j]
        if sj is None:
            continue
        lhs = lag + sj
        xi = x[i]
        if xi is None or lhs > xi + tol:
            excess = None if xi is None else lhs - xi
            yield Violation(
                kind,
                (i, j),
                TropScalar(excess),
                f"x[{i}] >= {_p_str(lag)} + {name}[{j}]",
            )


def _violations(inst, x, y, tol):
    """Yield every violated constraint for payload sequences x, y.

    Only the finite entries of B, C and D are visited, row-major, so one
    call costs O(n + finite entries).
    """
    n = inst.n
    yield from _lag_violations("start-start", inst.start_start, x, x, "x", tol)
    c_x = _finish_times(inst.start_finish._entries(), x, n)
    for i in range(n):
        cx = c_x[i]
        yi = y[i]
        if cx is None and yi is None:
            continue
        if cx is None or yi is None:
            yield Violation(
                "start-finish",
                (i,),
                TropScalar(None),
                f"y[{i}] == (C x)[{i}] = {_p_str(cx)}",
            )
        elif yi > cx + tol or cx > yi + tol:
            diff = yi - cx if yi > cx else cx - yi
            yield Violation(
                "start-finish",
                (i,),
                TropScalar(diff),
                f"y[{i}] == (C x)[{i}] = {_p_str(cx)}",
            )
    yield from _lag_violations("finish-start", inst.finish_start, x, y, "y", tol)
    g = inst.release._e
    h = inst.start_deadline._e
    f = inst.finish_deadline._e
    for i in range(n):
        gi = g[i]
        xi = x[i]
        if gi is not None and (xi is None or gi > xi + tol):
            excess = None if xi is None else gi - xi
            yield Violation(
                "release", (i,), TropScalar(excess), f"x[{i}] >= {_p_str(gi)}"
            )
        if xi is not None and xi > h[i] + tol:
            yield Violation(
                "start-deadline",
                (i,),
                TropScalar(xi - h[i]),
                f"x[{i}] <= {_p_str(h[i])}",
            )
        yi = y[i]
        if yi is not None and yi > f[i] + tol:
            yield Violation(
                "finish-deadline",
                (i,),
                TropScalar(yi - f[i]),
                f"y[{i}] <= {_p_str(f[i])}",
            )


def verify_schedule(inst, sched, *, tol=None):
    """Check every constraint class; returns the full violation report.

    tol defaults to 0 for exact data and 1e-9 once any entry is a float.
    """
    if sched.n != inst.n:
        raise ValueError("schedule and instance sizes differ")
    if tol is None:
        tol = _auto_tol(inst, sched.start, sched.finish)
    found = tuple(_violations(inst, sched.start._e, sched.finish._e, tol))
    return ScheduleReport(violations=found)


def brute_force_oracle(inst, objective, *, step=1, max_points=2_000_000, tol=None):
    """Minimal objective over the box lattice, or None when infeasible.

    Enumerates starts x on the grid g + step * k clipped to h, computes
    y = C x, keeps the feasible points, and returns the smallest objective
    value found.  For integer data and step 1 the optimum of the solver is
    attained on this lattice, so the oracle is exact there.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    if not inst.release.is_regular:
        raise ValueError("oracle needs finite release times")
    step_v = TropScalar(step).value
    if step_v is None or step_v <= 0:
        raise ValueError("step must be positive")
    if tol is None:
        tol = _auto_tol(inst)
    n = inst.n
    g = inst.release._e
    h = inst.start_deadline._e
    axes = []
    total = 1
    for i in range(n):
        axis = []
        v = g[i]
        while v <= h[i]:
            axis.append(v)
            v = v + step_v
        axes.append(axis)
        total *= len(axis)
        if total > max_points:
            raise ValueError(
                f"grid too large: more than {max_points} lattice points"
            )
    if total == 0:
        return None

    c_entries = inst.start_finish._entries()
    best = None
    found = False
    for x in product(*axes):
        y = _finish_times(c_entries, x, n)
        if next(_violations(inst, x, y, tol), None) is not None:
            continue
        if objective == "makespan":
            top = None
            for v in y:
                top = _p_add(top, v)
            val = None if top is None else top - min(x)
        else:
            val = max(x) - min(x)
        if not found or _p_lt(val, best):
            best = val
            found = True
    return TropScalar(best) if found else None
