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

import math
from functools import cached_property
from itertools import chain, product

from . import _loops
from ._record import Record
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
    _p_add,
    _p_lt,
    _p_str,
)

__all__ = [
    "FloatOverflowError",
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


class FloatOverflowError(ValueError):
    """Float arithmetic overflowed: the optimum or a schedule time is not
    finite.  A limit of the input's magnitudes, not a solver fault."""


class ProjectInstance(Record):
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


class Schedule(Record):
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


class ScheduleFamily(SolutionFamily):
    """Every optimal schedule of one instance: x = G u over a parameter box.

    B and h are the reduced precedence matrix R and start ceiling s the
    solver worked on; instance.start_finish maps optimal starts to
    finishes.
    """

    objective: str
    instance: ProjectInstance

    @cached_property
    def _tol(self):
        # decided once per family: it reads every number of the instance
        return _auto_tol(self.instance)


class Violation(Record):
    """One violated constraint: its class, the indices, and the excess."""

    kind: str
    where: tuple[int, ...]
    amount: TropScalar
    detail: str


class ScheduleReport(Record):
    violations: tuple[Violation, ...]

    @property
    def feasible(self):
        return not self.violations


def reduce_instance(inst):
    """Combined precedence matrix R = B + D C and start ceiling s = (f~ C + h~)~.

    Both are summed over the finite entries of B, D and C alone, in the
    order of the dense products (inner index ascending), and of two equal
    sums the first stays, so float results keep their signs of zero.  R
    holds only its finite entries, as the parsed matrices do; the star
    converts it to its backend's form.
    """
    n = inst.n
    c = inst.start_finish._entries()
    c_rows = [[] for _ in range(n)]
    for k, j, lag in c:
        c_rows[k].append((j, lag))
    # B first, then the terms of D C: the first of equal sums stays
    r = {(i, j): v for i, j, v in inst.start_start._entries()}
    for i, k, lag in inst.finish_start._entries():
        for j, x in c_rows[k]:
            v = lag + x
            o = r.get((i, j))
            if o is None or v > o:
                r[i, j] = v
    R = TropMatrix._from_entries((n, n), [(i, j, v) for (i, j), v in r.items()])
    f_c = _left_product(inst.finish_deadline.conj()._e, c, n)
    s_conj = map(_p_add, f_c, inst.start_deadline.conj()._e)
    return R, TropVector._from_payloads(s_conj).conj()


def _solve(inst, objective):
    R, s = reduce_instance(inst)
    ones = TropVector.ones(inst.n)
    if objective == "makespan":
        q = _left_product(ones._e, inst.start_finish._entries(), inst.n)
        q = TropVector._from_payloads(q).conj()
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
    if not _finite(fam.theta.value):
        raise FloatOverflowError(
            "float arithmetic overflowed: the optimum is not finite"
        )
    return ScheduleFamily(*fam._values(), objective=objective, instance=inst)


def solve_makespan(inst):
    """Family of schedules minimizing latest finish minus earliest start."""
    return _solve(inst, "makespan")


def solve_deviation(inst):
    """Family of schedules minimizing latest start minus earliest start."""
    return _solve(inst, "deviation")


def extract_schedule(fam, u):
    """Schedule at parameter u: starts x = G u, finishes y = C x, checked
    to satisfy the instance and attain theta (AssertionError otherwise)."""
    x = family_member(fam, u)
    inst = fam.instance
    y = _finish_times(inst.start_finish._entries(), x._e, inst.n)
    y = TropVector._from_payloads(y)
    if not y.is_regular:
        raise ValueError(
            "some activity has no start-finish constraint defining its completion"
        )
    if not all(_finite(v) for v in chain(x._e, y._e)):
        raise FloatOverflowError(
            "float arithmetic overflowed: a schedule time is not finite"
        )
    sched = Schedule(start=x, finish=y)
    tol = fam._tol
    bad = next(_violations(fam.instance, x._e, y._e, tol), None)
    if bad is not None:
        raise AssertionError(f"schedule violates its instance: {bad.detail}")
    if fam.objective == "makespan":
        value = makespan_value(sched)
    else:
        value = deviation_value(x)
    if not (-tol <= value.value - fam.theta.value <= tol):
        raise AssertionError(
            f"schedule has objective {value}, expected {fam.theta}"
        )
    return sched


def makespan_value(sched):
    """Latest finish minus earliest start."""
    return sched.finish.norm() * sched.start.conj().norm()


def deviation_value(x):
    """Latest entry minus earliest entry of a start-time vector."""
    if isinstance(x, Schedule):
        raise TypeError("deviation_value takes the start-time vector")
    return x.norm() * x.conj().norm()


def _finite(v):
    """False for a float payload that overflowed to inf or nan."""
    return not isinstance(v, float) or math.isfinite(v)


def _auto_tol(inst, *vectors):
    """0 for exact data, `_loops.FLOAT_TOL` (1e-9) once any number of the
    instance or of `vectors` is a float."""
    mats = (inst.start_start, inst.start_finish, inst.finish_start)
    vecs = (inst.release, inst.start_deadline, inst.finish_deadline) + vectors
    lags = (v for m in mats for _, _, v in m._entries())
    values = chain(lags, *(v._e for v in vecs))
    return _loops.FLOAT_TOL if any(isinstance(x, float) for x in values) else 0


def _left_product(v, c_entries, n):
    """v C as a payload list: C x over the transposed entries, which meet
    each column's terms in ascending row order, as `_loops.vecmat` does."""
    return _finish_times([(j, k, lag) for k, j, lag in c_entries], v, n)


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


def verify_schedule(inst, sched):
    """Check every constraint class; returns the full violation report.

    The tolerance is 0 for exact data and 1e-9 once any entry is a float.
    """
    if sched.n != inst.n:
        raise ValueError("schedule and instance sizes differ")
    tol = _auto_tol(inst, sched.start, sched.finish)
    found = tuple(_violations(inst, sched.start._e, sched.finish._e, tol))
    return ScheduleReport(violations=found)


def brute_force_oracle(inst, objective, *, step=1, max_points=2_000_000):
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
