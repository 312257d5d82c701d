"""Minimize x~ A x over max-plus vectors x subject to B x <= x and g <= x <= h.

Two solvers cover the same problem shape.  solve_general handles any A by
enumerating bounded products of A and powers of B, which is exponential in
the dimension and meant for cross-checking at small sizes.  solve_rank_one
requires A = p q~ and assembles the optimum and its parametric solution
family in O(n^3) time.  Both return a SolutionFamily describing every
regular optimal solution as x = G u with g <= u <= u_high, u nonzero.

solve_rank_one's closed form sums (B^i p)(W_{n-2-i}) over i = 0..n-2, with
W_j the maximum of q~ B^0, ..., q~ B^j.  It takes the running maxima
V_i = V_{i-1} + B V_{i-1} and W_j = W_{j-1} + W_{j-1} B, each stopped at
its first repeat, after which it cannot change; V_i may replace B^i p, as
B^k p W_{n-2-i} <= B^k p W_{n-2-k} for k <= i.  As V rises and W_{n-2-i}
falls with i, the terms with n-2-dw <= i <= dv (dv, dw: the chains' last
indices) dominate the rest, or V_dv W_dw alone when there are none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import _kernels
from .semiring import (
    BOTTOM,
    ONE,
    PositiveCycleError,
    TropMatrix,
    TropScalar,
    TropVector,
    _FAST_CLOSURE_DIM,
    _p_lt,
    _p_str,
    _scaled_outer_sum,
)

__all__ = [
    "InfeasibleError",
    "EmptyBoxError",
    "RankOneProblem",
    "GeneralProblem",
    "SolutionFamily",
    "solve_rank_one",
    "solve_general",
    "family_member",
    "family_contains",
]


class InfeasibleError(ValueError):
    """The constraints admit no regular solution.

    kind is "cycle" (the relation B x <= x forces an impossible loop;
    cycle carries the witness node indices) or "bounds" (the box [g, h]
    conflicts with the linear constraints).
    """

    def __init__(self, message, *, kind, cycle=None):
        super().__init__(message)
        self.kind = kind
        self.cycle = cycle


class EmptyBoxError(ValueError):
    """A solution family whose parameter box is empty: u_low exceeds u_high.

    Exact data passes the box gate h~ B* g <= 0 only when u_low <= u_high,
    so this comes from float rounding (or from a family built by hand).
    """


def _square_dim(mat, name):
    if not mat.is_square:
        raise ValueError(f"{name} must be square, got {mat.shape}")
    return mat.shape[0]


@dataclass(frozen=True)
class RankOneProblem:
    """Minimize (x~ p)(q~ x) subject to B x <= x and g <= x <= h."""

    p: TropVector
    q: TropVector
    B: TropMatrix
    g: TropVector
    h: TropVector

    def __post_init__(self):
        n = _square_dim(self.B, "B")
        for name in ("p", "q", "g", "h"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have length {n}")
        if not self.p.is_nonzero:
            raise ValueError("p must be a nonzero vector")
        if not self.q.is_nonzero:
            raise ValueError("q must be a nonzero vector")
        if not self.h.is_regular:
            raise ValueError("upper bound h must be regular")
        if (self.q.conj() @ self.p).is_bottom:
            raise ValueError("degenerate objective: q~ p is bottom")

    @property
    def n(self):
        return len(self.p)

    def objective(self, x):
        """Objective value (x~ p)(q~ x) of a regular vector x."""
        return (x.conj() @ self.p) * (self.q.conj() @ x)


@dataclass(frozen=True)
class GeneralProblem:
    """Minimize x~ A x subject to B x <= x and g <= x <= h."""

    A: TropMatrix
    B: TropMatrix
    g: TropVector
    h: TropVector

    def __post_init__(self):
        n = _square_dim(self.A, "A")
        if self.B.shape != (n, n):
            raise ValueError(f"B must be {n}x{n}")
        for name in ("g", "h"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have length {n}")
        if not self.h.is_regular:
            raise ValueError("upper bound h must be regular")
        if self.A.spectral_radius().is_bottom:
            raise ValueError("degenerate objective: A has bottom spectral radius")

    @property
    def n(self):
        return self.A.shape[0]

    def objective(self, x):
        """Objective value x~ A x of a regular vector x."""
        return x.conj() @ (self.A @ x)


@dataclass(frozen=True)
class SolutionFamily:
    """All regular optimal solutions: x = G u, u nonzero, u_low <= u <= u_high.

    The optimum is theta.  The defining constraint data (B, g, h) is kept
    so membership of candidate solutions can be re-checked later.
    """

    theta: TropScalar
    G: TropMatrix
    u_low: TropVector
    u_high: TropVector
    B: TropMatrix
    g: TropVector
    h: TropVector

    def __post_init__(self):
        if not (self.u_low <= self.u_high):
            raise EmptyBoxError("inconsistent bounds: u_low exceeds u_high")

    @property
    def n(self):
        return len(self.u_high)


def _constraint_star(B):
    try:
        return B.star()
    except PositiveCycleError as e:
        raise InfeasibleError(
            f"infeasible linear constraint: {e}", kind="cycle", cycle=e.cycle
        ) from e


def _check_box_gate(gate):
    if not (gate <= ONE):
        raise InfeasibleError(
            f"box and linear constraints conflict (h~ B* g = {gate} > 0)",
            kind="bounds",
        )


def solve_rank_one(prob):
    """Closed-form O(n^3) solution family for a rank-one objective: on int64
    arrays where `_rank_one_int64` admits the problem, else on payloads."""
    B, g, h = prob.B, prob.g, prob.h
    star = _constraint_star(B)
    theta, G, u_high = _rank_one_int64(prob, star) or _rank_one_payload(
        prob, star
    )
    return SolutionFamily(
        theta=theta, G=G, u_low=g, u_high=u_high, B=B, g=g, h=h
    )


def _rank_one_int64(prob, star):
    """(theta, G, u_high) on int64 arrays, converted in once and out once;
    None unless the problem is integer, has at least _FAST_CLOSURE_DIM
    variables and passes `_kernels.rank_one_fits`."""
    b = prob.B._int_array() if prob.n >= _FAST_CLOSURE_DIM else None
    if b is None:
        return None
    vecs = [
        _kernels.from_payload_vec(v._e)
        for v in (prob.p, prob.q.conj(), prob.g, prob.h.conj())
    ]
    if any(v is None for v in vecs) or not _kernels.rank_one_fits(b, *vecs):
        return None
    p, qc, g, hc = vecs
    s = star._int_array()
    _check_box_gate(TropScalar(_kernels.dot(_kernels.vecmat(hc, s), g)))
    vs = _kernels.running_maxima(b, p, prob.n - 2)
    ws = _kernels.running_maxima(b, qc, prob.n - 2, left=True)
    iv, jw = _dominant_terms(prob.n, len(vs) - 1, len(ws) - 1)
    vs, ws = vs[iv], ws[jw]
    theta = TropScalar(_kernels.dot(_kernels.vecmat(qc, s), p)) + TropScalar(
        _kernels.dot(_kernels.matvec(vs, hc), _kernels.matvec(ws, g))
    )
    assert not theta.is_bottom, "optimal value fell to bottom"
    G = _scaled_outer_sum(s, -theta.value, vs, ws)
    u_high = _kernels.to_payload_vec(-_kernels.vecmat(hc, G))
    return theta, TropMatrix._from_int_array(G), TropVector._from_payloads(u_high)


def _rank_one_payload(prob, star):
    """(theta, G, u_high) computed on payloads, exact for every number type."""
    B, p, g, n = prob.B, prob.p, prob.g, prob.n
    hc, qc = prob.h.conj(), prob.q.conj()
    _check_box_gate((hc @ star) @ g)
    vs = _running_maxima(p, lambda v: B @ v, n - 2)
    ws = _running_maxima(qc, lambda w: w @ B, n - 2)
    iv, jw = _dominant_terms(n, len(vs) - 1, len(ws) - 1)
    vs, ws = [vs[i] for i in iv], [ws[j] for j in jw]
    theta = (qc @ star) @ p
    for v, w in zip(vs, ws):
        theta = theta + (hc @ v) * (w @ g)
    assert not theta.is_bottom, "optimal value fell to bottom"
    G = _scaled_outer_sum(star, theta.inv(), vs, ws)
    return theta, G, (hc @ G).conj()


def _running_maxima(x, step, cap):
    """[x, x + step(x), ...] up to index cap, stopped before the first
    repeat (see the module docstring)."""
    out = [x]
    for _ in range(cap):
        nxt = out[-1] + step(out[-1])
        if nxt == out[-1]:
            break
        out.append(nxt)
    return out


def _dominant_terms(n, dv, dw):
    """Indices (iv, jw) of the chain terms V_i W_j that dominate the rest,
    given the chains' last indices dv and dw (see the module docstring)."""
    if n < 2:
        return [], []
    iv = list(range(max(0, n - 2 - dw), dv + 1))
    return (iv, [n - 2 - i for i in iv]) if iv else ([dv], [dw])


def solve_general(prob):
    """Enumerative solution family for an arbitrary objective matrix.

    Runs in time exponential in the dimension; intended as an oracle for
    small problems (dimension at most about 8).
    """
    A, B, g, h = prob.A, prob.B, prob.g, prob.h
    n = prob.n
    star = _constraint_star(B)
    hc = h.conj()
    _check_box_gate((hc @ star) @ g)

    powers = [TropMatrix.identity(n)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ B)

    theta = BOTTOM
    for k in range(1, n + 1):
        # trace of the sum of A B^{i1} ... A B^{ik} over i1+...+ik <= n-k
        tr_k = BOTTOM
        limit = n - k
        for comb in product(range(limit + 1), repeat=k):
            if sum(comb) > limit:
                continue
            m = None
            for i in comb:
                seg = A @ powers[i] if i else A
                m = seg if m is None else m @ seg
            tr_k = tr_k + m.trace()
        theta = theta + tr_k ** Fraction(1, k)
    for k in range(1, n):
        # h~ B^{i0} A B^{i1} ... A B^{ik} g over i0+...+ik <= n-k-1
        val_k = BOTTOM
        limit = n - k - 1
        for comb in product(range(limit + 1), repeat=k + 1):
            if sum(comb) > limit:
                continue
            r = hc @ powers[comb[0]] if comb[0] else hc
            for i in comb[1:]:
                r = r @ A
                if i:
                    r = r @ powers[i]
            val_k = val_k + (r @ g)
        theta = theta + val_k ** Fraction(1, k)
    assert not theta.is_bottom, "optimal value fell to bottom"

    try:
        G = (theta.inv() * A + B).star()
    except PositiveCycleError as e:  # ruled out by the choice of theta
        raise AssertionError(f"generator star diverged: {e}") from e
    u_high = (hc @ G).conj()
    return SolutionFamily(
        theta=theta, G=G, u_low=g, u_high=u_high, B=B, g=g, h=h
    )


def family_member(fam, u):
    """Solution x = G u for an admissible parameter vector u."""
    if len(u) != fam.n:
        raise ValueError(f"parameter vector must have length {fam.n}")
    if not u.is_nonzero:
        raise ValueError("parameter vector must be nonzero")
    for i, (val, low, high) in enumerate(zip(u._e, fam.u_low._e, fam.u_high._e)):
        if _p_lt(val, low):
            raise ValueError(
                f"parameter u[{i}] = {_p_str(val)} is below the lower bound"
                f" {_p_str(low)}"
            )
        if _p_lt(high, val):
            raise ValueError(
                f"parameter u[{i}] = {_p_str(val)} exceeds the upper bound"
                f" {_p_str(high)}"
            )
    return fam.G @ u


def family_contains(fam, x, objective):
    """Whether the regular vector x is feasible with objective value theta."""
    if len(x) != fam.n:
        raise ValueError(f"candidate vector must have length {fam.n}")
    if not x.is_regular:
        raise ValueError("membership test needs a regular vector")
    if not ((fam.B @ x) <= x):
        return False
    if not (fam.g <= x):
        return False
    if not (x <= fam.h):
        return False
    return objective(x) == fam.theta
