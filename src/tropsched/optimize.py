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

`_rank_one` writes that closed form once, over the backend that
`semiring._operands` picks for the whole problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import _loops
from .semiring import (
    BOTTOM,
    ONE,
    PositiveCycleError,
    TropMatrix,
    TropScalar,
    TropVector,
    _matrix,
    _operands,
    _p_add,
    _p_lt,
    _p_str,
    _scalar,
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
        # the spectral radius is bottom iff no node reaches itself in A+
        closed = _loops.closure(self.A._rows)
        if all(closed[i][i] is None for i in range(n)):
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
    """Closed-form O(n^3) solution family for a rank-one objective, on the
    int64 kernels when `semiring._operands` admits B and the vectors with
    sums of 4n entries, else on exact payloads, with the same result."""
    B, g, h = prob.B, prob.g, prob.h
    star = _constraint_star(B)
    theta, G, u_high = _rank_one(prob, star)
    return SolutionFamily(
        theta=theta, G=G, u_low=g, u_high=u_high, B=B, g=g, h=h
    )


def _rank_one(prob, star):
    """(theta, G, u_high) for the rank-one problem with B* = `star`, on the
    backend `_operands` picks, converted in once and out once."""
    n = prob.n
    vecs = (prob.p, prob.q.conj(), prob.g, prob.h.conj())
    # its sums add at most 4n entries: see the int64 bound in `_kernels`
    k, (b, s), (p, qc, g, hc) = _operands(
        [prob.B, star], [v._e for v in vecs], span=4 * n
    )
    _check_box_gate(_scalar(k.dot(k.vecmat(hc, s), g)))
    vs = k.running_maxima(b, p, n - 2)
    ws = k.running_maxima(b, qc, n - 2, left=True)
    iv, jw = _dominant_terms(n, len(vs) - 1, len(ws) - 1)
    vs, ws = k.take(vs, iv), k.take(ws, jw)
    theta = _p_add(
        k.dot(k.vecmat(qc, s), p), k.dot(k.matvec(vs, hc), k.matvec(ws, g))
    )
    assert theta is not None, "optimal value fell to bottom"
    G = _scaled_outer_sum(k, s, -theta, vs, ws) if iv else s
    u_high = TropVector._from_payloads(k.to_payload_vec(k.vecmat(hc, G)))
    return _scalar(theta), _matrix(k, G), u_high.conj()


def _scaled_outer_sum(k, base, scale, vs, ws):
    """base + scale * (sum of outer(vs[i], ws[i]) over i), all tropical:
    the generator assembly, one max-plus product of the stacked chain
    rows on backend k."""
    return k.scale_max(k.matmul(k.transpose(vs), ws), scale, base)


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
