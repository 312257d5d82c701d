"""Minimize x~ A x over max-plus vectors x subject to B x <= x and g <= x <= h.

Two solvers cover the same problem shape.  solve_general handles any A and
serves as the cross-check of solve_rank_one, which requires A = p q~; both
assemble the optimum and its parametric solution family in O(n^3) time.
Both return a SolutionFamily describing every regular optimal solution as
x = G u with g <= u <= u_high, u nonzero.

The general closed form takes theta as the maximum, over k >= 1, of the
1/k-th powers of the traces of the words in {A, B} of length at most n
with k factors A, and of h~ w g over the words w of length at most n - 1
with k factors A.  Those length bounds can be dropped.  A closed walk in
the graph of A and B splits into elementary cycles, and its weight over
its count of A-edges is at most the largest such ratio among them (the
mediant inequality), since a cycle with no A-edge is a cycle of B and
weighs at most 0 once B* exists.  A walk from a release to a deadline
splits into one elementary path and cycles in the same way, and a path
with no A-edge weighs at most 0 by the box gate h~ B* g <= 0.  With
S = B* and M = A S, theta is thus the spectral radius of M, its maximum
cycle mean (Karp's algorithm, `TropMatrix.spectral_radius`), max the
boundary terms (h~ S M^k g)^(1/k) for k = 1..n-1: one product A S, the
two stars and 2n - 1 vector-matrix products.

solve_rank_one's closed form is the same argument with one A-edge.  With
A = p q~, a walk from a release to a deadline through one A-edge weighs
(h~ B^i p)(q~ B^j g), and a closed walk through one A-edge q~ B^j B^i p.
The paper's truncated sum keeps the terms with i + j <= n - 2; a longer
term visits n + 1 nodes or more, so it repeats one.  A repeat on one side
of the A-edge closes a B-cycle, which weighs at most 0, so dropping it
gives a shorter term; a repeat across the A-edge splits off a closed walk
through it, which weighs at most q~ S p, and leaves a walk with no A-edge
from g to h, which weighs at most h~ S g <= 0 by the box gate.  So every
longer term is dominated, and the optimum is

    theta = q~ S p  +  (h~ S p)(q~ S g),

all tropical.  The generator is (theta^-1 p q~ + B)* = S (theta^-1 p q~ S)*
(Carré, 1971; Butkovič, "Max-linear Systems", 2010), and since theta is at
least q~ S p, (theta^-1 p q~ S)* = I + theta^-1 p q~ S, so

    G = S  +  theta^-1 (S p)(q~ S):

the star, one matrix-vector product each way and one rank-one update.

`_rank_one` writes that closed form once, over the backend that
`semiring._operands` picks for the whole problem.
"""

from __future__ import annotations

from . import _loops
from ._record import Record
from .semiring import (
    PositiveCycleError,
    TropMatrix,
    TropScalar,
    TropVector,
    _matrix,
    _operands,
    _p_add,
    _p_lt,
    _p_mul,
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

    Exact data passes the box gate h~ B* g <= 0 only when u_low <= u_high.
    The solvers lift a float u_high entry that rounding left below u_low by
    at most FLOAT_TOL (`_lift_rounded`), so this comes from a wider float
    rounding gap or from a family built by hand.
    """


def _square_dim(mat, name):
    if not mat.is_square:
        raise ValueError(f"{name} must be square, got {mat.shape}")
    return mat.shape[0]


class RankOneProblem(Record):
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


class GeneralProblem(Record):
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


class SolutionFamily(Record):
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
    # a float gate is positive only above FLOAT_TOL, as a cycle is in the star
    if gate.value is not None and _loops._positive(gate.value):
        raise InfeasibleError(
            f"box and linear constraints conflict (h~ B* g = {gate} > 0)",
            kind="bounds",
        )


def _lift_rounded(u_low, u_high):
    """u_high with each float entry that rounding left below u_low by at
    most FLOAT_TOL raised to u_low, as the box gate forgives a float gate
    within FLOAT_TOL; exact entries are left as they are."""
    return TropVector._from_payloads(
        low if _p_lt(high, low) and not _loops._positive(low - high) else high
        for low, high in zip(u_low._e, u_high._e)
    )


def solve_rank_one(prob):
    """Closed-form O(n^3) solution family for a rank-one objective, on the
    int64 kernels when `semiring._operands` admits B and the vectors with
    sums of 4n + 3 entries, else on exact payloads, with the same result."""
    B, g, h = prob.B, prob.g, prob.h
    star = _constraint_star(B)
    theta, G, u_high = _rank_one(prob, star)
    u_high = _lift_rounded(g, u_high)
    return SolutionFamily(
        theta=theta, G=G, u_low=g, u_high=u_high, B=B, g=g, h=h
    )


def _rank_one(prob, star):
    """(theta, G, u_high) for the rank-one problem with B* = `star`, on the
    backend `_operands` picks, converted in once and out once."""
    n = prob.n
    vecs = (prob.p, prob.q.conj(), prob.g, prob.h.conj())
    # B leads so that the span counts entries of B and the vectors: the
    # sums add at most 4n + 3 of them (see the int64 bound in `_kernels`)
    k, (_, s), (p, qc, g, hc) = _operands(
        [prob.B, star], [v._e for v in vecs], span=4 * n + 3
    )
    _check_box_gate(_scalar(k.dot(k.vecmat(hc, s), g)))
    sp, qs = k.matvec(s, p), k.vecmat(qc, s)
    theta = _p_add(k.dot(qs, p), _p_mul(k.dot(hc, sp), k.dot(qs, g)))
    assert theta is not None, "optimal value fell to bottom"
    G = _scaled_outer_sum(k, s, -theta, sp, qs)
    u_high = TropVector._from_payloads(k.to_payload_vec(k.vecmat(hc, G)))
    return _scalar(theta), _matrix(k, G), u_high.conj()


def _scaled_outer_sum(k, base, scale, v, w):
    """base + scale * outer(v, w), all tropical, on backend k: the
    generator's rank-one update, base[i][j] max (v_i + w_j) + scale."""
    acc = k.outer_acc(k.bottoms(len(v), len(w)), v, w)
    return k.scale_max(acc, scale, base)


def solve_general(prob):
    """Solution family for an arbitrary objective matrix, from the spectral
    radius of A B* and the boundary terms in the module docstring: O(n^3)
    time."""
    A, B, g, h = prob.A, prob.B, prob.g, prob.h
    star = _constraint_star(B)
    hc = h.conj()
    row = hc @ star
    _check_box_gate(row @ g)

    M = A @ star
    theta = M.spectral_radius()
    for k in range(1, prob.n):
        row = row @ M
        theta += (row @ g).root(k)
    assert not theta.is_bottom, "optimal value fell to bottom"

    try:
        G = (theta.inv() * A + B).star()
    except PositiveCycleError as e:  # ruled out by the choice of theta
        raise AssertionError(f"generator star diverged: {e}") from e
    u_high = _lift_rounded(g, (hc @ G).conj())
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
