"""Algebraic laws checked on randomized inputs.

All laws run on exact payloads (ints and Fractions); float payloads get
best-effort arithmetic, not bitwise law compliance, and are exercised by
the unit tests instead.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropsched import _kernels, semiring
from tropsched import (
    BOTTOM,
    ONE,
    PositiveCycleError,
    ProjectInstance,
    TropMatrix,
    TropScalar,
    TropVector,
    extract_schedule,
    makespan_value,
    outer,
    solve_leq,
    solve_makespan,
    verify_schedule,
)

payloads = st.one_of(
    st.none(),
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=6),
)
scalars = st.builds(TropScalar, payloads)
finite_scalars = st.builds(
    TropScalar, st.one_of(st.integers(-30, 30), st.fractions(-30, 30, max_denominator=6))
)
pos_exponents = st.fractions(
    min_value=Fraction(1, 4), max_value=4, max_denominator=4
)


def int_rows(n, lo=-9, hi=9):
    entry = st.one_of(st.none(), st.integers(lo, hi))
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    )


@st.composite
def square_matrices(draw, nmax=4, lo=-9, hi=9):
    n = draw(st.integers(1, nmax))
    return TropMatrix(draw(int_rows(n, lo, hi)))


@st.composite
def cycle_matrices(draw):
    """Small int or Fraction matrices, and int matrices past the size at
    which star runs the int64 kernels (20), filled from a drawn seed since
    drawing every entry of those would dominate the test's time.
    Self-loops are kept non-positive, so a positive cycle has to be found
    by the closure.

    A large matrix is mostly below its diagonal, as a project network is,
    with a drawn share of entries above it: its long row chains of
    negative entries fold into bottoms, which the int64 closure must clamp
    back to the sentinel, and about half of the draws have no positive
    cycle."""
    kind = draw(st.sampled_from(["int", "fraction", "large"]))
    hi = draw(st.integers(0, 5))
    if kind == "large":
        n = draw(st.integers(21, 30))
        rng = random.Random(draw(st.integers(0, 2**32)))
        density = rng.random()
        above = density * rng.choice([0.0, 0.05, 0.2, 1.0])
        rows = [
            [
                rng.randint(-5, hi) if rng.random() < (density if j < i else above) else None
                for j in range(n)
            ]
            for i in range(n)
        ]
    else:
        n = draw(st.integers(1, 6))
        entry = (
            st.fractions(-5, hi, max_denominator=3)
            if kind == "fraction"
            else st.integers(-5, hi)
        )
        rows = draw(
            st.lists(
                st.lists(st.one_of(st.none(), entry), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    for i in range(n):
        if rows[i][i] is not None:
            rows[i][i] = min(rows[i][i], 0)
    return TropMatrix(rows)


@st.composite
def matrix_pairs(draw, nmax=4):
    n = draw(st.integers(1, nmax))
    a = TropMatrix(draw(int_rows(n)))
    b = TropMatrix(draw(int_rows(n)))
    return a, b


@st.composite
def matrix_triples(draw, nmax=3):
    n = draw(st.integers(1, nmax))
    return tuple(TropMatrix(draw(int_rows(n))) for _ in range(3))


@st.composite
def vectors(draw, n=None, nmax=4, regular=False):
    if n is None:
        n = draw(st.integers(1, nmax))
    entry = st.integers(-9, 9) if regular else st.one_of(st.none(), st.integers(-9, 9))
    return TropVector(draw(st.lists(entry, min_size=n, max_size=n)))


class TestScalarLaws:
    @given(scalars, scalars, scalars)
    def test_add_monoid(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + a == a
        assert a + BOTTOM == a

    @given(scalars, scalars, scalars)
    def test_mul_monoid(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * ONE == a
        assert (a * BOTTOM).is_bottom

    @given(scalars, scalars, scalars)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(finite_scalars)
    def test_inverses(self, a):
        assert a * a.inv() == ONE

    @given(scalars, scalars)
    def test_order_agrees_with_addition(self, a, b):
        assert (a <= b) == (a + b == b)
        assert a <= a + b

    @given(scalars, scalars, scalars)
    def test_isotonicity(self, a, b, c):
        if a <= b:
            assert a + c <= b + c
            assert a * c <= b * c

    @given(scalars, scalars, pos_exponents)
    def test_binomial_identity(self, a, b, q):
        # powers distribute over addition because the order is total
        assert (a + b) ** q == a ** q + b ** q

    @given(scalars, scalars)
    def test_means_inequality(self, a, b):
        assert a + b >= (a * b) ** Fraction(1, 2)

    @given(finite_scalars, pos_exponents, pos_exponents)
    def test_power_laws(self, a, q1, q2):
        assert a ** (q1 + q2) == a ** q1 * a ** q2
        assert (a ** q1) ** q2 == a ** (q1 * q2)


class TestVectorLaws:
    @given(vectors(regular=True))
    def test_conj_involution(self, v):
        assert v.conj().conj() == v
        assert (v @ v.conj()) == ONE

    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(vectors(n=n), vectors(n=n))
    ))
    def test_norm_is_additive(self, pair):
        u, v = pair
        assert (u + v).norm() == u.norm() + v.norm()

    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(vectors(n=n), vectors(n=n), vectors(n=n))
    ))
    def test_outer_factorization(self, triple):
        x, y, z = triple
        assert outer(x, y) @ z == (y @ z) * x


class TestMatrixLaws:
    @given(matrix_triples())
    def test_matmul_associative_and_distributive(self, triple):
        a, b, c = triple
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ (b + c) == a @ b + a @ c
        assert (a + b) @ c == a @ c + b @ c

    @given(matrix_pairs())
    def test_transpose_reverses_products(self, pair):
        a, b = pair
        assert (a @ b).transpose() == b.transpose() @ a.transpose()

    @given(matrix_pairs())
    def test_trace_is_cyclic(self, pair):
        a, b = pair
        assert (a @ b).trace() == (b @ a).trace()

    @given(matrix_pairs())
    def test_norm_is_submultiplicative(self, pair):
        a, b = pair
        assert (a @ b).norm() <= a.norm() * b.norm()
        assert (a + b).norm() == a.norm() + b.norm()

    @given(square_matrices())
    def test_spectral_radius_at_most_norm(self, a):
        # every cycle mean is bounded by the largest entry
        assert a.spectral_radius() <= a.norm()

    @given(square_matrices())
    def test_identity_elements(self, a):
        n = a.shape[0]
        eye = TropMatrix.identity(n)
        assert eye @ a == a
        assert a @ eye == a
        assert a + TropMatrix.zeros(n) == a


class TestStarLaws:
    @settings(deadline=None)
    @given(square_matrices(lo=-9, hi=0))
    def test_fixpoint_identities(self, a):
        # nonpositive entries rule out positive cycles
        n = a.shape[0]
        s = a.star()
        eye = TropMatrix.identity(n)
        assert s == eye + a @ s
        assert s == eye + s @ a
        assert s @ s == s
        assert s.star() == s
        power_sum = eye
        acc = eye
        for _ in range(n - 1):
            acc = acc @ a
            power_sum = power_sum + acc
        assert s == power_sum

    @settings(deadline=None)
    @given(cycle_matrices())
    def test_star_or_positive_witness(self, a):
        # with numpy imported, the kernels take an int matrix from
        # `_KERNEL_DIM` rows, whichever test files were collected
        import numpy  # noqa: F401

        n = a.shape[0]
        outcomes = []
        for kernels in (True, False):
            m = TropMatrix._from_rows(a._rows)
            with pytest.MonkeyPatch.context() as mp:
                if not kernels:
                    mp.setattr(_kernels, "available", lambda: False)
                outcomes.append(star_or_witness(m))
                # the kernels convert `m` and keep its array
                served = m._held_int_array() is not None
                assert served == (kernels and n >= semiring._KERNEL_DIM)
        assert outcomes[0] == outcomes[1]


def star_or_witness(a):
    """Checks `a.star()` on the backend the caller set, and returns the
    star's rows or the positive cycle and its weight."""
    n = a.shape[0]
    try:
        s = a.star()
    except PositiveCycleError as e:
        assert len(set(e.cycle)) == len(e.cycle)
        weight = ONE
        cyc = e.cycle
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            weight = weight * a[u, v]
        assert weight == e.weight
        assert weight > ONE
        return e.cycle, e.weight
    arr = s._held_int_array()
    # the closure clamps every bottom back to at least the sentinel
    assert arr is None or arr.min() >= _kernels.NEG
    assert s == TropMatrix.identity(n) + a @ s
    return s._rows


@st.composite
def leq_systems(draw, nmax=4):
    n = draw(st.integers(1, nmax))
    rows = draw(int_rows(n))
    # force column regularity so the system has a solution at all
    for j in range(n):
        if all(rows[i][j] is None for i in range(n)):
            rows[j][j] = draw(st.integers(-9, 9))
    b = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    return TropMatrix(rows), TropVector(b)


class TestInequalityMaximality:
    @given(leq_systems())
    def test_solution_is_greatest(self, system):
        a, b = system
        x = solve_leq(a, b)
        assert (a @ x) <= b
        for i in range(len(x)):
            if x[i].is_bottom:
                continue
            bumped = TropVector(
                [
                    x[j].value + 1 if j == i and not x[j].is_bottom else x[j]
                    for j in range(len(x))
                ]
            )
            assert not ((a @ bumped) <= b)


@st.composite
def forward_instances(draw):
    """Feasible by construction: forward lags only, roomy deadlines."""
    n = draw(st.integers(1, 5))
    dur = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    b = [[None] * n for _ in range(n)]
    d = [[None] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = 0
        for j in range(i):
            lag = draw(st.one_of(st.none(), st.integers(-2, 4)))
            b[i][j] = lag
            if draw(st.booleans()):
                d[i][j] = 0
    release = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    top = 9 * n
    return ProjectInstance(
        start_start=TropMatrix(b),
        start_finish=TropMatrix.diag(dur),
        finish_start=TropMatrix(d),
        release=TropVector(release),
        start_deadline=TropVector([top] * n),
        finish_deadline=TropVector([top + 5] * n),
    )


class TestSchedulingProperties:
    @settings(deadline=None)
    @given(forward_instances())
    def test_extremes_verify_and_attain_theta(self, inst):
        fam = solve_makespan(inst)
        for u in (fam.u_low, fam.u_high):
            sched = extract_schedule(fam, u)
            assert verify_schedule(inst, sched).feasible
            assert makespan_value(sched) == fam.theta

    @settings(deadline=None)
    @given(forward_instances())
    def test_solver_is_deterministic(self, inst):
        fam1 = solve_makespan(inst)
        fam2 = solve_makespan(inst)
        assert fam1.theta == fam2.theta
        assert fam1.G == fam2.G
        assert fam1.u_high == fam2.u_high
