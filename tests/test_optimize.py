"""Rank-one and general conjugate-quadratic minimization."""

import random
import time

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import golden
import randgen
from tropsched import (
    EmptyBoxError,
    GeneralProblem,
    InfeasibleError,
    PositiveCycleError,
    RankOneProblem,
    SolutionFamily,
    TropMatrix,
    TropScalar,
    TropVector,
    family_contains,
    family_member,
    outer,
    reduce_instance,
    solve_deviation,
    solve_general,
    solve_makespan,
    solve_rank_one,
)
from tropsched import _kernels, _loops, optimize
from tropsched.optimize import _rank_one
from tropsched.semiring import _operands

N = None


def makespan_problem():
    """The reduced five-session problem with the makespan objective."""
    c = TropMatrix(golden.c_rows())
    q = (TropVector.ones(5) @ c).conj()
    return RankOneProblem(
        p=TropVector.ones(5),
        q=q,
        B=TropMatrix(golden.R_ROWS),
        g=TropVector(golden.RELEASE),
        h=TropVector(golden.S_VEC),
    )


class TestRankOneGolden:
    def test_solution_family(self):
        fam = solve_rank_one(makespan_problem())
        assert fam.theta == TropScalar(golden.MAKESPAN_THETA)
        assert fam.G == TropMatrix(golden.MAKESPAN_G_ROWS)
        assert fam.u_low == TropVector(golden.MAKESPAN_U_LOW)
        assert fam.u_high == TropVector(golden.MAKESPAN_U_HIGH)

    def test_every_box_parameter_gives_the_same_optimum(self):
        # this family is a single point: G u is constant over the box
        fam = solve_rank_one(makespan_problem())
        x_star = TropVector(golden.X_OPT)
        assert family_member(fam, fam.u_low) == x_star
        assert family_member(fam, fam.u_high) == x_star
        assert family_member(fam, TropVector([0, 0, 2, 0, 3])) == x_star

    def test_objective_at_optimum(self):
        prob = makespan_problem()
        assert prob.objective(TropVector(golden.X_OPT)) == TropScalar(9)
        assert prob.objective(TropVector([0, 1, 5, 0, 5])) == TropScalar(10)


class TestSingleVariable:
    def test_whole_interval_is_optimal(self):
        prob = RankOneProblem(
            p=TropVector([0]),
            q=TropVector([0]),
            B=TropMatrix([[N]]),
            g=TropVector([0]),
            h=TropVector([5]),
        )
        fam = solve_rank_one(prob)
        assert fam.theta == TropScalar(0)
        assert fam.G == TropMatrix([[0]])
        assert fam.u_low == TropVector([0])
        assert fam.u_high == TropVector([5])
        for t in range(6):
            x = family_member(fam, TropVector([t]))
            assert x == TropVector([t])
            assert prob.objective(x) == fam.theta


class TestFamilyMember:
    def test_bounds_enforced(self):
        fam = solve_rank_one(makespan_problem())
        with pytest.raises(ValueError, match="below the lower bound"):
            family_member(fam, TropVector([-1, 0, 0, 0, 0]))
        with pytest.raises(ValueError, match="exceeds the upper bound"):
            family_member(fam, TropVector([1, 0, 0, 0, 0]))
        with pytest.raises(ValueError, match="length"):
            family_member(fam, TropVector([0, 0]))
        with pytest.raises(ValueError, match="nonzero"):
            family_member(fam, TropVector.zeros(5))

    def test_bound_messages_name_the_values(self):
        fam = solve_rank_one(makespan_problem())
        with pytest.raises(ValueError) as low:
            family_member(fam, TropVector([0, 0, Fraction(-1, 2), 0, 0]))
        assert str(low.value) == (
            "parameter u[2] = -1/2 is below the lower bound 0"
        )
        with pytest.raises(ValueError) as high:
            family_member(fam, TropVector([0, 0, 0, 0, 6]))
        assert str(high.value) == (
            "parameter u[4] = 6 exceeds the upper bound 5"
        )
        with pytest.raises(ValueError) as bottom:
            family_member(fam, TropVector([N, 0, 0, 0, 0]))
        assert str(bottom.value) == (
            "parameter u[0] = -oo is below the lower bound 0"
        )

    def test_bottom_lower_bound_admits_any_value(self):
        prob = RankOneProblem(
            p=TropVector([0, 0]),
            q=TropVector([0, 0]),
            B=TropMatrix.zeros(2),
            g=TropVector([N, N]),
            h=TropVector([4, 4]),
        )
        fam = solve_rank_one(prob)
        assert fam.u_low == TropVector([N, N])
        for u in ([-(10**9), N], [N, Fraction(-7, 3)], [-2.5, 0.0]):
            assert family_member(fam, TropVector(u)) == fam.G @ TropVector(u)

    def test_partial_parameter_vectors_are_allowed(self):
        prob = RankOneProblem(
            p=TropVector([0, N]),
            q=TropVector([0, N]),
            B=TropMatrix.zeros(2),
            g=TropVector([N, N]),
            h=TropVector([4, 4]),
        )
        fam = solve_rank_one(prob)
        assert fam.theta == TropScalar(0)
        x = family_member(fam, TropVector([3, N]))
        assert x == TropVector([3, N])


class TestFamilyContains:
    def test_membership(self):
        prob = makespan_problem()
        fam = solve_rank_one(prob)
        assert family_contains(fam, TropVector(golden.X_OPT), prob.objective)
        # feasible but suboptimal
        assert not family_contains(
            fam, TropVector([0, 1, 5, 0, 5]), prob.objective
        )
        # violates the upper bound
        assert not family_contains(
            fam, TropVector([1, 2, 5, 1, 6]), prob.objective
        )
        # violates the precedence relation B x <= x
        assert not family_contains(
            fam, TropVector([0, 0, 4, 0, 5]), prob.objective
        )

    def test_needs_regular_vector(self):
        prob = makespan_problem()
        fam = solve_rank_one(prob)
        with pytest.raises(ValueError, match="regular"):
            family_contains(fam, TropVector([0, 1, N, 0, 5]), prob.objective)
        with pytest.raises(ValueError, match="length"):
            family_contains(fam, TropVector([0]), prob.objective)


class TestGeneralSolver:
    def test_agrees_on_the_golden_problem(self):
        prob = makespan_problem()
        gen = GeneralProblem(
            A=outer(prob.p, prob.q.conj()),
            B=prob.B,
            g=prob.g,
            h=prob.h,
        )
        fam = solve_general(gen)
        assert fam.theta == TropScalar(golden.MAKESPAN_THETA)
        assert fam.G == TropMatrix(golden.MAKESPAN_G_ROWS)
        assert fam.u_high == TropVector(golden.MAKESPAN_U_HIGH)

    def test_cross_check_on_random_problems(self):
        rng = random.Random(2024)
        for _ in range(20):
            prob = randgen.rand_rank_one(rng, nmax=5)
            fam1 = solve_rank_one(prob)
            gen = GeneralProblem(
                A=outer(prob.p, prob.q.conj()), B=prob.B, g=prob.g, h=prob.h
            )
            fam2 = solve_general(gen)
            assert fam1.theta == fam2.theta
            assert fam1.G == fam2.G
            assert fam1.u_high == fam2.u_high


def enumerated_general(prob):
    """(theta, G, u_high) of the general closed form with its sums taken
    tuple by tuple: tr(A B^i1 ... A B^ik) over i1 + ... + ik <= n - k and
    h~ B^i0 A B^i1 ... A B^ik g over i0 + ... + ik <= n - k - 1.  Exponential
    in n.  Raises InfeasibleError of the kind solve_general would."""
    A, B, g, h, n = prob.A, prob.B, prob.g, prob.h, prob.n
    try:
        star = B.star()
    except PositiveCycleError as e:
        raise InfeasibleError(str(e), kind="cycle") from e
    hc = h.conj()
    if (hc @ star) @ g > TropScalar(0):
        raise InfeasibleError("box and linear constraints conflict", kind="bounds")
    powers = [B**i for i in range(n)]
    theta = TropScalar()
    for k in range(1, n + 1):
        for comb in product(range(n - k + 1), repeat=k):
            if sum(comb) <= n - k:
                m = TropMatrix.identity(n)
                for i in comb:
                    m = m @ A @ powers[i]
                theta += m.trace() ** Fraction(1, k)
        for comb in product(range(n - k), repeat=k + 1):
            if sum(comb) <= n - k - 1:
                r = hc @ powers[comb[0]]
                for i in comb[1:]:
                    r = r @ A @ powers[i]
                theta += (r @ g) ** Fraction(1, k)
    G = (theta.inv() * A + B).star()
    return theta, G, (hc @ G).conj()


def recurrence_general(prob):
    """(theta, G, u_high) of the general closed form with its word sums
    taken one length at a time: the sum W(l, k) of the words of length l
    with k factors A follows W(l, k) = W(l-1, k) B + W(l-1, k-1) A from
    W(0, 0) = I, and h~ W(l, k) the same recurrence from h~.  n^2 matrix
    products, O(n^5); the gates, the float tolerances and the generator
    are the solver's."""
    A, B, g, h, n = prob.A, prob.B, prob.g, prob.h, prob.n
    star = optimize._constraint_star(B)
    hc = h.conj()
    optimize._check_box_gate((hc @ star) @ g)

    def extend(words):
        # each word ends in one more B, or in one more A, which moves it
        # from words[k] to words[k + 1]
        with_b = [w @ B for w in words]
        with_a = [w @ A for w in words]
        return with_b[:1] + [b + a for b, a in zip(with_b[1:], with_a)] + with_a[-1:]

    theta = TropScalar()
    words, rows = [TropMatrix.identity(n)], [hc]
    for _ in range(n):
        for k, r in enumerate(rows[1:], 1):
            theta += (r @ g).root(k)
        words, rows = extend(words), extend(rows)
        for k, w in enumerate(words[1:], 1):
            theta += w.trace().root(k)
    G = (theta.inv() * A + B).star()
    return theta, G, optimize._lift_rounded(g, (hc @ G).conj())


def powers_radius(m):
    """The spectral radius as the largest tr(m^k)^(1/k), k = 1..n: O(n^4)."""
    radius, power = TropScalar(), m
    for k in range(1, m.shape[0] + 1):
        if k > 1:
            power = power @ m
        radius += power.trace() ** Fraction(1, k)
    return radius


def assert_close(got, want):
    """Scalars, vectors or matrices with bottoms in the same places and
    finite entries within 1e-9."""

    def flat(x):
        if isinstance(x, TropMatrix):
            return [v for row in x._rows for v in row]
        return list(x._e) if isinstance(x, TropVector) else [x.value]

    got, want = flat(got), flat(want)
    assert [v is None for v in got] == [v is None for v in want]
    assert all(a is None or abs(a - b) <= 1e-9 for a, b in zip(got, want))


def general_problem(rng, n, p_bottom, unit, potentials):
    """A random GeneralProblem with entries in unit * [-3, 3], each of A, B
    and g bottom with probability p_bottom; one diagonal entry of A is
    finite, so the objective is never degenerate.  With `potentials`, B
    and the box come from potentials pi as in `potential_problem`, so the
    problem is feasible."""

    def entry():
        return N if rng.random() < p_bottom else rng.randint(-3, 3) * unit

    A = [[entry() for _ in range(n)] for _ in range(n)]
    i = rng.randrange(n)
    A[i][i] = rng.randint(-3, 3) * unit
    if potentials:
        pi = [rng.randint(-3, 3) * unit for _ in range(n)]
        B = [
            [N if rng.random() < p_bottom else pi[i] - pi[j] - rng.randint(0, 2) * unit
             for j in range(n)]
            for i in range(n)
        ]
        g = [N if rng.random() < p_bottom else v - rng.randint(0, 2) * unit for v in pi]
        h = [v + rng.randint(0, 2) * unit for v in pi]
    else:
        B = [[entry() for _ in range(n)] for _ in range(n)]
        g = [entry() for _ in range(n)]
        h = [rng.randint(-3, 3) * unit for _ in range(n)]
    return GeneralProblem(
        A=TropMatrix(A), B=TropMatrix(B), g=TropVector(g), h=TropVector(h)
    )


def general_outcome(seed, unit):
    """theta of a random `general_problem` in `unit`, or what ended it:
    the InfeasibleError kind, or "empty box"."""
    rng = random.Random(seed)
    n, p_bottom = rng.randint(1, 7), rng.choice([0.2, 0.5, 0.8, 1.0])
    prob = general_problem(rng, n, p_bottom, unit, rng.random() < 0.5)
    try:
        return solve_general(prob).theta.value
    except InfeasibleError as e:
        return e.kind
    except EmptyBoxError:
        return "empty box"


class TestGeneralRecurrence:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 7),
        st.sampled_from([0.2, 0.5, 0.8, 1.0]),
        st.sampled_from([1, Fraction(1, 3)]),
        st.booleans(),
        st.integers(0, 2**32),
    )
    def test_matches_the_enumeration(self, n, p_bottom, unit, potentials, seed):
        prob = general_problem(random.Random(seed), n, p_bottom, unit, potentials)
        assert prob.A.spectral_radius() == powers_radius(prob.A)
        try:
            expected = enumerated_general(prob)
        except InfeasibleError as e:
            for solve in (solve_general, recurrence_general):
                with pytest.raises(InfeasibleError) as got:
                    solve(prob)
                assert got.value.kind == e.kind
            return
        M = prob.A @ prob.B.star()
        assert M.spectral_radius() == powers_radius(M)
        assert recurrence_general(prob) == expected
        fam = solve_general(prob)
        assert (fam.theta, fam.G, fam.u_high) == expected

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 7),
        st.sampled_from([0.2, 0.5, 0.8, 1.0]),
        st.booleans(),
        st.integers(0, 2**32),
    )
    def test_float_tenths_match_the_recurrence(self, n, p_bottom, potentials, seed):
        prob = general_problem(random.Random(seed), n, p_bottom, 0.1, potentials)
        assert_close(prob.A.spectral_radius(), powers_radius(prob.A))
        try:
            expected = recurrence_general(prob)
        except InfeasibleError as e:
            with pytest.raises(InfeasibleError) as got:
                solve_general(prob)
            assert got.value.kind == e.kind
            return
        M = prob.A @ prob.B.star()
        assert_close(M.spectral_radius(), powers_radius(M))
        fam = solve_general(prob)
        for got, want in zip((fam.theta, fam.G, fam.u_high), expected):
            assert_close(got, want)

    def test_float_problems_in_tenths(self):
        # the same draws in float and in exact tenths: a rounded theta
        # leaves cycles of theta^-1 A + B about 1e-17 above 0, which must
        # not make the generator star diverge, a rounding cycle of B must
        # not read as a positive one, a box gate h~ B* g rounded just
        # above 0 must not read as a conflict, and a u_high entry rounded
        # just below u_low must not empty the box
        solved = 0
        for seed in range(300):
            got, want = (general_outcome(seed, unit) for unit in (0.1, Fraction(1, 10)))
            assert (got == "cycle") == (want == "cycle")
            assert got != "bounds" or want == "bounds"
            assert got != "empty box"
            if not isinstance(got, str) and not isinstance(want, str):
                assert abs(got - want) <= 1e-9
                solved += 1
        assert solved >= 100

    @pytest.mark.parametrize(
        "A, B, g, h, theta",
        [
            # the closed walk 2 -A-> 1 -B-> 3 -A-> 0 -B-> 2 weighs 0 over
            # two A factors: the word A B A B, no rotation of a B^i A^k
            (
                [[N, N, N, N], [N, N, N, N], [N, 2, -2, N], [0, N, N, N]],
                [[N, N, 1, N], [N, N, N, -3], [N, N, N, N], [N, N, N, N]],
                [N, N, N, N],
                [2, 4, 0, 6],
                0,
            ),
            # h~ A B g = 3 + 2 - 2 + 0: the word A B
            (
                [[-2, 2, N], [N, N, N], [N, N, -2]],
                [[N, N, N], [N, N, -2], [N, N, N]],
                [N, N, 0],
                [-3, -1, 3],
                3,
            ),
            # h~ B A g = 3 + 2 + 1 + 0: the word B A, which a boundary term
            # h~ (A B*)^k g without the leading B* misses
            (
                [[N, N, N], [N, N, 1], [N, N, -2]],
                [[N, 2, N], [N, N, N], [N, N, N]],
                [N, N, 0],
                [-3, 5, 0],
                6,
            ),
        ],
        ids=["trace", "boundary", "boundary-b-first"],
    )
    def test_theta_set_by_a_word_with_a_before_b(self, A, B, g, h, theta):
        prob = GeneralProblem(
            A=TropMatrix(A), B=TropMatrix(B), g=TropVector(g), h=TropVector(h)
        )
        fam = solve_general(prob)
        assert fam.theta == TropScalar(theta)
        assert (fam.theta, fam.G, fam.u_high) == enumerated_general(prob)

    def test_polynomial_time(self):
        prob = general_problem(random.Random(48), 48, 0.5, 1, potentials=True)
        elapsed = []
        for _ in range(3):
            t0 = time.perf_counter()
            solve_general(prob)
            elapsed.append(time.perf_counter() - t0)
        assert min(elapsed) < 0.5, f"took {min(elapsed) * 1000:.1f} ms"

    @pytest.mark.parametrize("n", [20, 24, 32, 100, 300])
    def test_rank_one_on_kernels_agrees(self, n):
        # numpy is imported, so the rank-one solve of these reduced
        # problems runs on the int64 kernels
        inst = randgen.layered_instance(random.Random(n), n)
        R, s = reduce_instance(inst)
        ones = TropVector.ones(n)
        for solve, q in (
            (solve_makespan, (ones @ inst.start_finish).conj()),
            (solve_deviation, ones),
        ):
            rank_one = solve(inst)
            assert rank_one.G._held_int_array() is not None
            prob = RankOneProblem(p=ones, q=q, B=R, g=inst.release, h=s)
            general = solve_general(
                GeneralProblem(A=outer(ones, q.conj()), B=R, g=inst.release, h=s)
            )
            assert rank_one.theta == general.theta
            for a, b in ((rank_one, general), (general, rank_one)):
                for u in (a.u_low, a.u_high):
                    assert family_contains(b, family_member(a, u), prob.objective)


class TestSpectralRadius:
    """Karp's cycle mean against the trace of powers, on each backend."""

    @staticmethod
    def _rows(rng, n, p_bottom, pick):
        return [[N if rng.random() < p_bottom else pick() for _ in range(n)]
                for _ in range(n)]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(20, 40), st.sampled_from([0.5, 0.8, 0.95]), st.integers(0, 2**32))
    def test_same_on_both_backends(self, n, p_bottom, seed):
        # numpy is imported, so from 20 rows the walk vectors take the
        # int64 kernels; with `available` false they take the payload loops
        rng = random.Random(seed)
        rows = self._rows(rng, n, p_bottom, lambda: rng.randint(-9, 9))
        fast = TropMatrix(rows)
        radius = fast.spectral_radius()
        assert fast._held_int_array() is not None
        assert radius == powers_radius(fast)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "available", lambda: False)
            slow = TropMatrix(rows)
            assert slow.spectral_radius() == radius
            assert slow._held_int_array() is None

    def test_walks_past_the_kernel_cap_fall_back(self, monkeypatch):
        # entries near MAG_CAP / 12: the int64 kernels take the first walk
        # steps, and once a walk entry passes MAG_CAP the payload loops take
        # the rest, with the same exact radius as the payloads alone
        n, cap = 24, _kernels.MAG_CAP // 12
        rng = random.Random(24)
        rows = self._rows(
            rng, n, 0.5, lambda: rng.choice([1, -1]) * (cap - rng.randint(0, 9))
        )
        calls = {}
        for k in (_kernels, _loops):
            real = k.vecmat

            def counted(v, a, k=k, real=real):
                calls[k] = calls.get(k, 0) + 1
                return real(v, a)

            monkeypatch.setattr(k, "vecmat", counted)
        radius = TropMatrix(rows).spectral_radius()
        assert calls[_kernels] > 0 and calls[_loops] > 0
        assert calls[_kernels] + calls[_loops] == n
        monkeypatch.setattr(_kernels, "available", lambda: False)
        assert TropMatrix(rows).spectral_radius() == radius
        assert powers_radius(TropMatrix(rows)) == radius


class TestInfeasible:
    def test_positive_cycle(self):
        prob = RankOneProblem(
            p=TropVector.ones(2),
            q=TropVector.ones(2),
            B=TropMatrix([[N, 2], [-1, N]]),
            g=TropVector([0, 0]),
            h=TropVector([9, 9]),
        )
        with pytest.raises(InfeasibleError, match="infeasible linear constraint") as ei:
            solve_rank_one(prob)
        assert ei.value.kind == "cycle"
        assert sorted(ei.value.cycle) == [0, 1]

    def test_box_conflict(self):
        # x0 >= x1 + 3 forces x0 >= 3, but h caps x0 at 2
        prob = RankOneProblem(
            p=TropVector.ones(2),
            q=TropVector.ones(2),
            B=TropMatrix([[N, 3], [N, N]]),
            g=TropVector([0, 0]),
            h=TropVector([2, 5]),
        )
        with pytest.raises(InfeasibleError, match="box and linear constraints") as ei:
            solve_rank_one(prob)
        assert ei.value.kind == "bounds"
        assert ei.value.cycle is None

    def test_general_solver_rejects_the_same_problems(self):
        gen = GeneralProblem(
            A=TropMatrix([[0, 0], [0, 0]]),
            B=TropMatrix([[N, 3], [N, N]]),
            g=TropVector([0, 0]),
            h=TropVector([2, 5]),
        )
        with pytest.raises(InfeasibleError) as ei:
            solve_general(gen)
        assert ei.value.kind == "bounds"

    @pytest.mark.parametrize("above", [0, 1e-6])
    def test_float_gate_within_the_tolerance(self, above):
        # x0 >= x1 + 0.1 >= x2 + 0.3 against x0 <= 0.3: the gate h~ B* g is
        # 0 in exact tenths and 5.55e-17 in float, which is no conflict;
        # rounding leaves u_high[2] at -5.55e-17, below g[2] = 0, and the
        # solver lifts it to 0, so the float box holds what the exact one does
        prob = RankOneProblem(
            p=TropVector.ones(3),
            q=TropVector.ones(3),
            B=TropMatrix([[N, 0.1, N], [N, N, 0.2], [N, N, N]]),
            g=TropVector([N, N, 0]),
            h=TropVector([0.3 - above, 5, 5]),
        )
        if above:
            with pytest.raises(InfeasibleError) as ei:
                solve_rank_one(prob)
            assert ei.value.kind == "bounds"
        else:
            assert (prob.h.conj() @ prob.B.star()) @ prob.g > TropScalar(0)
            fam = solve_rank_one(prob)
            assert abs(fam.theta.value - 0.3) <= 1e-9
            assert fam.u_high[2] == fam.u_low[2] == TropScalar(0)
            assert abs(fam.u_high[0].value - 0.3) <= 1e-9
            assert abs(fam.u_high[1].value - 0.2) <= 1e-9
            # the family keeps its exact check: a box emptied by hand raises
            with pytest.raises(EmptyBoxError):
                fam.replace(u_high=TropVector([0.3, 0.2, -5.55e-17]))

    def test_only_float_gaps_within_the_tolerance_are_lifted(self):
        # a float 1e-10 short is lifted; 1e-8 short, or exact, it is not
        third = Fraction(1, 3)
        close = third - Fraction(1, 10**12)
        low = TropVector([N, 1.0, 1.0, 1.0, third, 2])
        high = TropVector([0.5, 1.0 - 1e-10, 1.0 - 1e-8, 2.0, close, 1])
        lifted = optimize._lift_rounded(low, high)
        assert lifted._e == (0.5, 1.0, 1.0 - 1e-8, 2.0, close, 1)
        same = TropVector([0.5, 1.0, 1.5, 2.0, 1, 2])
        assert optimize._lift_rounded(low, same) == same


class TestValidation:
    def test_rank_one_preconditions(self):
        ones = TropVector.ones(2)
        B = TropMatrix.zeros(2)
        with pytest.raises(ValueError, match="p must be a nonzero vector"):
            RankOneProblem(p=TropVector.zeros(2), q=ones, B=B, g=ones, h=ones)
        with pytest.raises(ValueError, match="q must be a nonzero vector"):
            RankOneProblem(p=ones, q=TropVector.zeros(2), B=B, g=ones, h=ones)
        with pytest.raises(ValueError, match="h must be regular"):
            RankOneProblem(p=ones, q=ones, B=B, g=ones, h=TropVector([1, N]))
        with pytest.raises(ValueError, match="degenerate objective"):
            RankOneProblem(
                p=TropVector([0, N]),
                q=TropVector([N, 0]),
                B=B,
                g=ones,
                h=ones,
            )
        with pytest.raises(ValueError, match="must be square"):
            RankOneProblem(
                p=ones, q=ones, B=TropMatrix.zeros(2, 3), g=ones, h=ones
            )
        with pytest.raises(ValueError, match="length"):
            RankOneProblem(p=TropVector.ones(3), q=ones, B=B, g=ones, h=ones)

    def test_general_preconditions(self):
        ones = TropVector.ones(2)
        with pytest.raises(ValueError, match="degenerate objective"):
            GeneralProblem(
                A=TropMatrix.zeros(2), B=TropMatrix.zeros(2), g=ones, h=ones
            )
        with pytest.raises(ValueError, match="B must be"):
            GeneralProblem(
                A=TropMatrix([[0, 0], [0, 0]]),
                B=TropMatrix.zeros(3),
                g=ones,
                h=ones,
            )

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 6),
        st.sampled_from([0.3, 0.6, 0.8, 0.9]),
        st.integers(0, 2**32),
        st.sampled_from([1, Fraction(1, 3), 0.5]),
    )
    def test_degeneracy_matches_the_spectral_radius(self, n, p_bottom, seed, unit):
        # A is degenerate exactly when it has no cycle, positive cycles
        # included: the trace of some power up to A^n is then finite
        rng = random.Random(seed)
        A = TropMatrix(
            [
                [N if rng.random() < p_bottom else rng.randint(-3, 3) * unit
                 for _ in range(n)]
                for _ in range(n)
            ]
        )
        ones = TropVector.ones(n)

        def build():
            return GeneralProblem(A=A, B=TropMatrix.zeros(n), g=ones, h=ones)

        if powers_radius(A).is_bottom:
            with pytest.raises(ValueError, match="degenerate objective"):
                build()
        else:
            build()

    def test_inconsistent_family_bounds(self):
        with pytest.raises(ValueError, match="inconsistent bounds"):
            SolutionFamily(
                theta=TropScalar(0),
                G=TropMatrix.identity(1),
                u_low=TropVector([2]),
                u_high=TropVector([1]),
                B=TropMatrix.zeros(1),
                g=TropVector([2]),
                h=TropVector([1]),
            )


class TestStructuralInvariants:
    def test_diagonal_padding_changes_nothing(self):
        # B and B + I induce the same relation B x <= x
        rng = random.Random(555)
        for _ in range(15):
            prob = randgen.rand_rank_one(rng, nmax=5)
            padded = prob.B + TropMatrix.identity(prob.n)
            fam1 = solve_rank_one(prob)
            fam2 = solve_rank_one(
                RankOneProblem(p=prob.p, q=prob.q, B=padded, g=prob.g, h=prob.h)
            )
            assert fam1.theta == fam2.theta
            assert fam1.G == fam2.G
            assert fam1.u_high == fam2.u_high

    def test_generator_is_a_star_fixpoint(self):
        # G = (theta^-1 p q~ + B)* for the rank-one objective
        rng = random.Random(556)
        for _ in range(10):
            prob = randgen.rand_rank_one(rng, nmax=5)
            fam = solve_rank_one(prob)
            direct = (
                fam.theta.inv() * outer(prob.p, prob.q.conj()) + prob.B
            ).star()
            assert fam.G == direct

    def test_members_are_feasible_and_optimal(self):
        rng = random.Random(557)
        for _ in range(25):
            prob = randgen.rand_rank_one(rng, nmax=6)
            fam = solve_rank_one(prob)
            assert fam.u_low <= fam.u_high
            for u in (fam.u_high, fam.u_low):
                if not u.is_nonzero:
                    continue
                x = family_member(fam, u)
                if not x.is_regular:
                    continue
                assert family_contains(fam, x, prob.objective)


def potential_problem(seed, n, *, spread=40):
    """A random integer rank-one problem that is always feasible.

    B[i][j] = pi[i] - pi[j] - slack with slack >= 0, so a cycle weighs
    minus its slacks and B* <= pi pi~; g <= pi <= h then gives h~ B* g <= 0.
    The potentials pi lie in [-spread, spread].
    """
    rng = random.Random(seed)
    pi = [rng.randint(-spread, spread) for _ in range(n)]
    B = TropMatrix(
        [
            [pi[i] - pi[j] - rng.randint(0, 6) if rng.random() < 0.3 else N
             for j in range(n)]
            for i in range(n)
        ]
    )

    def sparse(lo, hi, p_bottom):
        return [N if rng.random() < p_bottom else rng.randint(lo, hi) for _ in range(n)]

    p, q = sparse(-9, 9, 0.3), sparse(-9, 9, 0.3)
    p[0], q[0] = rng.randint(-9, 9), rng.randint(-9, 9)  # q~ p is finite
    g = [N if v is N else pi[j] - v for j, v in enumerate(sparse(0, 5, 0.1))]
    h = [v + rng.randint(0, 5) for v in pi]
    return RankOneProblem(
        p=TropVector(p), q=TropVector(q), B=B, g=TropVector(g), h=TropVector(h)
    )


def solve_both(solve, build):
    """solve(build()) with the int64 kernels and with the payload code only;
    each run gets a fresh problem, so no cached array crosses over."""
    fast = solve(build())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "available", lambda: False)
        slow = solve(build())
    return fast, slow


def same_family(a, b):
    return (a.theta, a.G, a.u_high) == (b.theta, b.G, b.u_high)


def on_kernels(prob, star):
    """Whether `_rank_one` ran `prob` on the int64 kernels: only they leave
    the generator holding its array."""
    _, G, _ = _rank_one(prob, star)
    return G._held_int_array() is not None


class TestInt64Path:
    """The array solve must give exactly the payload solve's family."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(15, 45), st.integers(0, 2**32))
    def test_rank_one_matches_payload_path(self, n, seed):
        fast, slow = solve_both(solve_rank_one, lambda: potential_problem(seed, n))
        assert same_family(fast, slow)
        prob = potential_problem(seed, n)
        assert on_kernels(prob, prob.B.star()) == (n >= 20)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(15, 45), st.integers(0, 2**32))
    def test_scheduling_objectives_match_payload_path(self, n, seed):
        def build():
            return randgen.layered_instance(random.Random(seed), n)

        for solve in (solve_makespan, solve_deviation):
            fast, slow = solve_both(solve, build)
            assert same_family(fast, slow)

    def test_sums_past_the_cutoff_take_the_payload_path(self, small_sentinels):
        # every entry is within MAG_CAP (2**8 here) and the chain's paths
        # fit, so B* runs on arrays; but u_high[0] = -(19 * 107 + 256)
        # lies past the cutoff of -2**11, which the array solve would
        # return as bottom
        n = 20

        def build():
            return RankOneProblem(
                p=TropVector.ones(n),
                q=TropVector.ones(n),
                B=TropMatrix(
                    [[107 if j == i - 1 else N for j in range(n)] for i in range(n)]
                ),
                g=TropVector.zeros(n),
                h=TropVector.full(n, -256),
            )

        fast, slow = solve_both(solve_rank_one, build)
        assert same_family(fast, slow)
        assert fast.u_high[0] == TropScalar(-(19 * 107 + 256))
        prob = build()
        assert _operands([prob.B], span=n - 1)[0] is _kernels
        assert not on_kernels(prob, prob.B.star())

    @pytest.mark.parametrize("n", [1, 2])
    def test_held_array_below_20_variables(self, n):
        # a B that already holds its array takes the kernels at any size,
        # down to a single variable
        for seed in range(8):
            def build():
                prob = potential_problem(seed, n)
                arr = _kernels.from_payload_rows(prob.B._rows)
                return prob.replace(B=TropMatrix._from_int_array(arr))

            fast, slow = solve_both(solve_rank_one, build)
            assert same_family(fast, slow)
            assert fast.G._held_int_array() is not None
            assert same_family(fast, solve_rank_one(potential_problem(seed, n)))

    @pytest.mark.parametrize("n, on_arrays", [(511, True), (512, False)])
    def test_span_near_the_cap(self, n, on_arrays):
        # every entry of magnitude MAG_CAP - 1, along a bare path of lags:
        # the solve's sums span 4n + 3 entries, which stay short of the
        # cutoff 2**61 at n = 511 but not at n = 512, where the solve falls
        # back to the payloads; the star of n - 1 entries fits at both
        m = _kernels.MAG_CAP - 1
        prob = RankOneProblem(
            p=TropVector.full(n, m),
            q=TropVector.full(n, -m),
            B=TropMatrix([[m if j == i - 1 else N for j in range(n)] for i in range(n)]),
            g=TropVector([N] * (n - 1) + [-m]),
            h=TropVector.full(n, m),
        )
        star = prob.B.star()
        assert star._held_int_array() is not None
        got = _rank_one(prob, star)
        assert (got[1]._held_int_array() is not None) == on_arrays
        assert got == star_form_reference(prob)
        assert got[0] == TropScalar((n + 1) * m)

    def test_drifted_bottom_in_B_stays_bottom(self, small_sentinels):
        # B is a kernel output whose bottom entry [18, 17] sits just below
        # the cutoff; the star and the rank-one sums must not carry it past
        # the cutoff as if it were finite.  The lags of 24 keep the solve's
        # span, (4n + 3) * 24 = 1992, short of the cutoff 2**11, so it runs
        # on arrays
        n = 20
        arr = np.full((n, n), _kernels.NEG, dtype=np.int64)
        for i in range(1, n - 2):
            arr[i, i - 1] = 24
        arr[n - 2, n - 3] = _kernels.BOTTOM_CUTOFF - 1
        drifted = TropMatrix._from_int_array(arr)
        e0 = TropVector([0] + [N] * (n - 1))

        def solve(B):
            return solve_rank_one(
                RankOneProblem(
                    p=e0, q=e0, B=B, g=TropVector.zeros(n), h=TropVector.ones(n)
                )
            )

        fast = solve(drifted)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "available", lambda: False)
            slow = solve(TropMatrix(drifted._rows))
        assert same_family(fast, slow)
        assert fast.G[n - 2, 0].is_bottom
        prob = RankOneProblem(
            p=e0, q=e0, B=drifted, g=TropVector.zeros(n), h=TropVector.ones(n)
        )
        assert on_kernels(prob, drifted.star())


def full_length_reference(prob):
    """(theta, G, u_high) by the closed form with all n - 1 terms, written
    plainly over TropVector: every B^i p with the prefix maximum of
    q~ B^0 .. q~ B^(n-2-i), for i = 0..n-2."""
    B, p, g, n = prob.B, prob.p, prob.g, prob.n
    hc, qc = prob.h.conj(), prob.q.conj()
    star = B.star()
    vs, ws = [p], [qc]
    for _ in range(n - 2):
        vs.append(B @ vs[-1])
        ws.append(ws[-1] @ B)
    wpref = [ws[0]]
    for w in ws[1:]:
        wpref.append(wpref[-1] + w)
    terms = [(vs[i], wpref[n - 2 - i]) for i in range(n - 1)]
    theta = (qc @ star) @ p
    for v, w in terms:
        theta = theta + (hc @ v) * (w @ g)
    G = star
    for v, w in terms:
        G = G + theta.inv() * outer(v, w)
    return theta, G, (hc @ G).conj()


def scaled(prob, conv):
    """prob with every finite entry x replaced by conv(x)."""

    def vec(v):
        return TropVector([N if x is N else conv(x) for x in v._e])

    return RankOneProblem(
        p=vec(prob.p),
        q=vec(prob.q),
        B=TropMatrix([[N if x is N else conv(x) for x in r] for r in prob.B._rows]),
        g=vec(prob.g),
        h=vec(prob.h),
    )


def nonpositive_float_problem(seed, n):
    """A feasible float problem whose sums round: B <= 0 has no positive
    cycle, and g <= c <= h gives h~ B* g <= 0."""
    rng = random.Random(seed)

    def tenth(lo, hi, p_bottom=0.0):
        return N if rng.random() < p_bottom else rng.randint(lo, hi) / 10

    c = tenth(-50, 50)
    p = [tenth(-30, 30, 0.3) for _ in range(n)]
    q = [tenth(-30, 30, 0.3) for _ in range(n)]
    p[0], q[0] = tenth(-30, 30), tenth(-30, 30)
    return RankOneProblem(
        p=TropVector(p),
        q=TropVector(q),
        B=TropMatrix([[tenth(-30, 0, 0.6) for _ in range(n)] for _ in range(n)]),
        g=TropVector([c - tenth(0, 20) for _ in range(n)]),
        h=TropVector([c + tenth(0, 20) for _ in range(n)]),
    )


def star_form_reference(prob):
    """(theta, G, u_high) by the star form S = B*, theta = q~ S p max
    (h~ S p)(q~ S g) and G = S max theta^-1 (S p)(q~ S), written plainly
    over TropVector; it sums floats in the order `_rank_one` does."""
    hc, qc = prob.h.conj(), prob.q.conj()
    star = prob.B.star()
    sp, qs = star @ prob.p, qc @ star
    theta = qs @ prob.p + (hc @ sp) * (qs @ prob.g)
    G = star + theta.inv() * outer(sp, qs)
    return theta, G, (hc @ G).conj()


def bare_path(n):
    """A serial project x_i >= x_(i-1) + 1 with p the first unit vector and
    no release: theta is the path's length n - 1."""
    return RankOneProblem(
        p=TropVector([0] + [N] * (n - 1)),
        q=TropVector.ones(n),
        B=TropMatrix([[1 if j == i - 1 else N for j in range(n)] for i in range(n)]),
        g=TropVector.zeros(n),
        h=TropVector.full(n, 10 * n),
    )


def matches_reference(prob):
    fam = solve_rank_one(prob)
    return (fam.theta, fam.G, fam.u_high) == full_length_reference(prob)


class TestChainCut:
    """The star form, which sums every walk through one A-edge, must give
    exactly the paper's full-length closed form, which keeps the walks of
    at most n node visits; the shapes are those where the walks are long
    or never settle."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 19),
        st.integers(0, 2**32),
        st.sampled_from(["int", "fraction", "float"]),
    )
    def test_payload_parity(self, n, seed, kind):
        if kind == "float":
            prob = nonpositive_float_problem(seed, n)
        else:
            prob = potential_problem(seed, n)
            if kind == "fraction":
                prob = scaled(prob, lambda x: Fraction(x, 3))
        # the payload solve itself: rounded float data can fail
        # SolutionFamily's u_low <= u_high check, on either formula
        got = _rank_one(prob, prob.B.star())
        assert got[1]._held_int_array() is None
        if kind != "float":
            assert got == full_length_reference(prob)
            return
        # float sums round by their association, which the star form and
        # the full-length form do not share: bit for bit against the one,
        # within the float tolerance against the other
        assert repr(got) == repr(star_form_reference(prob))
        for a, b in zip(got, full_length_reference(prob)):
            assert_close(a, b)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(20, 45), st.integers(0, 2**32))
    def test_int64_parity(self, n, seed):
        prob = potential_problem(seed, n)
        got = _rank_one(prob, prob.B.star())
        assert got[1]._held_int_array() is not None
        assert got == full_length_reference(prob)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(20, 45), st.integers(0, 2**32))
    def test_int64_parity_with_drifted_bottoms(self, small_sentinels, n, seed):
        # B is a kernel output whose bottoms sit anywhere between the
        # sentinel and the cutoff
        base = potential_problem(seed, n, spread=1)
        rng = random.Random(seed)
        arr = base.B._int_array().copy()
        for i, j in zip(*(arr == _kernels.NEG).nonzero()):
            arr[i, j] = rng.randint(_kernels.NEG, _kernels.BOTTOM_CUTOFF)
        B = TropMatrix._from_int_array(arr)
        prob = RankOneProblem(p=base.p, q=base.q, B=B, g=base.g, h=base.h)
        assert on_kernels(prob, B.star())
        fam = solve_rank_one(prob)
        plain = RankOneProblem(
            p=base.p, q=base.q, B=TropMatrix(B._rows), g=base.g, h=base.h
        )
        assert (fam.theta, fam.G, fam.u_high) == full_length_reference(plain)

    @pytest.mark.parametrize("n", [6, 24])
    def test_period_two_orbit(self, n):
        # zero-weight 2-cycles and no zero diagonal: B^2 p = p, so B^i p
        # never repeats its predecessor
        rng = random.Random(n)
        rows = [[N] * n for _ in range(n)]
        for k in range(0, n, 2):
            w = rng.randint(1, 9)
            rows[k][k + 1], rows[k + 1][k] = w, -w
        prob = RankOneProblem(
            p=TropVector([rng.randint(-5, 5) for _ in range(n)]),
            q=TropVector([rng.randint(-5, 5) for _ in range(n)]),
            B=TropMatrix(rows),
            g=TropVector.zeros(n),
            h=TropVector.full(n, 100),
        )
        vs = [prob.p, prob.B @ prob.p, prob.B @ (prob.B @ prob.p)]
        assert vs[2] == vs[0] != vs[1]
        assert matches_reference(prob)

    @pytest.mark.parametrize("n", [7, 40])
    def test_bare_path_runs_every_step(self, n):
        # B^i p and q~ B^j rise at every step, and the longest walk,
        # through all n nodes, sets theta
        prob = bare_path(n)
        assert matches_reference(prob)
        assert solve_rank_one(prob).theta == TropScalar(n - 1)

    def test_bare_path_in_polynomial_time(self):
        # the shape where the closed form's terms are all distinct: the
        # star form costs the star and O(n^2) more, not a product per term
        prob = bare_path(800)
        elapsed = []
        for _ in range(3):
            t0 = time.perf_counter()
            solve_rank_one(prob)
            elapsed.append(time.perf_counter() - t0)
        assert min(elapsed) < 0.2, f"took {min(elapsed) * 1000:.1f} ms"

    def test_unreached_bottoms_do_not_delay_the_stop(self):
        # node 0 reaches nothing and nothing reaches it, while nodes 1..n-1
        # form a chain of +5 lags; on arrays a bottom entry of the star
        # gains 5 per step along that chain, which must stay bottom
        n = 24
        e0 = TropVector([0] + [N] * (n - 1))
        prob = RankOneProblem(
            p=e0,
            q=e0,
            B=TropMatrix(
                [[5 if j == i - 1 > 0 else N for j in range(n)] for i in range(n)]
            ),
            g=TropVector.zeros(n),
            h=TropVector.ones(n),
        )
        assert on_kernels(prob, prob.B.star())
        assert matches_reference(prob)

    def test_layered_instance(self):
        # the benchmark's shape, reduced as `solve_makespan` reduces it
        n = 200
        inst = randgen.layered_instance(random.Random(2), n)
        R, s = reduce_instance(inst)
        ones = TropVector.ones(n)
        q = (ones @ inst.start_finish).conj()
        prob = RankOneProblem(p=ones, q=q, B=R, g=inst.release, h=s)
        fam = solve_makespan(inst)
        assert fam.G._held_int_array() is not None
        assert (fam.theta, fam.G, fam.u_high) == full_length_reference(prob)
