"""Rank-one and general conjugate-quadratic minimization."""

import dataclasses
import random

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import golden
import randgen
from tropsched import (
    GeneralProblem,
    InfeasibleError,
    RankOneProblem,
    SolutionFamily,
    TropMatrix,
    TropScalar,
    TropVector,
    family_contains,
    family_member,
    outer,
    solve_deviation,
    solve_general,
    solve_makespan,
    solve_rank_one,
)
from tropsched import _kernels, optimize
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
        # the check reads the closure's diagonal; A is degenerate exactly
        # when its spectral radius is bottom, positive cycles included
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

        if A.spectral_radius().is_bottom:
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
            assert same_family(fast.solutions, slow.solutions)

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
        # a B that already holds its array takes the kernels at any size;
        # at n = 1 there are no chain terms, so the kernel dot sees empty
        # input and the generator is B* itself
        for seed in range(8):
            def build():
                prob = potential_problem(seed, n)
                arr = _kernels.from_payload_rows(prob.B._rows)
                return dataclasses.replace(prob, B=TropMatrix._from_int_array(arr))

            fast, slow = solve_both(solve_rank_one, build)
            assert same_family(fast, slow)
            assert fast.G._held_int_array() is not None
            assert same_family(fast, solve_rank_one(potential_problem(seed, n)))

    def test_drifted_bottom_in_B_stays_bottom(self, small_sentinels):
        # B is a kernel output whose bottom entry [18, 17] sits just below
        # the cutoff; the chains must not carry it past the cutoff as if
        # it were finite
        n = 20
        arr = np.full((n, n), _kernels.NEG, dtype=np.int64)
        for i in range(1, n - 2):
            arr[i, i - 1] = 25
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


@pytest.fixture
def chain_terms(monkeypatch):
    """Records (dv, dw, iv, jw) of every rank-one solve: the last indices
    of the two running-maximum chains and the term indices kept."""
    seen = []
    pick = optimize._dominant_terms

    def spy(n, dv, dw):
        iv, jw = pick(n, dv, dw)
        seen.append((dv, dw, iv, jw))
        return iv, jw

    monkeypatch.setattr(optimize, "_dominant_terms", spy)
    return seen


def matches_reference(prob):
    fam = solve_rank_one(prob)
    return (fam.theta, fam.G, fam.u_high) == full_length_reference(prob)


class TestChainCut:
    """Stopping the running-maximum chains and keeping only the dominant
    terms must give exactly the full-length closed form."""

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
        assert got == full_length_reference(prob)

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
    def test_period_two_orbit(self, n, chain_terms):
        # zero-weight 2-cycles and no zero diagonal: B^2 p = p, so B^i p
        # never repeats its predecessor, but the running maxima stop at
        # once
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
        assert [t[:2] for t in chain_terms] == [(1, 1)]

    @pytest.mark.parametrize("n", [7, 40])
    def test_bare_path_runs_every_step(self, n, chain_terms):
        # x_i >= x_(i-1) + 1: both chains rise at every step, so no term
        # can be dropped
        prob = RankOneProblem(
            p=TropVector([0] + [N] * (n - 1)),
            q=TropVector.ones(n),
            B=TropMatrix(
                [[1 if j == i - 1 else N for j in range(n)] for i in range(n)]
            ),
            g=TropVector.zeros(n),
            h=TropVector.full(n, 10 * n),
        )
        assert matches_reference(prob)
        assert chain_terms == [
            (n - 2, n - 2, list(range(n - 1)), list(range(n - 2, -1, -1)))
        ]

    def test_unreached_bottoms_do_not_delay_the_stop(self, chain_terms):
        # node 0 reaches nothing and nothing reaches it, while nodes 1..n-1
        # form a chain of +5 lags; on arrays a bottom entry gains 5 per
        # step along that chain, which must not count as a change
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
        assert chain_terms[-1][:2] == (0, 0)

    def test_layered_instance_keeps_few_chain_rows(self, chain_terms):
        n = 200
        solve_makespan(randgen.layered_instance(random.Random(2), n))
        [(dv, dw, iv, jw)] = chain_terms
        assert max(dv, dw) + 1 < (n - 1) // 4
        assert len(iv) == len(jw) < (n - 1) // 4
