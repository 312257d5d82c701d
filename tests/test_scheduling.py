"""Instance reduction, the two schedulers, verification, and the oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import golden
import randgen
from tropsched import (
    FloatOverflowError,
    InfeasibleError,
    ProjectInstance,
    Schedule,
    TropMatrix,
    TropScalar,
    TropVector,
    brute_force_oracle,
    deviation_value,
    extract_schedule,
    makespan_value,
    parse_instance,
    reduce_instance,
    solve_deviation,
    solve_makespan,
    verify_schedule,
)
from tropsched import _kernels, _loops
from tropsched.scheduling import _auto_tol, _violations
from tropsched.semiring import _MISSING, _operands, _p_str

N = None

HUGE = (
    "activity a start-by=1e308 finish-by=1.7e308\n"
    "activity b start-by=1.7e308 finish-by=1.7e308\n"
    "start-finish a -> a lag=1e308\n"
    "start-finish b -> b lag=1e308\n"
    "start-start a -> b lag=1e308\n"
)


def shifted_instance(inst, c):
    return ProjectInstance(
        start_start=inst.start_start,
        start_finish=inst.start_finish,
        finish_start=inst.finish_start,
        release=inst.release * TropScalar(c),
        start_deadline=inst.start_deadline * TropScalar(c),
        finish_deadline=inst.finish_deadline * TropScalar(c),
    )


class TestReduction:
    def test_combined_precedence_matrix(self, inst):
        R, s = reduce_instance(inst)
        assert R == TropMatrix(golden.R_ROWS)
        assert s == TropVector(golden.S_VEC)
        assert s.conj() == TropVector(golden.S_CONJ)

    def test_reduction_norms(self, inst):
        R, s = reduce_instance(inst)
        g = inst.release
        assert ((s.conj() @ R.star()) @ g) == TropScalar(golden.GATE)
        assert s.conj().norm() == TropScalar(golden.S_CONJ_NORM)


def payload_reduction(inst):
    """R = B + D C on payloads alone."""
    dc = TropMatrix._from_rows(
        _loops.matmul(inst.finish_start._rows, inst.start_finish._rows)
    )
    return inst.start_start + dc


def solve_without_kernels(build, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(_kernels, "available", lambda: False)
        fam = solve_makespan(build())
    return fam.theta, fam.G, fam.u_high


def dense_reduction(inst):
    """(R, s) payload rows and tuple by dense loops over every position:
    R = B + D C and s = (f~ C + h~)~, inner index ascending, and of two
    equal sums the first kept, as the payload products keep it."""
    b, c, d = (m._rows for m in (inst.start_start, inst.start_finish, inst.finish_start))
    n = inst.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            dc = None
            for k in range(n):
                if d[i][k] is not None and c[k][j] is not None:
                    v = d[i][k] + c[k][j]
                    if dc is None or v > dc:
                        dc = v
            row.append(b[i][j] if dc is None or (b[i][j] is not None and b[i][j] >= dc) else dc)
        rows.append(tuple(row))
    f, h = inst.finish_deadline._e, inst.start_deadline._e
    s = []
    for j in range(n):
        fc = None
        for k in range(n):
            if c[k][j] is not None:
                v = -f[k] + c[k][j]
                if fc is None or v > fc:
                    fc = v
        s.append(-(fc if fc >= -h[j] else -h[j]))
    return tuple(rows), tuple(s)


LAGS = {
    "ints": lambda rng: rng.choice([2**50, 2**50 + 1, -(2**51)])
    if rng.random() < 0.1 else rng.randint(-9, 9),
    "fractions": lambda rng: Fraction(rng.randint(-54, 54), rng.randint(1, 6)),
    "floats": lambda rng: rng.choice([0.0, -0.0, 0.1, -0.1, 0.2, 0.30000000000000004, -0.3]),
}


@st.composite
def lag_instances(draw):
    """A random instance of 1-8 activities whose numbers are all of one
    type: ints (some past 2^50), Fractions, or floats with both zeros, so
    that sums tie and the first of them must stay."""
    lag = LAGS[draw(st.sampled_from(sorted(LAGS)))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(1, 8)
    p = rng.choice([0.2, 0.5, 1.0])
    b, c, d = (
        [[lag(rng) if rng.random() < p else N for _ in range(n)] for _ in range(n)]
        for _ in range(3)
    )
    for j in range(n):
        c[j][j] = lag(rng)
    h, f = ([lag(rng) for _ in range(n)] for _ in range(2))
    return ProjectInstance(
        start_start=TropMatrix(b),
        start_finish=TropMatrix(c),
        finish_start=TropMatrix(d),
        release=TropVector([N] * n),
        start_deadline=TropVector(h),
        finish_deadline=TropVector(f),
    )


class TestReduceOnEntries:
    """R and s are summed over the finite entries of B, D and C alone."""

    @pytest.mark.parametrize("b, d, c, r", [
        (0.0, -0.0, -0.0, "0.0"),
        (-0.0, 0.0, 0.0, "-0.0"),
        (None, -0.0, 0.0, "0.0"),
        (None, -0.0, -0.0, "-0.0"),
    ])
    def test_equal_sums_keep_the_first(self, b, d, c, r):
        # of B and a D C term that tie, B stays: 0.0 == -0.0
        inst = ProjectInstance(
            start_start=TropMatrix([[b]]),
            start_finish=TropMatrix([[c]]),
            finish_start=TropMatrix([[d]]),
            release=TropVector([N]),
            start_deadline=TropVector([0.0]),
            finish_deadline=TropVector([-0.0]),
        )
        R, s = reduce_instance(inst)
        assert repr(R._rows) == repr(dense_reduction(inst)[0]) == f"(({r},),)"
        assert repr(s._e) == repr(dense_reduction(inst)[1])

    @settings(max_examples=500, deadline=None)
    @given(lag_instances())
    def test_matches_the_dense_reduction(self, inst):
        R, s = reduce_instance(inst)
        want_r, want_s = dense_reduction(inst)
        # repr tells 0.0 from -0.0 and an int from an equal Fraction
        assert repr(R._rows) == repr(want_r)
        assert repr(s._e) == repr(want_s)

    def test_instance_matrices_get_no_int64_array(self):
        # reduce, q = (1' C)~ and y = C x read the finite entries alone
        inst = randgen.layered_instance(random.Random(5), 300)
        fam = solve_makespan(inst)
        assert fam.B._held_int_array() is not None
        for u in (fam.u_low, fam.u_high):
            extract_schedule(fam, u)
        for m in (inst.start_start, inst.start_finish, inst.finish_start):
            assert m._held_int_array() is None

class TestReduceOnArrays:
    """An integer instance of at least 20 activities is reduced on its
    finite entries, and the star of R runs on int64 arrays; the array
    must be the one the payload result converts to."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(["random", "layered"]))
    def test_parity_with_payload_path(self, seed, kind):
        # the star converts R to the int64 array the payload result gives
        rng = random.Random(seed)
        if kind == "random":
            inst = randgen.rand_instance(rng, nmin=20, nmax=45)
        else:
            inst = randgen.layered_instance(rng, rng.randint(20, 60))
        R, _ = reduce_instance(inst)
        want = payload_reduction(inst)
        assert R == want
        assert _operands([R], span=inst.n - 1)[0] is _kernels
        assert np.array_equal(R._int_array(), _kernels.from_payload_rows(want._rows))

    @pytest.mark.parametrize("n", [20, 45, 300])
    def test_star_of_r_runs_on_int64(self, n):
        # numpy is loaded, so R converts once for the star from 20 rows
        R, _ = reduce_instance(randgen.layered_instance(random.Random(n), n))
        star = R.star()
        assert R._held_int_array() is not None
        assert star._held_int_array() is not None
        assert star == TropMatrix._from_rows(_loops.closure(R._rows)[0])

    def test_small_instances_stay_on_payloads(self):
        inst = randgen.rand_instance(random.Random(3), nmin=19, nmax=19)
        R, _ = reduce_instance(inst)
        assert R._intcache is _MISSING
        assert R == payload_reduction(inst)

    def test_entry_past_the_cap_takes_the_payload_path(self, monkeypatch):
        # every input entry converts, but one D C sum exceeds MAG_CAP
        def build():
            inst = randgen.layered_instance(random.Random(9), 30)
            d = [list(row) for row in inst.finish_start._rows]
            c = [list(row) for row in inst.start_finish._rows]
            d[29][3] = c[3][3] = _kernels.MAG_CAP
            return ProjectInstance(
                start_start=inst.start_start,
                start_finish=TropMatrix(c),
                finish_start=TropMatrix(d),
                release=inst.release,
                start_deadline=TropVector.full(30, 4 * _kernels.MAG_CAP),
                finish_deadline=TropVector.full(30, 5 * _kernels.MAG_CAP),
            )

        inst = build()
        assert inst.finish_start._int_array() is not None
        R, _ = reduce_instance(inst)
        assert R._int_array() is None
        assert R[29, 3] == TropScalar(2 * _kernels.MAG_CAP)
        assert R == payload_reduction(inst)
        fam = solve_makespan(build())
        assert (fam.theta, fam.G, fam.u_high) == solve_without_kernels(
            build, monkeypatch
        )

    def test_solve_matches_the_payload_solve(self, monkeypatch):
        def build():
            return randgen.layered_instance(random.Random(4), 40)

        fam = solve_makespan(build())
        assert fam.B._intcache is not _MISSING
        assert (fam.theta, fam.G, fam.u_high) == solve_without_kernels(
            build, monkeypatch
        )


class TestMakespan:
    def test_family(self, inst):
        fam = solve_makespan(inst)
        assert fam.objective == "makespan"
        assert fam.theta == TropScalar(golden.MAKESPAN_THETA)
        assert fam.G == TropMatrix(golden.MAKESPAN_G_ROWS)
        assert fam.u_low == TropVector(golden.MAKESPAN_U_LOW)
        assert fam.u_high == TropVector(golden.MAKESPAN_U_HIGH)

    def test_unique_schedule(self, inst):
        fam = solve_makespan(inst)
        hi = extract_schedule(fam, fam.u_high)
        lo = extract_schedule(fam, fam.u_low)
        assert hi == lo
        assert hi.start == TropVector(golden.X_OPT)
        assert hi.finish == TropVector(golden.Y_OPT)
        assert makespan_value(hi) == fam.theta
        assert verify_schedule(inst, hi).feasible


class TestDeviation:
    def test_family(self, inst):
        fam = solve_deviation(inst)
        assert fam.theta == TropScalar(golden.DEVIATION_THETA)
        assert fam.G == TropMatrix(golden.DEVIATION_G_ROWS)
        assert fam.u_high == TropVector(golden.DEVIATION_U_HIGH)

    def test_extreme_schedules(self, inst):
        fam = solve_deviation(inst)
        lo = extract_schedule(fam, fam.u_low)
        hi = extract_schedule(fam, fam.u_high)
        assert lo.start == TropVector(golden.X_OPT)
        assert lo.finish == TropVector(golden.Y_OPT)
        assert hi.start == TropVector(golden.X_LATE)
        assert hi.finish == TropVector(golden.Y_LATE)
        for sched in (lo, hi):
            assert verify_schedule(inst, sched).feasible
            assert deviation_value(sched.start) == fam.theta

    def test_third_start_sweeps_its_interval(self, inst):
        # the family is one-dimensional: x3 = max(4, u3) ranges over [4, 5]
        fam = solve_deviation(inst)
        attained = set()
        for t in (0, 1, 2, 3, 4, Fraction(9, 2), 5):
            u = TropVector([0, 0, t, 0, 0])
            sched = extract_schedule(fam, u)
            x3 = sched.start[2].value
            assert x3 == max(4, t)
            attained.add(x3)
            assert verify_schedule(inst, sched).feasible
            assert deviation_value(sched.start) == fam.theta
        assert min(attained) == 4 and max(attained) == 5
        assert Fraction(9, 2) in attained


class TestValues:
    def test_makespan_value(self):
        sched = Schedule(start=TropVector([0, 2]), finish=TropVector([5, 9]))
        assert makespan_value(sched) == TropScalar(9)

    def test_deviation_value(self):
        assert deviation_value(TropVector([1, 4, 2])) == TropScalar(3)
        with pytest.raises(TypeError, match="start-time vector"):
            deviation_value(
                Schedule(start=TropVector([0]), finish=TropVector([1]))
            )


class TestVerification:
    def _perturbed(self, starts, finishes):
        return Schedule(start=TropVector(starts), finish=TropVector(finishes))

    def _find(self, report, kind):
        hits = [v for v in report.violations if v.kind == kind]
        assert hits, f"no {kind} violation in {report.violations}"
        return hits[0]

    def test_optimal_schedule_is_feasible(self, inst):
        sched = self._perturbed(golden.X_OPT, golden.Y_OPT)
        report = verify_schedule(inst, sched)
        assert report.feasible
        assert report.violations == ()

    def test_start_start_violation(self, inst):
        # session-2 must start at least 1 after session-1
        sched = self._perturbed([0, 0, 4, 0, 5], [4, 4, 9, 5, 8])
        report = verify_schedule(inst, sched)
        v = self._find(report, "start-start")
        assert v.where == (1, 0)
        assert v.amount == TropScalar(1)
        assert v.detail == "x[1] >= 1 + x[0]"

    def test_start_finish_violation(self, inst):
        sched = self._perturbed(golden.X_OPT, [5, 5, 9, 5, 8])
        v = self._find(verify_schedule(inst, sched), "start-finish")
        assert v.where == (0,)
        assert v.amount == TropScalar(1)
        assert "y[0] == (C x)[0] = 4" == v.detail

    def test_finish_start_violation(self, inst):
        # session-3 cannot start before session-1 finishes
        sched = self._perturbed([0, 1, 3, 0, 5], [4, 5, 8, 5, 8])
        v = self._find(verify_schedule(inst, sched), "finish-start")
        assert v.where == (2, 0)
        assert v.amount == TropScalar(1)
        assert v.detail == "x[2] >= 0 + y[0]"

    def test_release_violation(self, inst):
        sched = self._perturbed([-1, 1, 4, 0, 5], [3, 5, 9, 5, 8])
        v = self._find(verify_schedule(inst, sched), "release")
        assert v.where == (0,)
        assert v.amount == TropScalar(1)
        assert v.detail == "x[0] >= 0"

    def test_start_deadline_violation(self, inst):
        sched = self._perturbed([5, 6, 9, 5, 10], [9, 10, 14, 10, 13])
        v = self._find(verify_schedule(inst, sched), "start-deadline")
        assert v.where == (0,)
        assert v.amount == TropScalar(1)
        assert v.detail == "x[0] <= 4"

    def test_finish_deadline_violation(self, inst):
        fam = solve_deviation(inst)
        hi = extract_schedule(fam, fam.u_high)
        relaxed = ProjectInstance(
            start_start=inst.start_start,
            start_finish=inst.start_finish,
            finish_start=inst.finish_start,
            release=inst.release,
            start_deadline=inst.start_deadline,
            finish_deadline=TropVector([12, 12, 9, 15, 12]),
        )
        v = self._find(verify_schedule(relaxed, hi), "finish-deadline")
        assert v.where == (2,)
        assert v.amount == TropScalar(1)
        assert v.detail == "y[2] <= 9"

    def test_size_mismatch(self, inst):
        with pytest.raises(ValueError, match="sizes differ"):
            verify_schedule(
                inst,
                Schedule(start=TropVector([0]), finish=TropVector([1])),
            )

    def test_float_tolerance_defaults(self):
        text = golden.FIXTURES.joinpath("vaccination.inst").read_text()
        finst = parse_instance(text, mode="float").instance
        jitter = 1e-12
        sched = Schedule(
            start=TropVector([v + jitter for v in golden.X_OPT]),
            finish=TropVector([float(v) for v in golden.Y_OPT]),
        )
        assert verify_schedule(finst, sched).feasible
        # past the tolerance, the same shift of the starts is reported
        shifted = Schedule(
            start=TropVector([v + 1e-6 for v in golden.X_OPT]),
            finish=sched.finish,
        )
        assert not verify_schedule(finst, shifted).feasible

    def test_exact_mode_is_strict(self, inst):
        eps = Fraction(1, 10 ** 12)
        sched = Schedule(
            start=TropVector([0, 1 - eps, 4, 0, 5]),
            finish=TropVector([4, 5 - eps, 9, 5, 8]),
        )
        report = verify_schedule(inst, sched)
        v = [x for x in report.violations if x.kind == "start-start"][0]
        assert v.amount == TropScalar(eps)


class TestInfeasibleInstances:
    def test_positive_precedence_cycle(self):
        inst = ProjectInstance(
            start_start=TropMatrix([[0, 1], [0, 0]]),
            start_finish=TropMatrix.diag([2, 2]),
            finish_start=TropMatrix.zeros(2),
            release=TropVector([0, 0]),
            start_deadline=TropVector([9, 9]),
            finish_deadline=TropVector([11, 11]),
        )
        with pytest.raises(InfeasibleError, match="cyclic precedence") as ei:
            solve_makespan(inst)
        assert ei.value.kind == "cycle"
        assert sorted(ei.value.cycle) == [0, 1]

    def test_deadline_conflict(self):
        inst = ProjectInstance(
            start_start=TropMatrix([[0]]),
            start_finish=TropMatrix([[4]]),
            finish_start=TropMatrix.zeros(1),
            release=TropVector([5]),
            start_deadline=TropVector([9]),
            finish_deadline=TropVector([8]),
        )
        with pytest.raises(InfeasibleError, match="deadlines incompatible") as ei:
            solve_deviation(inst)
        assert ei.value.kind == "bounds"


class TestInstanceValidation:
    def test_shapes(self):
        with pytest.raises(ValueError, match="must be square"):
            ProjectInstance(
                start_start=TropMatrix.zeros(2, 3),
                start_finish=TropMatrix.diag([1, 1]),
                finish_start=TropMatrix.zeros(2),
                release=TropVector([0, 0]),
                start_deadline=TropVector([1, 1]),
                finish_deadline=TropVector([2, 2]),
            )
        with pytest.raises(ValueError, match="finish-start matrix must be"):
            ProjectInstance(
                start_start=TropMatrix.zeros(2),
                start_finish=TropMatrix.diag([1, 1]),
                finish_start=TropMatrix.zeros(3),
                release=TropVector([0, 0]),
                start_deadline=TropVector([1, 1]),
                finish_deadline=TropVector([2, 2]),
            )
        with pytest.raises(ValueError, match="release vector"):
            ProjectInstance(
                start_start=TropMatrix.zeros(2),
                start_finish=TropMatrix.diag([1, 1]),
                finish_start=TropMatrix.zeros(2),
                release=TropVector([0]),
                start_deadline=TropVector([1, 1]),
                finish_deadline=TropVector([2, 2]),
            )

    def test_start_finish_column_regularity(self):
        with pytest.raises(ValueError, match="column-regular"):
            ProjectInstance(
                start_start=TropMatrix.zeros(2),
                start_finish=TropMatrix([[1, N], [N, N]]),
                finish_start=TropMatrix.zeros(2),
                release=TropVector([0, 0]),
                start_deadline=TropVector([1, 1]),
                finish_deadline=TropVector([2, 2]),
            )

    def test_deadlines_must_be_finite(self):
        with pytest.raises(ValueError, match="start deadlines"):
            ProjectInstance(
                start_start=TropMatrix.zeros(1),
                start_finish=TropMatrix([[1]]),
                finish_start=TropMatrix.zeros(1),
                release=TropVector([0]),
                start_deadline=TropVector([N]),
                finish_deadline=TropVector([2]),
            )

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="differ in length"):
            Schedule(start=TropVector([0]), finish=TropVector([1, 2]))
        with pytest.raises(ValueError, match="must be finite"):
            Schedule(start=TropVector([0, N]), finish=TropVector([1, 2]))


class TestExtractErrors:
    def test_undefined_completion(self):
        # activity 1 never appears on the finish side of a constraint
        inst = ProjectInstance(
            start_start=TropMatrix.identity(2),
            start_finish=TropMatrix([[2, 3], [N, N]]),
            finish_start=TropMatrix.zeros(2),
            release=TropVector([0, 0]),
            start_deadline=TropVector([5, 5]),
            finish_deadline=TropVector([9, 9]),
        )
        fam = solve_makespan(inst)
        with pytest.raises(ValueError, match="no start-finish constraint"):
            extract_schedule(fam, fam.u_high)

    def test_wrong_theta_fails_the_check(self, inst):
        fam = solve_makespan(inst)
        wrong = fam.replace(theta=fam.theta * TropScalar(1))
        with pytest.raises(AssertionError, match="has objective 9, expected 10"):
            extract_schedule(wrong, wrong.u_high)

    def test_tolerance_follows_the_data(self, inst):
        # float data: theta may be off by rounding noise, up to 1e-9
        text = golden.FIXTURES.joinpath("vaccination.inst").read_text()
        ffam = solve_makespan(parse_instance(text, mode="float").instance)
        near = ffam.replace(theta=ffam.theta * TropScalar(1e-12))
        assert extract_schedule(near, near.u_high).start == TropVector(golden.X_OPT)
        far = ffam.replace(theta=ffam.theta * TropScalar(1e-6))
        with pytest.raises(AssertionError, match="has objective"):
            extract_schedule(far, far.u_high)
        # exact data: no tolerance at all
        fam = solve_makespan(inst)
        off = fam.replace(theta=fam.theta * TropScalar(Fraction(1, 10**12)))
        with pytest.raises(AssertionError, match="has objective"):
            extract_schedule(off, off.u_high)

    def test_infeasible_member_fails_the_check(self, inst):
        fam = solve_deviation(inst)
        # a generator that ignores every lag: all starts at 0
        wrong = fam.replace(G=TropMatrix.identity(inst.n))
        with pytest.raises(AssertionError, match="violates its instance"):
            extract_schedule(wrong, wrong.u_low)

    def test_float_overflow_in_theta(self):
        # the makespan 1e308 + 1e308 overflows to inf in float arithmetic
        inst = parse_instance(HUGE, mode="float").instance
        with pytest.raises(FloatOverflowError, match="optimum is not finite"):
            solve_makespan(inst)

    def test_float_overflow_in_a_time(self):
        fam = solve_deviation(parse_instance(HUGE, mode="float").instance)
        assert fam.theta == TropScalar(1e308)
        u = TropVector([1.7e308, 1.7e308])
        # x[1] >= 1e308 + u[0]
        wide = fam.replace(u_high=u)
        with pytest.raises(FloatOverflowError, match="time is not finite"):
            extract_schedule(wide, u)


class TestSingleActivity:
    def test_makespan_is_the_duration(self):
        inst = ProjectInstance(
            start_start=TropMatrix([[0]]),
            start_finish=TropMatrix([[4]]),
            finish_start=TropMatrix.zeros(1),
            release=TropVector([0]),
            start_deadline=TropVector([8]),
            finish_deadline=TropVector([12]),
        )
        fam = solve_makespan(inst)
        assert fam.theta == TropScalar(4)
        assert fam.u_low == TropVector([0])
        assert fam.u_high == TropVector([8])
        for t in range(9):
            sched = extract_schedule(fam, TropVector([t]))
            assert sched.start == TropVector([t])
            assert sched.finish == TropVector([t + 4])
            assert verify_schedule(inst, sched).feasible
        dev = solve_deviation(inst)
        assert dev.theta == TropScalar(0)


class TestShiftAndRelaxation:
    def test_time_shift_invariance(self, inst):
        shifted = shifted_instance(inst, 7)
        fam = solve_makespan(shifted)
        assert fam.theta == TropScalar(golden.MAKESPAN_THETA)
        hi = extract_schedule(fam, fam.u_high)
        assert hi.start == TropVector([v + 7 for v in golden.X_OPT])
        assert hi.finish == TropVector([v + 7 for v in golden.Y_OPT])

    def test_relaxing_deadlines_never_hurts(self, inst):
        base = solve_makespan(inst).theta
        relaxed_inst = ProjectInstance(
            start_start=inst.start_start,
            start_finish=inst.start_finish,
            finish_start=inst.finish_start,
            release=inst.release,
            start_deadline=inst.start_deadline * TropScalar(2),
            finish_deadline=inst.finish_deadline * TropScalar(2),
        )
        assert solve_makespan(relaxed_inst).theta <= base


class TestOracle:
    def test_vaccination_values(self, inst):
        assert brute_force_oracle(inst, "makespan") == TropScalar(9)
        assert brute_force_oracle(inst, "deviation") == TropScalar(5)

    def test_infeasible_returns_none(self):
        inst = ProjectInstance(
            start_start=TropMatrix([[0, 1], [0, 0]]),
            start_finish=TropMatrix.diag([2, 2]),
            finish_start=TropMatrix.zeros(2),
            release=TropVector([0, 0]),
            start_deadline=TropVector([0, 0]),
            finish_deadline=TropVector([9, 9]),
        )
        assert brute_force_oracle(inst, "makespan") is None

    def test_empty_box_returns_none(self):
        inst = ProjectInstance(
            start_start=TropMatrix([[0]]),
            start_finish=TropMatrix([[4]]),
            finish_start=TropMatrix.zeros(1),
            release=TropVector([3]),
            start_deadline=TropVector([2]),
            finish_deadline=TropVector([9]),
        )
        assert brute_force_oracle(inst, "deviation") is None

    def test_fractional_step(self):
        inst = ProjectInstance(
            start_start=TropMatrix([[0]]),
            start_finish=TropMatrix([[4]]),
            finish_start=TropMatrix.zeros(1),
            release=TropVector([0]),
            start_deadline=TropVector([1]),
            finish_deadline=TropVector([5]),
        )
        assert brute_force_oracle(
            inst, "makespan", step=Fraction(1, 2)
        ) == TropScalar(4)

    def test_parameter_errors(self, inst):
        with pytest.raises(ValueError, match="objective must be one of"):
            brute_force_oracle(inst, "tardiness")
        with pytest.raises(ValueError, match="step must be positive"):
            brute_force_oracle(inst, "makespan", step=0)
        with pytest.raises(ValueError, match="grid too large"):
            brute_force_oracle(inst, "makespan", max_points=10)
        bottomless = ProjectInstance(
            start_start=TropMatrix([[0]]),
            start_finish=TropMatrix([[4]]),
            finish_start=TropMatrix.zeros(1),
            release=TropVector([N]),
            start_deadline=TropVector([2]),
            finish_deadline=TropVector([9]),
        )
        with pytest.raises(ValueError, match="finite release"):
            brute_force_oracle(bottomless, "makespan")

    def test_agrees_with_solver_on_random_instances(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 12:
            inst = randgen.rand_instance(rng, nmax=3, width=4)
            oracle = brute_force_oracle(inst, "makespan")
            if oracle is None:
                with pytest.raises(InfeasibleError):
                    solve_makespan(inst)
                continue
            assert solve_makespan(inst).theta == oracle
            checked += 1


class TestLargerInstances:
    def test_layered_instance_solves_and_verifies(self):
        # big enough that the int64 kernels carry the matrix work
        rng = random.Random(31)
        inst = randgen.layered_instance(rng, 60)
        fam = solve_makespan(inst)
        for u in (fam.u_low, fam.u_high):
            if not u.is_nonzero:
                continue
            sched = extract_schedule(fam, u)
            assert verify_schedule(inst, sched).feasible
            assert makespan_value(sched) == fam.theta

    def test_extract_reads_the_generator_array(self):
        # n = 30 is past the 20-row `_KERNEL_DIM` gate once numpy is imported,
        # and G already holds its int64 array, so G u runs there and boxes no
        # payload rows
        fam = solve_makespan(randgen.layered_instance(random.Random(30), 30))
        assert fam.G._held_int_array() is not None
        for u in (fam.u_low, fam.u_high):
            if u.is_nonzero:
                extract_schedule(fam, u)
        assert fam.G._rowcache is None


def dense_violations(inst, x, y, tol):
    """Every violation, found by visiting all 3 n^2 cells of B, C and D
    row by row: the walk the entry walk of `_violations` must reproduce."""
    n = inst.n
    b_rows = inst.start_start._rows
    c_rows = inst.start_finish._rows
    d_rows = inst.finish_start._rows
    out = []
    for i in range(n):
        for j in range(n):
            lag = b_rows[i][j]
            if lag is None or x[j] is None:
                continue
            lhs = lag + x[j]
            if x[i] is None or lhs > x[i] + tol:
                excess = None if x[i] is None else lhs - x[i]
                out.append(("start-start", (i, j), TropScalar(excess),
                            f"x[{i}] >= {_p_str(lag)} + x[{j}]"))
    for i in range(n):
        cx = None
        for j in range(n):
            lag = c_rows[i][j]
            if lag is None or x[j] is None:
                continue
            v = lag + x[j]
            if cx is None or v > cx:
                cx = v
        yi = y[i]
        if cx is None and yi is None:
            continue
        detail = f"y[{i}] == (C x)[{i}] = {_p_str(cx)}"
        if cx is None or yi is None:
            out.append(("start-finish", (i,), TropScalar(None), detail))
        elif yi > cx + tol or cx > yi + tol:
            diff = yi - cx if yi > cx else cx - yi
            out.append(("start-finish", (i,), TropScalar(diff), detail))
    for i in range(n):
        for j in range(n):
            lag = d_rows[i][j]
            if lag is None or y[j] is None:
                continue
            lhs = lag + y[j]
            if x[i] is None or lhs > x[i] + tol:
                excess = None if x[i] is None else lhs - x[i]
                out.append(("finish-start", (i, j), TropScalar(excess),
                            f"x[{i}] >= {_p_str(lag)} + y[{j}]"))
    g = inst.release._e
    h = inst.start_deadline._e
    f = inst.finish_deadline._e
    for i in range(n):
        xi, yi = x[i], y[i]
        if g[i] is not None and (xi is None or g[i] > xi + tol):
            excess = None if xi is None else g[i] - xi
            out.append(("release", (i,), TropScalar(excess),
                        f"x[{i}] >= {_p_str(g[i])}"))
        if xi is not None and xi > h[i] + tol:
            out.append(("start-deadline", (i,), TropScalar(xi - h[i]),
                        f"x[{i}] <= {_p_str(h[i])}"))
        if yi is not None and yi > f[i] + tol:
            out.append(("finish-deadline", (i,), TropScalar(yi - f[i]),
                        f"y[{i}] <= {_p_str(f[i])}"))
    return out


def violation_keys(violations):
    """kind, where, amount and detail of each violation, in order; repr
    tells an int from a float of the same value, and -0.0 from 0.0."""
    return [
        (kind, where, repr(amount.value), detail)
        for kind, where, amount, detail in violations
    ]


# exact integers, exact thirds, and float tenths (tol 1e-9)
_DATA = {
    "int": (lambda v: v, 0),
    "third": (lambda v: TropScalar(Fraction(v, 3)).value, 0),
    "float": (lambda v: v * 0.1, 1e-9),
}


def _mapped(inst, f, form, rng):
    """`inst` with every finite payload mapped by f, its matrices made from
    their shuffled finite entries (as a parse in file order gives them) or
    from payload rows."""

    def mat(m):
        if form == "rows":
            return TropMatrix._from_rows(
                tuple(None if v is None else f(v) for v in row) for row in m._rows
            )
        entries = [(i, j, f(v)) for i, j, v in m._entries()]
        rng.shuffle(entries)
        return TropMatrix._from_entries(m.shape, entries)

    def vec(v):
        return TropVector._from_payloads(None if e is None else f(e) for e in v._e)

    return ProjectInstance(
        start_start=mat(inst.start_start),
        start_finish=mat(inst.start_finish),
        finish_start=mat(inst.finish_start),
        release=vec(inst.release),
        start_deadline=vec(inst.start_deadline),
        finish_deadline=vec(inst.finish_deadline),
    )


def _base_schedule(inst, rng):
    """Integer starts and finishes: the latest optimal schedule when the
    instance solves, else random starts inside the box with y = C x."""
    try:
        fam = solve_makespan(inst)
        sched = extract_schedule(fam, fam.u_high)
        return list(sched.start._e), list(sched.finish._e)
    except (InfeasibleError, ValueError):
        g, h = inst.release._e, inst.start_deadline._e
        x = [rng.randint((g[i] or 0) - 1, h[i] + 1) for i in range(inst.n)]
        return x, list((inst.start_finish @ TropVector(x))._e)


class TestViolationsOnEntries:
    """`_violations` walks only the finite entries of B, C and D and must
    yield what the all-cells walk yields, in the same order."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.sampled_from(["random", "layered"]),
        st.sampled_from(sorted(_DATA)),
        st.sampled_from(["entries", "rows"]),
        st.booleans(),
    )
    def test_matches_the_dense_walk(self, seed, kind, data, form, holes):
        rng = random.Random(seed)
        if kind == "random":
            inst = randgen.rand_instance(rng, nmin=1, nmax=40)
        else:
            inst = randgen.layered_instance(rng, rng.randint(1, 40))
        x, y = _base_schedule(inst, rng)
        for vec in (x, y):
            for _ in range(rng.randint(0, 4)):
                k = rng.randrange(inst.n)
                vec[k] += rng.choice((-1, 1))
        f, tol = _DATA[data]
        x = [f(v) for v in x]
        y = [None if v is None else f(v) for v in y]
        if holes:
            # bottoms, as brute_force_oracle's y = C x can hold
            for vec in (x, y):
                for k in range(inst.n):
                    if rng.random() < 0.1:
                        vec[k] = None
        mapped = _mapped(inst, f, form, rng)
        got = [
            (v.kind, v.where, v.amount, v.detail)
            for v in _violations(mapped, tuple(x), tuple(y), tol)
        ]
        want = dense_violations(mapped, x, y, tol)
        assert violation_keys(got) == violation_keys(want)

    def test_order_is_row_major_not_file_order(self, inst):
        # every lag of B and D violated by an all-zero schedule is reported
        # by (i, j), however the entries were listed
        entries = list(inst.start_start._entries())
        shuffled = inst.replace(
            start_start=TropMatrix._from_entries(
                inst.start_start.shape, entries[::-1]
            ),
        )
        zero = Schedule(
            start=TropVector.ones(inst.n), finish=TropVector.ones(inst.n)
        )
        report = verify_schedule(shuffled, zero)
        where = [v.where for v in report.violations if v.kind == "start-start"]
        assert len(where) > 1
        assert where == sorted(where)
        assert report == verify_schedule(inst, zero)

    @pytest.mark.parametrize("which", ["start_start", "start_finish", "finish_start"])
    @pytest.mark.parametrize("position", [0, -1])
    def test_auto_tol_sees_every_float_lag(self, inst, which, position):
        m = getattr(inst, which)
        entries = list(m._entries())
        i, j, v = entries[position]
        entries[position] = (i, j, float(v))
        one_float = inst.replace(
            **{which: TropMatrix._from_entries(m.shape, entries)}
        )
        assert _auto_tol(inst) == 0
        assert _auto_tol(one_float) == 1e-9
        # exact times, so only the one float lag can loosen the check
        eps = Fraction(1, 10**12)
        sched = Schedule(
            start=TropVector([v + eps for v in golden.X_OPT]),
            finish=TropVector(golden.Y_OPT),
        )
        assert verify_schedule(one_float, sched).feasible
        assert not verify_schedule(inst, sched).feasible

    def test_auto_tol_sees_float_schedule_times(self, inst):
        sched = Schedule(
            start=TropVector([v + 1e-12 for v in golden.X_OPT]),
            finish=TropVector(golden.Y_OPT),
        )
        assert _auto_tol(inst, sched.start, sched.finish) == 1e-9
