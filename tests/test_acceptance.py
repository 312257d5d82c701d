"""Acceptance criteria, one test and one PASS/FAIL line per criterion.

The PASS/FAIL lines bypass output capture, so they show up in plain
`pytest -v` runs.  Every numeric comparison is exact; the timed criteria
use wall-clock budgets far above the expected runtimes.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import golden
import randgen
from tropsched import (
    GeneralProblem,
    InfeasibleError,
    TropMatrix,
    TropScalar,
    TropVector,
    ascii_gantt,
    brute_force_oracle,
    extract_schedule,
    family_contains,
    family_member,
    load_instance,
    makespan_value,
    outer,
    reduce_instance,
    solve_deviation,
    solve_general,
    solve_leq,
    solve_makespan,
    solve_rank_one,
    verify_schedule,
)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def run(num, desc):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"FAIL criterion {num}: {desc}")
            raise
        with capsys.disabled():
            print(f"PASS criterion {num}: {desc}")

    return run


def test_criterion_1_makespan_golden(inst, criterion):
    with criterion(1, "makespan golden values, exact, < 50 ms"):
        t0 = time.perf_counter()
        R, s = reduce_instance(inst)
        star = R.star()
        fam = solve_makespan(inst)
        sched = extract_schedule(fam, fam.u_high)
        elapsed = time.perf_counter() - t0

        assert R == TropMatrix(golden.R_ROWS)
        r2 = R @ R
        assert r2 == TropMatrix(golden.R_POW2_ROWS)
        assert R ** 3 == r2 and R ** 4 == r2 and R ** 5 == r2
        assert star == TropMatrix(golden.R_STAR_ROWS)
        c = inst.start_finish
        g = inst.release
        assert inst.finish_deadline.conj() @ c == TropVector(golden.FC_CONJ)
        assert s.conj() == TropVector(golden.S_CONJ)
        assert (s.conj() @ star) @ g == TropScalar(golden.GATE)
        assert s.conj().norm() == TropScalar(golden.S_CONJ_NORM)
        assert (c @ g).norm() == TropScalar(golden.CG_NORM)
        assert (c @ (R @ g)).norm() == TropScalar(golden.CRG_NORM)
        assert (c @ star).norm() == TropScalar(golden.CRSTAR_NORM)

        assert fam.theta == TropScalar(golden.MAKESPAN_THETA)
        assert fam.G == TropMatrix(golden.MAKESPAN_G_ROWS)
        assert fam.u_low == TropVector(golden.MAKESPAN_U_LOW)
        assert fam.u_high == TropVector(golden.MAKESPAN_U_HIGH)
        assert sched.start == TropVector(golden.X_OPT)
        assert sched.finish == TropVector(golden.Y_OPT)
        assert extract_schedule(fam, fam.u_low) == sched

        assert elapsed < 0.050, f"took {elapsed * 1000:.1f} ms"


def test_criterion_2_deviation_golden(inst, criterion):
    with criterion(2, "deviation golden values, exact, < 50 ms"):
        t0 = time.perf_counter()
        fam = solve_deviation(inst)
        lo = extract_schedule(fam, fam.u_low)
        hi = extract_schedule(fam, fam.u_high)
        elapsed = time.perf_counter() - t0

        assert fam.theta == TropScalar(golden.DEVIATION_THETA)
        assert fam.G == TropMatrix(golden.DEVIATION_G_ROWS)
        assert fam.u_high == TropVector(golden.DEVIATION_U_HIGH)
        assert lo.start == TropVector(golden.X_OPT)
        assert lo.finish == TropVector(golden.Y_OPT)
        assert hi.start == TropVector(golden.X_LATE)
        assert hi.finish == TropVector(golden.Y_LATE)

        # the third start sweeps exactly [4, 5] as u3 runs over [0, 5]
        attained = set()
        for k in range(11):
            t = Fraction(k, 2)
            sched = extract_schedule(fam, TropVector([0, 0, t, 0, 0]))
            x3 = sched.start[2].value
            assert x3 == max(4, t)
            assert 4 <= x3 <= 5
            attained.add(x3)
            assert verify_schedule(inst, sched).feasible
        assert min(attained) == 4 and max(attained) == 5
        assert Fraction(9, 2) in attained

        assert elapsed < 0.050, f"took {elapsed * 1000:.1f} ms"


def test_criterion_3_solver_cross_check(criterion):
    desc = "rank-one vs general solver on 200 random problems, < 30 s"
    with criterion(3, desc):
        rng = random.Random(93)
        t0 = time.perf_counter()
        for _ in range(200):
            prob = randgen.rand_rank_one(rng)
            fam_r = solve_rank_one(prob)
            gen = GeneralProblem(
                A=outer(prob.p, prob.q.conj()), B=prob.B, g=prob.g, h=prob.h
            )
            fam_g = solve_general(gen)
            assert fam_r.theta == fam_g.theta
            # g is generated regular, so every extreme below is regular
            for fam_a, fam_b in ((fam_r, fam_g), (fam_g, fam_r)):
                for u in (fam_a.u_low, fam_a.u_high):
                    x = family_member(fam_a, u)
                    assert family_contains(fam_b, x, prob.objective)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30, f"took {elapsed:.1f} s"


def test_criterion_4_brute_force_optimality(criterion):
    desc = "solver theta equals the lattice oracle on 100 instances, < 60 s"
    with criterion(4, desc):
        rng = random.Random(94)
        t0 = time.perf_counter()
        feasible = 0
        infeasible = 0
        while feasible < 100:
            inst = randgen.rand_instance(rng, nmax=4, width=6)
            oracle_mk = brute_force_oracle(inst, "makespan")
            if oracle_mk is None:
                with pytest.raises(InfeasibleError):
                    solve_makespan(inst)
                infeasible += 1
                continue
            assert solve_makespan(inst).theta == oracle_mk
            oracle_dev = brute_force_oracle(inst, "deviation")
            assert solve_deviation(inst).theta == oracle_dev
            feasible += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"took {elapsed:.1f} s ({infeasible} infeasible draws)"


def _rand_payload(rng, p_bottom=0.25):
    r = rng.random()
    if r < p_bottom:
        return None
    if r < 0.75:
        return rng.randint(-30, 30)
    return Fraction(rng.randint(-120, 120), rng.randint(1, 6))


def _rand_scalar(rng, p_bottom=0.25):
    return TropScalar(_rand_payload(rng, p_bottom))


def test_criterion_5_algebraic_law_suites(criterion):
    desc = "seven algebraic law suites, 500 seeded cases each"
    with criterion(5, desc):
        rng = random.Random(95)

        for _ in range(500):  # idempotency
            a = _rand_scalar(rng)
            assert a + a == a

        for _ in range(500):  # distributivity
            a, b, c = (_rand_scalar(rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c

        for _ in range(500):  # isotonicity
            a, b, c = (_rand_scalar(rng) for _ in range(3))
            if b < a:
                a, b = b, a
            assert a + c <= b + c
            assert a * c <= b * c

        for _ in range(500):  # binomial identity
            a, b = _rand_scalar(rng), _rand_scalar(rng)
            q = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            assert (a + b) ** q == a ** q + b ** q

        for _ in range(500):  # means inequality
            a, b = _rand_scalar(rng), _rand_scalar(rng)
            assert a + b >= (a * b) ** Fraction(1, 2)

        for _ in range(500):  # star fixpoint identities
            n = rng.randint(1, 4)
            a = TropMatrix(
                [
                    [
                        None if rng.random() < 0.4 else rng.randint(-9, 0)
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
            )
            s = a.star()
            eye = TropMatrix.identity(n)
            assert s == eye + a @ s
            assert s @ s == s

        for _ in range(500):  # greatest-solution property of solve_leq
            n = rng.randint(1, 4)
            rows = [
                [
                    None if rng.random() < 0.4 else rng.randint(-9, 9)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            for j in range(n):
                if all(rows[i][j] is None for i in range(n)):
                    rows[j][j] = rng.randint(-9, 9)
            a = TropMatrix(rows)
            b = TropVector([rng.randint(-9, 9) for _ in range(n)])
            x = solve_leq(a, b)
            assert (a @ x) <= b
            for i in range(n):
                if x[i].is_bottom:
                    continue
                bumped = TropVector(
                    [
                        x[j].value + 1 if j == i else x[j]
                        for j in range(n)
                    ]
                )
                assert not ((a @ bumped) <= b)


def test_criterion_6_complexity_smoke(criterion):
    desc = "solve_makespan at n = 50/100/200: cubic-like growth, < 10 s"
    with criterion(6, desc):
        # numpy imported sets the kernels' row gate at 20, so all three
        # sizes run on the int64 kernels; without it, n = 50 and 100 would
        # sit below the gate of an interpreter that has not imported numpy,
        # and the ratios would compare two backends
        import numpy  # noqa: F401

        rng = random.Random(96)
        instances = {n: randgen.layered_instance(rng, n) for n in (50, 100, 200)}
        solve_makespan(instances[50])  # warm-up
        times = {}
        for n, inst in instances.items():
            best = None
            for _ in range(2):
                t0 = time.perf_counter()
                fam = solve_makespan(inst)
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            times[n] = best
            assert fam.G._held_int_array() is not None, n
            sched = extract_schedule(fam, fam.u_high)
            assert verify_schedule(inst, sched).feasible
            assert makespan_value(sched) == fam.theta
        assert times[100] <= 10 * times[50], f"{times}"
        assert times[200] <= 10 * times[100], f"{times}"
        assert times[200] < 10.0, f"{times}"


def test_criterion_7_chart_fidelity(inst, criterion):
    desc = "ASCII chart bar spans cover the expected columns"
    with criterion(7, desc):
        name_w = max(len(nm) for nm in golden.NAMES)

        def spans(text):
            out = []
            for line in text.splitlines():
                if not line.startswith("session-"):
                    continue
                bar = line[name_w + 1:]
                first = bar.index("#")
                last = len(bar) - 1 - bar[::-1].index("#")
                out.append((first + 1, last + 1))
            return out

        fam = solve_makespan(inst)
        chart = ascii_gantt(golden.NAMES, extract_schedule(fam, fam.u_high))
        assert spans(chart) == [(1, 4), (2, 5), (5, 9), (1, 5), (6, 8)]

        dev = solve_deviation(inst)
        chart = ascii_gantt(golden.NAMES, extract_schedule(dev, dev.u_high))
        assert spans(chart)[2] == (6, 10)
