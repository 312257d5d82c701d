"""Scalar, vector, and matrix algebra over the max-plus semiring."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import golden
from tropsched import (
    BOTTOM,
    ONE,
    PositiveCycleError,
    TropMatrix,
    TropScalar,
    TropVector,
    outer,
    solve_leq,
)
from tropsched import _kernels, _loops
from tropsched.semiring import _positive_cycle_witness, _tight

N = None


class TestScalar:
    def test_construction(self):
        assert TropScalar(3).value == 3
        assert TropScalar(None).is_bottom
        assert TropScalar(float("-inf")).is_bottom
        assert TropScalar(Fraction(7, 2)).value == Fraction(7, 2)
        assert TropScalar("9/2").value == Fraction(9, 2)
        assert TropScalar(TropScalar(4)).value == 4

    def test_integral_fractions_demote_to_int(self):
        v = TropScalar(Fraction(6, 2)).value
        assert v == 3 and type(v) is int
        v = TropScalar("8/4").value
        assert type(v) is int

    def test_floats_stay_floats(self):
        v = TropScalar(2.5).value
        assert v == 2.5 and type(v) is float

    def test_rejects_nan_and_plus_inf(self):
        with pytest.raises(ValueError):
            TropScalar(float("nan"))
        with pytest.raises(ValueError):
            TropScalar(float("inf"))

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            TropScalar(object())

    def test_add_is_max(self):
        assert TropScalar(2) + TropScalar(5) == TropScalar(5)
        assert TropScalar(2) + BOTTOM == TropScalar(2)
        assert BOTTOM + BOTTOM == BOTTOM
        assert TropScalar(2) + 7 == TropScalar(7)
        assert 7 + TropScalar(2) == TropScalar(7)

    def test_mul_is_plus(self):
        assert TropScalar(2) * TropScalar(5) == TropScalar(7)
        assert (TropScalar(2) * BOTTOM).is_bottom
        assert TropScalar(2) * ONE == TropScalar(2)
        assert TropScalar(2) * (-3) == TropScalar(-1)

    def test_pow_scales(self):
        assert TropScalar(6) ** 2 == TropScalar(12)
        assert TropScalar(6) ** Fraction(1, 2) == TropScalar(3)
        assert TropScalar(7) ** Fraction(1, 2) == TropScalar(Fraction(7, 2))
        assert TropScalar(6) ** 0 == ONE
        assert TropScalar(6) ** -1 == TropScalar(-6)
        assert TropScalar(2.0) ** 2 == TropScalar(4.0)

    def test_bottom_pow_needs_positive_exponent(self):
        assert (BOTTOM ** 2).is_bottom
        assert (BOTTOM ** Fraction(1, 3)).is_bottom
        with pytest.raises(ValueError, match="positive exponents"):
            BOTTOM ** 0
        with pytest.raises(ValueError, match="positive exponents"):
            BOTTOM ** -1

    def test_pow_rejects_scalar_exponent(self):
        with pytest.raises(TypeError):
            TropScalar(2) ** TropScalar(3)

    def test_inv(self):
        assert TropScalar(5).inv() == TropScalar(-5)
        assert TropScalar(5) * TropScalar(5).inv() == ONE
        with pytest.raises(ValueError, match="no inverse"):
            BOTTOM.inv()

    def test_root(self):
        assert TropScalar(7).root(2) == TropScalar(Fraction(7, 2))
        assert TropScalar(9).root(3) == TropScalar(3)

    def test_order_is_total_with_bottom_least(self):
        assert BOTTOM < TropScalar(-100)
        assert not (BOTTOM < BOTTOM)
        assert TropScalar(1) < TropScalar(2)
        assert TropScalar(2) <= TropScalar(2)
        assert TropScalar(3) > BOTTOM
        assert TropScalar(3) >= 3
        vals = [TropScalar(2), BOTTOM, TropScalar(-1), TropScalar(7)]
        assert sorted(vals) == [BOTTOM, TropScalar(-1), TropScalar(2), TropScalar(7)]

    def test_exact_and_float_compare(self):
        assert TropScalar(Fraction(1, 2)) == TropScalar(0.5)
        assert TropScalar(1) < 1.5

    def test_bool_hash_str(self):
        assert not BOTTOM
        assert TropScalar(0)
        assert str(BOTTOM) == "-oo"
        assert str(TropScalar(Fraction(9, 2))) == "9/2"
        assert hash(TropScalar(3)) == hash(TropScalar(3))
        assert TropScalar(3) != "3"


class TestVector:
    def test_builders(self):
        assert not TropVector.zeros(3).is_nonzero
        assert TropVector.ones(3) == TropVector([0, 0, 0])
        assert TropVector.full(2, 5) == TropVector([5, 5])

    def test_regular_and_nonzero(self):
        assert TropVector([1, 2]).is_regular
        v = TropVector([1, N])
        assert not v.is_regular and v.is_nonzero

    def test_conj_negates_entrywise(self):
        v = TropVector([3, N, -2])
        assert v.conj() == TropVector([-3, N, 2])
        assert v.conj().conj() == v

    def test_conj_of_zero_vector_fails(self):
        with pytest.raises(ValueError, match="zero vector has no conjugate"):
            TropVector.zeros(2).conj()

    def test_norm(self):
        assert TropVector([3, -1, 2]).norm() == TropScalar(3)
        assert TropVector.zeros(2).norm().is_bottom

    def test_add_mul(self):
        assert TropVector([1, N]) + TropVector([0, 2]) == TropVector([1, 2])
        assert TropVector([1, N]) * TropScalar(3) == TropVector([4, N])
        assert 3 * TropVector([1, N]) == TropVector([4, N])
        with pytest.raises(ValueError, match="lengths differ"):
            TropVector([1]) + TropVector([1, 2])

    def test_dot(self):
        assert TropVector([1, N, 3]) @ TropVector([0, 5, -1]) == TropScalar(2)
        assert (TropVector([1, N]) @ TropVector([N, 2])).is_bottom

    def test_vec_times_matrix(self):
        m = TropMatrix([[0, 2], [1, N]])
        assert TropVector([5, 0]) @ m == TropVector([5, 7])

    def test_getitem_and_slice(self):
        v = TropVector([1, 2, 3])
        assert v[1] == TropScalar(2)
        assert v[1:] == TropVector([2, 3])
        assert list(v) == [TropScalar(1), TropScalar(2), TropScalar(3)]

    def test_entrywise_order(self):
        assert TropVector([1, N]) <= TropVector([1, 0])
        assert not (TropVector([1, 1]) <= TropVector([1, 0]))
        assert TropVector([2, 2]) >= TropVector([1, N])

    def test_deadline_conjugation_example(self):
        # finish deadlines pulled back through the duration matrix
        f = TropVector(golden.FINISH_BY)
        c = TropMatrix(golden.c_rows())
        assert f.conj() @ c == TropVector(golden.FC_CONJ)
        f12 = TropVector.full(5, 12)
        assert f12.conj() @ c == TropVector([-8, -8, -7, -7, -9])


class TestMatrix:
    def test_shape_and_access(self):
        m = TropMatrix([[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)
        assert not m.is_square
        assert m[1, 2] == TropScalar(6)
        assert m[0] == TropVector([1, 2, 3])
        assert m.row(1) == TropVector([4, 5, 6])
        assert m.col(2) == TropVector([3, 6])
        assert m.transpose() == TropMatrix([[1, 4], [2, 5], [3, 6]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="unequal"):
            TropMatrix([[1, 2], [3]])

    def test_identity_zeros_diag(self):
        assert TropMatrix.identity(2) == TropMatrix([[0, N], [N, 0]])
        assert TropMatrix.zeros(2, 3).shape == (2, 3)
        assert TropMatrix.diag([4, 5]) == TropMatrix([[4, N], [N, 5]])

    def test_column_regular(self):
        assert TropMatrix([[1, N], [N, 0]]).is_column_regular
        assert not TropMatrix([[1, N], [2, N]]).is_column_regular
        entries = TropMatrix._from_entries
        assert entries((2, 2), [(1, 1, 0), (0, 0, 1)]).is_column_regular
        assert not entries((2, 2), [(0, 0, 1), (1, 0, 2)]).is_column_regular
        assert not entries((2, 2), []).is_column_regular

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_entries_form_reads_like_rows(self, data):
        """A matrix made from its finite entries, in any order, reads as
        the matrix made from the rows they describe."""
        m, n = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        cell = st.one_of(
            st.none(),
            st.integers(-5, 5),
            st.fractions(max_denominator=4).map(lambda f: TropScalar(f).value),
            st.floats(-5, 5, allow_nan=False),
        )
        rows = data.draw(
            st.lists(
                st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
        dense = TropMatrix(rows)
        finite = [
            (i, j, v)
            for i, row in enumerate(dense._rows)
            for j, v in enumerate(row)
            if v is not None
        ]
        shuffled = data.draw(st.permutations(finite))
        sparse = TropMatrix._from_entries((m, n), shuffled)
        assert sparse._rowcache is None
        assert sparse._entries() == finite == dense._entries()
        assert sparse.is_column_regular == dense.is_column_regular
        assert sparse._rowcache is None
        assert sparse._rows == dense._rows
        assert sparse == dense and sparse.shape == dense.shape

    def test_entries_of_rows_are_listed_once(self):
        # reduce, q, extract_schedule and verify_schedule each read them
        m = TropMatrix([[1, N, 0.5], [N, N, N], [N, Fraction(1, 2), 4]])
        first = m._entries()
        assert first == [(0, 0, 1), (0, 2, 0.5), (2, 1, Fraction(1, 2)), (2, 2, 4)]
        assert m._entries() is first
        assert m == TropMatrix._from_rows(m._rows) and m._rows[1] == (N, N, N)
        held = TropMatrix._from_int_array(_kernels.from_payload_rows([[N, 3], [2, N]]))
        assert held._entries() is held._entries() == [(0, 1, 3), (1, 0, 2)]

    def test_empty_entries_read_as_bottom_rows(self):
        m = TropMatrix._from_entries((2, 3), [])
        assert m._entries() == []
        assert m._rows == TropMatrix.zeros(2, 3)._rows
        assert (m._int_array() == _kernels.NEG).all()

    def test_add_is_entrywise_max(self):
        a = TropMatrix([[1, N], [0, 5]])
        b = TropMatrix([[0, 2], [3, N]])
        assert a + b == TropMatrix([[1, 2], [3, 5]])
        assert a + a == a

    def test_matmul(self):
        d = TropMatrix(golden.D_ROWS)
        c = TropMatrix(golden.c_rows())
        dc = d @ c
        assert dc[2, 0] == TropScalar(4)
        assert dc[4, 1] == TropScalar(4)
        assert dc[4, 3] == TropScalar(5)
        assert dc[0, 0].is_bottom
        b = TropMatrix(golden.B_ROWS)
        assert b + dc == TropMatrix(golden.R_ROWS)

    def test_matvec(self):
        r = TropMatrix(golden.R_ROWS)
        g = TropVector(golden.RELEASE)
        c = TropMatrix(golden.c_rows())
        assert (c @ g).norm() == TropScalar(golden.CG_NORM)
        assert (c @ (r @ g)).norm() == TropScalar(golden.CRG_NORM)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="cannot multiply"):
            TropMatrix.zeros(2, 3) @ TropMatrix.zeros(2, 3)
        with pytest.raises(ValueError, match="cannot multiply"):
            TropMatrix.zeros(2, 3) @ TropVector([1, 2])

    def test_pow(self):
        r = TropMatrix(golden.R_ROWS)
        assert r ** 0 == TropMatrix.identity(5)
        assert r ** 1 == r
        r2 = TropMatrix(golden.R_POW2_ROWS)
        assert r ** 2 == r2
        # longest paths stabilize after two hops in this graph
        for k in (3, 4, 5):
            assert r ** k == r2
        with pytest.raises(ValueError):
            r ** -1
        with pytest.raises(ValueError):
            TropMatrix.zeros(2, 3) ** 2

    def test_trace_and_series(self):
        m = TropMatrix([[N, 2], [3, N]])
        assert m.trace().is_bottom
        assert TropMatrix([[1, 2], [3, -4]]).trace() == TropScalar(1)

    def test_spectral_radius(self):
        m = TropMatrix([[N, 2], [3, N]])
        assert m.spectral_radius() == TropScalar(Fraction(5, 2))
        # rank-one outer product: radius equals the largest p_i / q_i
        p = TropVector([1, 2])
        q = TropVector([0, 0])
        assert outer(p, q.conj()).spectral_radius() == TropScalar(2)
        assert TropMatrix.zeros(2).spectral_radius().is_bottom

    def test_norm(self):
        assert TropMatrix([[1, N], [7, -2]]).norm() == TropScalar(7)
        assert TropMatrix.zeros(2).norm().is_bottom

    def test_star_golden(self):
        r = TropMatrix(golden.R_ROWS)
        assert r.star() == TropMatrix(golden.R_STAR_ROWS)

    def test_star_small_cases(self):
        assert TropMatrix.identity(3).star() == TropMatrix.identity(3)
        assert TropMatrix.zeros(3).star() == TropMatrix.identity(3)
        empty = TropMatrix([])
        assert empty.star().shape == (0, 0)
        assert TropMatrix([[-1]]).star() == TropMatrix([[0]])
        with pytest.raises(ValueError, match="square"):
            TropMatrix.zeros(2, 3).star()

    def test_star_positive_self_loop(self):
        with pytest.raises(PositiveCycleError) as ei:
            TropMatrix([[1]]).star()
        assert ei.value.cycle == (0,)
        assert ei.value.weight == TropScalar(1)
        assert "positive cycle" in str(ei.value)

    def test_star_positive_two_cycle(self):
        m = TropMatrix([[N, 2], [-1, N]])
        with pytest.raises(PositiveCycleError) as ei:
            m.star()
        assert _cycle_weight(m, ei.value.cycle) == ei.value.weight
        assert ei.value.weight > ONE

    def test_matrix_order(self):
        a = TropMatrix([[1, N], [0, 5]])
        assert a <= a + TropMatrix([[0, 2], [3, N]])
        with pytest.raises(ValueError):
            a <= TropMatrix.zeros(3)

    def test_str_alignment(self):
        s = str(TropMatrix([[1, N], [-10, 0]]))
        assert s.splitlines()[0].startswith("[")
        assert "-oo" in s


def _cycle_weight(m, cycle):
    total = ONE
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        total = total * m[a, b]
    return total


@st.composite
def tenths_matrices(draw):
    """(exact, float): one matrix of n <= 12 rows in tenths, with Fraction
    and with float entries.  Its entries are random, or potential
    differences p[v] - p[u] less a slack that is mostly 0 and sometimes
    -1, so that many cycles weigh exactly 0 and some are positive."""
    n = draw(st.integers(1, 12))
    share = draw(st.sampled_from([20, 40, 70, 100]))
    if draw(st.booleans()):
        p = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
        slack = st.sampled_from([0, 0, 0, 1, 2, -1])

        def entry(u, v):
            return p[v] - p[u] - draw(slack)
    else:

        def entry(u, v):
            return draw(st.integers(-20, 6))

    tenths = [
        [entry(u, v) if draw(st.integers(0, 99)) < share else None for v in range(n)]
        for u in range(n)
    ]
    return tuple(
        TropMatrix([[None if x is None else conv(x) for x in r] for r in tenths])
        for conv in (lambda x: Fraction(x, 10), lambda x: x / 10)
    )


def dense_row_witness(k, a, d, t):
    """The witness search reading each visited row of `a` whole, bottoms
    included, as it did before it followed only the finite entries: the
    reference for the cycle and weight it must name."""
    into = k.to_payload_vec(k.transpose(d)[t])
    paths = {t: ((t,), 0)}
    queue = [t]
    for u in queue:
        path, weight = paths[u]
        for v, x in enumerate(k.to_payload_vec(a[u])):
            if x is None or v > t:
                continue
            if v == t:
                if _tight(x, into[u]):
                    return path, weight + x
            elif v not in paths and into[v] is not None and _tight(
                x + into[v], into[u]
            ):
                paths[v] = path + (v,), weight + x
                queue.append(v)
    raise AssertionError("no tight cycle closes at the stopped pivot")


def chain_rows(rng, n):
    """Payload rows in the shape of the benchmark's infeasible chain: each
    node after the first is entered from one to three of the previous 8,
    and a back edge from the last node to the first, one unit short of the
    longest path between them, closes a positive cycle through the chain."""
    rows = [[N] * n for _ in range(n)]
    # every node is reached from node 0 by lags of at least 0
    longest = [0] * n
    for v in range(1, n):
        preds = range(max(0, v - 8), v)
        for u in rng.sample(preds, min(len(preds), rng.randint(1, 3))):
            rows[u][v] = rng.randint(0, 4)
            longest[v] = max(longest[v], longest[u] + rows[u][v])
    rows[n - 1][0] = 1 - longest[n - 1]
    return rows


class TestCycleWitness:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40),
        st.sampled_from([5, 20, 50, 100]),
        st.sampled_from(["ints", "tenths"]),
        st.booleans(),
        st.integers(0, 2**32),
    )
    def test_same_cycle_as_the_dense_row_search(self, n, share, kind, potentials, seed):
        # random entries, or potential differences less a slack that is
        # sometimes -1, so that positive cycles close among zero ones
        rng = random.Random(seed)
        p = [rng.randint(-30, 30) for _ in range(n)]

        def entry(u, v):
            if potentials:
                return p[v] - p[u] - rng.choice([0, 0, 0, 1, 2, -1])
            return rng.randint(-20, 6)

        rows = [
            [entry(u, v) if rng.randrange(100) < share else N for v in range(n)]
            for u in range(n)
        ]
        if kind == "tenths":
            rows = [[N if x is None else x / 10 for x in r] for r in rows]
            forms = [(_loops, tuple(map(tuple, rows)))]
        else:
            forms = [(_loops, tuple(map(tuple, rows))),
                     (_kernels, _kernels.from_payload_rows(rows))]
        for k, a in forms:
            d, t = k.closure(a)
            if t == n:
                continue
            got = _positive_cycle_witness(k, a, d, t)
            assert repr(got) == repr(dense_row_witness(k, a, d, t))

    def test_chain_star_boxes_no_row(self, monkeypatch):
        # numpy is loaded, so the star of this n = 200 matrix runs on the
        # int64 kernels; its witness reads column t of the closure as
        # payloads, and of the rows of a only their finite entries
        rows = chain_rows(random.Random(3), 200)
        m = TropMatrix._from_entries(
            (200, 200),
            [(i, j, v) for i, r in enumerate(rows) for j, v in enumerate(r) if v is not None],
        )
        boxed = []
        for name in ("to_payload_vec", "to_payload_rows"):
            real = getattr(_kernels, name)

            def counted(arr, name=name, real=real):
                boxed.append((name, arr.shape))
                return real(arr)

            monkeypatch.setattr(_kernels, name, counted)
        with pytest.raises(PositiveCycleError) as got:
            m.star()
        assert m._held_int_array() is not None
        assert boxed == [("to_payload_vec", (200,))]
        monkeypatch.undo()
        assert len(got.value.cycle) >= 20
        assert _cycle_weight(m, got.value.cycle) == got.value.weight == TropScalar(1)
        # the payload backend names the same cycle
        a = tuple(map(tuple, rows))
        d, t = _loops.closure(a)
        assert _positive_cycle_witness(_loops, a, d, t)[0] == got.value.cycle

    def test_witness_is_elementary_and_positive(self):
        rng = random.Random(7)
        seen = 0
        while seen < 25:
            n = rng.randint(2, 7)
            rows = [
                [rng.randint(-4, 2) if rng.random() < 0.5 else N for _ in range(n)]
                for _ in range(n)
            ]
            m = TropMatrix(rows)
            try:
                m.star()
            except PositiveCycleError as e:
                assert len(set(e.cycle)) == len(e.cycle)
                assert _cycle_weight(m, e.cycle) == e.weight
                assert e.weight > ONE
                seen += 1

    def test_long_positive_cycle(self):
        # only cycle is 0 -> 1 -> 2 -> 3 -> 0 with weight 1
        m = TropMatrix(
            [
                [N, N, N, 1],
                [-2, N, N, N],
                [N, 1, N, N],
                [N, N, 1, N],
            ]
        )
        with pytest.raises(PositiveCycleError) as ei:
            m.star()
        assert sorted(ei.value.cycle) == [0, 1, 2, 3]
        assert ei.value.weight == TropScalar(1)

    def test_many_hop_cycle_in_layered_dag(self):
        # forward edges between consecutive layers of a 60-layer DAG, plus
        # one back edge that makes exactly the longest 0 -> 199 paths close
        # a cycle of weight 1
        rng = random.Random(11)
        n, layers = 200, 60
        layer = [min(v * layers // n, layers - 1) for v in range(n)]
        layer[0], layer[n - 1] = -1, layers
        rows = [[N] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if layer[v] == layer[u] + 1 or (
                    layer[u] < layer[v] and rng.random() < 0.02
                ):
                    rows[u][v] = rng.randint(1, 5)
        longest = [N] * n
        longest[0] = 0
        for v in range(1, n):
            into = [longest[u] + rows[u][v] for u in range(v)
                    if longest[u] is not None and rows[u][v] is not None]
            longest[v] = max(into) if into else N
        rows[n - 1][0] = 1 - longest[n - 1]
        m = TropMatrix(rows)
        with pytest.raises(PositiveCycleError) as ei:
            m.star()
        cycle = ei.value.cycle
        assert len(cycle) >= layers
        assert len(set(cycle)) == len(cycle)
        assert _cycle_weight(m, cycle) == ei.value.weight == TropScalar(1)

    @pytest.mark.parametrize("on_kernels", [False, True], ids=["loops", "kernels"])
    def test_zero_cycles_on_the_tight_paths(self, on_kernels):
        # 0 - 1 - ... - 39 joined both ways by lags of 0, entered from 40
        # at 0 and left back to 40 from 39 with a lag of 1: the first
        # positive diagonal is d[40][40], and every chain edge is tight in
        # both directions, so the search from 40 meets a zero cycle at
        # each step and must still close the one elementary cycle
        t = 40
        rows = [[N] * (t + 1) for _ in range(t + 1)]
        for i in range(t - 1):
            rows[i][i + 1] = rows[i + 1][i] = 0
        rows[t][0], rows[t - 1][t] = 0, 1
        if on_kernels:
            k, a = _kernels, _kernels.from_payload_rows(rows)
        else:
            k, a = _loops, tuple(map(tuple, rows))
        d, stop = k.closure(a)
        assert stop == t
        assert _positive_cycle_witness(k, a, d, t) == ((t, *range(t)), 1)

    def test_rounding_cycle_is_not_positive(self):
        # the generator theta^-1 A + B of a random float problem in tenths:
        # its cycles weigh 0 in exact arithmetic and up to 2.8e-17 in float
        rows = [
            [N, -0.30000000000000004, N, -0.20000000000000004, N, -0.20000000000000004],
            [N, N, N, N, -0.2, 0.1],
            [0.1, -0.10000000000000003, N, -0.30000000000000004, N, N],
            [N, N, N, -0.1, N, N],
            [N, 0.2, N, N, N, 0.1],
            [0.2, N, N, N, N, -2.7755575615628914e-17],
        ]
        got = TropMatrix(rows).star()
        want = TropMatrix(
            [[N if v is None else Fraction(round(v * 10), 10) for v in r] for r in rows]
        ).star()
        for i in range(6):
            for j in range(6):
                g, w = got[i, j].value, want[i, j].value
                assert (g is None) == (w is None)
                assert g is None or abs(g - w) <= 1e-9

    @settings(max_examples=300, deadline=None)
    @given(tenths_matrices())
    def test_float_verdict_matches_exact(self, pair):
        # a float star either returns or names an elementary cycle whose
        # exact weight is positive, as the exact star decides
        exact, floats = pair
        try:
            exact.star()
        except PositiveCycleError:
            feasible = False
        else:
            feasible = True
        try:
            floats.star()
        except PositiveCycleError as e:
            assert not feasible
            assert len(set(e.cycle)) == len(e.cycle)
            assert _cycle_weight(exact, e.cycle) > ONE
        else:
            assert feasible


class TestInequalitySolver:
    def test_duration_ceiling_example(self):
        # greatest starts whose finishes stay within a uniform deadline 12
        c = TropMatrix(golden.c_rows())
        x = solve_leq(c, TropVector.full(5, 12))
        assert x == TropVector([8, 8, 7, 7, 9])
        assert (c @ x) <= TropVector.full(5, 12)

    def test_maximality(self):
        c = TropMatrix(golden.c_rows())
        b = TropVector.full(5, 12)
        x = solve_leq(c, b)
        for i in range(5):
            bumped = TropVector(
                [x[j].value + (1 if j == i else 0) for j in range(5)]
            )
            assert not ((c @ bumped) <= b)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="regular"):
            solve_leq(TropMatrix.identity(2), TropVector([1, N]))
        with pytest.raises(ValueError, match="column-regular"):
            solve_leq(TropMatrix([[1, N], [2, N]]), TropVector([0, 0]))
        with pytest.raises(TypeError):
            solve_leq(TropVector([1]), TropVector([1]))


class TestOuter:
    def test_entries(self):
        assert outer(TropVector([1, 2]), TropVector([0, -1])) == TropMatrix(
            [[1, 0], [2, 1]]
        )
        assert outer(TropVector([1, N]), TropVector([0]))[1, 0].is_bottom

    def test_type_check(self):
        with pytest.raises(TypeError):
            outer(TropVector([1]), [0])


class TestFastKernelParity:
    """The int64 kernels must agree with the payload implementation."""

    def _rand_rows(self, rng, n, lo=-9, hi=9, p_bottom=0.35):
        return [
            [rng.randint(lo, hi) if rng.random() > p_bottom else N for _ in range(n)]
            for _ in range(n)
        ]

    def test_matmul_parity(self):
        rng = random.Random(101)
        for _ in range(6):
            a = TropMatrix(self._rand_rows(rng, 40))
            b = TropMatrix(self._rand_rows(rng, 40))
            assert a @ b == TropMatrix._from_rows(_loops.matmul(a._rows, b._rows))

    def test_matvec_parity(self):
        rng = random.Random(102)
        for _ in range(6):
            a = TropMatrix(self._rand_rows(rng, 40))
            v = TropVector(
                [rng.randint(-9, 9) if rng.random() > 0.3 else N for _ in range(40)]
            )
            slow = TropVector([a.row(i) @ v for i in range(40)])
            assert a @ v == slow
            slow_left = TropVector([v @ a.col(j) for j in range(40)])
            assert v @ a == slow_left

    def test_closure_parity(self):
        rng = random.Random(103)
        for _ in range(4):
            a = TropMatrix(self._rand_rows(rng, 30, lo=-9, hi=-1, p_bottom=0.5))
            d, t = _loops.closure(a._rows)
            assert t == 30
            assert a.star() == TropMatrix._from_rows(d)

    def test_long_chain_closure_stays_exact(self, small_sentinels):
        for n, fits in ((8, True), (9, False), (30, False)):
            rows = [
                [-(1 << 8) if j == i - 1 else N for j in range(n)]
                for i in range(n)
            ]
            arr = _kernels.from_payload_rows(rows)
            assert _kernels.span_fits(n - 1, arr) is fits
        assert TropMatrix(rows).star()[29, 0] == TropScalar(-29 << 8)

    def test_drifted_bottom_stays_bottom(self, small_sentinels):
        # kernel outputs may hold bottom entries above the sentinel
        # (sentinel plus a finite sum); a closure must not extend them
        n = 20
        arr = np.full((n, n), _kernels.NEG, dtype=np.int64)
        for i in range(1, n - 1):
            arr[i, i + 1] = 50
        arr[0, 1] = _kernels.NEG + 1500
        s = TropMatrix._from_int_array(arr).star()
        assert s[0, n - 1].is_bottom
        assert s[1, n - 1] == TropScalar(50 * (n - 2))

    def test_huge_entries_fall_back(self):
        # magnitudes beyond the kernel cap must take the payload path
        rng = random.Random(104)
        rows = self._rand_rows(rng, 40)
        rows[3][4] = 2 ** 60
        a = TropMatrix(rows)
        b_rows = self._rand_rows(rng, 40)
        b_rows[4][4] = 0
        b = TropMatrix(b_rows)
        prod = a @ b
        assert prod == TropMatrix._from_rows(_loops.matmul(a._rows, b._rows))
        assert prod[3, 4].value >= 2 ** 60

    def test_products_past_the_exact_range_fall_back(self, monkeypatch):
        # squaring 11 times gives A ** 2048: the entries double each time
        # and reach -2**61, the cutoff, which the int64 product would read
        # as bottom; the held arrays of the earlier squares are no longer
        # capped at MAG_CAP, so the product itself must check the sums
        def power(n):
            p = TropMatrix([[-2 ** 50] * n] * n)
            held = []
            for _ in range(11):
                p = p @ p
                held.append(p._held_int_array() is not None)
            return p, held

        fast, held = power(20)
        assert held == [True] * 10 + [False]
        assert fast == TropMatrix([[-2 ** 61] * 20] * 20)
        monkeypatch.setattr(_kernels, "available", lambda: False)
        assert fast == power(20)[0]

    def test_vector_products_past_the_exact_range_fall_back(self):
        # eleven squarings hold an array of -(2**61 - 2048), within the
        # range a matrix product admits; adding a vector entry of -2**50
        # takes the sums past the cutoff, where int64 reads them as bottom
        p = TropMatrix([[-(2 ** 50 - 1)] * 20] * 20)
        for _ in range(11):
            p = p @ p
        assert p._held_int_array() is not None
        v = TropVector([-2 ** 50] * 20)
        exact = TropVector([-(2 ** 61 - 2048) - 2 ** 50] * 20)
        assert p @ v == exact
        assert v @ p == exact

    def test_float_entries_fall_back(self):
        rng = random.Random(105)
        rows = self._rand_rows(rng, 40)
        rows[0][0] = 0.5
        a = TropMatrix(rows)
        assert (a @ a) == TropMatrix._from_rows(_loops.matmul(a._rows, a._rows))

    def test_fraction_entries(self):
        a = TropMatrix([[Fraction(1, 2), N], [1, Fraction(-3, 2)]])
        sq = a @ a
        assert sq[0, 0] == TropScalar(1)
        assert sq[1, 0] == TropScalar(Fraction(3, 2))


# Dense reference kernels: every pivot and every row does full n x n (or
# k x n) work, with no support restriction.


def dense_matmul(a, b):
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[0]):
        np.max(a[i, :, None] + b, axis=0, out=out[i], initial=_kernels.NEG)
    return out


def dense_closure(a):
    """(d, t): the Floyd-Warshall closure A+ stopped before the first pivot
    t with a positive diagonal, t = n when there is none."""
    d = np.where(a > _kernels.BOTTOM_CUTOFF, a, _kernels.NEG)
    for k in range(d.shape[0]):
        if d[k, k] > 0:
            return d, k
        np.maximum(d, d[:, k, None] + d[None, k, :], out=d)
        np.maximum(d, _kernels.NEG, out=d)
    return d, d.shape[0]


def dense_star(a):
    """(d, t): `dense_closure` with A*'s zero diagonal when no cycle is
    positive."""
    d, t = dense_closure(a)
    if t == d.shape[0]:
        np.fill_diagonal(d, 0)
    return d, t


def star_contract(d, t):
    """What a star must match of its reference: the whole star when no
    cycle is positive (t = n), else the stop t and column t at and above
    the diagonal, all the positive-cycle witness reads."""
    rows = payloads(d)
    if t == len(rows):
        return t, rows
    return t, tuple(r[t] for r in rows[: t + 1])


def rand_array(seed, shape, share, lo, hi, drift=False):
    """int64 matrix with about `share` finite entries in [lo, hi]; with
    `drift`, its bottoms sit anywhere in the lower half of the range
    between the sentinel and the cutoff, as in a kernel output whose
    further sums the admission bounds keep below the cutoff."""
    rng = np.random.default_rng(seed)
    arr = rng.integers(lo, hi, size=shape, endpoint=True)
    bottom = rng.random(shape) >= share
    if drift:
        top = (_kernels.NEG + _kernels.BOTTOM_CUTOFF) // 2
        arr[bottom] = rng.integers(_kernels.NEG, top, size=shape)[bottom]
    else:
        arr[bottom] = _kernels.NEG
    return arr


def blank_lines(seed, arr, drift=False):
    """Make about a quarter of the rows and of the columns of `arr` wholly
    bottom: at the sentinel, or with `drift` at a drifted bottom."""
    rng = np.random.default_rng(seed)
    bottom = _kernels.NEG
    if drift:
        bottom = (_kernels.NEG + _kernels.BOTTOM_CUTOFF) // 2
    arr[rng.random(arr.shape[0]) < 0.25] = bottom
    arr[:, rng.random(arr.shape[1]) < 0.25] = bottom
    return arr


def payloads(arr):
    return _kernels.to_payload_rows(arr)


# finite shares: none, project-network sparse, mixed, and fully dense
SHARES = st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 0.6, 1.0])
SEEDS = st.integers(0, 2**32)


class TestSparseKernelParity:
    """The support-restricted kernels must agree with the dense ones: the
    same finite entries and bottoms in the same places.  The bordered
    closure must give Floyd-Warshall's star, or stop at the same node with
    the same column above it, where the witness is a positive cycle."""

    def _closure(self, n, share, seed, drift=False, hi=0):
        # hi = 0 leaves no cycle positive, so the closure runs every step;
        # hi = 2 often closes one and stops it early
        a = rand_array(seed, (n, n), share, -9, hi, drift)
        (d, t), (want, u) = _kernels.closure(a), dense_star(a)
        assert star_contract(d, t) == star_contract(want, u)
        assert (d >= _kernels.NEG).all()
        if t < n:
            cycle, weight = _positive_cycle_witness(_kernels, a, d, t)
            rows = payloads(a)
            assert len(set(cycle)) == len(cycle)
            assert weight == sum(rows[i][j] for i, j in zip(cycle, cycle[1:] + cycle[:1]))
            assert weight > 0

    def _matmul(self, m, k, n, share, seed, drift=False, blank=False):
        # with `blank`, whole rows and columns of each factor are bottom
        a = rand_array(seed, (m, k), share, -9, 9, drift)
        b = rand_array(seed + 1, (k, n), share, -9, 9, drift)
        if blank:
            a = blank_lines(seed + 2, a, drift)
            b = blank_lines(seed + 3, b, drift)
        assert payloads(_kernels.matmul(a, b)) == payloads(dense_matmul(a, b))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), SHARES, SEEDS, st.sampled_from([0, 2]))
    def test_closure(self, n, share, seed, hi):
        self._closure(n, share, seed, hi=hi)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(1, 40),
        SHARES,
        SEEDS,
        st.booleans(),
    )
    def test_matmul(self, m, k, n, share, seed, blank):
        self._matmul(m, k, n, share, seed, blank=blank)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(2, 60), SHARES, SEEDS)
    def test_drifted_bottoms(self, small_sentinels, n, share, seed):
        self._closure(n, share, seed, drift=True)
        self._matmul(n, n, n, share, seed, drift=True)
        self._matmul(n, 1, n, share, seed, drift=True, blank=True)
        self._closure(n, share, seed, drift=True, hi=2)

    def test_restricted_closure_adds_no_drift(self, small_sentinels):
        # three disjoint blocks of nonpositive entries: the drifted input
        # bottoms come back at the sentinel, a fold that adds a negative
        # entry to one leaves it clamped there, and the block update raises
        # none past it
        n = 30
        a = rand_array(5, (n, n), 0.0, 0, 0, drift=True)
        for lo in range(0, n, 10):
            a[lo:lo + 10, lo:lo + 10] = rand_array(6 + lo, (10, 10), 0.7, -9, 0)
        d, t = _kernels.closure(a)
        assert t == n
        assert ((d > _kernels.BOTTOM_CUTOFF) | (d == _kernels.NEG)).all()
        assert payloads(d) == payloads(dense_star(a)[0])

    def test_long_path_through_sparse_pivots(self):
        # a bare path 0 -> 1 -> ... -> n - 1: every entry sits above the
        # diagonal, so each step is one column fold and no block runs
        n = 40
        a = np.full((n, n), _kernels.NEG, dtype=np.int64)
        for i in range(n - 1):
            a[i, i + 1] = -(i + 1)
        d, t = _kernels.closure(a)
        assert t == n
        assert d[0, n - 1] == -sum(range(1, n))
        assert payloads(d) == payloads(dense_star(a)[0])

    def test_positive_self_loop_alone(self):
        n = 9
        a = np.full((n, n), _kernels.NEG, dtype=np.int64)
        a[4, 4] = 3
        d, t = _kernels.closure(a)
        assert (t, d[4, 4]) == (4, 3)
        assert star_contract(d, t) == star_contract(*dense_star(a))
        assert _positive_cycle_witness(_kernels, a, d, t) == ((4,), 3)

    def test_positive_cycle_topped_mid_index(self):
        # 2 -> 5 -> 3 -> 2 weighs 1 and tops out at node 5; the nodes past
        # it hold a zero cycle and forward entries only
        n = 12
        a = np.full((n, n), _kernels.NEG, dtype=np.int64)
        a[2, 5], a[5, 3], a[3, 2] = 2, -2, 1
        a[9, 10], a[10, 9], a[8, 7], a[11, 1] = 0, 0, 4, 4
        d, t = _kernels.closure(a)
        assert t == 5
        assert star_contract(d, t) == star_contract(*dense_star(a))
        assert _positive_cycle_witness(_kernels, a, d, t) == ((5, 3, 2), 1)

    def test_backward_entries_run_column_and_block_steps(self, monkeypatch):
        # forward lags (below the diagonal) and maximal time lags back
        # (above it), each back lag too tight to close a positive cycle:
        # the column folds, gamma and both forms of the block update run
        n = 40
        a = rand_array(9, (n, n), 0.15, 0, 4)
        back = rand_array(10, (n, n), 0.05, -400, -200)
        upper = np.triu_indices(n)
        a[upper] = back[upper]
        seen = []
        real = _kernels._sparse

        def spy(count, size):
            seen.append(real(count, size))
            return seen[-1]

        monkeypatch.setattr(_kernels, "_sparse", spy)
        d, t = _kernels.closure(a)
        assert t == n
        assert payloads(d) == payloads(dense_star(a)[0])
        assert True in seen and False in seen

    @pytest.mark.parametrize("share", [0.5, 1.0])
    def test_rows_with_many_predecessors(self, share):
        # rows and columns of more than `_kernels._FEW` finite entries fold
        # in one reduction, full ones over the leading block's slice; at
        # n = 60 both shares put nearly every row far above it; entries in
        # -5..0 at the real sentinel, where a drifted bottom plus the
        # sentinel would wrap past the int64 minimum
        n = 60
        a = rand_array(11, (n, n), share, -5, 0)
        d, t = _kernels.closure(a)
        assert t == n
        assert payloads(d) == payloads(dense_star(a)[0])
        assert (d >= _kernels.NEG).all()

    @pytest.mark.parametrize("lag", [100, -100])
    def test_drift_through_long_row_chains(self, small_sentinels, lag):
        # two interleaved chains, each node entered from the one two below
        # it: each row fold adds `lag` to the other chain's bottoms, which
        # so drift by 9 lags, inside the star's bound of n - 1 entries; a
        # negative drift is clamped back to the sentinel
        n = 20
        a = np.full((n, n), _kernels.NEG, dtype=np.int64)
        for m in range(2, n):
            a[m, m - 2] = lag
        assert _kernels.span_fits(n - 1, a)
        d, t = _kernels.closure(a)
        assert t == n
        assert payloads(d) == payloads(dense_star(a)[0])
        bottoms = d[d <= _kernels.BOTTOM_CUTOFF]
        assert bottoms.min() == _kernels.NEG
        assert bottoms.max() == _kernels.NEG + max(9 * lag, 0)
