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
from tropsched.semiring import (
    _successor_path,
    _trim_to_positive_cycle,
)

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
        assert m.trace_series() == TropScalar(5)
        assert TropMatrix(golden.R_ROWS).trace_series() == ONE

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


class TestCycleWitness:
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
            d = _loops.closure(a._rows)
            for i in range(30):
                d[i][i] = 0
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
    d = np.where(a > _kernels.BOTTOM_CUTOFF, a, _kernels.NEG)
    for k in range(d.shape[0]):
        np.maximum(d, d[:, k, None] + d[None, k, :], out=d)
        np.maximum(d, _kernels.NEG, out=d)
    return d


def dense_positive_cycle_pivot(a):
    d = np.where(a > _kernels.BOTTOM_CUTOFF, a, _kernels.NEG)
    n = d.shape[0]
    succ = np.broadcast_to(np.arange(n), (n, n)).copy()
    for k in range(n):
        through = d[:, k, None] + d[None, k, :]
        hits = (through.diagonal() > 0).nonzero()[0]
        if hits.size:
            return int(hits[0]), k, succ
        better = through > d
        np.copyto(d, through, where=better)
        np.copyto(succ, succ[:, k, None], where=better)
    return None


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


def payloads(arr):
    return _kernels.to_payload_rows(arr)


def witness_walk(hit, n):
    i, k, succ = hit
    return _successor_path(succ, i, k, n) + _successor_path(succ, k, i, n)[1:]


# finite shares: project-network sparse, mixed, and fully dense
SHARES = st.sampled_from([0.02, 0.05, 0.1, 0.3, 0.6, 1.0])
SEEDS = st.integers(0, 2**32)


class TestSparseKernelParity:
    """The support-restricted kernels must agree with the dense ones: the
    same finite entries, bottoms in the same places, the same pivot and
    the same witness walk."""

    def _closure(self, n, share, seed, drift=False):
        # nonpositive weights: no positive cycle, so the closure is defined
        a = rand_array(seed, (n, n), share, -9, 0, drift)
        assert payloads(_kernels.closure(a)) == payloads(dense_closure(a))

    def _matmul(self, m, k, n, share, seed, drift=False):
        a = rand_array(seed, (m, k), share, -9, 9, drift)
        b = rand_array(seed + 1, (k, n), share, -9, 9, drift)
        assert payloads(_kernels.matmul(a, b)) == payloads(dense_matmul(a, b))

    def _pivot(self, n, share, seed, drift=False):
        a = rand_array(seed, (n, n), share, -9, 2, drift)
        np.fill_diagonal(a, _kernels.NEG)
        got, want = _kernels.positive_cycle_pivot(a), dense_positive_cycle_pivot(a)
        if want is None:
            assert got is None
            return
        assert got[:2] == want[:2]
        walk = witness_walk(got, n)
        assert walk == witness_walk(want, n)
        rows = payloads(a)
        cycle, weight = _trim_to_positive_cycle(rows, walk)
        assert weight > 0 and len(set(cycle)) == len(cycle)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), SHARES, SEEDS)
    def test_closure(self, n, share, seed):
        self._closure(n, share, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), SHARES, SEEDS)
    def test_matmul(self, m, k, n, share, seed):
        self._matmul(m, k, n, share, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 60), SHARES, SEEDS)
    def test_positive_cycle_pivot(self, n, share, seed):
        self._pivot(n, share, seed)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(2, 60), SHARES, SEEDS)
    def test_drifted_bottoms(self, small_sentinels, n, share, seed):
        self._closure(n, share, seed, drift=True)
        self._matmul(n, n, n, share, seed, drift=True)
        self._pivot(n, share, seed, drift=True)

    def test_restricted_closure_adds_no_drift(self, small_sentinels):
        # three disjoint blocks: every pivot's support is at most a ninth
        # of the matrix, so no pivot takes the dense update, and the
        # drifted input bottoms come back at the sentinel
        n = 30
        a = rand_array(5, (n, n), 0.0, 0, 0, drift=True)
        for lo in range(0, n, 10):
            a[lo:lo + 10, lo:lo + 10] = rand_array(6 + lo, (10, 10), 0.7, -9, 0)
        d = _kernels.closure(a)
        assert ((d > _kernels.BOTTOM_CUTOFF) | (d == _kernels.NEG)).all()
        assert payloads(d) == payloads(dense_closure(a))

    def test_long_path_through_sparse_pivots(self):
        # a bare path: pivot k joins k rows to n - k columns, so the first
        # and last pivots are restricted and the middle ones dense
        n = 40
        a = np.full((n, n), _kernels.NEG, dtype=np.int64)
        for i in range(n - 1):
            a[i, i + 1] = -(i + 1)
        d = _kernels.closure(a)
        assert d[0, n - 1] == -sum(range(1, n))
        assert payloads(d) == payloads(dense_closure(a))
