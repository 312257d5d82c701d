"""The payload kernels (`_loops`) against their int64 namesakes
(`_kernels`), and the one backend choice (`semiring._operands`)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropsched import PositiveCycleError, TropMatrix, _kernels, _loops
from tropsched.semiring import _operands, _successor_path

N = None

# share of bottom entries, from none to nine in ten
BOTTOMS = st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9])
SEEDS = st.integers(0, 2**32)
# sizes on both sides of the kernels' 20-row admission
SIZES = st.integers(0, 45)


def rand_array(rng, shape, bottoms, lo=-9, hi=9):
    """int64 array with about `bottoms` of its entries at the sentinel and
    the others in [lo, hi]."""
    arr = rng.integers(lo, hi, size=shape, endpoint=True)
    arr[rng.random(shape) < bottoms] = _kernels.NEG
    return arr


def rows(arr):
    return _kernels.to_payload_rows(arr)


def vec(arr):
    return _kernels.to_payload_vec(arr)


def loops_rows(form):
    return tuple(map(tuple, form))


def walk(hit, n):
    i, k, succ = hit
    return _successor_path(succ, i, k, n) + _successor_path(succ, k, i, n)[1:]


class TestPayloadKernelsMatchInt64:
    """Each `_loops` function on payload rows gives what its `_kernels`
    namesake gives on the same integers, once converted to payloads."""

    @settings(max_examples=60, deadline=None)
    @given(SIZES, BOTTOMS, SEEDS)
    def test_dot_matvec_vecmat(self, n, bottoms, seed):
        rng = np.random.default_rng(seed)
        a = rand_array(rng, (n, n), bottoms)
        u, v = rand_array(rng, n, bottoms), rand_array(rng, n, bottoms)
        assert _loops.dot(vec(u), vec(v)) == _kernels.dot(u, v)
        assert _loops.matvec(rows(a), vec(v)) == vec(_kernels.matvec(a, v))
        assert _loops.vecmat(vec(u), rows(a)) == vec(_kernels.vecmat(u, a))

    @settings(max_examples=60, deadline=None)
    @given(SIZES, st.integers(1, 45), SIZES, BOTTOMS, SEEDS)
    def test_matmul_and_transpose(self, m, k, n, bottoms, seed):
        # payload rows cannot hold a k x n matrix with k = 0 (no rows, so
        # no columns either), so the inner size starts at 1
        rng = np.random.default_rng(seed)
        a = rand_array(rng, (m, k), bottoms)
        b = rand_array(rng, (k, n), bottoms)
        got = _loops.matmul(rows(a), rows(b))
        assert loops_rows(got) == rows(_kernels.matmul(a, b))
        assert loops_rows(_loops.transpose(rows(a))) == (
            rows(_kernels.transpose(a)) if m else ()
        )

    @settings(max_examples=40, deadline=None)
    @given(SIZES, BOTTOMS, SEEDS, st.integers(-20, 20))
    def test_max_product_and_scale_max(self, n, bottoms, seed, scale):
        rng = np.random.default_rng(seed)
        b, d, c = (rand_array(rng, (n, n), bottoms) for _ in range(3))
        got = _loops.max_product(rows(b), rows(d), rows(c))
        assert loops_rows(got) == rows(_kernels.max_product(b, d, c))
        got = _loops.scale_max(rows(d), scale, rows(b))
        assert loops_rows(got) == rows(_kernels.scale_max(d, scale, b))

    @settings(max_examples=40, deadline=None)
    @given(SIZES, BOTTOMS, SEEDS, st.sampled_from([0, 2]))
    def test_star(self, n, bottoms, seed, hi):
        # hi = 0 leaves no cycle positive; hi = 2 often closes one, and
        # then both return None
        rng = np.random.default_rng(seed)
        a = rand_array(rng, (n, n), bottoms, hi=hi)
        got, want = _loops.star(rows(a)), _kernels.star(a)
        if want is None:
            assert got is None
        else:
            assert loops_rows(got) == rows(want)

    def test_star_of_a_positive_cycle(self):
        a = np.full((3, 3), _kernels.NEG, dtype=np.int64)
        a[0, 1], a[1, 2], a[2, 0] = 2, -1, 0
        assert _loops.star(rows(a)) is None
        assert _kernels.star(a) is None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 45), BOTTOMS, SEEDS)
    def test_positive_cycle_pivot(self, n, bottoms, seed):
        rng = np.random.default_rng(seed)
        a = rand_array(rng, (n, n), bottoms, hi=2)
        np.fill_diagonal(a, _kernels.NEG)
        got, want = _loops.positive_cycle_pivot(rows(a)), _kernels.positive_cycle_pivot(a)
        if want is None:
            assert got is None
            return
        assert got[:2] == want[:2]
        assert walk(got, n) == walk(want, n)

    @settings(max_examples=40, deadline=None)
    @given(SIZES, BOTTOMS, SEEDS, st.booleans())
    def test_running_maxima(self, n, bottoms, seed, left):
        rng = np.random.default_rng(seed)
        b = rand_array(rng, (n, n), bottoms, hi=1)
        x = rand_array(rng, n, bottoms)
        got = _loops.running_maxima(rows(b), vec(x), n - 2, left=left)
        want = _kernels.running_maxima(b, x, n - 2, left=left)
        assert loops_rows(got) == rows(want)
        idx = list(range(len(got)))[::-2]
        assert loops_rows(_loops.take(got, idx)) == rows(_kernels.take(want, idx))


def no_boxing(arr):
    raise AssertionError("the int64 array was boxed into payload rows")


class TestWitnessOnKernels:
    """An infeasible star on the int64 kernels finds its witness on the
    array itself and reports what the payload backend reports."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(20, 45), BOTTOMS, SEEDS, st.booleans())
    def test_same_cycle_without_boxing(self, n, bottoms, seed, loops):
        # hi = 2 often closes a positive cycle; `loops` allows one-node ones
        rng = np.random.default_rng(seed)
        a = rand_array(rng, (n, n), bottoms, hi=2)
        if not loops:
            np.fill_diagonal(a, _kernels.NEG)
        if _kernels.star(a) is not None:
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "to_payload_rows", no_boxing)
            with pytest.raises(PositiveCycleError) as got:
                TropMatrix._from_int_array(a).star()
        assert type(got.value.weight.value) is int
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "available", lambda: False)
            with pytest.raises(PositiveCycleError) as want:
                TropMatrix._from_rows(rows(a)).star()
        assert got.value.cycle == want.value.cycle
        assert got.value.weight == want.value.weight
        assert str(got.value) == str(want.value)


def matrix(n, value=0):
    return TropMatrix([[value] * n for _ in range(n)])


def backend(mats, vecs=(), span=0):
    return _operands(mats, vecs, span)[0]


class TestOperands:
    """The admission table of the one backend choice."""

    def test_held_array_below_20_rows(self):
        held = TropMatrix._from_int_array(np.zeros((3, 3), dtype=np.int64))
        k, (a,), (v,) = _operands([held], [(1, N, 2)])
        assert k is _kernels
        assert a is held._held_int_array()
        assert vec(v) == (1, N, 2)

    def test_integer_matrix_from_20_rows(self):
        assert backend([matrix(20)]) is _kernels
        assert backend([matrix(19)]) is _loops

    @pytest.mark.parametrize(
        "entry",
        [Fraction(1, 2), 0.5, _kernels.MAG_CAP + 1, -_kernels.MAG_CAP - 1],
        ids=["fraction", "float", "above-cap", "below-cap"],
    )
    def test_unconvertible_entry(self, entry):
        rows_ = [[0] * 20 for _ in range(20)]
        rows_[7][3] = entry
        odd = TropMatrix(rows_)
        assert backend([odd]) is _loops
        assert backend([matrix(20), odd]) is _loops
        assert backend([matrix(20)], [[0] * 19 + [entry]]) is _loops
        k, (a,), (v,) = _operands([odd], [[0] * 20])
        assert a == odd._rows and v == (0,) * 20

    def test_without_numpy(self, monkeypatch):
        monkeypatch.setattr(_kernels, "available", lambda: False)
        held = TropMatrix._from_int_array(np.zeros((30, 30), dtype=np.int64))
        assert backend([held]) is _loops

    def test_span(self):
        # 2**10 * 2**50 = 2**60 stays above the cutoff of -2**61; 2**11
        # sums reach it
        big = matrix(20, _kernels.MAG_CAP)
        assert backend([big], span=1 << 10) is _kernels
        assert backend([big], span=1 << 11) is _loops
        assert backend([matrix(20)], [[_kernels.MAG_CAP] * 20], span=1 << 11) is _loops
        # the span covers the first matrix and the vectors; the others
        # are derived from them
        assert backend([matrix(20), big], span=1 << 11) is _kernels
