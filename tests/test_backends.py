"""The payload kernels (`_loops`) against their int64 namesakes
(`_kernels`), and the one backend choice (`semiring._operands`)."""

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randgen
from tropsched import (
    PositiveCycleError,
    TropMatrix,
    _kernels,
    _loops,
    reduce_instance,
    semiring,
)
from tropsched.semiring import _operands, _payload

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
    def test_scale_max(self, n, bottoms, seed, scale):
        rng = np.random.default_rng(seed)
        b, d = (rand_array(rng, (n, n), bottoms) for _ in range(2))
        got = _loops.scale_max(rows(d), scale, rows(b))
        assert loops_rows(got) == rows(_kernels.scale_max(d, scale, b))

    @settings(max_examples=40, deadline=None)
    @given(SIZES, SIZES, BOTTOMS, SEEDS)
    def test_outer_acc(self, m, n, bottoms, seed):
        rng = np.random.default_rng(seed)
        acc = rand_array(rng, (m, n), bottoms)
        v, w = rand_array(rng, m, bottoms), rand_array(rng, n, bottoms)
        got = _loops.outer_acc(rows(acc), vec(v), vec(w))
        assert loops_rows(got) == rows(_kernels.outer_acc(acc, v, w))
        assert _loops.bottoms(m, n) == rows(_kernels.bottoms(m, n))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 45), BOTTOMS, SEEDS)
    def test_row_entries(self, n, bottoms, seed):
        rng = np.random.default_rng(seed)
        a = rand_array(rng, (n, n), bottoms)
        for i in range(n):
            want = [(j, x) for j, x in enumerate(rows(a)[i]) if x is not None]
            assert list(_loops.row_entries(rows(a), i)) == want
            assert list(_kernels.row_entries(a, i)) == want

    @settings(max_examples=40, deadline=None)
    @given(SIZES, BOTTOMS, SEEDS, st.sampled_from([0, 2]))
    def test_star(self, n, bottoms, seed, hi):
        # hi = 0 leaves no cycle positive; hi = 2 often closes one, and
        # then both stop at the same node with the same stopped matrix
        rng = np.random.default_rng(seed)
        a = rand_array(rng, (n, n), bottoms, hi=hi)
        (got, t), (want, u) = _loops.closure(rows(a)), _kernels.closure(a)
        assert (t, loops_rows(got)) == (u, rows(want))

    def test_star_of_a_positive_cycle(self):
        # the cycle 0 -> 1 -> 2 -> 0 first closes at its highest node
        a = np.full((3, 3), _kernels.NEG, dtype=np.int64)
        a[0, 1], a[1, 2], a[2, 0] = 2, -1, 0
        assert _loops.closure(rows(a))[1] == 2
        assert _kernels.closure(a)[1] == 2


def floyd_warshall(a):
    """(d, t): the Floyd-Warshall star of payload rows `a`, stopped before
    the first pivot t whose diagonal is positive (`_loops._positive`), and
    with A*'s zero diagonal when t = n: the reference for the payload
    closure, which borders.  It sums a path in pivot order, so its float
    stars may differ from the bordered ones in their last bits."""
    d = [list(r) for r in a]
    n = len(d)
    for k in range(n):
        dk = d[k]
        if dk[k] is not None and _loops._positive(dk[k]):
            return d, k
        for di in d:
            dik = di[k]
            if dik is None:
                continue
            for j, dkj in enumerate(dk):
                if dkj is not None and (di[j] is None or dik + dkj > di[j]):
                    di[j] = dik + dkj
    for i, row in enumerate(d):
        row[i] = 0
    return d, n


def potential_array(rng, n, bottoms):
    """int64 n x n array with no positive cycle: potential differences
    p[v] - p[u] less a slack that is mostly 0, so that many cycles weigh
    exactly 0, with about `bottoms` of the entries at the sentinel."""
    p = rng.integers(-20, 20, size=n, endpoint=True)
    slack = rng.choice([0, 0, 0, 1, 3], size=(n, n))
    arr = p[None, :] - p[:, None] - slack
    arr[rng.random((n, n)) < bottoms] = _kernels.NEG
    return arr


def relabel(d, perm):
    """P d P^T for payload rows `d`: entry (i, j) is d[perm[i]][perm[j]]."""
    return tuple(tuple(d[i][j] for j in perm) for i in perm)


def closed(k, arr):
    """(t, d): backend k's closure of the int64 array `arr`, d as payload
    rows."""
    if k is _kernels:
        d, t = _kernels.closure(arr)
        return t, rows(d)
    d, t = _loops.closure(rows(arr))
    return t, loops_rows(d)


BACKENDS = pytest.mark.parametrize("k", [_loops, _kernels], ids=["loops", "kernels"])


class TestStarRelabelling:
    """A star commutes with relabelling the nodes: closure(P a P^T) is
    P closure(a) P^T, on both backends, although a relabelled matrix
    borders its nodes in another order."""

    @BACKENDS
    @settings(max_examples=60, deadline=None)
    @given(n=SIZES, bottoms=BOTTOMS, seed=SEEDS)
    def test_exact(self, k, n, bottoms, seed):
        rng = np.random.default_rng(seed)
        a = potential_array(rng, n, bottoms)
        perm = rng.permutation(n).tolist()
        t, d = closed(k, a)
        assert t == n
        assert closed(k, a[np.ix_(perm, perm)]) == (n, relabel(d, perm))

    @BACKENDS
    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_layered_instance(self, k, order):
        # R has its lags left of the diagonal only, so its own closure
        # folds rows alone; reversed it has them above the diagonal only
        # (column folds), and shuffled on both sides (block updates too)
        n = 60
        R, _ = reduce_instance(randgen.layered_instance(random.Random(n), n))
        a = _kernels.from_payload_rows(R._rows)
        perm = list(range(n))[::-1]
        if order == "shuffled":
            random.Random(1).shuffle(perm)
        b = a[np.ix_(perm, perm)]
        finite = b > _kernels.BOTTOM_CUTOFF
        assert np.triu(finite, 1).any()
        assert np.tril(finite, -1).any() == (order == "shuffled")
        t, d = closed(k, a)
        assert t == n
        assert closed(k, b) == (n, relabel(d, perm))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 24), bottoms=BOTTOMS, seed=SEEDS)
    def test_float_tenths(self, n, bottoms, seed):
        # tenths as floats, with a slack of -1 now and then so that some
        # cycles are positive: in either order the stop node is exact
        # mode's and Floyd-Warshall's, and the star, or the column the
        # witness reads, is Floyd-Warshall's within 1e-9
        rng = np.random.default_rng(seed)
        p = rng.integers(-30, 30, size=n, endpoint=True)
        tenths = p[None, :] - p[:, None] - rng.choice([0, 0, 0, 1, 2, -1], size=(n, n))
        tenths[rng.random((n, n)) < bottoms] = _kernels.NEG
        exact = tuple(
            tuple(None if x is None else Fraction(x, 10) for x in r)
            for r in rows(tenths)
        )
        perm = rng.permutation(n).tolist()
        for e in (exact, relabel(exact, perm)):
            a = tuple(tuple(None if x is None else float(x) for x in r) for r in e)
            (d, t), (want, u) = _loops.closure(a), floyd_warshall(a)
            assert t == u == _loops.closure(e)[1]
            if t < n:
                d, want = [r[t] for r in d[: t + 1]], [r[t] for r in want[: t + 1]]
            else:
                d, want = sum(d, []), sum(want, [])
            for x, y in zip(d, want):
                assert (x is None) == (y is None)
                assert x is None or abs(x - y) <= 1e-9


# Dense references for the payload products: one dot over every position
# of each output cell, as `_loops` computed them before it skipped bottoms.


def dense_dot(u, v):
    best = None
    for a, b in zip(u, v):
        if a is None or b is None:
            continue
        s = a + b
        if best is None or s > best:
            best = s
    return best


def dense_matvec(a, v):
    return tuple(dense_dot(row, v) for row in a)


def dense_vecmat(v, a):
    return tuple(dense_dot(v, col) for col in zip(*a))


def dense_matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(dense_dot(row, col) for col in cols) for row in a)


# Each number type with many equal sums: int, thirds (ints and Fractions,
# as `_payload` normalizes them), and floats whose sums tie at 0.0 and -0.0.
VALUES = st.sampled_from([
    st.integers(-3, 3),
    st.integers(-6, 6).map(lambda k: _payload(Fraction(k, 3))),
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.5]),
])
# percent of finite entries
SHARES = st.sampled_from([0, 10, 25, 50, 75, 90, 100])


@st.composite
def payload_rows(draw, values, share, shape):
    return tuple(
        tuple(
            draw(values) if draw(st.integers(0, 99)) < share else None
            for _ in range(shape[1])
        )
        for _ in range(shape[0])
    )


class TestPayloadLoopsMatchDense:
    """The payload products skip bottoms and still give, entry for entry
    and in `repr` (the sign of a zero, int or Fraction), what a dot over
    every position gives: of two equal sums, the first one stays."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), VALUES, SHARES, st.integers(1, 6), st.integers(0, 6),
           st.integers(0, 6))
    def test_products(self, data, values, share, m, k, p):
        a = data.draw(payload_rows(values, share, (m, k)))
        b = data.draw(payload_rows(values, share, (k, p)))
        (u,) = data.draw(payload_rows(values, share, (1, m)))
        (v,) = data.draw(payload_rows(values, share, (1, k)))
        assert repr(_loops.matmul(a, b)) == repr(dense_matmul(a, b))
        assert repr(_loops.matvec(a, v)) == repr(dense_matvec(a, v))
        assert repr(_loops.vecmat(u, a)) == repr(dense_vecmat(u, a))

    def test_signed_zero_ties(self):
        # -0.0 + -0.0 is -0.0 and every other sum of zeros 0.0: each output
        # sums to a zero twice, and the sign of the first sum stays
        a = ((-0.0, 0.0), (0.0, -0.0))
        z = (-0.0, -0.0)
        assert repr(_loops.matmul(a, (z, z))) == repr(((-0.0, -0.0), (0.0, 0.0)))
        assert repr(_loops.matvec(a, z)) == repr((-0.0, 0.0))
        assert repr(_loops.vecmat(z, a)) == repr((-0.0, 0.0))


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
        if _kernels.closure(a)[1] == n:
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

    def test_integer_matrix_before_numpy_is_imported(self, monkeypatch):
        # until numpy is imported, the kernels must also pay for the import
        monkeypatch.setattr(semiring, "sys", SimpleNamespace(modules={}))
        dim = semiring._IMPORT_DIM
        assert semiring._KERNEL_DIM < dim < 200
        assert backend([matrix(dim)]) is _kernels
        assert backend([matrix(dim - 1)]) is _loops
        held = TropMatrix._from_int_array(np.zeros((3, 3), dtype=np.int64))
        assert backend([held]) is _kernels

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
