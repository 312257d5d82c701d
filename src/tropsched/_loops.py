"""Payload kernels: the max-plus operations of `_kernels`, under the same
names and signatures, on payload rows (int / Fraction / float, None for
bottom) instead of int64 arrays.  Exact for every number type; no numpy.
A matrix is a sequence of rows, so one with no rows has no columns.
Only `closure` compares with a tolerance (`_positive`): a float diagonal
stops it only above FLOAT_TOL.

The products visit only finite entries, listed once per call, in the
order a dot over every position visits them, so that of two equal sums
(0.0 and -0.0 compare equal) the same one stays.
"""

from __future__ import annotations

# the float rounding noise tolerated: a float cycle and a float box gate
# h~ B* g are positive only above it, the positive-cycle witness takes
# float sums within it (relative to their size) as equal, and
# `scheduling.verify_schedule` forgives float violations up to it
FLOAT_TOL = 1e-9


def _positive(v):
    """v > 0 for a finite payload v; a float only above FLOAT_TOL, so that
    rounding noise around 0 is not positive."""
    return v > (FLOAT_TOL if type(v) is float else 0)


def _p_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


def dot(u, v):
    """Max-plus dot product of two payload sequences."""
    best = None
    for a, b in zip(u, v):
        if a is None or b is None:
            continue
        s = a + b
        if best is None or s > best:
            best = s
    return best


def _finite_rows(b):
    """Per row of `b`, the list of its finite entries `(col, value)`."""
    return [row_entries(b, i) for i in range(len(b))]


def _fold(v, fin, ncols):
    """v b, for b given by its `_finite_rows`: each finite v[k], k
    ascending, folds in the finite entries of row k of b, so of two equal
    sums the first stays, as in `dot`."""
    out = [None] * ncols
    for vk, row in zip(v, fin):
        if vk is None:
            continue
        for j, x in row:
            s = vk + x
            o = out[j]
            if o is None or s > o:
                out[j] = s
    return out


def _best(pairs, v):
    """Largest x + v[j] over the `(j, x)` in `pairs` whose v[j] is finite:
    the first of equal sums, as in `dot`; None when there is none."""
    best = None
    for j, x in pairs:
        y = v[j]
        if y is not None:
            s = x + y
            if best is None or s > best:
                best = s
    return best


def matvec(a, v):
    (fin,) = _finite_rows((v,))
    return tuple(_best(fin, row) for row in a)


def vecmat(v, a):
    return tuple(_fold(v, _finite_rows(a), len(a[0]) if a else 0))


def matmul(a, b):
    fin = _finite_rows(b)
    ncols = len(b[0]) if b else 0
    return tuple(tuple(_fold(row, fin, ncols)) for row in a)


def transpose(a):
    return tuple(zip(*a))


def to_payload_vec(v):
    return tuple(v)


def row_entries(a, i):
    """The finite entries of row i of `a` as `(col, payload)` pairs, in
    ascending column order."""
    return [(j, x) for j, x in enumerate(a[i]) if x is not None]


def bottoms(nrows, ncols):
    return ((None,) * ncols,) * nrows


def outer_acc(acc, v, w):
    """acc max (v_i + w_j)."""
    return tuple(
        ra if x is None else tuple(
            a if y is None else _p_add(a, x + y) for a, y in zip(ra, w)
        )
        for ra, x in zip(acc, v)
    )


def scale_max(acc, scale, base):
    """(acc + scale) max base."""
    return tuple(
        tuple(
            _p_add(b, None if a is None else a + scale)
            for a, b in zip(ra, rb)
        )
        for ra, rb in zip(acc, base)
    )


def closure(a):
    """Floyd-Warshall max-plus star A* = I max A+ of square `a` as mutable
    row lists, stopped before the first pivot t whose diagonal d[t][t] is
    positive.

    Returns (d, t), with t = len(a) when no cycle is positive.  Before
    pivot t, d[t][t] is the heaviest cycle through t over nodes below t,
    and d[u][t] for u < t the longest path u -> t through them: the stop
    and the column t at and above the diagonal that `_kernels.closure`
    also gives, and all `semiring._positive_cycle_witness` reads.  A float
    diagonal counts as positive only above FLOAT_TOL, so that a cycle
    whose float weight is rounding noise (0.1 + 0.2 - 0.3) does not make
    feasible data infeasible.
    """
    d = [list(r) for r in a]
    n = len(d)
    for k in range(n):
        dk = d[k]
        if dk[k] is not None and _positive(dk[k]):
            return d, k
        for i in range(n):
            dik = d[i][k]
            if dik is None:
                continue
            di = d[i]
            for j in range(n):
                dkj = dk[j]
                if dkj is None:
                    continue
                v = dik + dkj
                if di[j] is None or v > di[j]:
                    di[j] = v
    for i, row in enumerate(d):
        row[i] = 0
    return d, n
