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
    """Star A* = I max A+ (max-plus) of square `a` as mutable row lists,
    stopped at the first node t that closes a positive cycle over nodes
    0..t: the bordering of `_kernels.closure` over payload rows, which
    gives the same (d, t).  Step m sets row m to r S and column m to S c
    (`_best`), for S the star of nodes below m and r and c the finite
    entries of row m left of the diagonal and of column m above it.  A
    gamma = a[m][m] max r S c that `_positive` accepts stops the pass with
    d[t][t] = gamma; else S takes column m (x) row m where both are finite.
    """
    d = [list(r) for r in a]
    for m, dm in enumerate(d):
        # r S: of two equal sums the first stays, as in `_fold`
        row = [None] * m
        for k, x in enumerate(dm[:m]):
            if x is not None:
                for j, y in enumerate(d[k][:m]):
                    if y is not None and (row[j] is None or x + y > row[j]):
                        row[j] = x + y
        dm[:m] = row
        c = [(k, d[k][m]) for k in range(m) if d[k][m] is not None]
        gamma = dm[m]
        if c:
            col = [_best(c, di) for di in d[:m]]
            for di, y in zip(d, col):
                di[m] = y
            gamma = _p_add(gamma, _best(c, row))
        if gamma is not None and _positive(gamma):
            dm[m] = gamma
            return d, m
        dm[m] = 0
        if c:
            fr = [(j, y) for j, y in enumerate(row) if y is not None]
            for di, x in zip(d, col):
                if x is not None:
                    for j, y in fr:
                        if di[j] is None or x + y > di[j]:
                            di[j] = x + y
    return d, len(d)
