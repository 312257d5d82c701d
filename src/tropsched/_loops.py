"""Payload kernels: the max-plus operations of `_kernels`, under the same
names and signatures, on payload rows (int / Fraction / float, None for
bottom) instead of int64 arrays.  Exact for every number type; no numpy.
A matrix is a sequence of rows, so one with no rows has no columns.
"""

from __future__ import annotations


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


def matvec(a, v):
    return tuple(dot(row, v) for row in a)


def vecmat(v, a):
    return tuple(dot(v, col) for col in zip(*a))


def matmul(a, b):
    b_cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in b_cols) for row in a)


def transpose(a):
    return tuple(zip(*a))


def take(rows, idx):
    return [rows[i] for i in idx]


def to_payload_vec(v):
    return tuple(v)


def max_product(b, d, c):
    """b max d c."""
    return tuple(
        tuple(map(_p_add, rb, rdc)) for rb, rdc in zip(b, matmul(d, c))
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
    """Floyd-Warshall max-plus closure A+; returns mutable row lists."""
    d = [list(r) for r in a]
    n = len(d)
    for k in range(n):
        dk = d[k]
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
    return d


def star(a):
    """A* = I max A+ of square `a`, or None when a cycle is positive."""
    d = closure(a)
    for i, row in enumerate(d):
        if row[i] is not None and row[i] > 0:
            return None
    for i, row in enumerate(d):
        row[i] = 0
    return d


def positive_cycle_pivot(a):
    """Floyd-Warshall with successor pointers, stopped at the first pivot k
    where some d[i][k] + d[k][i] > 0; see `_kernels.positive_cycle_pivot`."""
    d = [list(r) for r in a]
    n = len(d)
    succ = [list(range(n)) for _ in range(n)]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik, dki = d[i][k], dk[i]
            if dik is not None and dki is not None and dik + dki > 0:
                return i, k, succ
        for i in range(n):
            dik = d[i][k]
            if dik is None:
                continue
            di = d[i]
            si = succ[i]
            sik = si[k]
            for j in range(n):
                dkj = dk[j]
                if dkj is None:
                    continue
                v = dik + dkj
                if di[j] is None or v > di[j]:
                    di[j] = v
                    si[j] = sik
    return None


def running_maxima(b, x, cap, left=False):
    """Rows x, x max b x, ... (x b when `left`) up to row cap, stopped
    before the first repeat."""
    rows = [tuple(x)]
    for _ in range(cap):
        step = vecmat(rows[-1], b) if left else matvec(b, rows[-1])
        nxt = tuple(map(_p_add, rows[-1], step))
        if nxt == rows[-1]:
            break
        rows.append(nxt)
    return rows
