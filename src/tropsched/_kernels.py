"""Integer fast path: max-plus kernels on int64 arrays with a bottom sentinel.

Finite entries are accepted only up to |v| <= 2**50 and the sentinel sits at
-2**62, so adding two clamped values can never wrap below the int64 minimum.
Every kernel re-clamps its output to the sentinel, which keeps the drift of
"bottom plus finite" sums bounded; anything at or below -2**61 converts back
to the bottom element.

That argument covers one addition.  A closure adds up to n - 1 entries along
an elementary path, so it is exact only while (n - 1) * max|finite entry|
stays short of the cutoff: then a finite path sum stays above -2**61, and a
bottom entry plus such a sum stays at or below it.  `paths_fit` checks this
bound; callers take the payload loop when it fails.

The rank-one solve on arrays (`optimize`) forms longer sums.  With M the
largest finite magnitude in B, p, q~, g and h~: its chain entries (running
maxima of B^i p and q~ B^j, i, j <= n - 2; it keeps only some) stay within
(n - 1) M, theta within 2n M, an outer product term minus theta within
(4n - 2) M, and h~ G within (4n - 1) M; a bottom drifts by at most the same
sums.  `rank_one_fits` asks of 4n M what `paths_fit` asks of the path bound.

Project networks are sparse, so `closure`, `positive_cycle_pivot` and
`matmul` work only on finite entries while those are under a quarter of
the work.  At pivot k the closure updates d[i][j] only for rows with a
finite d[i][k] and columns with a finite d[k][j]; any other sum through k
has a bottom term, is a bottom itself and so can raise no finite entry.
The finite sums it does form are path sums, exact by `paths_fit`.  It
writes only those sums, never a bottom plus a finite value, so it adds no
drift: bottoms stay at the sentinel until a finite path reaches them.
`matmul` skips the bottom entries of each row of a for the same reason.
Above that share a kernel takes the dense slice update, whose drift the
bounds above cover; the worst case stays O(n^3).

`json_rows` encodes an array for the result document through a token
table: one JSON token per distinct value (null at or below the cutoff),
indexed by `np.unique`'s inverse, so no entry is boxed into a payload.
"""

from __future__ import annotations

import functools
import importlib.util

NEG = -(1 << 62)
MAG_CAP = 1 << 50
BOTTOM_CUTOFF = -(1 << 61)
# a kernel gathers finite entries while they are under 1/4 of the work:
# near where a gathered closure pivot costs as much as a dense one (1/5 to
# 1/4 at n = 400); a product row gathers profitably up to about 1/2
_DENSE_SHARE = 4


class _LazyNumpy:
    """Stands in for numpy until a kernel first needs it.

    Importing numpy costs more than a small solve, so it is imported on the
    first attribute access, which also rebinds the module global `np` to
    numpy itself.  Until then numpy stays out of sys.modules.
    """

    def __getattr__(self, name):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()


@functools.cache
def available() -> bool:
    """True when numpy can be imported; checked without importing it."""
    return importlib.util.find_spec("numpy") is not None


def from_payload_rows(rows):
    """int64 array for integer payload rows, or None if not representable."""
    flat = []
    push = flat.append
    for row in rows:
        for v in row:
            if v is None:
                push(NEG)
            elif type(v) is int and -MAG_CAP <= v <= MAG_CAP:
                push(v)
            else:
                return None
    m = len(rows)
    n = len(rows[0]) if m else 0
    return np.array(flat, dtype=np.int64).reshape(m, n)


def from_entries(shape, entries):
    """int64 array of `shape` holding the finite `(row, col, value)` entries
    and bottoms elsewhere: what `from_payload_rows` gives for the rows they
    describe, None included."""
    if not all(type(v) is int and -MAG_CAP <= v <= MAG_CAP for _, _, v in entries):
        return None
    out = np.full(shape, NEG, dtype=np.int64)
    if entries:
        rows, cols, values = zip(*entries)
        out[rows, cols] = values
    return out


def from_payload_vec(entries):
    out = np.empty(len(entries), dtype=np.int64)
    for i, v in enumerate(entries):
        if v is None:
            out[i] = NEG
        elif type(v) is int and -MAG_CAP <= v <= MAG_CAP:
            out[i] = v
        else:
            return None
    return out


def to_payload_rows(arr):
    return tuple(
        tuple(None if x <= BOTTOM_CUTOFF else x for x in row)
        for row in arr.tolist()
    )


def to_payload_vec(arr):
    return tuple(None if x <= BOTTOM_CUTOFF else x for x in arr.tolist())


def json_rows(arr):
    """The rows of `arr` as lists of JSON tokens: null for a bottom, a
    quoted integer otherwise, as the exact result document writes them."""
    values, inverse = np.unique(arr, return_inverse=True)
    tokens = np.array(
        ["null" if v <= BOTTOM_CUTOFF else '"%d"' % v for v in values.tolist()],
        dtype=object,
    )
    return tokens[inverse.reshape(arr.shape)].tolist()


def _sparse(count, size):
    """True when `count` finite entries out of `size` are few enough that
    gathering them beats a dense slice."""
    return count * _DENSE_SHARE < size


def matmul(a, b):
    """a b, each row of `a` taking only its finite entries when sparse."""
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.int64)
    k = a.shape[1]
    finite = a > BOTTOM_CUTOFF
    for i in range(a.shape[0]):
        idx = finite[i].nonzero()[0]
        if _sparse(idx.size, k):
            np.max(a[i, idx, None] + b[idx], axis=0, out=out[i], initial=NEG)
        else:
            np.max(a[i, :, None] + b, axis=0, out=out[i], initial=NEG)
    return out


def matvec(a, v):
    return np.max(a + v[None, :], axis=1, initial=NEG)


def vecmat(v, a):
    return np.max(v[:, None] + a, axis=0, initial=NEG)


def _magnitude(a):
    """Largest finite magnitude in `a`."""
    return int(np.abs(a[a > BOTTOM_CUTOFF]).max(initial=0))


def _span_fits(k, *arrays):
    """True when k times the largest finite magnitude in `arrays` stays
    above the cutoff, and the sentinel plus it at or below."""
    span = k * max(_magnitude(a) for a in arrays)
    return span < -BOTTOM_CUTOFF and NEG + span <= BOTTOM_CUTOFF


def paths_fit(a):
    """True when every elementary path sum of square `a` is exact in int64."""
    return _span_fits(a.shape[0] - 1, a)


def rank_one_fits(b, *vecs):
    """True when the rank-one solve on square `b` and its vectors is exact."""
    return _span_fits(4 * b.shape[0], b, *vecs)


def _reset_bottom(a):
    """Copy of `a` with every bottom entry back at the sentinel."""
    return np.where(a > BOTTOM_CUTOFF, a, NEG)


def _pivot_support(d, k):
    """Rows i with a finite d[i][k] and columns j with a finite d[k][j]."""
    return (
        (d[:, k] > BOTTOM_CUTOFF).nonzero()[0],
        (d[k] > BOTTOM_CUTOFF).nonzero()[0],
    )


def max_product(b, d, c):
    """b max d c with bottoms at the sentinel, as `from_payload_rows` gives
    it; None when an entry exceeds MAG_CAP, which that conversion refuses."""
    r = _reset_bottom(np.maximum(b, matmul(d, c)))
    return r if _magnitude(r) <= MAG_CAP else None


def closure(a):
    """Floyd-Warshall transitive closure A+ (max-plus), input left intact."""
    d = _reset_bottom(a)
    n = d.shape[0]
    for k in range(n):
        rows, cols = _pivot_support(d, k)
        if _sparse(rows.size * cols.size, n * n):
            block = np.ix_(rows, cols)
            d[block] = np.maximum(d[block], d[rows, k, None] + d[k, cols])
        else:
            np.maximum(d, d[:, k, None] + d[None, k, :], out=d)
            np.maximum(d, NEG, out=d)
    return d


def positive_cycle_pivot(a):
    """Floyd-Warshall with successor pointers, stopped at the first pivot k
    where some d[i][k] + d[k][i] > 0.

    Returns (i, k, succ): succ[u][v] is the node after u on the longest
    path u -> v through pivots 0..k-1, so the walks i -> k and k -> i close
    a positive walk.  Returns None when no cycle is positive.
    """
    d = _reset_bottom(a)
    n = d.shape[0]
    succ = np.broadcast_to(np.arange(n), (n, n)).copy()
    for k in range(n):
        hits = (d[:, k] + d[k] > 0).nonzero()[0]
        if hits.size:
            return int(hits[0]), k, succ
        rows, cols = _pivot_support(d, k)
        if _sparse(rows.size * cols.size, n * n):
            block = np.ix_(rows, cols)
            sub, via = d[block], succ[block]
            through = d[rows, k, None] + d[k, cols]
            better = through > sub
            np.copyto(sub, through, where=better)
            np.copyto(via, succ[rows, k, None], where=better)
            d[block], succ[block] = sub, via
        else:
            through = d[:, k, None] + d[None, k, :]
            better = through > d
            np.copyto(d, through, where=better)
            np.copyto(succ, succ[:, k, None], where=better)
    return None


def running_maxima(b, x, cap, left=False):
    """Rows x, x max b x, ... (x b when `left`) up to row cap, stopped
    before the first repeat; bottoms are reset at every step, so a drifted
    one cannot hide a repeat."""
    b = _reset_bottom(b)
    rows = [_reset_bottom(x)]
    for _ in range(cap):
        step = vecmat(rows[-1], b) if left else matvec(b, rows[-1])
        nxt = _reset_bottom(np.maximum(rows[-1], step))
        if np.array_equal(nxt, rows[-1]):
            break
        rows.append(nxt)
    return np.stack(rows)


def dot(u, v):
    """Max-plus dot product as a payload: an int, or None for bottom."""
    s = int(np.max(u + v))
    return None if s <= BOTTOM_CUTOFF else s


def outer_acc(acc, v, w):
    """acc = acc max (v_i + w_j), in place."""
    np.maximum(acc, v[:, None] + w[None, :], out=acc)
    np.maximum(acc, NEG, out=acc)


def scale_max(acc, scale, base):
    """(acc + scale) max base, clamped."""
    return np.maximum(np.maximum(acc + scale, NEG), base)
