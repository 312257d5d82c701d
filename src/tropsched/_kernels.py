"""Integer fast path: max-plus kernels on int64 arrays with a bottom sentinel.

`semiring._operands` decides when these kernels run, and imports this
module the first time a matrix passes its row gate or holds an array: a
request below the gate never loads it, nor numpy.  `_loops` holds their
payload namesakes.

Finite entries are accepted only up to |v| <= 2**50 and the sentinel sits at
-2**62, so adding two clamped values can never wrap below the int64 minimum.
Every kernel re-clamps its output to the sentinel, which keeps the drift of
"bottom plus finite" sums bounded; anything at or below -2**61 converts back
to the bottom element.

That argument covers one addition.  A star sums up to n - 1 entries along
an elementary path, so it is exact only while (n - 1) * max|finite entry|
stays short of the cutoff: then a finite path sum stays above -2**61, and a
bottom entry plus such a sum stays at or below it.  `span_fits` checks such
a bound; a star asks it of n - 1.

The rank-one solve (`optimize`) forms longer sums.  With M the largest
finite magnitude in B, p, q~, g and h~, and S = B* within (n - 1) M: S p,
q~ S and h~ S stay within n M, each of their dots with a vector within
(n + 1) M, and so theta = q~ S p max (h~ S p)(q~ S g) within 2(n + 1) M;
a rank-one term (S p)_i + (q~ S)_j - theta stays within (4n + 2) M, and
h~ G within (4n + 3) M.  A bottom drifts by at most the same sums, and
`outer_acc` clamps the sum of two bottoms back to the sentinel before
theta is subtracted.  It asks `span_fits` of 4n + 3.

`closure` borders: step m extends the star S of nodes 0..m-1 by node m,
reading only the finite entries of row m left of the diagonal and of
column m above it, so a project network without maximal time lags costs
one row fold per node.  A row or column entry it writes is a path sum plus
one finite entry, r[k] + S[k][j] or S[i][k] + c[k], and gamma adds one
finite entry to a row entry.  The block adds S[i][m] + S[m][j] only where
S[i][m] is finite; where S[m][j] is not, it adds NEG + BOTTOM_CUTOFF in
its stead, which a path sum keeps at or below the sentinel.  So a finite
value is an exact path sum.  A fold writes a bottom one entry away from a
bottom of an earlier step, and the block raises one to at most the
sentinel: bottoms drift by at most n - 1 entries either way, which the
star's bound keeps at or below the cutoff and clear of the int64 minimum.
No sum of two bottoms is stored, and the star is clamped back to at
least the sentinel.

`matmul`'s columns and the closure's block work only on finite entries
while those are under a quarter of the work (`_sparse`), and above that
share take the dense slice update; the worst case stays O(n^3).

`matmul` accumulates over the inner index k: it adds row k of b to column
k of a only at the rows with a finite a[i][k] (at every row once that
column is dense) and skips a column with no finite entry, since a sum with
a bottom a[i][k] is a bottom and can raise no finite entry.  Row k of b is
taken whole, so a bottom b[k][j] plus a finite a[i][k] is formed, as the
dense product forms it: the bottom's drift grows by |a[i][k]| <= M, one
more entry of the sums the bounds above count, so the sum stays at or
below the cutoff and reads back as bottom.

`json_pieces` lays an array out as text for the result document without
boxing an entry: the caller's `piece` gives the text of one payload (None
at or below the cutoff) at a row's end or inside it, once per distinct
pair, and a gather repeats those pieces for every entry.  Each entry finds
its piece by its offset from the smallest finite value, one subtraction
with no sort, while that span is no wider than the entry count (a
generator's few distinct values); a wider span, as with entries near
+-2**50, indexes by `np.unique`'s inverse.
"""

from __future__ import annotations

import functools
import importlib.util

NEG = -(1 << 62)
MAG_CAP = 1 << 50
BOTTOM_CUTOFF = -(1 << 61)
# a kernel gathers finite entries while they are under 1/4 of the work
# (the matmul columns and the closure's block update)
_DENSE_SHARE = 4
# a closure row or column over more finite entries folds in one reduction;
# fewer take one np.add or np.maximum each: `closure` alone (best of 15, three
# runs) took 1.4-1.5x as long on solve-int's R and 1.3-2.0x on the chain's
# R when every fold was gathered
_FEW = 4


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
    """int64 array for an integer payload vector, or None if not
    representable."""
    if not all(
        v is None or (type(v) is int and -MAG_CAP <= v <= MAG_CAP) for v in entries
    ):
        return None
    return np.array([NEG if v is None else v for v in entries], dtype=np.int64)


def to_payload_rows(arr):
    return tuple(
        tuple(None if x <= BOTTOM_CUTOFF else x for x in row)
        for row in arr.tolist()
    )


def to_payload_vec(arr):
    return tuple(None if x <= BOTTOM_CUTOFF else x for x in arr.tolist())


def row_entries(a, i):
    """The finite entries of row i of `a` as `(col, payload)` pairs, in
    ascending column order; the bottoms are never boxed."""
    row = a[i]
    cols = (row > BOTTOM_CUTOFF).nonzero()[0]
    return list(zip(cols.tolist(), row[cols].tolist()))


def json_pieces(arr, piece):
    """One text piece per entry of `arr`, row by row: `piece(payload,
    ends_row)` for the entry's payload and whether it ends its row, called
    once per distinct such pair that occurs."""
    flat = arr.ravel()
    lo, hi = int(flat.min()), int(flat.max())
    finite = None
    if lo <= BOTTOM_CUTOFF:
        # the span is that of the finite entries; all bottoms leave lo = hi
        finite = flat > BOTTOM_CUTOFF
        lo = int(flat.min(initial=hi, where=finite))
    if hi - lo <= flat.size:
        # slot v - lo for a finite v, and the slot past them for a bottom
        slots = flat - lo
        if finite is not None:
            slots = np.where(finite, slots, hi - lo + 1)
        payloads = [*range(lo, hi + 1), None]
    else:
        values, slots = np.unique(flat, return_inverse=True)
        payloads = [v if v > BOTTOM_CUTOFF else None for v in values.tolist()]
    # a row's last entry takes its slot in the second half of the table
    k = len(payloads)
    slots[arr.shape[1] - 1 :: arr.shape[1]] += k
    table = np.empty(2 * k, dtype=object)
    for u in np.flatnonzero(np.bincount(slots, minlength=2 * k)).tolist():
        table[u] = piece(payloads[u % k], u >= k)
    return table[slots].tolist()


def _sparse(count, size):
    """True when `count` finite entries out of `size` are few enough that
    gathering them beats a dense slice."""
    return count * _DENSE_SHARE < size


def matmul(a, b):
    """a b, accumulated over the inner index k: column k of `a` meets row k
    of `b` only at its finite rows while those are sparse, at every row
    once it is dense, and not at all when it has no finite entry."""
    out = np.full((a.shape[0], b.shape[1]), NEG, dtype=np.int64)
    finite = a > BOTTOM_CUTOFF
    for k in finite.any(axis=0).nonzero()[0]:
        rows = finite[:, k].nonzero()[0]
        if _sparse(rows.size, a.shape[0]):
            out[rows] = np.maximum(out[rows], a[rows, k, None] + b[k])
        else:
            np.maximum(out, a[:, k, None] + b[k], out=out)
    return out


def matvec(a, v):
    return np.max(a + v[None, :], axis=1, initial=NEG)


def vecmat(v, a):
    return np.max(v[:, None] + a, axis=0, initial=NEG)


def _magnitude(a):
    """Largest finite magnitude in `a`."""
    lo = int(a.min(initial=0))
    if lo > BOTTOM_CUTOFF:
        # no bottom entry, as in a generator: no need to gather
        return max(-lo, int(a.max(initial=0)))
    return int(np.abs(a[a > BOTTOM_CUTOFF]).max(initial=0))


def span_fits(k, *arrays):
    """True when k times the largest finite magnitude in `arrays` stays
    above the cutoff, and the sentinel plus it at or below."""
    span = k * max(_magnitude(a) for a in arrays)
    return span < -BOTTOM_CUTOFF and NEG + span <= BOTTOM_CUTOFF


def _fold(d, m, ks, vs):
    """Row m of `d` left of the diagonal set to r S, for S the star in
    d[:m, :m] and r the entries `vs` at the columns `ks` (lists): the
    largest d[k, :m] + v.  A few entries take one `np.add` and one
    `np.maximum` per further entry on row views; more are gathered, in
    their leading m columns only, into one reduction, and a full row or
    column reads the leading block's slice instead.  Every v is finite, so
    no two bottoms are added."""
    row = d[m, :m]
    if len(ks) > _FEW:
        # the slice saves the gather: gathering full rows too took `closure`
        # 1.0-1.6x as long on a dense cyclic n = 300 matrix (best of 15,
        # three runs)
        lines = d[:m, :m] if len(ks) == m else d[ks, :m]
        np.max(lines + np.array(vs)[:, None], axis=0, out=row)
    else:
        np.add(d[ks[0], :m], vs[0], out=row)
        for i in range(1, len(ks)):
            np.maximum(row, d[ks[i], :m] + vs[i], out=row)
    return row


def closure(a):
    """Star A* = I max A+ (max-plus) of square `a` by bordering, input
    left intact, stopped at the first node t that closes a positive cycle
    over nodes 0..t.

    Returns (d, t), with t = n when no cycle is positive.  Step m extends
    the star S of nodes below m, held in d[:m, :m], by node m: row m
    becomes r S over the finite entries r of row m left of the diagonal,
    column m becomes S c over the finite entries c of column m above it
    (`_fold`), and gamma = a[m][m] max r S c is the heaviest cycle through
    m over nodes below m.  A positive gamma stops the pass with d[t][t] =
    gamma; otherwise d[m][m] = 0, and d[:m, :m] takes column m (x) row m
    at the rows and columns where both are finite, gathered while that
    block is sparse and through the slice otherwise.  On a project network
    without maximal time lags every column above the diagonal is empty,
    so a step is one row fold.  `_loops.closure` borders the same way, so
    both backends return the same (d, t).  The rest of d past node t is
    not a closure.
    """
    finite = a > BOTTOM_CUTOFF
    d = np.where(finite, a, NEG)
    n = d.shape[0]
    diag = d.diagonal().tolist()
    ri, ci = finite.nonzero()
    vals = d[ri, ci]
    # row m's entries left of the diagonal lie together in ri's order; a
    # stable sort by column brings column m's entries above it together
    left, above = ci < ri, ri < ci
    r_k, r_v = ci[left].tolist(), vals[left].tolist()
    r_at = np.searchsorted(ri[left], np.arange(n + 1)).tolist()
    by_col = np.argsort(ci[above], kind="stable")
    c_k, c_v = ri[above][by_col].tolist(), vals[above][by_col].tolist()
    c_at = np.searchsorted(ci[above][by_col], np.arange(n + 1)).tolist()
    for m in range(n):
        r0, r1, c0, c1 = r_at[m], r_at[m + 1], c_at[m], c_at[m + 1]
        gamma = diag[m]
        if r1 > r0:
            row = _fold(d, m, r_k[r0:r1], r_v[r0:r1])
        if c1 > c0:
            # column m of d is row m of its transpose
            col = _fold(d.T, m, c_k[c0:c1], c_v[c0:c1])
            if r1 > r0:
                gamma = max(gamma, int(np.max(row[c_k[c0:c1]] + c_v[c0:c1])))
        if gamma > 0:
            d[m, m] = gamma
            t = m
            break
        d[m, m] = 0
        if r1 > r0 and c1 > c0:
            fr, fc = col > BOTTOM_CUTOFF, row > BOTTOM_CUTOFF
            rows, cols = fr.nonzero()[0], fc.nonzero()[0]
            if _sparse(rows.size * cols.size, m * m):
                block = rows[:, None], cols
                d[block] = np.maximum(d[block], col[rows, None] + row[cols])
            else:
                # rows with a bottom in column m are masked out, and a
                # bottom of row m set to NEG + BOTTOM_CUTOFF sums with a
                # finite path to at most NEG; a full column takes no mask,
                # since masking it too took `closure` 1.2-1.6x as long on a
                # dense cyclic n = 300 matrix (best of 15, three runs)
                lead = d[:m, :m]
                low = np.where(fc, row, NEG + BOTTOM_CUTOFF)
                mask = True if rows.size == m else fr[:, None]
                np.maximum(lead, col[:, None] + low, out=lead, where=mask)
    else:
        t = n
    # a fold leaves a bottom below the sentinel when it adds a negative
    # entry; the other kernels add two bottoms only from the sentinel up
    np.maximum(d, NEG, out=d)
    return d, t


def dot(u, v):
    """Max-plus dot product as a payload: an int, or None for bottom."""
    s = int(np.max(u + v, initial=NEG))
    return None if s <= BOTTOM_CUTOFF else s


def transpose(a):
    return a.T


def bottoms(nrows, ncols):
    return np.full((nrows, ncols), NEG, dtype=np.int64)


def outer_acc(acc, v, w):
    """acc max (v_i + w_j), written into acc and returned, clamped."""
    np.maximum(acc, v[:, None] + w[None, :], out=acc)
    np.maximum(acc, NEG, out=acc)
    return acc


def scale_max(acc, scale, base):
    """(acc + scale) max base, clamped."""
    return np.maximum(np.maximum(acc + scale, NEG), base)
