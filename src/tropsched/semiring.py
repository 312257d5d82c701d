"""Max-plus (tropical) scalars, vectors, and matrices.

Tropical addition is the maximum, tropical multiplication is ordinary +,
the additive identity is the bottom element -oo, and the multiplicative
identity is 0.  The semiring is idempotent and linearly ordered, every
finite element has a multiplicative inverse (its negation), and rational
powers are rational multiples.

Entries stay exact as long as they are created from ints, Fractions, or
numeric strings; entries created from floats keep float arithmetic.
Internally the bottom element is the payload None, and finite entries are
int / Fraction / float.  `_operands` alone picks the backend of every
operation that can run on int64 arrays: the int64 kernels (`_kernels`) or
their payload namesakes (`_loops`), which give the same results.

Two imports wait for their first use, since a small request needs
neither: `_kernels` is imported when a matrix first passes `_operands`'s
row gate or holds an array, and `fractions` when a value is neither an
int nor a float, or when a power or root is taken.
"""

from __future__ import annotations

import math
import sys

from . import _loops
from ._loops import FLOAT_TOL, _p_add

__all__ = [
    "TropScalar",
    "TropVector",
    "TropMatrix",
    "BOTTOM",
    "ONE",
    "PositiveCycleError",
    "outer",
    "solve_leq",
]

_MISSING = object()

# rows a matrix needs before the int64 kernels take it, unless it already
# holds its array: below that, converting costs more than the payload loops
_KERNEL_DIM = 20
# the same while numpy is not yet imported: below it, the payload loops
# cost less than the import (on a 2-vCPU host, a fresh `solve` broke even
# near 145 rows on dense project networks and past 250 on layered ones)
_IMPORT_DIM = 128

# the int64 kernels module once `_load_kernels` has imported it
_kernels = None


def _load_kernels():
    """The `_kernels` module, imported and bound to `_kernels` here on the
    first call."""
    global _kernels
    if _kernels is None:
        from . import _kernels
    return _kernels


def _payload(value):
    """Normalize a number-like value (or None / -inf) to an entry payload."""
    if value is None:
        return None
    if isinstance(value, TropScalar):
        return value._v
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        if value == float("-inf"):
            return None
        if math.isnan(value) or math.isinf(value):
            raise ValueError("entries must be finite numbers or -inf")
        return value
    from fractions import Fraction

    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, str):
        return _payload(Fraction(value))
    raise TypeError(f"cannot interpret {value!r} as a max-plus scalar")


def _other_payload(other):
    if isinstance(other, TropScalar):
        return other._v
    if isinstance(other, (int, float)):
        return _payload(other)
    from fractions import Fraction

    if isinstance(other, Fraction):
        return _payload(other)
    return _MISSING


def _p_mul(a, b):
    if a is None or b is None:
        return None
    return a + b


def _p_pow(v, q):
    from fractions import Fraction

    if isinstance(q, TropScalar):
        raise TypeError("exponents are plain numbers, not max-plus scalars")
    if not isinstance(q, (int, Fraction, float)):
        raise TypeError(f"bad exponent {q!r}")
    if v is None:
        if q > 0:
            return None
        raise ValueError("the bottom element admits only positive exponents")
    if isinstance(v, float) or isinstance(q, float):
        return v * q
    r = Fraction(v) * Fraction(q)
    return int(r) if r.denominator == 1 else r


def _p_lt(a, b):
    if a is None:
        return b is not None
    if b is None:
        return False
    return a < b


def _p_str(v):
    return "-oo" if v is None else str(v)


class TropScalar:
    """A max-plus scalar: a finite number or the bottom element -oo."""

    __slots__ = ("_v",)

    def __init__(self, value=None):
        self._v = _payload(value)

    @property
    def is_bottom(self):
        return self._v is None

    @property
    def value(self):
        """Underlying int / Fraction / float, or None for bottom."""
        return self._v

    def inv(self):
        """Multiplicative inverse, i.e. the negation of the value."""
        if self._v is None:
            raise ValueError("the bottom element has no inverse")
        return _scalar(-self._v)

    def root(self, k):
        """k-th tropical root, i.e. the value divided by k."""
        from fractions import Fraction

        return self.__pow__(Fraction(1, int(k)))

    def __add__(self, other):
        o = _other_payload(other)
        if o is _MISSING:
            return NotImplemented
        return _scalar(_p_add(self._v, o))

    __radd__ = __add__

    def __mul__(self, other):
        o = _other_payload(other)
        if o is _MISSING:
            return NotImplemented
        return _scalar(_p_mul(self._v, o))

    __rmul__ = __mul__

    def __pow__(self, q):
        return _scalar(_p_pow(self._v, q))

    def __eq__(self, other):
        o = _other_payload(other)
        if o is _MISSING:
            return NotImplemented
        return self._v == o

    def __lt__(self, other):
        o = _other_payload(other)
        if o is _MISSING:
            return NotImplemented
        return _p_lt(self._v, o)

    def __le__(self, other):
        o = _other_payload(other)
        if o is _MISSING:
            return NotImplemented
        return not _p_lt(o, self._v)

    def __gt__(self, other):
        o = _other_payload(other)
        if o is _MISSING:
            return NotImplemented
        return _p_lt(o, self._v)

    def __ge__(self, other):
        o = _other_payload(other)
        if o is _MISSING:
            return NotImplemented
        return not _p_lt(self._v, o)

    def __bool__(self):
        return self._v is not None

    def __hash__(self):
        return hash(self._v)

    def __str__(self):
        return _p_str(self._v)

    def __repr__(self):
        return f"TropScalar({self._v!r})"


def _scalar(payload):
    s = TropScalar.__new__(TropScalar)
    s._v = payload
    return s


BOTTOM = TropScalar(None)
ONE = TropScalar(0)


class TropVector:
    """Max-plus vector; orientation is decided by how @ is applied."""

    __slots__ = ("_e",)

    def __init__(self, entries):
        self._e = tuple(_payload(v) for v in entries)

    @classmethod
    def _from_payloads(cls, payloads):
        v = cls.__new__(cls)
        v._e = tuple(payloads)
        return v

    @classmethod
    def zeros(cls, n):
        """Tropical zero vector: every entry bottom."""
        return cls._from_payloads([None] * n)

    @classmethod
    def ones(cls, n):
        """Tropical identity vector: every entry 0."""
        return cls._from_payloads([0] * n)

    @classmethod
    def full(cls, n, value):
        return cls([value] * n)

    @property
    def is_regular(self):
        """True when every entry is finite."""
        return all(v is not None for v in self._e)

    @property
    def is_nonzero(self):
        """True when at least one entry is finite."""
        return any(v is not None for v in self._e)

    def conj(self):
        """Conjugate transpose: entrywise inverse, bottom stays bottom."""
        if not self.is_nonzero:
            raise ValueError("zero vector has no conjugate")
        return TropVector._from_payloads(
            None if v is None else -v for v in self._e
        )

    def norm(self):
        """Largest entry (bottom for the zero or empty vector)."""
        best = None
        for v in self._e:
            best = _p_add(best, v)
        return _scalar(best)

    def __len__(self):
        return len(self._e)

    def __iter__(self):
        return (_scalar(v) for v in self._e)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return TropVector._from_payloads(self._e[idx])
        return _scalar(self._e[idx])

    def __add__(self, other):
        if not isinstance(other, TropVector):
            return NotImplemented
        if len(self._e) != len(other._e):
            raise ValueError("vector lengths differ")
        return TropVector._from_payloads(
            _p_add(a, b) for a, b in zip(self._e, other._e)
        )

    def __mul__(self, other):
        o = _other_payload(other)
        if o is _MISSING:
            return NotImplemented
        return TropVector._from_payloads(_p_mul(v, o) for v in self._e)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, TropVector):
            if len(self._e) != len(other._e):
                raise ValueError("vector lengths differ")
            return _scalar(_loops.dot(self._e, other._e))
        if isinstance(other, TropMatrix):
            if len(self._e) != other._nrows:
                raise ValueError(
                    f"cannot multiply 1x{len(self._e)} by {other._nrows}x{other._ncols}"
                )
            # a held array may carry entries past MAG_CAP, as products
            # make them: each sum of one of its entries and one of v must fit
            k, (a,), (v,) = _operands([other], [self._e], span=2)
            return TropVector._from_payloads(k.to_payload_vec(k.vecmat(v, a)))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, TropVector):
            return NotImplemented
        return self._e == other._e

    def __le__(self, other):
        if not isinstance(other, TropVector):
            return NotImplemented
        if len(self._e) != len(other._e):
            raise ValueError("vector lengths differ")
        return all(not _p_lt(b, a) for a, b in zip(self._e, other._e))

    def __ge__(self, other):
        if not isinstance(other, TropVector):
            return NotImplemented
        return other.__le__(self)

    def __hash__(self):
        return hash(self._e)

    def __str__(self):
        return "(" + ", ".join(_p_str(v) for v in self._e) + ")"

    def __repr__(self):
        return f"TropVector([{', '.join(_p_str(v) for v in self._e)}])"


class TropMatrix:
    """Max-plus matrix read row-major as immutable payload tuples.

    It is stored in one of three forms, and builds the payload rows from
    the other two only when they are first read: the rows themselves; the
    int64 array a kernel made; or the row-major list of its finite entries
    `(row, col, payload)`, as parsed instance matrices and the reduced R
    are, which also builds the int64 array.  That list is kept once read.
    """

    __slots__ = ("_rowcache", "_nrows", "_ncols", "_intcache", "_finite")

    def __init__(self, rows):
        self._rowcache = tuple(
            tuple(_payload(v) for v in row) for row in rows
        )
        self._nrows = len(self._rowcache)
        self._ncols = len(self._rowcache[0]) if self._rowcache else 0
        for row in self._rowcache:
            if len(row) != self._ncols:
                raise ValueError("rows have unequal lengths")
        self._intcache = _MISSING
        self._finite = None

    @classmethod
    def _from_rows(cls, rows):
        """Matrix over normalized payload rows."""
        m = cls.__new__(cls)
        m._rowcache = tuple(tuple(r) for r in rows)
        m._nrows = len(m._rowcache)
        m._ncols = len(m._rowcache[0]) if m._rowcache else 0
        m._intcache = _MISSING
        m._finite = None
        return m

    @classmethod
    def _from_entries(cls, shape, finite):
        """Matrix of `shape` whose finite entries are the `(row, col,
        payload)` triples in `finite`, at distinct positions; bottom
        elsewhere."""
        m = cls.__new__(cls)
        m._rowcache = None
        m._nrows, m._ncols = shape
        m._intcache = _MISSING
        m._finite = sorted(finite)
        return m

    @classmethod
    def _from_int_array(cls, arr):
        """Matrix over `arr`, which must not be written to afterwards."""
        m = cls.__new__(cls)
        m._rowcache = None
        m._nrows, m._ncols = arr.shape
        m._intcache = arr
        m._finite = None
        return m

    @property
    def _rows(self):
        if self._rowcache is None:
            if self._finite is None:
                self._rowcache = _load_kernels().to_payload_rows(self._intcache)
            else:
                grid = [[None] * self._ncols for _ in range(self._nrows)]
                for i, j, v in self._finite:
                    grid[i][j] = v
                self._rowcache = tuple(map(tuple, grid))
        return self._rowcache

    def _entries(self):
        """The finite entries as `(row, col, payload)`, row-major; listed
        once, on the first call, for a matrix held in another form."""
        if self._finite is None:
            self._finite = [
                (i, j, v)
                for i, row in enumerate(self._rows)
                for j, v in enumerate(row)
                if v is not None
            ]
        return self._finite

    @classmethod
    def identity(cls, n):
        return cls._from_rows(
            tuple(0 if i == j else None for j in range(n)) for i in range(n)
        )

    @classmethod
    def zeros(cls, nrows, ncols=None):
        if ncols is None:
            ncols = nrows
        return cls._from_rows(((None,) * ncols,) * nrows)

    @classmethod
    def diag(cls, values):
        entries = [_payload(v) for v in values]
        n = len(entries)
        return cls._from_rows(
            tuple(entries[i] if i == j else None for j in range(n))
            for i in range(n)
        )

    def _int_array(self):
        if self._intcache is _MISSING:
            if not _load_kernels().available():
                self._intcache = None
            elif self._finite is not None:
                self._intcache = _kernels.from_entries(self.shape, self._finite)
            else:
                self._intcache = _kernels.from_payload_rows(self._rows)
        return self._intcache

    def _held_int_array(self):
        """The int64 array if the matrix already has one, else None; never
        converts."""
        arr = self._intcache
        return None if arr is _MISSING else arr

    @property
    def shape(self):
        return (self._nrows, self._ncols)

    @property
    def is_square(self):
        return self._nrows == self._ncols

    @property
    def is_column_regular(self):
        """True when every column holds at least one finite entry."""
        cols = {j for _, j, _ in self._entries()}
        return not self._nrows or len(cols) == self._ncols

    def row(self, i):
        return TropVector._from_payloads(self._rows[i])

    def col(self, j):
        return TropVector._from_payloads(row[j] for row in self._rows)

    def transpose(self):
        return TropMatrix._from_rows(zip(*self._rows)) if self._rows else self

    def __getitem__(self, idx):
        if isinstance(idx, tuple):
            i, j = idx
            return _scalar(self._rows[i][j])
        return self.row(idx)

    def __add__(self, other):
        if not isinstance(other, TropMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} differ")
        return TropMatrix._from_rows(
            tuple(_p_add(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self._rows, other._rows)
        )

    def __mul__(self, other):
        o = _other_payload(other)
        if o is _MISSING:
            return NotImplemented
        return TropMatrix._from_rows(
            tuple(_p_mul(v, o) for v in row) for row in self._rows
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, TropMatrix):
            if self._ncols != other._nrows:
                raise ValueError(
                    f"cannot multiply {self._nrows}x{self._ncols}"
                    f" by {other._nrows}x{other._ncols}"
                )
            k, (a, b), _ = _operands([self, other])
            # a held array may carry entries past MAG_CAP, as products
            # make them: each sum of one entry of a and one of b must fit
            if k is _kernels and not _kernels.span_fits(2, a, b):
                k, a, b = _loops, self._rows, other._rows
            return _matrix(k, k.matmul(a, b))
        if isinstance(other, TropVector):
            if self._ncols != len(other._e):
                raise ValueError(
                    f"cannot multiply {self._nrows}x{self._ncols}"
                    f" by {len(other._e)}x1"
                )
            # as in v @ m
            k, (a,), (v,) = _operands([self], [other._e], span=2)
            return TropVector._from_payloads(k.to_payload_vec(k.matvec(a, v)))
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("matrix powers take a non-negative integer")
        if not self.is_square:
            raise ValueError("matrix powers need a square matrix")
        out = TropMatrix.identity(self._nrows)
        for _ in range(k):
            out = out @ self
        return out

    def trace(self):
        best = None
        for i in range(min(self._nrows, self._ncols)):
            best = _p_add(best, self._rows[i][i])
        return _scalar(best)

    def spectral_radius(self):
        """Largest mean cycle weight, bottom when there is no cycle, by
        Karp's algorithm in n vector-matrix products: with D_k the heaviest
        walks of k edges into each node (D_0 = 0, D_k = D_(k-1) A), it is
        the largest, over the nodes v with a finite D_n[v], of the least
        (D_n[v] - D_k[v]) / (n - k) over k < n, exact for exact entries."""
        if not self.is_square:
            raise ValueError("spectral radius needs a square matrix")
        from fractions import Fraction

        n = self._nrows
        walks = [TropVector.ones(n)]
        for _ in range(n):
            walks.append(walks[-1] @ self)
        best = None
        for v, last in enumerate(walks[-1]._e):
            if last is None:
                continue
            # compare the ratios by cross-multiplying and divide once per
            # node: a Fraction per ratio cost n^2 of them
            num, den = None, 1
            for k, d in enumerate(walks[:-1]):
                x = d._e[v]
                if x is None:
                    continue
                if num is None or (last - x) * den < num * (n - k):
                    num, den = last - x, n - k
            best = _p_add(best, _p_pow(num, Fraction(1, den)))
        return _scalar(best)

    def norm(self):
        """Largest entry (bottom for an empty or all-bottom matrix)."""
        best = None
        for row in self._rows:
            for v in row:
                best = _p_add(best, v)
        return _scalar(best)

    def star(self):
        """Kleene star I + A + A^2 + ...; defined iff no cycle is positive.

        Raises PositiveCycleError naming a witness cycle otherwise.  A
        cycle of float weight counts as positive only above FLOAT_TOL
        (1e-9), so rounding noise around a zero cycle does not.
        """
        if not self.is_square:
            raise ValueError("star needs a square matrix")
        # a path sums at most n - 1 entries
        k, (a,), _ = _operands([self], span=self._nrows - 1)
        closed, t = k.closure(a)
        if t < self._nrows:
            cycle, weight = _positive_cycle_witness(k, a, closed, t)
            raise PositiveCycleError(cycle, _scalar(weight))
        return _matrix(k, closed)

    def __eq__(self, other):
        if not isinstance(other, TropMatrix):
            return NotImplemented
        return self._rows == other._rows and self.shape == other.shape

    def __le__(self, other):
        if not isinstance(other, TropMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} differ")
        return all(
            not _p_lt(b, a)
            for ra, rb in zip(self._rows, other._rows)
            for a, b in zip(ra, rb)
        )

    def __ge__(self, other):
        if not isinstance(other, TropMatrix):
            return NotImplemented
        return other.__le__(self)

    def __hash__(self):
        return hash((self._rows, self._ncols))

    def __str__(self):
        if not self._rows:
            return "[]"
        cells = [[_p_str(v) for v in row] for row in self._rows]
        widths = [
            max(len(cells[i][j]) for i in range(self._nrows))
            for j in range(self._ncols)
        ]
        return "\n".join(
            "[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]"
            for row in cells
        )

    def __repr__(self):
        body = ", ".join(
            "[" + ", ".join(_p_str(v) for v in row) + "]"
            for row in self._rows
        )
        return f"TropMatrix([{body}])"


class PositiveCycleError(ValueError):
    """A cycle of positive weight makes the Kleene star diverge."""

    def __init__(self, cycle, weight):
        self.cycle = tuple(cycle)
        self.weight = weight
        path = " -> ".join(str(i) for i in (*self.cycle, self.cycle[0]))
        super().__init__(
            f"positive cycle: star diverges (nodes {path}, weight {weight})"
        )


def _operands(mats, vecs=(), span=0):
    """(k, forms, vec_forms): the backend module k for an operation on the
    matrices `mats` and payload vectors `vecs`, each operand in k's form.

    k is `_kernels`, with int64 arrays, when the first matrix already
    holds its array or has at least `_KERNEL_DIM` rows (`_IMPORT_DIM`
    while numpy is not imported), numpy is present, every operand
    converts, and sums of `span` entries of the first matrix and the
    vectors are exact (`_kernels.span_fits`; the other matrices derive
    from those).  Else k is `_loops`, with payload rows and tuples.  The
    row gate comes first, so a matrix below it never imports `_kernels`.
    """
    first = mats[0]
    dim = _KERNEL_DIM if "numpy" in sys.modules else _IMPORT_DIM
    if (
        first._held_int_array() is not None or first._nrows >= dim
    ) and _load_kernels().available():
        forms = [m._int_array() for m in mats]
        if all(a is not None for a in forms):
            vec_forms = [_kernels.from_payload_vec(v) for v in vecs]
            if all(v is not None for v in vec_forms) and (
                not span or _kernels.span_fits(span, forms[0], *vec_forms)
            ):
                return _kernels, forms, vec_forms
    return _loops, [m._rows for m in mats], [tuple(v) for v in vecs]


def _matrix(k, form):
    """TropMatrix over a matrix in backend k's form, which the caller
    must not write to afterwards."""
    if k is _kernels:
        return TropMatrix._from_int_array(form)
    return TropMatrix._from_rows(form)


def _positive_cycle_witness(k, a, d, t):
    """An elementary cycle of positive weight, as (nodes, weight), read off
    `d`, the closure of `a` stopped at node t with d[t][t] positive.

    Of d only d[u][t] for u <= t is read: d[t][t] is the heaviest cycle
    through t over nodes below t, and d[u][t] for u < t the longest path
    u -> t through them.  Call an edge u -> v (a finite a[u][v]) tight when
    a[u][v] + d[v][t] equals d[u][t] for v < t, or a[u][t] equals d[u][t]
    for v = t: every longest path is made of tight edges, and the weights
    along a tight path from t back to t telescope to d[t][t] > 0.  A
    breadth-first search from t over tight edges so closes the cycle with
    the fewest edges, which is elementary, in O(n^2).  Float sums are tight
    within a relative FLOAT_TOL, since the closure adds the segments of a
    path in bordering order, not along it.  `a` and `d` are in the form of
    backend `k` (`_operands`); only column t of d and the finite entries of
    the rows of a that the search reaches, in ascending column order, are
    read as payloads, and the weight is a payload.
    """
    into = k.to_payload_vec(k.transpose(d)[t])
    paths = {t: ((t,), 0)}
    queue = [t]
    for u in queue:
        path, weight = paths[u]
        for v, x in k.row_entries(a, u):
            if v > t:
                break
            if v == t:
                if _tight(x, into[u]):
                    return path, weight + x
            elif v not in paths and into[v] is not None and _tight(
                x + into[v], into[u]
            ):
                paths[v] = path + (v,), weight + x
                queue.append(v)
    raise AssertionError("no tight cycle closes at the stopped pivot")


def _tight(s, target):
    """s == target, within a relative FLOAT_TOL when either is a float."""
    return s == target or (
        (type(s) is float or type(target) is float)
        and abs(s - target) <= FLOAT_TOL * max(1.0, abs(target))
    )


def outer(x, y):
    """Outer product: matrix with entries x_i * y_j."""
    if not isinstance(x, TropVector) or not isinstance(y, TropVector):
        raise TypeError("outer takes two vectors")
    return TropMatrix._from_rows(
        tuple(_p_mul(a, b) for b in y._e) for a in x._e
    )


def solve_leq(a, b):
    """Greatest x with a @ x <= b; a column-regular, b regular."""
    if not isinstance(a, TropMatrix) or not isinstance(b, TropVector):
        raise TypeError("solve_leq takes a matrix and a vector")
    if not b.is_regular:
        raise ValueError("right-hand side must be regular")
    if not a.is_column_regular:
        raise ValueError("matrix must be column-regular")
    return (b.conj() @ a).conj()
