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
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _kernels, _loops
from ._loops import _p_add

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


def _payload(value):
    """Normalize a number-like value (or None / -inf) to an entry payload."""
    if value is None:
        return None
    if isinstance(value, TropScalar):
        return value._v
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, float):
        if value == float("-inf"):
            return None
        if math.isnan(value) or math.isinf(value):
            raise ValueError("entries must be finite numbers or -inf")
        return value
    if isinstance(value, str):
        return _payload(Fraction(value))
    raise TypeError(f"cannot interpret {value!r} as a max-plus scalar")


def _other_payload(other):
    if isinstance(other, TropScalar):
        return other._v
    if isinstance(other, (int, Fraction, float)):
        return _payload(other)
    return _MISSING


def _p_mul(a, b):
    if a is None or b is None:
        return None
    return a + b


def _p_pow(v, q):
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
            k, (a,), (v,) = _operands([other], [self._e])
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
    `(row, col, payload)`, as parsed instance matrices are, which also
    builds the int64 array.
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
                self._rowcache = _kernels.to_payload_rows(self._intcache)
            else:
                grid = [[None] * self._ncols for _ in range(self._nrows)]
                for i, j, v in self._finite:
                    grid[i][j] = v
                self._rowcache = tuple(map(tuple, grid))
        return self._rowcache

    def _entries(self):
        """The finite entries as `(row, col, payload)`, row-major."""
        if self._finite is not None:
            return self._finite
        return [
            (i, j, v)
            for i, row in enumerate(self._rows)
            for j, v in enumerate(row)
            if v is not None
        ]

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
            if not _kernels.available():
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
            return _matrix(k, k.matmul(a, b))
        if isinstance(other, TropVector):
            if self._ncols != len(other._e):
                raise ValueError(
                    f"cannot multiply {self._nrows}x{self._ncols}"
                    f" by {len(other._e)}x1"
                )
            k, (a,), (v,) = _operands([self], [other._e])
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

    def trace_series(self):
        """Tr(A) = tr A + tr A^2 + ... + tr A^n (tropical sums)."""
        if not self.is_square:
            raise ValueError("trace series needs a square matrix")
        acc = None
        power = self
        for k in range(self._nrows):
            if k:
                power = power @ self
            acc = _p_add(acc, power.trace()._v)
        return _scalar(acc)

    def spectral_radius(self):
        """Largest mean cycle weight: max over k of tr(A^k) / k."""
        if not self.is_square:
            raise ValueError("spectral radius needs a square matrix")
        acc = None
        power = self
        for k in range(1, self._nrows + 1):
            if k > 1:
                power = power @ self
            acc = _p_add(acc, _p_pow(power.trace()._v, Fraction(1, k)))
        return _scalar(acc)

    def norm(self):
        """Largest entry (bottom for an empty or all-bottom matrix)."""
        best = None
        for row in self._rows:
            for v in row:
                best = _p_add(best, v)
        return _scalar(best)

    def star(self):
        """Kleene star I + A + A^2 + ...; defined iff no cycle is positive.

        Raises PositiveCycleError naming a witness cycle otherwise.
        """
        if not self.is_square:
            raise ValueError("star needs a square matrix")
        # a path sums at most n - 1 entries
        k, (a,), _ = _operands([self], span=self._nrows - 1)
        closed = k.star(a)
        if closed is None:
            cycle, weight = _positive_cycle_witness(k, a, self._rows)
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

    k is `_kernels`, with int64 arrays, when numpy is present, the first
    matrix already holds its array or has at least `_KERNEL_DIM` rows,
    every operand converts, and sums of `span` entries of the first matrix
    and the vectors are exact (`_kernels.span_fits`; the other matrices
    derive from those).  Else k is `_loops`, with payload rows and tuples.
    """
    first = mats[0]
    if _kernels.available() and (
        first._held_int_array() is not None or first._nrows >= _KERNEL_DIM
    ):
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


def _positive_cycle_witness(k, a, rows):
    """Find an elementary cycle of positive weight; returns (nodes, weight).

    One Floyd-Warshall pass with successor pointers, stopped at the first
    pivot k where some d[i][k] + d[k][i] > 0.  No earlier pivot closed a
    positive cycle, so the successor walks i -> k and k -> i are longest
    paths and together form a positive closed walk, which is then trimmed
    to an elementary cycle.  The pass runs on the backend module given as
    `k`, over `a`, the form of the payload `rows` that `_operands` gave.
    """
    n = len(rows)
    for i in range(n):
        v = rows[i][i]
        if v is not None and v > 0:
            return (i,), v
    hit = k.positive_cycle_pivot(a)
    if hit is None:
        raise AssertionError("no positive cycle found despite positive diagonal")
    i, k, succ = hit
    walk = _successor_path(succ, i, k, n) + _successor_path(succ, k, i, n)[1:]
    return _trim_to_positive_cycle(rows, walk)


def _successor_path(succ, i, j, n):
    """Nodes of the path i -> j read off successor pointers (at least one
    edge, so i == j gives a closed walk)."""
    path = [i]
    for _ in range(n):
        i = int(succ[i][j])
        path.append(i)
        if i == j:
            return path
    raise AssertionError("successor pointers do not lead to the target")


def _trim_to_positive_cycle(rows, walk):
    """Trim a closed walk of positive weight to an elementary positive cycle
    by splicing out non-positive sub-cycles."""
    stack = [walk[0]]
    cums = [0]
    pos = {walk[0]: 0}
    cum = 0
    for node in walk[1:]:
        cum = cum + rows[stack[-1]][node]
        if node in pos:
            t0 = pos[node]
            cw = cum - cums[t0]
            if cw > 0:
                return tuple(stack[t0:]), cw
            for v in stack[t0 + 1:]:
                del pos[v]
            del stack[t0 + 1:]
            del cums[t0 + 1:]
            cum = cums[t0]
        else:
            pos[node] = len(stack)
            stack.append(node)
            cums.append(cum)
    raise AssertionError("positive walk contained no positive cycle")


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
