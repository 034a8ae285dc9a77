"""Exact linear algebra over the integers and the rationals.

Everything in this module is exact: integer matrices hold arbitrary-precision
Python ints, and rational matrices hold exact rationals, ``int`` or
``fractions.Fraction``. No floating point is used anywhere. The dense
``IntMatrix`` and ``RatMatrix`` share one implementation and differ only in
how ``from_rows`` coerces an entry and which entry types they accept.
``SparseIntMatrix`` keeps only the nonzeros of each row; ``cokernel`` takes
it without a dense copy.

The entry points are Smith normal form (``snf``), rank and kernel dimension
over the rationals (``rank``, ``kernel_dim``), sparse elimination exactly or
modulo a prime (``echelon``), cokernel invariants of an integer matrix
(``cokernel``) and an exact determinant (``det``). Dense rank and
determinant come from one fraction-free (Bareiss) elimination on rows that
``clear_denominators`` scales to integers; it and ``echelon`` keep entries
bounded by minors of the input. ``snf`` is one loop of passes, each on a
pivot of least absolute value, and ``cokernel`` calls it only on what its
unit pivots leave.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, TypeVar

__all__ = [
    "IntMatrix",
    "RatMatrix",
    "SparseIntMatrix",
    "SnfResult",
    "snf",
    "rank",
    "kernel_dim",
    "echelon",
    "cokernel",
    "det",
    "clear_denominators",
]

_M = TypeVar("_M", bound="_Matrix")


@dataclass(frozen=True)
class _Matrix:
    """Immutable dense matrix, row-major.

    A subclass sets ``_coerce``, which ``from_rows`` applies to every entry,
    and ``_types``, the exact entry types it accepts (``bool`` is not
    ``int``). Matrices of different subclasses never compare equal.
    """

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")
        bad = set(map(type, self.entries)) - self._types
        if bad:
            raise TypeError(f"{type(self).__name__} cannot hold {', '.join(sorted(t.__name__ for t in bad))}")

    @classmethod
    def from_rows(cls: type[_M], data: Sequence[Sequence]) -> _M:
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        flat: list = []
        for row in data:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(map(cls._coerce, row))
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def zeros(cls: type[_M], rows: int, cols: int) -> _M:
        return cls(rows, cols, (cls._coerce(0),) * (rows * cols))

    def __getitem__(self, key: tuple[int, int]):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {key} out of range for {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self: _M) -> _M:
        return type(self)(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self: _M, other: _M) -> _M:
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        zero = self._coerce(0)
        flat = []
        for i in range(self.rows):
            left = self.row(i)
            for j in range(other.cols):
                flat.append(sum((left[k] * other.entries[k * other.cols + j] for k in range(self.cols)), zero))
        return type(self)(self.rows, other.cols, tuple(flat))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def to_json(self) -> dict:
        """Serialize as ``{"rows", "cols", "entries"}``; entries are "p" or "p/q"."""
        return {"rows": self.rows, "cols": self.cols, "entries": [str(x) for x in self.entries]}


class IntMatrix(_Matrix):
    """Immutable dense integer matrix; ``from_rows`` rejects non-integers."""

    _coerce = staticmethod(operator.index)
    _types = frozenset({int})

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def to_rational(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, tuple(map(Fraction, self.entries)))


class RatMatrix(_Matrix):
    """Immutable dense matrix of exact rationals, ``int`` or ``Fraction``."""

    _coerce = staticmethod(Fraction)
    _types = frozenset({int, Fraction})


@dataclass(frozen=True)
class SparseIntMatrix:
    """Immutable sparse integer matrix: ``nonzeros[i]`` holds row i's nonzero
    entries as ``(column, value)`` pairs in increasing column order.

    That form is checked on construction, so it is unique: two equal
    matrices compare equal, and ``cokernel`` copies the rows as they are.
    """

    rows: int
    cols: int
    nonzeros: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.nonzeros) != self.rows:
            raise ValueError("one tuple of nonzeros per row required")
        for row in self.nonzeros:
            if not row:
                continue
            js, xs = zip(*row)
            if set(map(type, js + xs)) != {int}:
                raise TypeError("sparse entries must be (column, value) pairs of int")
            if 0 in xs or not (0 <= js[0] and js[-1] < self.cols and all(map(operator.lt, js, js[1:]))):
                raise ValueError("sparse values must be nonzero, columns increasing and within range")

    def to_dense(self) -> IntMatrix:
        entries = [0] * (self.rows * self.cols)
        for i, row in enumerate(self.nonzeros):
            for j, x in row:
                entries[i * self.cols + j] = x
        return IntMatrix(self.rows, self.cols, tuple(entries))


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form ``u @ a @ v == s`` with unimodular ``u`` and ``v``.

    ``s`` is diagonal with nonnegative entries d_1 | d_2 | ... ; zero entries
    come last.
    """

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.s[i, i] for i in range(min(self.s.rows, self.s.cols)))


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form of an integer matrix.

    Stage t repeats one pass over s[t:, t:]: move a nonzero entry of least
    absolute value to (t, t) as the pivot d, then clear column t with row
    operations, mirrored on U, and row t with column operations, mirrored
    on V, so U @ m @ V = S holds throughout. A remainder left in row or
    column t is smaller than d in absolute value, so the next pass takes a
    smaller pivot. When both are clear but a later row holds an entry that
    d does not divide, that row is added to row t; the next pass keeps d,
    which wins ties at (t, t), and leaves a remainder. Either way the least
    absolute value in s[t:, t:] drops within two passes, so each stage ends,
    with d dividing every entry after it: the chain d_1 | d_2 | ... on the
    diagonal. The sign of d is fixed as the stage ends.
    """
    nr, nc = m.rows, m.cols
    s = m.to_rows()
    u, v = (IntMatrix.identity(k).to_rows() for k in (nr, nc))
    t = 0
    while t < min(nr, nc):
        entries = [(abs(x), i, j) for i in range(t, nr) for j, x in enumerate(s[i][t:], t) if x]
        if not entries:
            break
        _, p, q = min(entries)
        for mat in (s, u):
            mat[t], mat[p] = mat[p], mat[t]
        for row in s + v:
            row[t], row[q] = row[q], row[t]
        d = s[t][t]
        for i in range(t + 1, nr):
            if f := s[i][t] // d:
                for mat in (s, u):
                    mat[i] = [x - f * y for x, y in zip(mat[i], mat[t])]
        for j in range(t + 1, nc):
            if f := s[t][j] // d:
                for row in s + v:
                    row[j] -= f * row[t]
        if any(s[i][t] for i in range(t + 1, nr)) or any(s[t][t + 1 :]):
            continue
        p = next((i for i in range(t + 1, nr) if any(x % d for x in s[i][t + 1 :])), None)
        if p is not None:
            for mat in (s, u):
                mat[t] = [x + y for x, y in zip(mat[t], mat[p])]
            continue
        if d < 0:  # row t is final now
            s[t], u[t] = [-x for x in s[t]], [-x for x in u[t]]
        t += 1
    return SnfResult(
        u=IntMatrix(nr, nr, tuple(x for row in u for x in row)),
        s=IntMatrix(nr, nc, tuple(x for row in s for x in row)),
        v=IntMatrix(nc, nc, tuple(x for row in v for x in row)),
    )


def clear_denominators(row: Sequence) -> list[int]:
    """The row of exact rationals times the lcm of their denominators."""
    den = lcm(*{x.denominator for x in row})
    return [x.numerator * (den // x.denominator) for x in row]


def _bareiss(rows: list[list[int]], ncols: int) -> tuple[int, int]:
    """Bareiss elimination with column skipping, in place.

    Pivots are taken in the first ``ncols`` columns; later columns are only
    carried along. Returns the rank and the last pivot times the sign of the
    row swaps, which for a square matrix of full rank is its determinant.
    Entries stay equal to minors of the input, so every division below is
    exact (Sylvester's determinant identity), for any choice of pivot columns.
    """
    r = 0
    prev = 1
    sign = 1
    nrows = len(rows)
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        pv = rows[r][c]
        top = rows[r]
        for i in range(r + 1, nrows):
            row = rows[i]
            x = row[c]
            for j in range(c + 1, len(row)):
                num = pv * row[j] - x * top[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("non-exact division in fraction-free elimination")
                row[j] = q
            row[c] = 0
        prev = pv
        r += 1
        if r == nrows:
            break
    return r, sign * prev


def rank(m: RatMatrix) -> int:
    """Rank of a rational matrix, exactly."""
    return _bareiss([clear_denominators(m.row(i)) for i in range(m.rows)], m.cols)[0]


def kernel_dim(m: RatMatrix) -> int:
    """Dimension of the right kernel: cols - rank."""
    return m.cols - rank(m)


def echelon(vectors: Iterable[dict[int, int]], p: int = 0, stop: int | None = None) -> tuple[int, list[dict[int, int]]]:
    """The rank of sparse integer vectors (position -> entry), and the leftover of each dependent one.

    Each vector is reduced by the basis vectors in the order they joined
    (each is zero at the pivots of those before it), then joins with its
    largest nonnegative position as pivot. Negative positions never pivot:
    tag vector t with {~t: 1} and the leftovers are a left-kernel basis.
    With a prime p entries are read modulo p, and the rank is at most the
    rational one. With p = 0 each reduced vector is divided by the gcd of
    its entries; it then spans the line of combinations of its input and the
    basis inputs that vanish at the pivots passed, which by Cramer's rule
    holds a vector of minors, so no entry outgrows a minor. Elimination
    stops once the rank is ``stop``.
    """
    basis: list[tuple[int, dict[int, int]]] = []
    rest: list[dict[int, int]] = []
    for vec in vectors:
        if len(basis) == stop:
            break
        v = {k: r for k, x in vec.items() if (r := x % p if p else x)}
        for c, w in basis:
            if x := v.get(c):
                g = gcd(x, w[c])
                x, y = x // g, w[c] // g
                v = {k: y * v.get(k, 0) - x * w.get(k, 0) for k in v.keys() | w.keys()}
                g = 1 if p else gcd(*v.values()) or 1
                v = {k: r for k, z in v.items() if (r := z % p if p else z // g)}
        if (c := max(v, default=-1)) >= 0:  # the largest position, and nonnegative
            basis.append((c, v))
        else:
            rest.append(v)
    return len(basis), rest


def cokernel(m: IntMatrix | SparseIntMatrix) -> tuple[int, tuple[int, ...]]:
    """Invariants of coker(m : Z^cols -> Z^rows) = Z^rows / im(m).

    Returns (free_rank, torsion) where torsion lists the invariant factors
    greater than 1 in divisibility order. A ``SparseIntMatrix`` is read by
    its nonzeros only, so the cost follows them and not rows x cols.

    Unit entries (+-1) are eliminated in one pass over sparse copies of the
    rows, shortest row first (ties by row index). Each column keeps an
    append-only list of rows, a superset of the rows that hold it: a row
    is appended only when an update creates an entry in that column, and
    nothing is ever removed, so clearing a column skips a listed row that
    has pivoted or no longer holds it. Each row pivots on the unit entry
    whose column has the shortest list, found in one loop over the row,
    and that column is cleared. Each step is unimodular and splits off an
    invariant factor 1; the invariant factors of what is left do not
    depend on which units were taken or in what order, since any order
    gives the same quotient group. A row with no unit entry when it is
    reached is never revisited but left for ``snf``, which gets only what
    remains and is not called when that is all zero. In a plumbing matrix
    [[D_L, B], [B^T, -I]] the point rows are the short ones (a double
    point's has 3 nonzeros) and each pivots on its -1, whose column no
    update ever lists a row in. That leaves the all-ones J on the lines,
    and one pivot clears J, so nothing reaches ``snf`` and the cokernel is
    Z^n.
    """
    rows: dict[int, dict[int, int]]
    if isinstance(m, SparseIntMatrix):
        rows = dict(enumerate(map(dict, m.nonzeros)))
    else:
        rows = {i: {j: x for j, x in enumerate(m.row(i)) if x} for i in range(m.rows)}
    cols: list[list[int] | None] = [[] for _ in range(m.cols)]
    for i, row in rows.items():
        for j in row:
            cols[j].append(i)

    for p in sorted(rows, key=lambda i: len(rows[i])):
        prow = rows[p]
        q, best = -1, 0
        for j, x in prow.items():
            if (x == 1 or x == -1) and (q < 0 or len(cols[j]) < best):
                q, best = j, len(cols[j])
        if q < 0:
            continue
        del rows[p]
        u = prow.pop(q)  # +-1, its own inverse
        for i in cols[q]:
            row = rows.get(i)
            f = row.pop(q, 0) * u if row else 0  # 0: i has pivoted or no longer holds q
            if not f:
                continue
            for j, x in prow.items():
                fx = f * x
                y = row.get(j)
                if y is None:
                    row[j] = -fx
                    cols[j].append(i)
                elif y == fx:
                    del row[j]
                else:
                    row[j] = y - fx
        cols[q] = None  # no row holds q now, and no later update creates it

    if not any(rows.values()):
        return len(rows), ()
    left = [j for j, c in enumerate(cols) if c is not None]
    rest = IntMatrix(len(rows), len(left), tuple(row.get(j, 0) for row in rows.values() for j in left))
    nonzero = [d for d in snf(rest).diagonal if d]
    free = len(rows) - len(nonzero)
    torsion = tuple(d for d in nonzero if d > 1)
    return free, torsion


def det(m: IntMatrix) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    r, d = _bareiss(m.to_rows(), m.cols)
    return d if r == m.rows else 0
