"""Resonance of the doubled Orlik-Solomon algebra, by exact linear algebra.

A point of the double's degree one is a pair (a, b): rational coordinates a
over the degree-one basis of the base algebra and b over the dual
degree-two basis. Left multiplication by (a, b) makes the double a cochain
complex in degrees 0..3 with middle ranks N = r1 + r2. With cochains
written as row vectors the differentials are

    d1 = (a  b),    1 x N
    d2 = [[Phi(b), Delta(a)], [-Delta(a)^T, 0]],    N x N
    d3 = (a; b) as a column,    N x 1

where Delta(a)[j, k] = sum_i mu[i, j, k] a_i (r1 x r2) and
Phi(b)[i, j] = sum_k mu[i, j, k] b_k (r1 x r1, antisymmetric), with
mu[i, j, k] the structure constants of the base algebra extended
antisymmetrically in (i, j). Both blocks are built in one pass over the
nonzero entries of mu (``_mu``) and kept sparse, Delta(a) by columns (at
most |P| nonzeros in the column of a generator at the point P) and Phi(b)
by rows. The chain identities d1 d2 = 0 and d2 d3 = 0 hold at every point
and are asserted at construction over those entries.

Betti numbers are proved rather than ranked whenever possible
(Cohen-Suciu, "The boundary manifold of a complex line arrangement",
Geom. Topol. Monogr. 13, 2008, give the generic values (0, beta, beta, 0)).
rank d1 = rank d3 = 1 at a nonzero point and 0 at the zero point.

* Upper bound. d2 is antisymmetric (Phi(b) is built antisymmetric and the
  lower-left block is minus the transpose of the upper-right), so its rank
  is even. The last r2 columns of d1 d2 are a Delta(a), so the chain check
  proves a Delta(a) = 0, and rank Delta(a) <= r1 - 1 (for a = 0 trivially).
  The first r1 rows of d2 add at most r1 to the rank of the last r2, which
  is rank Delta(a); so rank d2 <= 2 r1 - 1, and by evenness <= 2 r1 - 2.
  This is the case r2 > 0, which forces r1 >= 2: a degree-two class is a
  product of two degree-one classes.
* The floor. Hence at every point each Betti number is at least
  (0, beta, beta, 0) with beta = N - 1 - 2 (r1 - 1), which is the
  arrangement invariant 1 - n + (number of nbc pairs). When r2 = 0
  (pencils) d2 vanishes and the floor is (0, N - 1, N - 1, 0).
* The witness. A nonsingular r x r block Delta(a)[I, J] gives the principal
  minor of d2 on I and r1 + J, which is det(Delta(a)[I, J])^2, so
  rank d2 >= 2 rank Delta(a). The rank of an integer matrix modulo a prime
  is at most its rational rank. So if a != 0 and the integer matrix
  Delta(a) has rank r1 - 1 modulo the prime 2^31 - 1, then
  rank d2 = 2 (r1 - 1) and the Betti numbers are exactly the floor,
  whatever b is. The chain check proves rank Delta(a) <= r1 - 1 for the
  very Delta(a) whose sparse columns the witness eliminates, up to r1 - 1.
* The block rank. Elsewhere rank d2 = 2 s + rank(K Phi(b) K^T), with
  s = rank Delta(a) and the rows of K a basis of {x : x Delta(a) = 0}.
  Proof: pick invertible P and Q with P Delta Q = [[I_s, 0], [0, 0]]. The
  congruence by diag(P, Q^T) keeps the rank and the antisymmetry. The I_s
  blocks then clear everything in their rows and columns, which leaves 2 s
  plus the rank of the lower-right block of P Phi P^T. The last r1 - s rows
  of P span the left kernel of Delta, so that block is congruent to
  K Phi K^T. At a = 0 this is rank Phi(b), and at b = 0 it is 2 s. One
  exact sparse elimination of the rows of Delta(a) gives s and an integer
  K (K = I when s = 0), a second the rank of K Phi K^T; the gcd division of
  ``exact_linalg.echelon`` keeps their entries below minors, as Bareiss does.
* The generic point. For an Orlik-Solomon algebra the floor is reached at
  a = (1, ..., 1), whatever b is. x Delta(a) = 0 says a x = 0 in degree two,
  and by the product rule of ``os_algebra`` e_i e_j lies in the span of the
  f at the point P through lines i and j, and is zero when P holds line 0.
  So a x = 0 splits into one local condition per point P that misses line
  0: the product of a_P and x_P vanishes in the algebra of |P| concurrent
  lines, which, as the sum of a_P is |P| != 0, makes x_P a multiple of
  a_P, so x is constant on P. Two lines j, k >= 1 are thus tied unless
  their point holds line 0. The points through line 0 split lines 1..n into
  blocks, and the tie graph is complete multipartite on those blocks, so it
  is connected unless there is one block: a pencil. Off pencils the left
  kernel of Delta(1, ..., 1) is therefore spanned by a itself, rank
  Delta(a) = r1 - 1, and the witness gives the floor. For a pencil r2 = 0,
  so d2 = 0 and the floor holds at every nonzero point. Betti numbers only
  jump up on a closed set, so the floor is the generic value.
* Scaling. For nonzero rationals x and y, d2 at (x a, y b) is congruent to
  y d2(a, b) by diag(I, (y/x) I), and x a, y b are zero exactly when a, b
  are; so no Betti number changes. ``betti_numbers`` therefore clears the
  denominators of a and of b once and builds, checks and ranks Delta(a) and
  Phi(b) over the integers. The chain check runs on that integer point.

A point lies in the k-th resonance variety of depth d exactly when the k-th
Betti number is at least d. For the base algebra alone, a degree-one element
a is nonresonant when the complex (A, a) is exact in degrees zero and one,
which for a != 0 happens exactly when Delta(a) has rank r1 - 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .arrangement import Arrangement, ArrangementClass, InternalContradiction, classify, nbc_set
from .exact_linalg import RatMatrix, clear_denominators, echelon, kernel_dim, rank
from .os_algebra import DoubledAlgebra, GradedAlgebra

__all__ = [
    "DimensionMismatch",
    "ChainConditionViolated",
    "AomotoPoint",
    "AomotoComplex",
    "delta_matrix",
    "phi_matrix",
    "aomoto_complex",
    "betti",
    "betti_numbers",
    "is_nonresonant",
    "in_resonance",
    "zero_a_identity_check",
    "generic_betti",
    "sample_point",
    "trial_seed",
    "r11_prediction",
]


class DimensionMismatch(ValueError):
    """A coordinate vector does not match the rank it indexes."""


class ChainConditionViolated(RuntimeError):
    """A differential composite is nonzero; the complex is corrupt."""


_EXACT_TYPES = frozenset({int, Fraction})  # not bool: True is read as 1, and a float as its binary value


@dataclass(frozen=True)
class AomotoPoint:
    """A degree-one point of the double: coordinates (a, b), exact rationals,
    ``int`` or ``Fraction``; any other type raises ``TypeError``."""

    a: tuple[int | Fraction, ...]
    b: tuple[int | Fraction, ...]

    def __post_init__(self) -> None:
        for coords, what in ((self.a, "a"), (self.b, "b")):
            if not _EXACT_TYPES.issuperset(map(type, coords)):
                raise TypeError(f"{what} may hold only int and Fraction coordinates")

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.a) and all(x == 0 for x in self.b)


@dataclass(frozen=True)
class AomotoComplex:
    """The complex at a point as the blocks of d2, Delta(a) by sparse columns and Phi(b)
    by sparse rows (index -> entry, zeros allowed); the dense matrices are views."""

    point: AomotoPoint
    columns: list[dict]  # Delta(a): r2 columns over r1 rows
    phi_rows: list[dict]  # Phi(b): r1 x r1

    @property
    def d1(self) -> RatMatrix:
        return RatMatrix(1, len(self.point.a + self.point.b), self.point.a + self.point.b)

    @property
    def d3(self) -> RatMatrix:
        return self.d1.transpose()

    @cached_property
    def delta(self) -> RatMatrix:
        return _dense(self.columns, len(self.phi_rows)).transpose()

    @cached_property
    def phi(self) -> RatMatrix:
        return _dense(self.phi_rows, len(self.phi_rows))

    @cached_property
    def d2(self) -> RatMatrix:
        """The dense N x N [[Phi, Delta], [-Delta^T, 0]]."""
        r2 = len(self.columns)
        rows = [self.phi.row(i) + self.delta.row(i) for i in range(self.phi.rows)]
        rows += [[-x for x in self.delta.entries[k::r2]] + [0] * r2 for k in range(r2)]
        return RatMatrix.from_rows(rows)


def _dense(rows: list[dict], cols: int) -> RatMatrix:
    return RatMatrix(len(rows), cols, tuple(row.get(j, 0) for row in rows for j in range(cols)))


def _blocks(alg: GradedAlgebra, pt: AomotoPoint) -> AomotoComplex:
    """Delta(a)[j, k] = sum_i mu[i, j, k] a_i and Phi(b)[i, j] = sum_k mu[i, j, k] b_k
    in one pass over ``_mu``; integer coordinates give integer entries."""
    for coords, want, what in ((pt.a, alg.rank(1), "a"), (pt.b, alg.rank(2), "b")):
        if len(coords) != want:
            raise DimensionMismatch(f"{what} has {len(coords)} coordinates, expected {want}")
    columns: list[dict] = [{} for _ in range(alg.rank(2))]
    phi: list[dict] = [{} for _ in range(alg.rank(1))]
    a, b = pt.a, pt.b
    for i, j, k, c in alg._mu:
        if a[i] or a[j]:
            col = columns[k]
            col[j] = col.get(j, 0) + c * a[i]
            col[i] = col.get(i, 0) - c * a[j]
        if x := c * b[k]:
            phi[i][j] = phi[i].get(j, 0) + x
            phi[j][i] = phi[j].get(i, 0) - x
    return AomotoComplex(pt, columns, phi)


def delta_matrix(alg: GradedAlgebra, a: Sequence[int | Fraction]) -> RatMatrix:
    """The r1 x r2 matrix Delta(a), the dense view of the block that ``aomoto_complex`` builds."""
    return _blocks(alg, AomotoPoint(tuple(a), (0,) * alg.rank(2))).delta


def phi_matrix(alg: GradedAlgebra, b: Sequence[int | Fraction]) -> RatMatrix:
    """The antisymmetric r1 x r1 matrix Phi(b), the dense view of the block that ``aomoto_complex`` builds."""
    return _blocks(alg, AomotoPoint((0,) * alg.rank(1), tuple(b))).phi


def aomoto_complex(dbl: DoubledAlgebra, pt: AomotoPoint) -> AomotoComplex:
    """Build the blocks of d2 at a point and assert the chain identities: over the
    stored entries, (a, b) d2 = (a Phi - b Delta^T, a Delta) and d2 (a; b) =
    (Phi a^T + Delta b^T; -Delta^T a^T) must vanish. Besides guarding against a
    corrupt complex this proves a Delta(a) = 0, on which the witness rests."""
    cx = _blocks(dbl.base, pt)
    a, b = pt.a, pt.b
    left, right = [0] * len(a), [0] * len(a)  # the first r1 entries of (a, b) d2 and of d2 (a; b)
    for bk, col in zip(b, cx.columns):
        t = 0
        for j, x in col.items():
            t += a[j] * x
            if bk:
                left[j] -= bk * x
                right[j] += x * bk
        if t:  # an entry of a Delta, the last r2 of (a, b) d2 and (negated) of d2 (a; b)
            raise ChainConditionViolated("d1 . d2 != 0")
    for i, row in enumerate(cx.phi_rows):
        for j, x in row.items():
            left[j] += a[i] * x
            right[i] += x * a[j]
    if any(left):
        raise ChainConditionViolated("d1 . d2 != 0")
    if any(right):
        raise ChainConditionViolated("d2 . d3 != 0")
    return cx


def betti_numbers(dbl: DoubledAlgebra, pt: AomotoPoint) -> tuple[int, int, int, int]:
    """All four Betti numbers of the complex at the point.

    Cochains are row vectors, so the kernel of d acting from degree k has
    dimension (rows of d) - rank d, and the k-th Betti number is
    dim ker d_(k+1) - rank d_k, with the outer differentials zero. The rank
    of d2 is 2 (r1 - 1) when the witness of the module docstring holds, and
    comes from the block rank otherwise, both at the integer point of Scaling.
    """
    cx = aomoto_complex(dbl, AomotoPoint(tuple(clear_denominators(pt.a)), tuple(clear_denominators(pt.b))))
    r1, r2 = len(cx.phi_rows), len(cx.columns)
    if any(pt.a) and echelon(cx.columns, 2**31 - 1, r1 - 1)[0] == r1 - 1:  # the witness, modulo a prime
        rank_d2 = 2 * (r1 - 1)
    else:
        rows: list[dict] = [{~j: 1} for j in range(r1)]  # Delta(a) by rows, row j tagged by ~j
        for k, col in enumerate(cx.columns):
            for j, x in col.items():
                rows[j][k] = x
        s, kernel = echelon(rows)
        rank_d2 = 2 * s + echelon(_restricted_phi(cx.phi_rows, kernel) if s else cx.phi_rows)[0]
    outer = 0 if pt.is_zero() else 1
    dims = (1, r1 + r2, r1 + r2, 1)
    ranks = (0, outer, rank_d2, outer, 0)
    return tuple(dims[k] - ranks[k + 1] - ranks[k] for k in range(4))


def _restricted_phi(phi_rows: list[dict], kernel: list[dict]) -> list[dict]:
    """The rows of -K Phi K^T, the rows of K being the kernel leftovers (index j at key ~j)."""
    k_phi = [[sum(x * y.get(~j, 0) for j, x in row.items()) for row in phi_rows] for y in kernel]  # Phi^T = -Phi
    return [{q: sum(t[~j] * z for j, z in y.items()) for q, y in enumerate(kernel)} for t in k_phi]


def _betti_floor(alg: GradedAlgebra) -> tuple[int, int, int, int]:
    """(0, beta, beta, 0): no point of the complex has a smaller Betti number."""
    r1 = alg.rank(1)
    n = r1 + alg.rank(2)
    beta = n - 1 if n == r1 else n - 1 - 2 * (r1 - 1)
    return (0, beta, beta, 0)


def betti(dbl: DoubledAlgebra, pt: AomotoPoint, k: int) -> int:
    """The k-th Betti number of the complex at the point, k in 0..3."""
    if not 0 <= k <= 3:
        raise ValueError("degree k must be between 0 and 3")
    return betti_numbers(dbl, pt)[k]


def is_nonresonant(alg: GradedAlgebra, a: Sequence[int | Fraction]) -> bool:
    """Exactness of (A, a) in degrees 0 and 1.

    The rows of Delta(a) are always dependent (a itself is in the kernel),
    so the rank is at most r1 - 1; equality, together with a != 0, is
    exactness. The exact rank is taken at a with its denominators cleared.
    """
    pt = AomotoPoint(tuple(a), (0,) * alg.rank(2))
    cx = _blocks(alg, AomotoPoint(tuple(clear_denominators(pt.a)), pt.b))
    return any(pt.a) and echelon(cx.columns, stop=len(pt.a) - 1)[0] == len(pt.a) - 1


def in_resonance(dbl: DoubledAlgebra, pt: AomotoPoint, k: int, d: int) -> bool:
    """Membership of the point in the depth-d resonance variety in degree k."""
    return betti(dbl, pt, k) >= d


def zero_a_identity_check(dbl: DoubledAlgebra, b: Sequence[int | Fraction]) -> tuple[int, int]:
    """First Betti number at (0, b) against r2 - 1 + dim ker Phi(b).

    The two sides come by different routes (the rank of the dense d2, not
    ``betti_numbers``, against the kernel of Phi alone) and agree for b != 0.
    Returns (lhs, rhs) so callers can report both.
    """
    r1, r2 = dbl.base.rank(1), dbl.base.rank(2)
    if r2 == 0:
        raise DimensionMismatch("the degree-two part is trivial; no dual coordinates exist")
    cx = aomoto_complex(dbl, AomotoPoint((0,) * r1, tuple(b)))
    if not any(cx.point.b):
        raise ValueError("b must be nonzero")
    lhs = r1 + r2 - 1 - rank(cx.d2)
    rhs = r2 - 1 + kernel_dim(cx.phi)
    return lhs, rhs


def trial_seed(seed: int, index: int) -> int:
    """Per-trial derived seed: seed * 1000003 + index."""
    return seed * 1_000_003 + index


def sample_point(dbl: DoubledAlgebra, rng: random.Random) -> AomotoPoint:
    """A point with integer coordinates drawn uniformly from [-10, 10]."""
    r1 = dbl.base.rank(1)
    r2 = dbl.base.rank(2)
    coords = [rng.randint(-10, 10) for _ in range(r1 + r2)]
    return AomotoPoint(tuple(coords[:r1]), tuple(coords[r1:]))


def generic_betti(dbl: DoubledAlgebra, k: int, trials: int = 5, seed: int = 0) -> int:
    """The generic k-th Betti number of the double of an Orlik-Solomon algebra.

    It is the floor of the module docstring, reached at the generic point
    (1, ..., 1; 0). That one point is evaluated, and a result off the floor
    raises ``InternalContradiction``. ``trials`` must be positive, but neither
    it nor ``seed`` changes the value.
    """
    if trials < 1 or not 0 <= k <= 3:
        raise ValueError("at least one trial is required, and the degree k must be between 0 and 3")
    base, floor = dbl.base, _betti_floor(dbl.base)
    got = betti_numbers(dbl, AomotoPoint((1,) * base.rank(1), (0,) * base.rank(2)))
    if got != floor:
        raise InternalContradiction(f"Betti numbers {got} at the generic point are off the floor {floor}")
    return got[k]


def r11_prediction(arr: Arrangement) -> tuple[ArrangementClass, int]:
    """Class of the arrangement and the dimension of its depth-one, degree-one
    resonance variety of the double.

    Pencils give n, near-pencils 2n - 2, and everything else the full
    degree-one rank n + (number of nbc pairs).
    """
    cls = classify(arr)
    n = arr.n
    if cls is ArrangementClass.PENCIL:
        dim = n
    elif cls is ArrangementClass.NEAR_PENCIL:
        dim = 2 * n - 2
    else:
        dim = n + len(nbc_set(arr))
    return cls, dim
