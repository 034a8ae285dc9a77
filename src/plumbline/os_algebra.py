"""The Orlik-Solomon algebra of an arrangement and its double.

For an arrangement on lines 0..n the (deconed) Orlik-Solomon algebra is a
graded algebra A = A0 + A1 + A2 over the integers. A1 has basis e_1..e_n,
one generator per line other than line 0, and A2 has basis f_(j,k) indexed
by the nbc pairs of the arrangement. The product of two degree-one
generators e_i e_j with i < j is governed by the point P containing lines
i and j:

* if min P = i, the product is f_(i,j);
* if 1 <= min P < i, it is f_(min P, j) - f_(min P, i);
* if 0 lies in P, it is zero.

Products are stored only on canonically ordered basis pairs and extended by
graded commutativity, so odd generators anticommute and square to zero.

The double of A is a graded algebra on degrees 0..3 built from A and its
dual: degree 1 is A1 plus the dual of A2, degree 2 is A2 plus the dual of
A1, and the top degree is the dual of the unit. A degree-one generator from
A1 multiplies a dualized degree-two generator into dualized degree-one
generators through the structure constants of A, and the remaining pairing
of complementary degrees is the identity on dual bases. Doubles of algebras
whose degree-one part multiplies to zero (pencils) have an identically zero
product on degree one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arrangement import Arrangement, nbc_set

__all__ = [
    "DegreeError",
    "GradedAlgebra",
    "DoubledAlgebra",
    "os_algebra",
    "double",
    "dual_label",
]


class DegreeError(ValueError):
    """A product or construction leaves the graded range of the algebra."""


def dual_label(label: str) -> str:
    """Label of the dual basis vector; a tilde marks dualized generators."""
    return "~" + label


@dataclass(frozen=True, eq=True)
class GradedAlgebra:
    """A finite graded algebra given by basis labels and structure constants.

    ``basis[d]`` lists the basis labels in degree d; degree 0 is spanned by
    the unit. ``products`` maps canonically ordered basis pairs (lower
    degree first; within a degree, lower basis index first) to sparse
    integer vectors over the target degree. Pairs that multiply to zero are
    omitted. Queries for non-canonical pairs are answered through graded
    commutativity: x y = (-1)^(deg x * deg y) y x, and odd squares vanish.
    """

    basis: tuple[tuple[str, ...], ...]
    products: dict[tuple[str, str], dict[str, int]]

    @property
    def top_degree(self) -> int:
        return len(self.basis) - 1

    @property
    def unit(self) -> str:
        return self.basis[0][0]

    def rank(self, degree: int) -> int:
        return len(self.basis[degree])

    @cached_property
    def _position(self) -> dict[str, tuple[int, int]]:
        out: dict[str, tuple[int, int]] = {}
        for d, labels in enumerate(self.basis):
            for i, lab in enumerate(labels):
                out[lab] = (d, i)
        return out

    @cached_property
    def _mu(self) -> tuple[tuple[int, int, int, int], ...]:
        """(i, j, k, c) for each stored degree-one product x_i x_j = ... + c z_k, by basis index."""
        pos = self._position
        return tuple(
            (pos[x][1], pos[y][1], pos[z][1], c)
            for (x, y), vec in self.products.items()
            if pos[x][0] == pos[y][0] == 1
            for z, c in vec.items()
        )

    def degree_of(self, label: str) -> int:
        return self._position[label][0]

    def basis_product(self, x: str, y: str) -> dict[str, int]:
        """Structure constants of x y as a sparse vector, sign included."""
        dx, ix = self._position[x]
        dy, iy = self._position[y]
        if dx == 0:
            return {y: 1}
        if dy == 0:
            return {x: 1}
        if dx + dy > self.top_degree:
            return {}
        if (dx, ix) < (dy, iy):
            return dict(self.products.get((x, y), {}))
        if (dx, ix) == (dy, iy):
            if dx % 2:
                return {}
            return dict(self.products.get((x, y), {}))
        sign = -1 if (dx * dy) % 2 else 1
        return {lab: sign * c for lab, c in self.products.get((y, x), {}).items()}

    def _product_items(self) -> list[tuple[tuple[str, str], dict[str, int]]]:
        pos = self._position
        return sorted(self.products.items(), key=lambda kv: (pos[kv[0][0]], pos[kv[0][1]]))

    def to_json(self) -> dict:
        """Basis labels per degree plus the stored structure constants."""
        doc: dict = {f"degree{d}": list(labels) for d, labels in enumerate(self.basis)}
        doc["products"] = [
            {"x": x, "y": y, "value": {lab: c for lab, c in sorted(vec.items())}}
            for (x, y), vec in self._product_items()
        ]
        return doc


@dataclass(frozen=True, eq=True)
class DoubledAlgebra(GradedAlgebra):
    """The double of a top-degree-two algebra; keeps a handle on the base."""

    base: GradedAlgebra


def os_algebra(arr: Arrangement) -> GradedAlgebra:
    """The Orlik-Solomon algebra of an arrangement, degrees 0..2."""
    n = arr.n
    points = arr.points
    e = [f"e{i}" for i in range(n + 1)]  # e[i] is the generator of line i; e[0] is unused
    pairs = nbc_set(arr)
    f_label = {(p.j, p.k): f"f({p.j},{p.k})" for p in pairs}
    products: dict[tuple[str, str], dict[str, int]] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            k = points[arr.point_of(i, j)][0]
            if k == 0:
                continue
            if k == i:
                vec = {f_label[(i, j)]: 1}
            else:
                vec = {f_label[(k, j)]: 1, f_label[(k, i)]: -1}
            products[(e[i], e[j])] = vec
    basis = (("1",), tuple(e[1:]), tuple(f_label.values()))
    return GradedAlgebra(basis, products)


def double(alg: GradedAlgebra) -> DoubledAlgebra:
    """The double of a graded algebra with top degree two.

    Degree 1 is the degree-one basis of ``alg`` followed by the duals of its
    degree-two basis; degree 2 is the degree-two basis followed by the duals
    of the degree-one basis; degree 3 is the dual of the unit. Both middle
    degrees have rank (rank A1 + rank A2).

    The a_j ~f_k block is read off the stored degree-one products in one
    pass: x y = c f gives y ~f -> c ~x and x ~f -> -c ~y. The intersection
    ring's F_a . F_b table copies the Orlik-Solomon case split of
    ``os_algebra``, so on that block ``verify_double_isomorphism`` compares
    two transcriptions of one rule.
    """
    if alg.top_degree != 2:
        raise DegreeError("doubling requires a graded algebra with top degree 2")
    a_labels = alg.basis[1]
    b_labels = alg.basis[2]
    dual = {lab: dual_label(lab) for lab in a_labels + b_labels}
    top = dual_label(alg.unit)
    deg1 = a_labels + tuple(dual[b] for b in b_labels)
    deg2 = b_labels + tuple(dual[a] for a in a_labels)
    pos = alg._position

    products: dict[tuple[str, str], dict[str, int]] = {}
    for (x, y), vec in alg.products.items():
        (dx, ix), (dy, iy) = pos[x], pos[y]
        if dx != 1 or dy != 1:
            continue
        products[(x, y)] = dict(vec)
        if ix >= iy:
            continue  # never read by basis_product
        for f, c in vec.items():
            if c:
                products.setdefault((y, dual[f]), {})[dual[x]] = c
                products.setdefault((x, dual[f]), {})[dual[y]] = -c
    # Complementary degrees pair as the identity on dual bases.
    for ai in a_labels:
        products[(ai, dual[ai])] = {top: 1}
    for bk in b_labels:
        products[(dual[bk], bk)] = {top: 1}

    basis = ((alg.unit,), deg1, deg2, (top,))
    return DoubledAlgebra(basis=basis, products=products, base=alg)
