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

Products are stored by flat basis position, only on canonically ordered
pairs, and extended by graded commutativity, so odd generators anticommute
and square to zero. Labels live in the basis alone. A ``ProductList``
holds the one rule by which every product table is printed.

The double of A is a graded algebra on degrees 0..3 built from A and its
dual: degree 1 is A1 plus the dual of A2, degree 2 is A2 plus the dual of
A1, and the top degree is the dual of the unit. A degree-one generator from
A1 multiplies a dualized degree-two generator into dualized degree-one
generators through the structure constants of A, and the remaining pairing
of complementary degrees is the identity on dual bases. Doubles of algebras
whose degree-one part multiplies to zero (pencils) have an identically zero
product on degree one. A double is a view of A: its table is built from the
structure constants of A only when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .arrangement import Arrangement, nbc_set

__all__ = [
    "DegreeError",
    "GradedAlgebra",
    "DoubledAlgebra",
    "ProductList",
    "os_algebra",
    "double",
    "dual_label",
]


class DegreeError(ValueError):
    """A product or construction leaves the graded range of the algebra."""


def dual_label(label: str) -> str:
    """Label of the dual basis vector; a tilde marks dualized generators."""
    return "~" + label


@dataclass(frozen=True)
class ProductList:
    """A positional product table as it is printed.

    ``table`` maps pairs of positions to sparse vectors over positions;
    ``xy_labels`` names the factors and ``z_labels`` the vector entries.
    ``rows`` is the printing order: pairs in position order, and inside each
    vector the entries sorted by label. The two orders of entries differ
    once a degree has ten elements ("e10" < "e2"). ``to_json`` gives one
    {"x", "y", "value"} dict per product; ``plumbline.cli`` writes the same
    text from ``rows`` without building them.
    """

    table: dict[tuple[int, int], dict[int, int]]
    xy_labels: tuple[str, ...]
    z_labels: tuple[str, ...]

    def rows(self) -> Iterator[tuple[tuple[int, int], dict[int, int]]]:
        table, by_label = self.table, self.z_labels.__getitem__
        for key in sorted(table):
            vec = table[key]
            yield key, vec if len(vec) < 2 else {z: vec[z] for z in sorted(vec, key=by_label)}

    def to_json(self) -> list[dict]:
        xy, z = self.xy_labels, self.z_labels
        return [{"x": xy[x], "y": xy[y], "value": {z[k]: c for k, c in vec.items()}} for (x, y), vec in self.rows()]


@dataclass(frozen=True, eq=True)
class GradedAlgebra:
    """A finite graded algebra given by basis labels and structure constants.

    ``basis[d]`` lists the basis labels in degree d; degree 0 is spanned by
    the unit. Structure constants refer to basis elements by flat position,
    the index into ``sum(basis, ())``, so that canonical order (lower degree
    first; within a degree, lower basis index first) is integer order.
    ``products`` maps canonically ordered pairs of positions to sparse
    integer vectors over the positions of the target degree. Pairs that
    multiply to zero are omitted. Labels are read only by the label queries
    and ``to_json``. Queries for non-canonical pairs are answered through
    graded commutativity: x y = (-1)^(deg x * deg y) y x, and odd squares
    vanish.
    """

    basis: tuple[tuple[str, ...], ...]
    products: dict[tuple[int, int], dict[int, int]]

    @property
    def top_degree(self) -> int:
        return len(self.basis) - 1

    @property
    def unit(self) -> str:
        return self.basis[0][0]

    def rank(self, degree: int) -> int:
        return len(self.basis[degree])

    @cached_property
    def _labels(self) -> tuple[str, ...]:
        return sum(self.basis, ())

    @cached_property
    def _position(self) -> dict[str, tuple[int, int]]:
        """Label -> (degree, flat position)."""
        flat = [(d, lab) for d, labels in enumerate(self.basis) for lab in labels]
        return {lab: (d, p) for p, (d, lab) in enumerate(flat)}

    @cached_property
    def _mu(self) -> tuple[tuple[int, int, int, int], ...]:
        """(i, j, k, c) for each stored degree-one product x_i x_j = ... + c z_k, by basis index."""
        o2, items = 1 + self.rank(1), self.products.items()  # o2: first degree-two position; pairs have x <= y
        return tuple((x - 1, y - 1, z - o2, c) for (x, y), v in items if 0 < x <= y < o2 for z, c in v.items())

    def basis_product(self, x: str, y: str) -> dict[str, int]:
        """Structure constants of x y as a sparse vector, sign included."""
        dx, px = self._position[x]
        dy, py = self._position[y]
        if dx == 0:
            return {y: 1}
        if dy == 0:
            return {x: 1}
        if dx + dy > self.top_degree or (px == py and dx % 2):
            return {}
        sign = -1 if px > py and (dx * dy) % 2 else 1
        labels = self._labels
        return {labels[z]: sign * c for z, c in self.products.get((min(px, py), max(px, py)), {}).items()}

    def json_doc(self) -> dict:
        """``to_json`` with the structure constants left as a ``ProductList``."""
        doc: dict = {f"degree{d}": list(basis) for d, basis in enumerate(self.basis)}
        doc["products"] = ProductList(self.products, self._labels, self._labels)
        return doc

    def to_json(self) -> dict:
        """Basis labels per degree plus the stored structure constants."""
        doc = self.json_doc()
        doc["products"] = doc["products"].to_json()
        return doc


class DoubledAlgebra(GradedAlgebra):
    """The double of a top-degree-two algebra as a view of ``base``, the one
    field it stores: ``basis`` and ``products``, laid out as ``double`` says,
    are built from the base when first read. The resonance complex reads
    only ``base``, so it builds no doubled table."""

    base: GradedAlgebra

    def __init__(self, base: GradedAlgebra) -> None:
        object.__setattr__(self, "base", base)

    @cached_property
    def basis(self) -> tuple[tuple[str, ...], ...]:
        unit, a, b = self.base.unit, self.base.basis[1], self.base.basis[2]  # A1 and A2
        return ((unit,), a + tuple(map(dual_label, b)), b + tuple(map(dual_label, a)), (dual_label(unit),))

    @cached_property
    def products(self) -> dict[tuple[int, int], dict[int, int]]:
        alg = self.base
        r1, r2 = alg.rank(1), alg.rank(2)
        shift = r1 + 2 * r2  # A1 position -> its dual's position
        top = 2 * (r1 + r2) + 1
        products: dict[tuple[int, int], dict[int, int]] = {}
        for (x, y), vec in alg.products.items():
            if not (0 < x <= r1 and 0 < y <= r1):
                continue
            row = products[(x, y)] = {}
            for f, c in vec.items():
                row[f + r2] = c
                if c and x < y:  # a pair in the other order is never read by basis_product
                    products.setdefault((y, f), {})[x + shift] = c
                    products.setdefault((x, f), {})[y + shift] = -c
        # Complementary degrees pair as the identity on dual bases.
        for p in range(1, r1 + 1):
            products[(p, p + shift)] = {top: 1}
        for p in range(r1 + 1, r1 + r2 + 1):
            products[(p, p + r2)] = {top: 1}
        return products


def os_algebra(arr: Arrangement) -> GradedAlgebra:
    """The Orlik-Solomon algebra of an arrangement, degrees 0..2.

    e_i sits at flat position i, and f of the q-th nbc pair at n + 1 + q.
    """
    n = arr.n
    points = arr.points
    pair_index = arr._pair_index  # (i, j) -> its point, as point_of gives it for i < j
    pairs = nbc_set(arr)
    f_pos = {(p.j, p.k): n + 1 + q for q, p in enumerate(pairs)}
    products: dict[tuple[int, int], dict[int, int]] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            k = points[pair_index[(i, j)]][0]
            if k == 0:
                continue
            if k == i:
                products[(i, j)] = {f_pos[(i, j)]: 1}
            else:
                products[(i, j)] = {f_pos[(k, j)]: 1, f_pos[(k, i)]: -1}
    basis = (("1",), tuple(f"e{i}" for i in range(1, n + 1)), tuple(f"f({p.j},{p.k})" for p in pairs))
    return GradedAlgebra(basis, products)


def double(alg: GradedAlgebra) -> DoubledAlgebra:
    """The double of a graded algebra with top degree two.

    Degree 1 is the degree-one basis of ``alg`` followed by the duals of its
    degree-two basis; degree 2 is the degree-two basis followed by the duals
    of the degree-one basis; degree 3 is the dual of the unit. Both middle
    degrees have rank N = r1 + r2. By flat position, with p a position of
    ``alg``: an element of A1 keeps p and its dual sits at p + r1 + 2 r2; the
    dual of an element of A2 keeps p and the element itself moves to p + r2.

    The a_j ~f_k block is read off the stored degree-one products in one
    pass: x y = c f gives y ~f -> c ~x and x ~f -> -c ~y. The intersection
    ring's F_a . F_b table copies the Orlik-Solomon case split of
    ``os_algebra``, so on that block ``verify_double_isomorphism`` compares
    two transcriptions of one rule. The result is a view of ``alg`` that
    builds these tables when they are first read.
    """
    if alg.top_degree != 2:
        raise DegreeError("doubling requires a graded algebra with top degree 2")
    return DoubledAlgebra(alg)
