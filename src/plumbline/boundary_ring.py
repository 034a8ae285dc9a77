"""Intersection and cohomology rings of the boundary manifold.

The boundary 3-manifold M of an arrangement has free homology, with
H_1 generated by meridian classes t_1..t_n and cycle classes g_(j,k), one
per nbc pair, and H_2 generated by dual surface classes F_1..F_n and
tau_(j,k). The intersection product of two surface classes is a curve
class, given by closed-form tables:

* tau against tau is zero;
* F_i against tau_(j,k) is -t_k when i lies in the point of (j, k) with
  i != k, is the sum of t_m over that point minus t_i when i = k, and is
  zero when i is outside the point;
* F_i against F_j follows the same case split as the degree-one product in
  the Orlik-Solomon algebra, with g in place of f.

The product is antisymmetric (surfaces in a 3-manifold meet their own class
trivially), and H_1 pairs with H_2 as the identity on dual bases.

``cohomology_ring`` transports these tables through Poincare duality to cup
products, and ``verify_double_isomorphism`` checks, structure constant by
structure constant, that the resulting ring is the double of the
Orlik-Solomon algebra under the basis correspondence

    PD(F_i) -> e_i,   PD(tau_(j,k)) -> dual f_(j,k),
    PD(t_i) -> dual e_i,   PD(g_(j,k)) -> f_(j,k).

Both rings store structure constants by flat basis position, and list
their bases in the same order: degree two of the cohomology ring puts
PD(g) before PD(t), as the double puts f before ~e. So the correspondence
is the identity on flat positions. The check compares the canonical
products only: degree 1 x 1 with the lower basis index first, and degree
1 x 2. Both rings store just these and answer every other order through
graded commutativity, y x = (-1)^(deg x * deg y) x y, so the reverse
orders agree whenever the canonical ones do. The products are compared as
two int-keyed dicts, once; labels are read only to list a mismatch.

The two sides are computed by independent routes (geometric tables versus
the doubling construction), so agreement here is a genuine cross-check, not
a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arrangement import Arrangement, nbc_set
from .os_algebra import DoubledAlgebra, GradedAlgebra, ProductList, double, dual_label, os_algebra

__all__ = [
    "IntersectionRing",
    "IsomorphismReport",
    "intersection_ring",
    "cohomology_ring",
    "verify_double_isomorphism",
]


@dataclass(frozen=True, eq=True)
class IntersectionRing:
    """H_1, H_2, the intersection product, and the intersection pairing.

    ``products`` maps ordered pairs of H_2 basis indices (lower index
    first) to sparse vectors over H_1 basis indices; the label queries
    extend it antisymmetrically, and diagonal products are zero. The
    H_1 x H_2 pairing is the identity on dual bases (t_i with F_i, g_(j,k)
    with tau_(j,k)): ``h1_labels[i]`` is dual to ``h2_labels[i]``.
    """

    h1_labels: tuple[str, ...]
    h2_labels: tuple[str, ...]
    products: dict[tuple[int, int], dict[int, int]]

    @cached_property
    def _h2_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.h2_labels)}

    def product(self, x: str, y: str) -> dict[str, int]:
        """Intersection of two H_2 basis classes as a sparse H_1 vector."""
        ix = self._h2_index[x]
        iy = self._h2_index[y]
        if ix == iy:
            return {}
        sign = -1 if ix > iy else 1
        h1 = self.h1_labels
        return {h1[z]: sign * c for z, c in self.products.get((min(ix, iy), max(ix, iy)), {}).items()}

    def pairing(self, h1: str, h2: str) -> int:
        """Intersection number of an H_1 class with an H_2 class."""
        if h1 not in self._dual_of:
            raise KeyError(h1)
        if h2 not in self._h2_index:
            raise KeyError(h2)
        return 1 if self._dual_of[h1] == h2 else 0

    @cached_property
    def _dual_of(self) -> dict[str, str]:
        return dict(zip(self.h1_labels, self.h2_labels))

    def json_doc(self) -> dict:
        """``to_json`` with the intersection products left as a ``ProductList``."""
        return {
            "h1": list(self.h1_labels),
            "h2": list(self.h2_labels),
            "products": ProductList(self.products, self.h2_labels, self.h1_labels),
        }

    def to_json(self) -> dict:
        doc = self.json_doc()
        doc["products"] = doc["products"].to_json()
        return doc


def intersection_ring(arr: Arrangement) -> IntersectionRing:
    """The intersection ring of the boundary manifold, from the closed tables.

    F_i and t_i have index i - 1, and tau and g of the q-th nbc pair n + q.
    """
    n = arr.n
    points = arr.points
    pair_index = arr._pair_index  # (a, b) -> its point, as point_of gives it for a < b
    pairs = nbc_set(arr)
    g = {(p.j, p.k): n + q for q, p in enumerate(pairs)}

    products: dict[tuple[int, int], dict[int, int]] = {}

    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            k = points[pair_index[(a, b)]][0]
            if k == 0:
                continue
            if k == a:
                products[(a - 1, b - 1)] = {g[(a, b)]: 1}
            else:
                products[(a - 1, b - 1)] = {g[(k, b)]: 1, g[(k, a)]: -1}

    # F_i . tau is zero unless line i lies in the pair's point: list, for
    # each line, the pairs whose point contains it, in nbc order.
    through: list[list[int]] = [[] for _ in range(n + 1)]
    for q, p in enumerate(pairs):
        for m in points[p.point]:
            through[m].append(q)
    for i in range(1, n + 1):
        for q in through[i]:
            k = pairs[q].k
            if i == k:
                vec = products[(i - 1, n + q)] = {}
                for m in points[pairs[q].point]:
                    if m != i:
                        vec[m - 1] = 1
            else:
                products[(i - 1, n + q)] = {k - 1: -1}

    # Position i of h1 is dual to position i of h2: t_i <-> F_i, g <-> tau.
    h2 = tuple(f"F{i}" for i in range(1, n + 1)) + tuple(f"tau({p.j},{p.k})" for p in pairs)
    h1 = tuple(f"t{i}" for i in range(1, n + 1)) + tuple(f"g({p.j},{p.k})" for p in pairs)
    return IntersectionRing(h1, h2, products)


def cohomology_ring(arr: Arrangement) -> GradedAlgebra:
    """The cohomology ring of the boundary manifold, degrees 0..3.

    Degree-one classes are the Poincare duals of the H_2 basis and carry the
    labels ~t_i, ~g_(j,k); degree-two classes are the duals of the H_1 basis,
    labelled ~tau_(j,k) and then ~F_i, in the order of the double; the top
    class is the dual of a point, "pt". Cup products of degree-one classes
    are the intersection products of the dual surfaces, rewritten through
    duality; degree one cups degree two as the identity pairing into pt.
    """
    return _cohomology_of(intersection_ring(arr), arr.n)


def _cohomology_of(ring: IntersectionRing, n: int) -> GradedAlgebra:
    """``cohomology_ring`` of the arrangement of n lines whose intersection ring is ``ring``."""
    # PD(F_i) = ~t_i and PD(tau) = ~g in degree one; PD(g) = ~tau and then
    # PD(t_i) = ~F_i in degree two. H_2 index i is flat position 1 + i, and
    # H_1 index z, the dual of H_2 index z, is pd[z].
    h = len(ring.h1_labels)
    pd = [1 + h + (z - n) % h for z in range(h)]
    products: dict[tuple[int, int], dict[int, int]] = {}
    for (x, y), vec in ring.products.items():
        if vec and x < y:
            row = products[(x + 1, y + 1)] = {}
            for z, c in vec.items():  # a loop, not a comprehension: no frame per product
                row[pd[z]] = c
    for p in range(1, h + 1):
        # complementary degrees pair as the identity, into the top class
        products[(p, pd[p - 1])] = {2 * h + 1: 1}

    h2 = ring.h2_labels
    basis = (("1",), tuple(map(dual_label, ring.h1_labels)), tuple(map(dual_label, h2[n:] + h2[:n])), ("pt",))
    return GradedAlgebra(basis, products)


@dataclass(frozen=True)
class IsomorphismReport:
    """Outcome of comparing the cohomology ring with the doubled algebra."""

    ok: bool
    mismatches: tuple[tuple[str, str, dict, dict], ...]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "mismatches": [
                {"x": x, "y": y, "cohomology": dict(sorted(lhs.items())), "double": dict(sorted(rhs.items()))}
                for x, y, lhs, rhs in self.mismatches
            ],
        }


def _canonical_products(alg: GradedAlgebra) -> dict[tuple[int, int], dict[int, int]]:
    """The nonzero stored products of a ring of top degree 3 on degree 1 x 1
    pairs (lower position first) and degree 1 x 2 pairs. Every other
    product on degrees 1 x 1, 1 x 2 and 2 x 1 follows from these by graded
    commutativity; the rest are zero."""
    o2 = 1 + alg.rank(1)  # flat positions: degree 1 is [1, o2), degree 2 is [o2, o3)
    o3 = o2 + alg.rank(2)
    return {(x, y): vec for (x, y), vec in alg.products.items() if vec and 0 < x < o2 and x < y < o3}


def verify_double_isomorphism(arr: Arrangement) -> IsomorphismReport:
    """Compare the structure constants of the two rings on degrees 1 x 1, 1 x 2 and 2 x 1.

    Builds the cohomology ring from the geometric product tables and the
    double of the Orlik-Solomon algebra from the doubling construction, and
    compares the canonical products, position by position, since the two
    bases share one order: degree 1 x 1 with the lower index first, and
    degree 1 x 2. Both rings derive every other order from these by the
    same rule, y x = (-1)^(deg x * deg y) x y, so two rings that agree on
    canonical products agree on every ordered pair. Returns a report rather
    than raising, so callers can surface the exact mismatching pairs.

    A mismatch is listed for both orders of its pair, the reverse with the
    sign of that rule. Mismatches come in pair order: degrees 1 x 1, 1 x 2,
    then 2 x 1, each row-major.
    """
    return _compare(cohomology_ring(arr), double(os_algebra(arr)))


def _compare(coh: GradedAlgebra, dbl: DoubledAlgebra) -> IsomorphismReport:
    """``verify_double_isomorphism`` of an arrangement's cohomology ring and double."""
    # Equal tables have equal canonical products; the filter runs only when
    # the tables differ.
    if coh.products == dbl.products or (lhs := _canonical_products(coh)) == (rhs := _canonical_products(dbl)):
        return IsomorphismReport(ok=True, mismatches=())

    # Labels only from here on: each mismatch in both orders, sorted by
    # (degree, degree, position, position).
    o2 = 1 + coh.rank(1)  # the first degree-two position
    found = []
    for key in lhs.keys() | rhs.keys():
        left, right = lhs.get(key, {}), rhs.get(key, {})
        if left != right:
            x, y = key
            dy = 1 if y < o2 else 2
            found.append(((1, dy, x, y), 1, left, right))
            found.append(((dy, 1, y, x), -1 if dy == 1 else 1, left, right))
    found.sort(key=lambda m: m[0])
    labels, dbl_labels = coh._labels, dbl._labels
    return IsomorphismReport(ok=False, mismatches=tuple(
        (labels[x], labels[y], {dbl_labels[z]: sign * c for z, c in left.items()},
         {dbl_labels[z]: sign * c for z, c in right.items()})
        for (_, _, x, y), sign, left, right in found
    ))
