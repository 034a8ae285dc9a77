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

One positional table holds both rings. ``intersection_ring`` puts each
class at the flat position of its Poincare dual in ``cohomology_ring``,
whose basis is in the order of the double of the Orlik-Solomon algebra.
With r2 nbc pairs and h = n + r2:

    position     1..n    n+1..h      h+1..h+r2    h+r2+1..2h
    homology     F_i     tau_(j,k)   g_(j,k)      t_i
    cohomology   ~t_i    ~g_(j,k)    ~tau_(j,k)   ~F_i
    double       e_i     ~f_(j,k)    f_(j,k)      ~e_i

So Poincare duality and the correspondence PD(F_i) -> e_i, PD(tau) -> ~f,
PD(g) -> f, PD(t_i) -> ~e_i are the identity on positions: the cohomology
ring is the intersection table, vector for vector, plus the h pairings into
the top class at 2h + 1. ``verify_double_isomorphism`` checks that this
ring is the double, structure constant by structure constant, in one
comparison of two int-keyed dicts; labels are read only to list a mismatch.

The two sides are computed by independent routes (geometric tables versus
the doubling construction), so agreement here is a genuine cross-check, not
a tautology.
"""

from __future__ import annotations

from functools import cached_property

from .arrangement import Arrangement, Frozen, nbc_set
from .os_algebra import DoubledAlgebra, GradedAlgebra, ProductList, double, dual_label, os_algebra

__all__ = [
    "IntersectionRing",
    "IsomorphismReport",
    "intersection_ring",
    "cohomology_ring",
    "verify_double_isomorphism",
]


class IntersectionRing(GradedAlgebra):
    """H_1, H_2, the intersection product, and the intersection pairing.

    A graded algebra on (("M",), H_2, H_1), homology graded by codimension,
    laid out as the module docstring's table says. ``n`` is the number of
    lines. The labels list H_1 as t_1..t_n and then the g, so that
    ``h1_labels[i]`` is dual to ``h2_labels[i]``.
    """

    n: int

    @property
    def h2_labels(self) -> tuple[str, ...]:
        return self.basis[1]

    @cached_property
    def h1_labels(self) -> tuple[str, ...]:
        r2 = self.rank(1) - self.n
        return self.basis[2][r2:] + self.basis[2][:r2]

    def product(self, x: str, y: str) -> dict[str, int]:
        """Intersection of two H_2 basis classes as a sparse H_1 vector."""
        for lab in (x, y):
            if self._position[lab][0] != 1:
                raise KeyError(lab)
        return self.basis_product(x, y)

    def pairing(self, h1: str, h2: str) -> int:
        """Intersection number of an H_1 class with an H_2 class."""
        if self._position[h1][0] != 2:
            raise KeyError(h1)
        d2, p2 = self._position[h2]
        if d2 != 1:
            raise KeyError(h2)
        return int(h1 == self.h1_labels[p2 - 1])

    def json_doc(self) -> dict:
        """``to_json`` with the intersection products left as a ``ProductList``."""
        return {
            "h1": list(self.h1_labels),
            "h2": list(self.h2_labels),
            "products": ProductList(self.products, self._labels, self._labels),
        }


def intersection_ring(arr: Arrangement) -> IntersectionRing:
    """The intersection ring of the boundary manifold, from the closed tables."""
    n = arr.n
    points = arr.points
    pair_index = arr._pair_index  # (a, b) -> its point, as point_of gives it for a < b
    pairs = nbc_set(arr)
    h = n + len(pairs)
    pos = list(range(2 * h + 1))  # one int per position, shared by every vector that holds it
    tau, t = pos[n + 1 :], pos[2 * h - n :]  # tau of the q-th nbc pair is tau[q], t_i is t[i]
    g = {(p.j, p.k): pos[h + 1 + q] for q, p in enumerate(pairs)}

    products: dict[tuple[int, int], dict[int, int]] = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            k = points[pair_index[(a, b)]][0]
            if k == 0:
                continue
            if k == a:
                products[(a, b)] = {g[(a, b)]: 1}
            else:
                products[(a, b)] = {g[(k, b)]: 1, g[(k, a)]: -1}

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
                vec = products[(i, tau[q])] = {}
                for m in points[pairs[q].point]:
                    if m != i:
                        vec[t[m]] = 1
            else:
                products[(i, tau[q])] = {t[k]: -1}

    h2 = tuple(f"F{i}" for i in range(1, n + 1)) + tuple(f"tau({p.j},{p.k})" for p in pairs)
    h1 = tuple(f"g({p.j},{p.k})" for p in pairs) + tuple(f"t{i}" for i in range(1, n + 1))
    return IntersectionRing((("M",), h2, h1), products, n)


def cohomology_ring(arr: Arrangement) -> GradedAlgebra:
    """The cohomology ring of the boundary manifold, degrees 0..3, laid out
    as the module docstring's table says; degree three is "pt", the dual of
    a point. Cup products of degree-one classes are the intersection
    products of the dual surfaces; degree one cups degree two as the
    identity pairing into pt."""
    return _cohomology_of(intersection_ring(arr))


def _cohomology_of(ring: IntersectionRing) -> GradedAlgebra:
    """``cohomology_ring`` of the arrangement whose intersection ring is
    ``ring``: its table, vector objects included, plus the pairings."""
    h, n = ring.rank(1), ring.n
    products = dict(ring.products)
    pt = {2 * h + 1: 1}
    for p in range(1, h + 1):
        products[(p, p + h - n + (h if p <= n else 0))] = pt  # complementary degrees pair as the identity
    h2 = ring.h2_labels
    basis = (("1",), tuple(map(dual_label, ring.h1_labels)), tuple(map(dual_label, h2[n:] + h2[:n])), ("pt",))
    return GradedAlgebra(basis, products)


class IsomorphismReport(Frozen):
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
