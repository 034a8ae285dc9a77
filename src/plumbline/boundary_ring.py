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

It compares the canonical products only: degree 1 x 1 with the lower basis
index first, and degree 1 x 2. Both rings store just these and answer every
other order through graded commutativity, y x = (-1)^(deg x * deg y) x y,
and the correspondence keeps the position of each degree-one class, so the
reverse orders agree whenever the canonical ones do. The products are
compared as two dicts, once.

The two sides are computed by independent routes (geometric tables versus
the doubling construction), so agreement here is a genuine cross-check, not
a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arrangement import Arrangement, nbc_set
from .os_algebra import DoubledAlgebra, GradedAlgebra, double, dual_label, os_algebra

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

    ``products`` stores the product of H_2 classes on ordered pairs only
    (lower basis index first); queries are extended antisymmetrically and
    diagonal products are zero. The H_1 x H_2 pairing is the identity on
    dual bases (t_i with F_i, g_(j,k) with tau_(j,k)): ``h1_labels[i]`` is
    dual to ``h2_labels[i]``.
    """

    h1_labels: tuple[str, ...]
    h2_labels: tuple[str, ...]
    products: dict[tuple[str, str], dict[str, int]]

    @cached_property
    def _h2_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.h2_labels)}

    def product(self, x: str, y: str) -> dict[str, int]:
        """Intersection of two H_2 basis classes as a sparse H_1 vector."""
        ix = self._h2_index[x]
        iy = self._h2_index[y]
        if ix == iy:
            return {}
        if ix < iy:
            return dict(self.products.get((x, y), {}))
        return {lab: -c for lab, c in self.products.get((y, x), {}).items()}

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

    def to_json(self) -> dict:
        idx = self._h2_index
        return {
            "h1": list(self.h1_labels),
            "h2": list(self.h2_labels),
            "products": [
                {"x": x, "y": y, "value": {lab: c for lab, c in sorted(vec.items())}}
                for (x, y), vec in sorted(self.products.items(), key=lambda kv: (idx[kv[0][0]], idx[kv[0][1]]))
            ],
        }


def intersection_ring(arr: Arrangement) -> IntersectionRing:
    """The intersection ring of the boundary manifold, from the closed tables."""
    n = arr.n
    points = arr.points
    pairs = nbc_set(arr)
    t = [f"t{i}" for i in range(n + 1)]  # t[i] and F[i] belong to line i; index 0 is unused
    f_surf = [f"F{i}" for i in range(n + 1)]
    g = {(p.j, p.k): f"g({p.j},{p.k})" for p in pairs}
    tau = [f"tau({p.j},{p.k})" for p in pairs]

    products: dict[tuple[str, str], dict[str, int]] = {}

    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            k = points[arr.point_of(a, b)][0]
            if k == 0:
                continue
            if k == a:
                vec = {g[(a, b)]: 1}
            else:
                vec = {g[(k, b)]: 1, g[(k, a)]: -1}
            products[(f_surf[a], f_surf[b])] = vec

    # F_i . tau is zero unless line i lies in the pair's point: list, for
    # each line, the pairs whose point contains it, in nbc order.
    through: list[list[int]] = [[] for _ in range(n + 1)]
    for idx, p in enumerate(pairs):
        for m in points[p.point]:
            through[m].append(idx)
    for i in range(1, n + 1):
        for idx in through[i]:
            k = pairs[idx].k
            if i == k:
                vec = {t[m]: 1 for m in points[pairs[idx].point] if m != i}
            else:
                vec = {t[k]: -1}
            products[(f_surf[i], tau[idx])] = vec

    # Position i of h1 is dual to position i of h2: t_i <-> F_i, g <-> tau.
    h2 = tuple(f_surf[1:]) + tuple(tau)
    h1 = tuple(t[1:]) + tuple(g.values())
    return IntersectionRing(h1, h2, products)


def cohomology_ring(arr: Arrangement) -> GradedAlgebra:
    """The cohomology ring of the boundary manifold, degrees 0..3.

    Degree-one classes are the Poincare duals of the H_2 basis and carry the
    labels ~t_i, ~g_(j,k); degree-two classes are the duals of the H_1 basis,
    labelled ~F_i, ~tau_(j,k); the top class is the dual of a point, "pt".
    Cup products of degree-one classes are the intersection products of the
    dual surfaces, rewritten through duality; degree one cups degree two as
    the identity pairing into pt.
    """
    return _cohomology_of(intersection_ring(arr))


def _cohomology_of(ring: IntersectionRing) -> GradedAlgebra:
    """``cohomology_ring`` of the arrangement whose intersection ring is ``ring``."""
    # PD(F_i) = ~t_i and PD(tau) = ~g in degree one; PD(t_i) = ~F_i and
    # PD(g) = ~tau in degree two. The H_1 and H_2 bases are in dual order.
    deg1 = tuple(map(dual_label, ring.h1_labels))
    deg2 = tuple(map(dual_label, ring.h2_labels))
    pd1 = dict(zip(ring.h2_labels, deg1))  # H_2 class -> its PD in degree 1
    pd2 = dict(zip(ring.h1_labels, deg2))  # H_1 class -> its PD in degree 2

    # H_2 is ordered as the duals of H_1: a stored pair stays canonical.
    idx = ring._h2_index
    products: dict[tuple[str, str], dict[str, int]] = {}
    for (x, y), vec in ring.products.items():
        if vec and idx[x] < idx[y]:
            products[(pd1[x], pd1[y])] = {pd2[lab]: c for lab, c in vec.items()}
    for x, y in zip(deg1, deg2):
        # complementary degrees pair as the identity, into the top class
        products[(x, y)] = {"pt": 1}

    basis = (("1",), deg1, deg2, ("pt",))
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


def _basis_map(coh: GradedAlgebra, dbl: DoubledAlgebra) -> dict[str, str]:
    """The module docstring's correspondence, by position: both bases follow nbc_set order."""
    unit, deg1, deg2, top = dbl.basis
    r2 = dbl.base.rank(2)  # degree two lists f before ~e, the reverse of PD(t) before PD(g)
    return dict(zip(sum(coh.basis, ()), unit + deg1 + deg2[r2:] + deg2[:r2] + top, strict=True))


def _canonical_products(alg: GradedAlgebra) -> dict[tuple[str, str], dict[str, int]]:
    """The nonzero stored products of a ring of top degree 3 on degree 1 x 1
    pairs (lower basis index first) and degree 1 x 2 pairs. Every other
    product on degrees 1 x 1, 1 x 2 and 2 x 1 follows from these by graded
    commutativity; the rest are zero."""
    deg1 = {lab: i for i, lab in enumerate(alg.basis[1])}
    deg2 = set(alg.basis[2])
    return {
        (x, y): vec
        for (x, y), vec in alg.products.items()
        if vec and x in deg1 and (y in deg2 or deg1.get(y, -1) > deg1[x])
    }


def verify_double_isomorphism(arr: Arrangement) -> IsomorphismReport:
    """Compare the structure constants of the two rings on degrees 1 x 1, 1 x 2 and 2 x 1.

    Builds the cohomology ring from the geometric product tables and the
    double of the Orlik-Solomon algebra from the doubling construction, maps
    the cohomology basis onto the double's basis, and compares the canonical
    products: degree 1 x 1 with the lower index first, and degree 1 x 2.
    Both rings derive every other order from these by the same rule,
    y x = (-1)^(deg x * deg y) x y, and the map keeps degree-one positions,
    so two rings that agree on canonical products agree on every ordered
    pair. Returns a report rather than raising, so callers can surface the
    exact mismatching pairs.

    A mismatch is listed for both orders of its pair, the reverse with the
    sign of that rule. Mismatches come in pair order: degrees 1 x 1, 1 x 2,
    then 2 x 1, each row-major.
    """
    return _compare(cohomology_ring(arr), double(os_algebra(arr)))


def _compare(coh: GradedAlgebra, dbl: DoubledAlgebra) -> IsomorphismReport:
    """``verify_double_isomorphism`` of an arrangement's cohomology ring and double."""
    phi = _basis_map(coh, dbl)
    lhs = {
        (phi[x], phi[y]): {phi[lab]: c for lab, c in vec.items()}
        for (x, y), vec in _canonical_products(coh).items()
    }
    rhs = _canonical_products(dbl)
    if lhs == rhs:
        return IsomorphismReport(ok=True, mismatches=())

    back = {v: k for k, v in phi.items()}
    pos = coh._position
    mismatches = []
    for key in lhs.keys() | rhs.keys():
        left, right = lhs.get(key, {}), rhs.get(key, {})
        if left != right:
            x, y = back[key[0]], back[key[1]]
            sign = -1 if pos[y][0] == 1 else 1
            mismatches.append((x, y, left, dict(right)))
            mismatches.append((y, x, {lab: sign * c for lab, c in left.items()},
                               {lab: sign * c for lab, c in right.items()}))
    mismatches.sort(key=lambda m: (pos[m[0]][0], pos[m[1]][0], pos[m[0]][1], pos[m[1]][1]))
    return IsomorphismReport(ok=False, mismatches=tuple(mismatches))
