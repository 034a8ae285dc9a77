"""Reference implementations that the fast paths in ``src/`` replaced.

Each function here is the earlier, direct implementation, kept unchanged as
a test oracle: the Smith-form cokernel, the stand-alone Bareiss determinant,
the triple-loop double, the pair-loop cohomology ring (with the label parsing
it used for Poincare duality) and the pair-loop ring verifier. The property
tests in ``test_oracles.py`` check that the package's versions give the same
results.
Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from plumbline.arrangement import Arrangement
from plumbline.boundary_ring import IsomorphismReport, _label_map, intersection_ring
from plumbline.exact_linalg import IntMatrix, snf
from plumbline.os_algebra import DegreeError, DoubledAlgebra, GradedAlgebra, dual_label, os_algebra


def cokernel(m: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Invariants of coker(m : Z^cols -> Z^rows) = Z^rows / im(m).

    Returns (free_rank, torsion) where torsion lists the invariant factors
    greater than 1 in divisibility order.
    """
    diag = snf(m).diagonal
    nonzero = [d for d in diag if d]
    free = m.rows - len(nonzero)
    torsion = tuple(d for d in nonzero if d > 1)
    return free, torsion


def det(m: IntMatrix) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, rem = divmod(pk * a[i][j] - a[i][k] * a[k][j], prev)
                if rem:
                    raise ArithmeticError("non-exact division in fraction-free determinant")
                a[i][j] = q
            a[i][k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def double(alg: GradedAlgebra) -> DoubledAlgebra:
    """The double of a graded algebra with top degree two.

    Degree 1 is the degree-one basis of ``alg`` followed by the duals of its
    degree-two basis; degree 2 is the degree-two basis followed by the duals
    of the degree-one basis; degree 3 is the dual of the unit. Both middle
    degrees have rank (rank A1 + rank A2).
    """
    if alg.top_degree != 2:
        raise DegreeError("doubling requires a graded algebra with top degree 2")
    a_labels = alg.basis[1]
    b_labels = alg.basis[2]
    top = dual_label(alg.unit)
    deg1 = a_labels + tuple(dual_label(b) for b in b_labels)
    deg2 = b_labels + tuple(dual_label(a) for a in a_labels)

    products: dict[tuple[str, str], dict[str, int]] = {}
    for pair, vec in alg.products.items():
        if alg.degree_of(pair[0]) == 1 and alg.degree_of(pair[1]) == 1:
            products[pair] = dict(vec)
    # A degree-one generator against a dualized degree-two generator lands in
    # dualized degree-one generators, with the structure constants of the base.
    for aj in a_labels:
        for bk in b_labels:
            vec = {}
            for ai in a_labels:
                c = alg.basis_product(ai, aj).get(bk, 0)
                if c:
                    vec[dual_label(ai)] = c
            if vec:
                products[(aj, dual_label(bk))] = vec
    # Complementary degrees pair as the identity on dual bases.
    for ai in a_labels:
        products[(ai, dual_label(ai))] = {top: 1}
    for bk in b_labels:
        products[(dual_label(bk), bk)] = {top: 1}

    basis = ((alg.unit,), deg1, deg2, (top,))
    return DoubledAlgebra(basis=basis, products=products, base=alg)


def _dual_surface(h1_label: str) -> str:
    # t3 <-> F3, g(1,2) <-> tau(1,2)
    if h1_label.startswith("t"):
        return "F" + h1_label[1:]
    return "tau" + h1_label[1:]


def cohomology_ring(arr: Arrangement) -> GradedAlgebra:
    """The cohomology ring of the boundary manifold, degrees 0..3.

    Degree-one classes are the Poincare duals of the H_2 basis and carry the
    labels ~t_i, ~g_(j,k); degree-two classes are the duals of the H_1 basis,
    labelled ~F_i, ~tau_(j,k); the top class is the dual of a point, "pt".
    Cup products of degree-one classes are the intersection products of the
    dual surfaces, rewritten through duality; degree one cups degree two as
    the identity pairing into pt.
    """
    ring = intersection_ring(arr)
    h1 = ring.h1_labels
    # PD(F_i) = ~t_i and PD(tau) = ~g in degree one; PD(t_i) = ~F_i and
    # PD(g) = ~tau in degree two.
    deg1 = tuple("~" + lab for lab in h1)
    deg2 = tuple("~" + _dual_surface(lab) for lab in h1)
    pd2 = {lab: "~" + _dual_surface(lab) for lab in h1}  # H_1 class -> its PD in degree 2

    products: dict[tuple[str, str], dict[str, int]] = {}
    for a in range(len(h1)):
        for b in range(a + 1, len(h1)):
            vec = ring.product(_dual_surface(h1[a]), _dual_surface(h1[b]))
            if vec:
                products[("~" + h1[a], "~" + h1[b])] = {pd2[lab]: c for lab, c in vec.items()}
    for lab in h1:
        # complementary degrees pair as the identity, into the top class
        products[("~" + lab, pd2[lab])] = {"pt": 1}

    basis = (("1",), deg1, deg2, ("pt",))
    return GradedAlgebra(basis, products)


def verify_double_isomorphism(arr: Arrangement) -> IsomorphismReport:
    """Compare all ordered structure constants of the two rings.

    Builds the cohomology ring from the geometric product tables and the
    double of the Orlik-Solomon algebra from the doubling construction, maps
    the cohomology basis onto the double's basis, and compares the products
    of every ordered basis pair in degrees one times one and one times two
    (both orders). Returns a report rather than raising, so callers can
    surface the exact mismatching pairs.
    """
    coh = cohomology_ring(arr)
    dbl = double(os_algebra(arr))
    phi = _label_map(arr, dbl)

    mismatches: list[tuple[str, str, dict, dict]] = []
    deg1 = coh.basis[1]
    deg2 = coh.basis[2]
    test_pairs = [(x, y) for x in deg1 for y in deg1]
    test_pairs += [(x, y) for x in deg1 for y in deg2]
    test_pairs += [(x, y) for x in deg2 for y in deg1]
    for x, y in test_pairs:
        lhs = {phi[lab]: c for lab, c in coh.basis_product(x, y).items()}
        rhs = dbl.basis_product(phi[x], phi[y])
        if lhs != rhs:
            mismatches.append((x, y, lhs, rhs))
    return IsomorphismReport(ok=not mismatches, mismatches=tuple(mismatches))
