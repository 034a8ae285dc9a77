"""The fast boundary-manifold paths against the implementations they replaced.

``oracles`` holds the earlier code unchanged: the Smith-form cokernel, the
stand-alone Bareiss determinant, the triple-loop double, the pair-loop
cohomology ring and the pair-loop ring verifier. Each property runs on the
shipped fixtures and on random arrangements of 3-12 lines at densities 0-1,
or on random integer matrices, and requires identical results.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from plumbline import cohomology_ring, double, os_algebra, verify_double_isomorphism
from plumbline.cli import random_arrangement
from plumbline.exact_linalg import IntMatrix, cokernel, det
from plumbline.os_algebra import DoubledAlgebra
from plumbline.plumbing import plumbing_graph, plumbing_matrix

from conftest import ALL_FIXTURES, load_fixture

arrangements = st.builds(
    lambda seed, lines, density: random_arrangement(random.Random(seed), lines, density),
    st.integers(0, 2**32 - 1),
    st.integers(3, 12),
    st.floats(0.0, 1.0),
)


def fixture_and_random(test):
    """Run ``test(arr)`` on every fixture, then on random arrangements."""

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def on_fixture(name):
        test(load_fixture(name))

    @settings(max_examples=60, deadline=None)
    @given(arrangements)
    def on_random(arr):
        test(arr)

    return on_fixture, on_random


def _same_double(arr):
    alg = os_algebra(arr)
    new, old = double(alg), oracles.double(alg)
    assert new == old
    assert new.to_json() == old.to_json()


def _same_cohomology_ring(arr):
    new, old = cohomology_ring(arr), oracles.cohomology_ring(arr)
    assert new == old
    assert new.to_json() == old.to_json()


def _same_report(arr):
    new, old = verify_double_isomorphism(arr), oracles.verify_double_isomorphism(arr)
    assert new == old
    assert new.to_json() == old.to_json()
    assert new.ok


def _same_plumbing_cokernel(arr):
    m = plumbing_matrix(plumbing_graph(arr))
    assert cokernel(m) == oracles.cokernel(m) == (arr.n, ())


test_double_fixture, test_double_random = fixture_and_random(_same_double)
test_cohomology_ring_fixture, test_cohomology_ring_random = fixture_and_random(_same_cohomology_ring)
test_verify_fixture, test_verify_random = fixture_and_random(_same_report)
test_plumbing_cokernel_fixture, test_plumbing_cokernel_random = fixture_and_random(_same_plumbing_cokernel)


@st.composite
def int_matrices(draw, values):
    """Matrices of 0-7 rows and 0-7 columns, zero dimensions included."""
    nr = draw(st.integers(0, 7))
    nc = draw(st.integers(0, 7))
    entries = draw(st.lists(values, min_size=nr * nc, max_size=nr * nc))
    return IntMatrix(nr, nc, tuple(entries))


@st.composite
def torsion_matrices(draw):
    """U @ D @ V with unimodular U, V and a diagonal D carrying torsion."""
    nr = draw(st.integers(1, 6))
    nc = draw(st.integers(1, 6))
    diag = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 12]), min_size=min(nr, nc), max_size=min(nr, nc)))
    s = [[diag[i] if i == j else 0 for j in range(nc)] for i in range(nr)]
    for size, transpose in ((nr, False), (nc, True)):
        for _ in range(draw(st.integers(0, 8))):
            i = draw(st.integers(0, size - 1))
            j = draw(st.integers(0, size - 1))
            c = draw(st.integers(-3, 3))
            if i == j:
                continue
            # add c times row (column) j to row (column) i: unimodular
            if transpose:
                for row in s:
                    row[i] += c * row[j]
            else:
                s[i] = [a + c * b for a, b in zip(s[i], s[j])]
    return IntMatrix.from_rows(s) if nr else IntMatrix(0, nc, ())


class TestCokernelMatchesSmithForm:
    @settings(max_examples=300, deadline=None)
    @given(int_matrices(st.integers(-5, 5)))
    def test_random(self, m):
        assert cokernel(m) == oracles.cokernel(m)

    @settings(max_examples=200, deadline=None)
    @given(int_matrices(st.sampled_from([0, 0, 2, -2, 3, -4, 6, 9])))
    def test_no_unit_entry(self, m):
        assert cokernel(m) == oracles.cokernel(m)

    @settings(max_examples=200, deadline=None)
    @given(int_matrices(st.sampled_from([0, 0, 0, 1, -1, 2])))
    def test_sparse_units(self, m):
        assert cokernel(m) == oracles.cokernel(m)

    @settings(max_examples=200, deadline=None)
    @given(torsion_matrices())
    def test_with_torsion(self, m):
        assert cokernel(m) == oracles.cokernel(m)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty(self, shape):
        m = IntMatrix.zeros(*shape)
        assert cokernel(m) == oracles.cokernel(m) == (shape[0], ())

    def test_torsion_behind_units(self):
        m = IntMatrix.from_rows([[1, 1, 0], [1, 3, 0], [0, 0, 6]])
        assert cokernel(m) == oracles.cokernel(m) == (0, (2, 6))


@st.composite
def square_matrices(draw):
    """Square matrices of size 0-6; half of them get a row that is a
    combination of the others, which makes them singular."""
    n = draw(st.integers(0, 6))
    values = st.integers(-9, 9) | st.just(0)
    rows = [draw(st.lists(values, min_size=n, max_size=n)) for _ in range(n)]
    if n and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        rows[i] = [sum(c * rows[k][j] for k, c in enumerate(coeffs) if k != i) for j in range(n)]
    return IntMatrix.from_rows(rows)


class TestDetMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(square_matrices())
    def test_random(self, m):
        assert det(m) == oracles.det(m)

    def test_examples(self):
        for rows in ([], [[0]], [[0, 1], [1, 0]], [[1, 2], [2, 4]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]]):
            m = IntMatrix.from_rows(rows)
            assert det(m) == oracles.det(m)


def _flipped(dbl: DoubledAlgebra, flips) -> DoubledAlgebra:
    products = dict(dbl.products)
    for key, lab in flips:
        products[key] = {**products[key], lab: -products[key][lab]}
    return DoubledAlgebra(basis=dbl.basis, products=products, base=dbl.base)


def _check_flips(arr, flips):
    """Flip structure constants of the double; both verifiers must list the same pairs."""
    fake = _flipped(double(os_algebra(arr)), flips)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("plumbline.boundary_ring.double", lambda alg: fake)
        mp.setattr(oracles, "double", lambda alg: fake)
        report = verify_double_isomorphism(arr)
        expected = oracles.verify_double_isomorphism(arr)
    assert not report.ok
    assert len(report.mismatches) == len(expected.mismatches) > 0
    for got, want in zip(report.mismatches, expected.mismatches):
        assert got == want
    assert report.to_json() == expected.to_json()


class TestMutatedDouble:
    """Tampering on the doubling side, where the other verifier tests tamper the geometric side."""

    @pytest.mark.parametrize("key", sorted(double(os_algebra(load_fixture("two_triples"))).products))
    def test_every_constant_of_two_triples(self, key):
        arr = load_fixture("two_triples")
        lab = next(iter(double(os_algebra(arr)).products[key]))
        _check_flips(arr, [(key, lab)])

    @settings(max_examples=40, deadline=None)
    @given(arrangements, st.data())
    def test_random(self, arr, data):
        # Several flips put mismatches in several degree blocks, which
        # exercises the order of the mismatch list across blocks.
        dbl = double(os_algebra(arr))
        keys = data.draw(st.lists(st.sampled_from(sorted(dbl.products)), min_size=1, max_size=4, unique=True))
        flips = [(key, data.draw(st.sampled_from(sorted(dbl.products[key])))) for key in keys]
        _check_flips(arr, flips)
