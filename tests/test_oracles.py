"""The package's fast paths against the oracles of ``oracles.py``, which say what each one is independent of.

Inputs: the fixtures; random arrangements of 3-12 lines (``arrangements``), 3-30 (``wide_arrangements``, for the
oracles linear in the products), 3-10 (``small_arrangements``, resonance) and 10-16 (where label and position order
differ); every arrangement of 3-6 lines with the Fano plane (``census_and_fano``); random matrices and weighted graphs.
Results must be identical; "order too" means products and each vector in one insertion order, which ``_mu`` and
every ``to_json`` read. One entry per concept, with the kept oracles and the tests:

- Smith form, determinant: ``snf`` and ``det`` on random matrices. ``TestSnfMatchesOracle``, ``TestDetMatchesOracle``.
- Cokernel: ``cokernel``, dense and sparse, against ``cokernel_exact_sets`` and the Smith-form ``cokernel``, on random
  matrices and every plumbing matrix. ``TestCokernelMatchesSmithForm``, ``test_plumbing_cokernel_*``.
- Plumbing: the incidence graph, the dense plumbing matrix and the three row builders, on arrangements and on graphs
  with any weights. ``test_incidence_graph_*``, ``test_plumbing_matrix_*``, ``test_plumbing_rows_*``.
- Orlik-Solomon algebra and intersection ring: the label-keyed ``os_algebra`` and ``intersection_ring``, order too.
  ``test_product_order_*``; ``intersection_ring_by_index`` answers every product and pairing query alike,
  ``test_index_ring_*``.
- Double: the triple-loop ``double``, and ``eager_double`` order too (the view stores only its base).
  ``test_double_*``, ``test_double_view_*``, ``test_double_of_a_non_canonical_product``.
- Cohomology ring: the dense ``cohomology_ring``; ``cohomology_of_by_index`` order too, and the ring's vectors are
  the same objects. ``test_cohomology_ring_*``, ``test_shared_vectors_*``, ``test_one_table_*``.
- Ring check: ``verify_double_isomorphism``, and ``compare`` and ``compare_by_permutation`` (the same mismatches,
  the 1 x 2 pairs in the package's order) also on rings with one product dropped, changed or added, or constants
  of the double flipped. ``test_verify_*``, ``test_compare_*``, ``test_permutation_path_*``, ``TestMutatedDouble``.
- Resonance: Betti numbers three ways (sparse, the dense witness and block rank, the label-keyed dense ranks) at
  integer, rational, a = 0, b = 0, generic and local-component points, and on an algebra that is not Orlik-Solomon;
  the floor, scaling, duality and the one generic walk. ``TestResonanceMatchesOracle``, ``TestSparseBlocks``,
  ``TestBlockRank``, ``TestScalingLemma``, ``TestBettiFloor``, ``TestPoincareDuality``, ``TestOneGenericWalk``;
  ``TestRankModP`` and ``TestLeftKernel`` test the dense witness's own parts.
- Output: the CLI's writer against ``json.dumps`` of random trees, the product lists and every command's stdout.
  ``TestJsonWriter``, ``test_scalar_lists_*``, ``TestProductListWriter``, ``TestStdoutMatchesOracle``,
  ``test_homology_stdout_*``.
- Records: each record class behaves as its frozen dataclass twin. ``test_dataclass_twin_*``.
- ``--point``: the reader against the regex reader, the same point or the same error. ``TestPointReader``.

``test_every_oracle_is_read`` fails on a definition in ``oracles.py`` that no test reads.
"""
import ast
import json
import random
import tempfile
from unittest import mock
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from census import census, census_and_fano
from plumbline import (
    AomotoPoint,
    ArrangementClass,
    InternalContradiction,
    aomoto_complex,
    beta,
    betti_numbers,
    classify,
    cohomology_ring,
    double,
    from_json,
    generic_betti,
    intersection_ring,
    os_algebra,
    sample_point,
    trial_seed,
    verify_double_isomorphism,
)
from plumbline import arrangement, boundary_ring, cli, exact_linalg, resonance
from plumbline.arrangement import nbc_set
from plumbline.cli import random_arrangement
from plumbline.exact_linalg import IntMatrix, RatMatrix, SparseIntMatrix, cokernel, det, echelon, rank, snf
from plumbline.os_algebra import DoubledAlgebra, GradedAlgebra, ProductList
from plumbline.plumbing import PlumbingGraph, h1_boundary, h1_plumbed, incidence_graph, plumbing_matrix

from conftest import ALL_FIXTURES, load_fixture
import test_exact_linalg
from test_exact_linalg import fraction_rank


def _json_text(doc) -> str:
    """The whole text that ``cli._emit`` writes of ``doc`` as JSON."""
    out = cli._Text()
    cli._write(doc, "\n", out)
    return "".join(out) + "\n"


arrangements = st.builds(
    lambda seed, lines, density: random_arrangement(random.Random(seed), lines, density),
    st.integers(0, 2**32 - 1),
    st.integers(3, 12),
    st.floats(0.0, 1.0),
)


# Random arrangements of 3-30 lines, for the oracles that are
# linear in the products; the triple-loop double stays on 3-12.
wide_arrangements = st.builds(
    lambda seed, lines, density: random_arrangement(random.Random(seed), lines, density),
    st.integers(0, 2**32 - 1),
    st.integers(3, 30),
    st.floats(0.0, 1.0),
)


def fixture_and_random(test, strategy=arrangements):
    """Run ``test(arr)`` on every fixture, then on random arrangements."""

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def on_fixture(name):
        test(load_fixture(name))

    @settings(max_examples=60, deadline=None)
    @given(strategy)
    def on_random(arr):
        test(arr)

    return on_fixture, on_random


def _same_double(arr):
    alg = os_algebra(arr)
    new, old = double(alg), oracles.double(oracles.relabel(alg))
    assert oracles.relabel(new) == old
    assert new.to_json() == old.to_json()


def _same_view(arr):
    # The double built on first read from its base is the one that was built
    # whole when it was made, with each vector in the same insertion order.
    alg = os_algebra(arr)
    view, eager = double(alg), oracles.eager_double(alg)
    assert vars(view).keys() == {"base"}
    assert view.basis == eager.basis
    assert [(k, list(v.items())) for k, v in view.products.items()] == [
        (k, list(v.items())) for k, v in eager.products.items()
    ]


def _same_items(new, old):
    """``relabel(new)`` is ``old``, with the products and each vector in
    ``old``'s insertion order, which ``_mu`` and every ``to_json`` read."""
    got = oracles.relabel(new)
    assert got == old
    assert [(k, list(v.items())) for k, v in got.products.items()] == [
        (k, list(v.items())) for k, v in old.products.items()
    ]
    assert new.to_json() == old.to_json()


def _same_product_order(arr):
    # The double's order is checked against eager_double (_same_view) and the
    # cohomology ring's against cohomology_of_by_index (_cohomology_shares_the_ring_vectors).
    _same_items(os_algebra(arr), oracles.os_algebra(arr))
    _same_items(intersection_ring(arr), oracles.intersection_ring(arr))


def _same_compare(arr):
    coh, dbl = cohomology_ring(arr), double(os_algebra(arr))
    new = boundary_ring._compare(coh, dbl)
    assert new == oracles.compare(oracles.relabel(coh), oracles.relabel(dbl))
    assert new.ok


def _t_first(coh: GradedAlgebra, n: int) -> GradedAlgebra:
    """The package's cohomology ring, by flat position, in the order that
    ``oracles.compare_by_permutation`` reads: degree two rotated right by n, PD(t)
    before PD(g). H_1 index z moves from 1 + h + (z - n) % h to 1 + h + z."""
    h = coh.rank(1)
    old = list(range(2 * h + 2))  # package position -> oracle position
    for z in range(h):
        old[1 + h + (z - n) % h] = 1 + h + z
    unit, deg1, deg2, top = coh.basis
    products = {(old[x], old[y]): {old[z]: c for z, c in vec.items()} for (x, y), vec in coh.products.items()}
    return GradedAlgebra((unit, deg1, deg2[h - n:] + deg2[: h - n], top), products)


def _in_package_order(mismatches, coh: GradedAlgebra) -> tuple:
    """``mismatches`` in the order the package lists them: by the degrees,
    then the positions, of each pair's classes in ``coh``."""
    pos = coh._position
    return tuple(sorted(mismatches, key=lambda m: (pos[m[0]][0], pos[m[1]][0], pos[m[0]][1], pos[m[1]][1])))


def _same_cohomology_ring(arr):
    new = cohomology_ring(arr)
    old = oracles.in_double_order(oracles.cohomology_ring(oracles.intersection_ring(arr)), arr.n)
    assert oracles.relabel(new) == old
    assert new.to_json() == old.to_json()


def _same_report(arr):
    new, old = verify_double_isomorphism(arr), oracles.verify_double_isomorphism(arr)
    assert new == old
    assert new.to_json() == old.to_json()
    assert new.ok


def _same_incidence_graph(arr):
    new, old = incidence_graph(arr), oracles.plumbing_graph(arr)
    assert new.weights == old.weights
    assert sorted(new.edges) == list(old.edges)
    assert new.b1 == oracles.incidence_graph(arr).b1


def _same_sparse_plumbing_cokernel(arr):
    sparse = plumbing_matrix(incidence_graph(arr))
    assert cokernel(sparse) == cokernel(sparse.to_dense()) == oracles.cokernel_exact_sets(sparse) == (arr.n, ())


def _same_plumbing_cokernel(arr):
    # The sparse oracles, and the Smith form of the dense matrix, which is
    # cubic in pure Python and so runs only up to 12 lines.
    _same_sparse_plumbing_cokernel(arr)
    dense = plumbing_matrix(incidence_graph(arr)).to_dense()
    assert cokernel(dense) == oracles.cokernel(dense)


def _same_plumbing_matrix(arr):
    g = incidence_graph(arr)
    m = plumbing_matrix(g).to_dense()
    assert m == oracles.plumbing_matrix(g)
    assert json.loads(_json_text(h1_boundary(arr).graph)) == [str(x) for x in m.entries]


def _homology_stdout_is_oracle(arr):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arrangement.json"
        path.write_text(json.dumps(arrangement.to_json(arr)))
        result = CliRunner().invoke(cli.main, ["homology", str(path)])
    assert result.exit_code == 0
    assert result.stdout_bytes == (oracles.homology_json(arr) + "\n").encode()


test_double_fixture, test_double_random = fixture_and_random(_same_double)
test_double_view_fixture, test_double_view_random = fixture_and_random(_same_view, wide_arrangements)
test_cohomology_ring_fixture, test_cohomology_ring_random = fixture_and_random(_same_cohomology_ring)
test_verify_fixture, test_verify_random = fixture_and_random(_same_report)
test_incidence_graph_fixture, test_incidence_graph_random = fixture_and_random(_same_incidence_graph)
test_plumbing_cokernel_fixture, test_plumbing_cokernel_random = fixture_and_random(_same_plumbing_cokernel)
_, test_plumbing_cokernel_wide_random = fixture_and_random(_same_sparse_plumbing_cokernel, wide_arrangements)
test_plumbing_matrix_fixture, test_plumbing_matrix_random = fixture_and_random(_same_plumbing_matrix)
test_homology_stdout_fixture, test_homology_stdout_random = fixture_and_random(_homology_stdout_is_oracle)
test_product_order_fixture, test_product_order_random = fixture_and_random(_same_product_order, wide_arrangements)
test_compare_fixture, test_compare_random = fixture_and_random(_same_compare, wide_arrangements)


@pytest.mark.parametrize("v", range(3, 7))
def test_incidence_graph_census(v):
    for arr in census(v):
        _same_incidence_graph(arr)


def test_plumbing_cokernel_census_and_fano():
    for arr in census_and_fano():
        _same_plumbing_cokernel(arr)


def test_double_view_census_and_fano():
    for arr in census_and_fano():
        _same_view(arr)
        _same_double(arr)


@pytest.mark.parametrize("v", range(3, 7))
def test_product_order_census(v):
    for arr in census(v):
        _same_product_order(arr)


@st.composite
def tampered_rings(draw):
    """An arrangement's cohomology ring and double, with one stored product
    on one side dropped, changed or added. Added keys and vector positions
    are drawn from the whole basis as well as from degree one, so that empty,
    zero-coefficient, non-canonical and out-of-degree entries all occur."""
    arr = draw(arrangements)
    coh, dbl = cohomology_ring(arr), double(os_algebra(arr))
    side = draw(st.sampled_from(["cohomology", "double"]))
    alg = coh if side == "cohomology" else dbl
    labels = st.integers(0, len(sum(alg.basis, ())) - 1)
    deg1 = st.integers(1, alg.rank(1))
    products = dict(alg.products)
    action = draw(st.sampled_from(["drop", "change", "add"]))
    if action == "add":
        key = (draw(deg1 | labels), draw(deg1 | labels))
        products[key] = draw(st.dictionaries(labels, st.integers(-2, 2), max_size=3))
    else:
        key = draw(st.sampled_from(sorted(products)))
        if action == "drop":
            del products[key]
        else:
            products[key] = {**products[key], draw(labels): draw(st.integers(-2, 2))}
    if side == "cohomology":
        coh = GradedAlgebra(coh.basis, products)
    else:
        dbl = oracles.double_with_products(dbl, products)
    return coh, dbl


@settings(max_examples=300, deadline=None)
@given(tampered_rings())
def test_compare_tampered(rings):
    coh, dbl = rings
    old_coh, old_dbl = oracles.relabel(coh), oracles.relabel(dbl)
    new, old = boundary_ring._compare(coh, dbl), oracles.compare(old_coh, old_dbl)
    assert new.ok == old.ok
    assert new.mismatches == old.mismatches  # order included
    assert new.to_json() == old.to_json()


def test_compare_tampered_examples(two_triples):
    # One product dropped, one sign flipped and one product added on the
    # cohomology side: each mismatch is listed in both orders.
    coh, dbl = cohomology_ring(two_triples), double(os_algebra(two_triples))
    pos = {lab: p for p, lab in enumerate(sum(coh.basis, ()))}
    products = dict(coh.products)
    del products[(pos["~t1"], pos["~t2"])]
    products[(pos["~t2"], pos["~g(1,2)"])] = {pos["~F1"]: -1, pos["~F3"]: 1}
    products[(pos["~t3"], pos["~F1"])] = {pos["pt"]: 2}
    new = boundary_ring._compare(GradedAlgebra(coh.basis, products), dbl)
    assert new == oracles.compare(oracles.relabel(GradedAlgebra(coh.basis, products)), oracles.relabel(dbl))
    assert [(x, y) for x, y, _, _ in new.mismatches] == [
        ("~t1", "~t2"), ("~t2", "~t1"), ("~t2", "~g(1,2)"), ("~g(1,2)", "~t2"),
        ("~t3", "~F1"), ("~F1", "~t3"),
    ]
    assert new.mismatches[1][2:] == ({}, {"f(1,2)": -1})
    assert new.mismatches[3][2:] == ({"~e1": 1, "~e3": -1}, {"~e1": -1, "~e3": -1})
    assert new.mismatches[5][2:] == ({"~1": 2}, {})


def test_compare_ignores_products_past_the_top_degree(two_triples):
    # A stored degree 1 x 3 product is never read, on either side.
    coh, dbl = cohomology_ring(two_triples), double(os_algebra(two_triples))
    top = len(sum(coh.basis, ())) - 1
    extra = {(1, top): {top: 1}}
    for fake_coh, fake_dbl in (
        (GradedAlgebra(coh.basis, {**coh.products, **extra}), dbl),
        (coh, oracles.double_with_products(dbl, {**dbl.products, **extra})),
    ):
        new = boundary_ring._compare(fake_coh, fake_dbl)
        assert new.ok
        assert new == oracles.compare(oracles.relabel(fake_coh), oracles.relabel(fake_dbl))


def _same_as_permutation_path(coh, dbl):
    """The ring check on the shared basis order against the one it replaced,
    which read the cohomology ring in its old order through a permutation:
    the same ``ok`` and the same mismatches. Only the 1 x 2 pairs may come in
    another order, that of the new degree-two basis; 1 x 1 pairs keep theirs."""
    n = dbl.base.rank(1)
    new, old = boundary_ring._compare(coh, dbl), oracles.compare_by_permutation(_t_first(coh, n), dbl)
    assert new.ok == old.ok
    assert new.mismatches == _in_package_order(old.mismatches, coh)
    deg1 = set(coh.basis[1])
    assert [m for m in new.mismatches if {m[0], m[1]} <= deg1] == [m for m in old.mismatches if {m[0], m[1]} <= deg1]
    return new


def _same_as_permutation_path_on(arr):
    assert _same_as_permutation_path(cohomology_ring(arr), double(os_algebra(arr))).ok


def _one_table(arr):
    # The two rings list their bases in one order, so the geometric tables and
    # the doubling construction give one table, position for position.
    assert cohomology_ring(arr).products == double(os_algebra(arr)).products


test_permutation_path_fixture, test_permutation_path_random = fixture_and_random(
    _same_as_permutation_path_on, wide_arrangements
)
test_one_table_fixture, test_one_table_random = fixture_and_random(_one_table, wide_arrangements)


def test_permutation_path_and_one_table_census_and_fano():
    for arr in census_and_fano():
        _same_as_permutation_path_on(arr)
        _one_table(arr)


def _answer(query, *args):
    """What ``query(*args)`` returns, or the arguments of the KeyError it raises."""
    try:
        return query(*args)
    except KeyError as exc:
        return KeyError, exc.args


def _same_as_index_ring(arr):
    """The intersection ring on one flat basis against the one with separate
    H_2 and H_1 index spaces that it replaced: the same label-keyed ring and
    JSON, and the same answer (or KeyError) to every product and pairing
    query."""
    new, old = intersection_ring(arr), oracles.intersection_ring_by_index(arr)
    _same_items(new, oracles.relabel(old))
    assert new.to_json() == old.to_json()
    h1, h2 = old.h1_labels, old.h2_labels
    assert (new.h1_labels, new.h2_labels) == (h1, h2)
    for x in h2:
        for y in h2:
            assert new.product(x, y) == old.product(x, y)
    for x in h1:
        for y in h2:
            assert new.pairing(x, y) == old.pairing(x, y)
    probe = (h2[0], h2[-1], h1[0], h1[-1], "M", "1", "nope")
    for x in probe:
        for y in probe:
            assert _answer(new.product, x, y) == _answer(old.product, x, y)
            assert _answer(new.pairing, x, y) == _answer(old.pairing, x, y)


def _cohomology_shares_the_ring_vectors(arr):
    # Each class of the intersection ring sits at its dual's position, so the
    # cohomology ring keeps every intersection vector, the same object, and
    # adds only the h pairings into the top class. Its basis, products and
    # vectors are those of the ring that rewrote each vector through a list
    # of dual positions, in one insertion order.
    ring = intersection_ring(arr)
    coh = boundary_ring._cohomology_of(ring)
    old = oracles.cohomology_of_by_index(oracles.intersection_ring_by_index(arr), arr.n)
    assert coh.basis == old.basis
    assert [(k, list(v.items())) for k, v in coh.products.items()] == [
        (k, list(v.items())) for k, v in old.products.items()
    ]
    assert all(coh.products[key] is vec for key, vec in ring.products.items())
    h = ring.rank(1)
    added = [coh.products[key] for key in coh.products.keys() - ring.products.keys()]
    assert len(added) == h
    assert all(vec == {2 * h + 1: 1} for vec in added)


test_index_ring_fixture, test_index_ring_random = fixture_and_random(_same_as_index_ring)
test_shared_vectors_fixture, test_shared_vectors_random = fixture_and_random(
    _cohomology_shares_the_ring_vectors, wide_arrangements
)


def test_index_ring_and_shared_vectors_census_and_fano():
    for arr in census_and_fano():
        _same_as_index_ring(arr)
        _cohomology_shares_the_ring_vectors(arr)


@settings(max_examples=300, deadline=None)
@given(tampered_rings())
def test_permutation_path_tampered(rings):
    _same_as_permutation_path(*rings)


def test_double_of_a_non_canonical_product():
    # basis_product never reads a pair stored in non-canonical order, so the
    # double copies it and derives no dual products from it.
    alg = GradedAlgebra((("1",), ("x1", "x2"), ("z1",)), {(2, 1): {3: 1}})
    assert oracles.relabel(double(alg)) == oracles.double(oracles.relabel(alg))


@st.composite
def weighted_graphs(draw):
    """Connected graphs on 1-7 vertices: a random spanning tree plus random
    extra edges, with weights -3..2, so that both torsion (weight -2, as in
    a lens space) and a free part (weight 0, as in S1 x S2) appear."""
    nv = draw(st.integers(1, 7))
    weights = tuple(draw(st.lists(st.integers(-3, 2), min_size=nv, max_size=nv)))
    edges = {(draw(st.integers(0, j - 1)), j) for j in range(1, nv)}
    pairs = [(i, j) for j in range(nv) for i in range(j)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=nv)))
    return PlumbingGraph(weights, tuple(sorted(edges)))


@settings(max_examples=300, deadline=None)
@given(weighted_graphs())
def test_plumbing_cokernel_weighted_graphs(g):
    sparse = plumbing_matrix(g)
    dense = sparse.to_dense()
    assert dense == oracles.plumbing_matrix(g)
    assert cokernel(sparse) == cokernel(dense) == oracles.cokernel_exact_sets(sparse) == oracles.cokernel(dense)
    res = h1_plumbed(g)
    assert (res.coker_free_rank, res.torsion) == cokernel(dense)


# The one row form, PlumbingGraph.nonzeros, against the three builders it replaced.


@st.composite
def any_weighted_graphs(draw):
    """Graphs on 0-30 vertices, connected or not, with isolated vertices,
    weights of either sign or zero and the edges in drawn, unsorted order."""
    nv = draw(st.integers(0, 30))
    weight = st.integers(-3, 3) | st.integers(-(10**20), 10**20)
    weights = tuple(draw(st.lists(weight, min_size=nv, max_size=nv)))
    pairs = [(i, j) for j in range(nv) for i in range(j)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * nv)) if pairs else []
    return PlumbingGraph(weights, tuple(draw(st.permutations(edges))))


def _same_rows(g):
    assert plumbing_matrix(g) == oracles.plumbing_matrix_sorted_rows(g)
    assert g.n_components == oracles.n_components_by_adjacency(g)
    for block in (cli.BLOCK, 200):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "BLOCK", block)
            new, old = cli._Text(), cli._Text()
            cli._write_entries(g, "\n    ", new)
            oracles.write_entries_from_edges(g, "\n    ", old)
        assert list(new) == list(old)  # the same text, cut into the same blocks


@settings(max_examples=200, deadline=None)
@given(any_weighted_graphs())
@example(PlumbingGraph((), ()))
@example(PlumbingGraph((0,), ()))
@example(PlumbingGraph((0, 5, 0, -1), ((1, 2),)))
@example(PlumbingGraph((1, -2, 0), ((1, 2), (0, 2), (0, 1))))
def test_plumbing_rows_match_old_builders(g):
    _same_rows(g)


test_plumbing_rows_fixture, test_plumbing_rows_random = fixture_and_random(lambda arr: _same_rows(incidence_graph(arr)))


def test_plumbing_rows_census_and_fano():
    for arr in census_and_fano():
        _same_rows(incidence_graph(arr))


def test_plumbing_cokernel_torsion_and_free_part():
    # A triangle of -2 vertices: coker is Z plus Z/3, and the cycle adds b1 = 1.
    mixed = PlumbingGraph((-2, -2, -2), ((0, 1), (0, 2), (1, 2)))
    assert cokernel(plumbing_matrix(mixed)) == oracles.cokernel(oracles.plumbing_matrix(mixed)) == (1, (3,))
    res = h1_plumbed(mixed)
    assert (res.free_rank, res.torsion) == (2, (3,))


@st.composite
def int_matrices(draw, values, size=7):
    """Matrices of 0-size rows and 0-size columns, zero dimensions included."""
    nr = draw(st.integers(0, size))
    nc = draw(st.integers(0, size))
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


def _same_cokernel(m: IntMatrix):
    """``cokernel`` of ``m``, the same read as a ``SparseIntMatrix``, from the
    exact-set pass and from the Smith form."""
    nonzeros = tuple(tuple((j, x) for j, x in enumerate(m.row(i)) if x) for i in range(m.rows))
    got = cokernel(m)
    assert got == cokernel(SparseIntMatrix(m.rows, m.cols, nonzeros))
    assert got == oracles.cokernel_exact_sets(m) == oracles.cokernel(m)
    return got


class TestCokernelMatchesSmithForm:
    # The append-only elimination against the exact-set one it replaced and
    # the Smith form, on the dense matrix and on its sparse form.
    @settings(max_examples=300, deadline=None)
    @given(int_matrices(st.integers(-5, 5)))
    def test_random(self, m):
        _same_cokernel(m)

    @settings(max_examples=200, deadline=None)
    @given(int_matrices(st.sampled_from([0, 0, 2, -2, 3, -4, 6, 9])))
    def test_no_unit_entry(self, m):
        _same_cokernel(m)

    @settings(max_examples=200, deadline=None)
    @given(int_matrices(st.sampled_from([0, 0, 0, 1, -1, 2])))
    def test_sparse_units(self, m):
        _same_cokernel(m)

    @settings(max_examples=200, deadline=None)
    @given(torsion_matrices())
    def test_with_torsion(self, m):
        _same_cokernel(m)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty(self, shape):
        assert _same_cokernel(IntMatrix.zeros(*shape)) == (shape[0], ())

    def test_torsion_behind_units(self):
        assert _same_cokernel(IntMatrix.from_rows([[1, 1, 0], [1, 3, 0], [0, 0, 6]])) == (0, (2, 6))


_BIG = st.integers(-(10**6), 10**6)
_ZERO = st.just(0)


class TestSnfMatchesOracle:
    # The one-loop Smith form against the one that ran each stage through
    # four helpers: the same diagonal, and its own U and V unimodular with
    # U @ m @ V = S, on dense matrices and on ones about three quarters zero.
    @settings(max_examples=300, deadline=None)
    @given(int_matrices(_BIG, size=8) | int_matrices(_BIG | _ZERO | _ZERO | _ZERO, size=8))
    @example(IntMatrix(0, 0, ()))
    @example(IntMatrix.from_rows([[2, 0], [0, 3]]))
    def test_random(self, m):
        for a in (m, m.transpose()):
            res = snf(a)
            assert res.s == oracles.snf(a).s
            assert res.u @ a @ res.v == res.s
            assert abs(det(res.u)) == abs(det(res.v)) == 1


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
    return oracles.double_with_products(dbl, products)


def _check_flips(arr, flips):
    """Flip structure constants of the double; both verifiers must list the same pairs."""
    fake = _flipped(double(os_algebra(arr)), flips)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("plumbline.boundary_ring.double", lambda alg: fake)
        mp.setattr(oracles, "double", lambda alg: oracles.relabel(fake))
        report = verify_double_isomorphism(arr)
        expected = oracles.verify_double_isomorphism(arr)
    # The oracle lists pairs in its basis order, PD(t) before PD(g) in degree two.
    want = _in_package_order(expected.mismatches, cohomology_ring(arr))
    assert not report.ok
    assert len(report.mismatches) == len(want) > 0
    for got, mismatch in zip(report.mismatches, want):
        assert got == mismatch
    assert report.to_json() == boundary_ring.IsomorphismReport(ok=False, mismatches=want).to_json()


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


# Resonance: the proved floor and the rank witness against dense ranks.

small_arrangements = st.builds(
    lambda seed, lines, density: random_arrangement(random.Random(seed), lines, density),
    st.integers(0, 2**32 - 1),
    st.integers(3, 10),
    st.floats(0.0, 1.0),
)


def _points(arr, dbl, rng: random.Random) -> list[AomotoPoint]:
    """Integer, rational, a = 0 and zero points, plus points whose a is
    supported on the lines of one multiple point (zero sum when the point
    avoids line 0), where the complex can be resonant."""
    r1, r2 = dbl.base.rank(1), dbl.base.rank(2)

    def ints(m):
        return [rng.randint(-9, 9) for _ in range(m)]

    def rats(m):
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(m)]

    pts = [
        oracles.exact_point(ints(r1), ints(r2)),
        oracles.exact_point(rats(r1), rats(r2)),
        oracles.exact_point([0] * r1, ints(r2)),
        oracles.exact_point([0] * r1, [0] * r2),
    ]
    multiple = [p for p in arr.points if len(p) >= 3]
    if multiple:
        point = rng.choice(multiple)
        lines = [i for i in point if i != 0]
        a = [0] * r1
        for i in lines:
            a[i - 1] = rng.randint(1, 9) * rng.choice([-1, 1])
        if 0 not in point:
            a[lines[-1] - 1] -= sum(a[i - 1] for i in lines)
        pts += [oracles.exact_point(a, [0] * r2), oracles.exact_point(a, ints(r2))]
    return pts


def _same_resonance(arr, seed: int = 0):
    dbl = double(os_algebra(arr))
    old_dbl = oracles.relabel(dbl)
    for pt in _points(arr, dbl, random.Random(seed)):
        new, old = aomoto_complex(dbl, pt), oracles.aomoto_complex(old_dbl, pt)
        assert new.delta == oracles.delta_matrix(old_dbl.base, pt.a)
        assert new.phi == oracles.phi_matrix(old_dbl.base, pt.b)
        for d in ("d1", "d2", "d3"):
            assert getattr(new, d).to_rows() == getattr(old, d).to_rows(), d
        assert betti_numbers(dbl, pt) == oracles.betti_numbers(old_dbl, pt), pt


def _same_generic_betti(arr, seeds=range(4), trials=range(1, 6)):
    """generic_betti is the floor whatever the seed and trials; the sampled
    minimum of the oracle is never below it, and at the defaults equals it."""
    dbl = double(os_algebra(arr))
    old_dbl = oracles.relabel(dbl)
    floor = resonance._betti_floor(dbl.base)
    for k in range(4):
        for seed in seeds:
            for t in trials:
                got = generic_betti(dbl, k, trials=t, seed=seed)
                assert got == floor[k], (k, seed, t)
                assert oracles.generic_betti(old_dbl, k, trials=t, seed=seed) >= got, (k, seed, t)
        assert oracles.generic_betti(old_dbl, k, trials=5, seed=0) == floor[k], k


class TestResonanceMatchesOracle:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    @pytest.mark.parametrize("seed", range(3))
    def test_fixture_points(self, name, seed):
        _same_resonance(load_fixture(name), seed)

    @settings(max_examples=60, deadline=None)
    @given(small_arrangements, st.integers(0, 2**32 - 1))
    def test_random_points(self, arr, seed):
        _same_resonance(arr, seed)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixture_generic_betti(self, name):
        _same_generic_betti(load_fixture(name))

    @settings(max_examples=30, deadline=None)
    @given(small_arrangements, st.integers(0, 3), st.integers(1, 5))
    def test_random_generic_betti(self, arr, seed, trials):
        _same_generic_betti(arr, seeds=[seed], trials=[trials])


def _witness(certifies: bool, exact_calls: list | None = None):
    """``echelon`` with its elimination modulo a prime, the witness of
    ``betti_numbers``, replaced by one that always or never reaches its stop;
    exact eliminations run as they are, recorded in ``exact_calls``."""

    def fake(vectors, p=0, stop=None):
        if p:
            return (stop if certifies else -1), []
        vectors = list(vectors)
        if exact_calls is not None:
            exact_calls.append(vectors)
        return echelon(vectors, p, stop)

    return fake


class TestWitnessTeeth:
    """The witness carries the proof: break it and the oracle must notice."""

    def test_always_certifying_witness_is_caught(self, monkeypatch):
        arr = load_fixture("two_triples")
        dbl = double(os_algebra(arr))
        # e1 - e2 lies on the local component of the triple point {1, 2, 3}.
        pt = oracles.exact_point([1, -1, 0, 0], [0, 0, 0, 0])
        assert betti_numbers(dbl, pt) == oracles.betti_numbers(oracles.relabel(dbl), pt) == (0, 3, 3, 0)
        monkeypatch.setattr("plumbline.resonance.echelon", _witness(True))
        assert betti_numbers(dbl, pt) == (0, 1, 1, 0)
        with pytest.raises(AssertionError):
            _same_resonance(arr)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_never_certifying_witness_falls_back(self, name, monkeypatch):
        arr = load_fixture(name)
        ranked = []
        monkeypatch.setattr("plumbline.resonance.echelon", _witness(False, ranked))
        _same_resonance(arr)
        _same_generic_betti(arr, seeds=[0], trials=[1, 5])
        assert ranked


def _block_rank_points(arr, dbl, rng: random.Random) -> list[AomotoPoint]:
    """Rational points where the witness cannot certify: a = 0, b = 0, and a
    on the local components of one or two multiple points with random b."""
    r1, r2 = dbl.base.rank(1), dbl.base.rank(2)

    def rats(m):
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(m)]

    def local(point):
        lines = [i for i in point if i != 0]
        a = [Fraction(0)] * r1
        for i, x in zip(lines, rats(len(lines))):
            a[i - 1] = x
        if 0 not in point:
            a[lines[-1] - 1] -= sum(a[i - 1] for i in lines)
        return a

    pts = [oracles.exact_point([0] * r1, rats(r2)), oracles.exact_point(rats(r1), [0] * r2)]
    multiple = [p for p in arr.points if len(p) >= 3]
    for k in (1, 2)[: len(multiple)]:
        a = [sum(xs) for xs in zip(*(local(p) for p in rng.sample(multiple, k)))]
        pts.append(oracles.exact_point(a, rats(r2)))
    return pts


def _block_rank_matches(arr, seed: int, witness: bool):
    dbl = double(os_algebra(arr))
    old_dbl = oracles.relabel(dbl)
    with pytest.MonkeyPatch.context() as mp:
        if not witness:
            mp.setattr(resonance, "echelon", _witness(False))
        for pt in _block_rank_points(arr, dbl, random.Random(seed)):
            assert betti_numbers(dbl, pt) == oracles.betti_numbers(old_dbl, pt), pt


# x1 x2 = z1 and x3 x4 = z2 are the only products: not an Orlik-Solomon algebra.
NON_ISOTROPIC = GradedAlgebra((("1",), ("x1", "x2", "x3", "x4"), ("z1", "z2")), {(1, 2): {5: 1}, (3, 4): {6: 1}})


class TestBlockRank:
    """rank d2 = 2 rank Delta(a) + rank(K Phi(b) K^T) against the dense rank,
    with the witness as it is and with one that never certifies."""

    @pytest.mark.parametrize("witness", [True, False], ids=["witness", "no-witness"])
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixtures(self, name, witness):
        for seed in range(3):
            _block_rank_matches(load_fixture(name), seed, witness)

    @pytest.mark.parametrize("witness", [True, False], ids=["witness", "no-witness"])
    @settings(max_examples=40, deadline=None)
    @given(arr=small_arrangements, seed=st.integers(0, 2**32 - 1))
    def test_random(self, witness, arr, seed):
        _block_rank_matches(arr, seed, witness)

    def test_restricted_term_of_a_non_isotropic_algebra(self):
        # x1 x2 = z1 and x3 x4 = z2 are the only products. At a = x1, Delta(a)
        # has rank 1 and left kernel <x1, x3, x4>, on which b = z2* pairs x3
        # with x4: K Phi K^T has rank 2, so rank d2 = 2 + 2 and b1 = 6 - 1 - 4.
        dbl = double(NON_ISOTROPIC)
        pt = oracles.exact_point([1, 0, 0, 0], [0, 1])
        cx = aomoto_complex(dbl, AomotoPoint((1, 0, 0, 0), (0, 1)))
        s, kernel = oracles.left_kernel(cx.delta)
        assert s == 1
        # The integer Phi that the dense block rank builds; IntMatrix refuses Fraction entries.
        assert rank(oracles._restricted_phi(cx.phi, kernel)) == 2
        # The sparse path: Delta(a) by its rows, tagged by index, then the rows of K Phi K^T.
        rows = [{~j: 1, **{k: col[j] for k, col in enumerate(cx.columns) if col.get(j)}} for j in range(4)]
        s, kernel = echelon(rows)
        assert s == 1 and len(kernel) == 3
        assert echelon(resonance._restricted_phi(cx.phi_rows, kernel))[0] == 2
        assert betti_numbers(dbl, pt) == oracles.block_betti_numbers(dbl, pt) == (0, 1, 1, 0)
        assert oracles.betti_numbers(oracles.relabel(dbl), pt) == (0, 1, 1, 0)


def _every_kind(arr, dbl, rng: random.Random) -> list[AomotoPoint]:
    """Integer, rational, a = 0, b = 0, zero and generic points, and points on
    the local components of one or two multiple points."""
    r1, r2 = dbl.base.rank(1), dbl.base.rank(2)
    generic = [oracles.exact_point([1] * r1, b) for b in ([0] * r2, [rng.randint(-9, 9) for _ in range(r2)])]
    return _points(arr, dbl, rng) + _block_rank_points(arr, dbl, rng) + generic


def _same_three_ways(dbl: DoubledAlgebra, points) -> None:
    """betti_numbers, the dense witness and block rank it replaced, and the
    label-keyed dense ranks agree at every point."""
    old_dbl = oracles.relabel(dbl)
    for pt in points:
        new = betti_numbers(dbl, pt)
        assert new == oracles.block_betti_numbers(dbl, pt) == oracles.betti_numbers(old_dbl, pt), pt


def _non_isotropic_points(dbl, rng: random.Random) -> list[AomotoPoint]:
    pts = [oracles.exact_point(a, b) for a in ([1, 0, 0, 0], [0, 0, 1, 1], [0] * 4, [1, 1, 1, 1])
           for b in ([0, 0], [0, 1], [1, 0], [2, -3])]
    return pts + [oracles.exact_point([rng.randint(-3, 3) for _ in range(4)], [rng.randint(-3, 3) for _ in range(2)])
                  for _ in range(20)]


class TestSparseBlocks:
    """Sparse elimination of Delta(a) and K Phi(b) K^T against the dense
    witness and block rank it replaced and against the label-keyed dense
    ranks, at every kind of point."""

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    @pytest.mark.parametrize("seed", range(3))
    def test_fixtures(self, name, seed):
        arr = load_fixture(name)
        dbl = double(os_algebra(arr))
        _same_three_ways(dbl, _every_kind(arr, dbl, random.Random(seed)))

    def test_census_and_fano(self):
        rng = random.Random(23)
        arrs = census_and_fano()
        for arr in arrs:
            dbl = double(os_algebra(arr))
            _same_three_ways(dbl, _every_kind(arr, dbl, rng))

    @settings(max_examples=60, deadline=None)
    @given(small_arrangements, st.integers(0, 2**32 - 1))
    def test_random(self, arr, seed):
        dbl = double(os_algebra(arr))
        _same_three_ways(dbl, _every_kind(arr, dbl, random.Random(seed)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_non_isotropic_algebra(self, seed):
        dbl = double(NON_ISOTROPIC)
        _same_three_ways(dbl, _non_isotropic_points(dbl, random.Random(seed)))

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_builds_no_dense_matrix(self, name, monkeypatch):
        arr = load_fixture(name)
        dbl = double(os_algebra(arr))
        points = _every_kind(arr, dbl, random.Random(5))
        want = [oracles.betti_numbers(oracles.relabel(dbl), pt) for pt in points]

        def refuse(*args, **kwargs):
            raise AssertionError("a dense matrix was built")

        for module in (resonance, exact_linalg):
            for attr in ("RatMatrix", "IntMatrix"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
        assert [betti_numbers(dbl, pt) for pt in points] == want

    def test_local_component_near_max_digits(self):
        # a on the triple point {1, 3, 5} of pappus_violating, which misses
        # line 0, with zero sum: the witness cannot certify, so the exact
        # eliminations run on entries of about a thousand digits.
        arr = load_fixture("pappus_violating")
        dbl = double(os_algebra(arr))
        r1, r2 = dbl.base.rank(1), dbl.base.rank(2)
        rng = random.Random(29)
        size = (cli.MAX_DIGITS - 2 * r2 - r1) // 8  # a[4] has about 4 size digits, a[0] and a[2] 2 size each
        big = [Fraction(rng.randrange(10 ** (size - 1), 10**size), rng.randrange(10 ** (size - 1), 10**size))
               for _ in range(2)]
        a = [Fraction(0)] * r1
        a[0], a[2], a[4] = big[0], big[1], -big[0] - big[1]
        b = [Fraction(rng.randint(-99, 99)) for _ in range(r2)]
        pt = AomotoPoint(tuple(a), tuple(b))
        doc = {"a": [str(x) for x in a], "b": [str(x) for x in b]}
        assert 0.9 * cli.MAX_DIGITS < sum(map(cli._digits, doc["a"] + doc["b"])) <= cli.MAX_DIGITS
        want = oracles.betti_numbers(oracles.relabel(dbl), pt)
        assert want[1] > resonance._betti_floor(dbl.base)[1]
        assert betti_numbers(dbl, pt) == oracles.block_betti_numbers(dbl, pt) == want
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pappus.json"
            path.write_text(json.dumps(arrangement.to_json(arr)))
            result = CliRunner().invoke(cli.main, ["resonance", "eval", str(path), "--point", json.dumps(doc)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == {"betti": list(want)}

    @pytest.mark.parametrize("idx,name", list(enumerate(ALL_FIXTURES)))
    def test_criterion_9_on_the_dense_views(self, idx, name):
        # The acceptance check reads d1, d2 and d3, which are now views of the
        # sparse blocks, built when first read and kept.
        dbl = double(os_algebra(load_fixture(name)))
        old_dbl = oracles.relabel(dbl)
        n = dbl.rank(1)
        for t in range(20):
            pt = sample_point(dbl, random.Random(trial_seed(90 + idx, t)))
            cx = aomoto_complex(dbl, pt)
            assert not {"delta", "phi", "d2"} & set(vars(cx))
            old = oracles.aomoto_complex(old_dbl, pt)
            for d in ("d1", "d2", "d3"):
                assert getattr(cx, d).to_rows() == getattr(old, d).to_rows(), d
            assert cx.delta == oracles.delta_matrix(old_dbl.base, pt.a)
            assert cx.phi == oracles.phi_matrix(old_dbl.base, pt.b)
            assert cx.d2 is cx.d2
            assert (cx.d1 @ cx.d2).is_zero() and (cx.d2 @ cx.d3).is_zero()
            r1_, r2_, r3_ = rank(cx.d1), rank(cx.d2), rank(cx.d3)
            b = (1 - r1_, n - r2_ - r1_, n - r3_ - r2_, 1 - r3_)
            assert min(b) >= 0 and b[0] - b[1] + b[2] - b[3] == 0
            assert b == betti_numbers(dbl, pt)


def _scaling_holds(arr, seed: int, x: Fraction, y: Fraction):
    dbl = double(os_algebra(arr))
    old_dbl = oracles.relabel(dbl)
    rng = random.Random(seed)
    for pt in _points(arr, dbl, rng) + _block_rank_points(arr, dbl, rng):
        scaled = AomotoPoint(tuple(x * c for c in pt.a), tuple(y * c for c in pt.b))
        assert betti_numbers(dbl, scaled) == oracles.betti_numbers(old_dbl, pt), (pt, x, y)


nonzero_rationals = st.fractions(-1000, 1000, max_denominator=1000).filter(bool)


class TestScalingLemma:
    """betti_numbers at (x a, y b) against the dense ranks at (a, b): clearing
    the denominators of a and of b changes no Betti number."""

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), x=nonzero_rationals, y=nonzero_rationals)
    def test_fixtures(self, name, seed, x, y):
        _scaling_holds(load_fixture(name), seed, x, y)

    @settings(max_examples=40, deadline=None)
    @given(small_arrangements, st.integers(0, 2**32 - 1), nonzero_rationals, nonzero_rationals)
    def test_random(self, arr, seed, x, y):
        _scaling_holds(arr, seed, x, y)


def _floor_holds(arr, seed: int):
    """No point is below the floor, and the generic point (1, ..., 1; b) is on
    it, by the lemma of the resonance docstring: the exact rank of
    Delta(1, ..., 1) is r1 - 1 off pencils, and r2 = 0 on pencils."""
    dbl = double(os_algebra(arr))
    old_dbl = oracles.relabel(dbl)
    floor = resonance._betti_floor(dbl.base)
    r1, r2 = dbl.base.rank(1), dbl.base.rank(2)
    pencil = classify(arr) is ArrangementClass.PENCIL
    want = r1 - 1 if pencil else beta(arr)
    assert floor == (0, want, want, 0)
    rng = random.Random(seed)
    for pt in _points(arr, dbl, rng):
        assert all(x >= f for x, f in zip(oracles.betti_numbers(old_dbl, pt), floor)), pt
    assert pencil == (r2 == 0)
    assert rank(oracles.delta_matrix(old_dbl.base, (1,) * r1)) == (0 if pencil else r1 - 1)
    for b in ([0] * r2, [rng.randint(-9, 9) for _ in range(r2)]):
        assert oracles.betti_numbers(old_dbl, oracles.exact_point([1] * r1, b)) == floor, b


class TestBettiFloor:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixtures(self, name):
        _floor_holds(load_fixture(name), 0)

    @settings(max_examples=40, deadline=None)
    @given(small_arrangements, st.integers(0, 2**32 - 1))
    def test_random(self, arr, seed):
        _floor_holds(arr, seed)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_one_point_and_no_draw(self, name, monkeypatch):
        dbl = double(os_algebra(load_fixture(name)))
        r1, r2 = dbl.base.rank(1), dbl.base.rank(2)
        calls = []
        real = resonance.betti_numbers
        monkeypatch.setattr(resonance, "betti_numbers", lambda dbl, pt: calls.append(pt) or real(dbl, pt))
        monkeypatch.setattr(resonance, "random", None)  # any draw through the module fails
        monkeypatch.setattr(resonance, "sample_point", None)
        for seed, trials in [(0, 1), (3, 5), (99, 2)]:
            calls.clear()
            assert generic_betti(dbl, 1, trials=trials, seed=seed) == resonance._betti_floor(dbl.base)[1]
            assert calls == [AomotoPoint((1,) * r1, (0,) * r2)]

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_off_floor_is_a_contradiction(self, name, monkeypatch):
        dbl = double(os_algebra(load_fixture(name)))
        above = tuple(x + y for x, y in zip(resonance._betti_floor(dbl.base), (0, 1, 1, 0)))
        monkeypatch.setattr("plumbline.resonance.betti_numbers", lambda dbl, pt: above)
        for k in range(4):
            with pytest.raises(InternalContradiction, match="off the floor"):
                generic_betti(dbl, k)

    def test_two_triples_certifies_at_trial_zero(self, monkeypatch):
        dbl = double(os_algebra(load_fixture("two_triples")))
        calls = []
        real = resonance.betti_numbers
        monkeypatch.setattr("plumbline.resonance.betti_numbers", lambda dbl, pt: calls.append(pt) or real(dbl, pt))
        assert [generic_betti(dbl, k, trials=5, seed=0) for k in range(4)] == [0, 1, 1, 0]
        assert len(calls) == 4


def _duality_holds(arr, seed: int, seeds=range(4), trials=range(1, 6)):
    """b_k = b_(3-k) at every point, and so for the generic values too."""
    dbl = double(os_algebra(arr))
    for pt in _points(arr, dbl, random.Random(seed)):
        b = betti_numbers(dbl, pt)
        assert b == b[::-1], pt
    for s in seeds:
        for t in trials:
            for k in range(2):
                assert generic_betti(dbl, k, trials=t, seed=s) == generic_betti(dbl, 3 - k, trials=t, seed=s), (k, s, t)


class TestPoincareDuality:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixtures(self, name):
        _duality_holds(load_fixture(name), 0)

    @settings(max_examples=30, deadline=None)
    @given(small_arrangements, st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(1, 5))
    def test_random(self, arr, seed, sample_seed, trials):
        _duality_holds(arr, seed, seeds=[sample_seed], trials=[trials])


def _one_walk_matches(arr, seeds=range(4), trials=range(1, 6)):
    """The CLI's single degree-one walk gives all four generic Betti numbers."""
    dbl = double(os_algebra(arr))
    for s in seeds:
        for t in trials:
            want = [generic_betti(dbl, k, trials=t, seed=s) for k in range(4)]
            assert cli._resonance_doc(arr, dbl, s, t)["betti"] == want, (s, t)


class TestOneGenericWalk:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixtures(self, name):
        _one_walk_matches(load_fixture(name))

    def test_two_lines(self):
        # N = 1, so a sample point is zero with probability 1/21. At seed 99
        # the first two are, where the sampled walk read [1, 1, 1, 1]; the
        # generic point is nonzero, and there every Betti number is 0.
        arr = from_json({"lines": 2, "points": []})
        _one_walk_matches(arr, seeds=[0, 1, 2, 3, 99])
        assert cli._resonance_doc(arr, double(os_algebra(arr)), 99, 2)["betti"] == [0, 0, 0, 0]

    @settings(max_examples=40, deadline=None)
    @given(small_arrangements, st.integers(0, 3), st.integers(1, 5))
    def test_random(self, arr, seed, trials):
        _one_walk_matches(arr, seeds=[seed], trials=[trials])


# The indent-2 JSON writer against the json.dumps call it replaced.

json_text = st.text() | st.text(alphabet='"\\/\x00\x08\x1f\x7fé \U0001f600 ab')
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**4300 - 1), 10**4300 - 1) | json_text,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(json_text, inner, max_size=4)
    ),
    max_leaves=30,
)


class TestJsonWriter:
    @settings(max_examples=500, deadline=None)
    @given(json_trees)
    def test_random_trees(self, doc):
        assert _json_text(doc) == oracles.emit_json(doc) + "\n"

    @pytest.mark.parametrize(
        "doc",
        [
            {}, [], (), "", 0,
            {"a": {}, "b": [[], (), [{}]], "c": ({"d": []},)},
            {"ok": True, "off": False, "none": None, "one": 1, "zero": 0},
            [True, 1, False, 0, None],
            {'"\\\x00\x1fé\U0001f600': 'q"\\\n\t '},
            [10**4300 - 1, -(10**4299)],
        ],
    )
    def test_examples(self, doc):
        assert _json_text(doc) == oracles.emit_json(doc) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(st.integers() | st.integers(-(10**4300 - 1), 10**4300 - 1), max_size=4), max_size=5)
        | st.lists(st.lists(st.integers(-3, 3) | st.booleans() | json_text, max_size=3), max_size=4)
        | st.lists(st.integers() | st.booleans(), max_size=5)
        | st.lists(json_text, max_size=5)
    )
    def test_scalar_lists_and_rows(self, doc):
        # The one-piece paths: a list of exact ints or exact strs, and a list
        # of non-empty lists of exact ints; a bool or an empty row leaves them.
        assert _json_text(doc) == oracles.emit_json(doc) + "\n"
        assert _json_text({"x": doc}) == oracles.emit_json({"x": doc}) + "\n"

    @pytest.mark.parametrize(
        "doc",
        [[[0]], ([0],), [(0, 1)], [[0], []], [[1, True]], [[1, 2], [3]], [[-1, 10**4300 - 1]], [True, False],
         ["a", 1], [["a", "b"], ["c"]], [1, [2]], [[[1]]]],
    )
    def test_scalar_list_examples(self, doc):
        assert _json_text(doc) == oracles.emit_json(doc) + "\n"

    def test_bool_is_not_int(self):
        assert _json_text({"ok": True, "n": [1, False]}) == '{\n  "n": [\n    1,\n    false\n  ],\n  "ok": true\n}\n'

    @pytest.mark.parametrize(
        "doc",
        [1.5, [0.0], {"x": float("nan")}, Fraction(1, 2), [Fraction(3)], {1: 2}, {None: 1}, {True: 1},
         {(1, 2): 3}, {"x": {2.5: 1}}, {1, 2}, b"x"],
    )
    def test_refuses(self, doc):
        with pytest.raises(TypeError):
            _json_text(doc)


def _scalar_lists_are_oracle(arr):
    """``validate``'s and ``nbc``'s documents and the ``report`` document with
    every product list built whole: their lists of ints and strs, and of int
    rows (the points and the nbc pairs), as ``json.dumps`` writes them."""
    nbc = {"nbc": [[p.j, p.k] for p in nbc_set(arr)], "b1": 0}
    for doc in (arrangement.to_json(arr), nbc, oracles.build_report(arr, seed=0, trials=1)):
        assert _json_text(doc) == oracles.emit_json(doc) + "\n"


test_scalar_lists_fixtures, test_scalar_lists_random = fixture_and_random(_scalar_lists_are_oracle)


def test_scalar_lists_census_and_fano():
    for arr in census_and_fano():
        _scalar_lists_are_oracle(arr)


# The product-list leaves against json.dumps of the to_json trees they replaced.


def _product_lists_are_oracle(arr):
    """``os``, ``double``, ``ring`` and ``report`` write, from the positional
    tables, what ``json.dumps`` wrote of their ``to_json`` documents."""
    alg = os_algebra(arr)
    for obj in (alg, double(alg), intersection_ring(arr)):
        assert _json_text(obj.json_doc()) == oracles.emit_json(obj.to_json()) + "\n"
    new = _json_text(cli.build_report(arr, seed=0, trials=1))
    assert new == oracles.emit_json(oracles.build_report(arr, seed=0, trials=1)) + "\n"


def _has_triple_and_quadruple_points(arr):
    return {3, 4} <= {len(pt) for pt in arr.points}


# 10-16 lines: a vector's entries in label order are then not always in
# position order ("e10" < "e2"), which the census of 3-6 lines never shows.
ten_to_sixteen_lines = st.builds(
    lambda seed, lines, density: random_arrangement(random.Random(seed), lines, density),
    st.integers(0, 2**32 - 1),
    st.integers(10, 16),
    st.floats(0.2, 1.0),
).filter(_has_triple_and_quadruple_points)


class TestProductListWriter:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixtures(self, name):
        _product_lists_are_oracle(load_fixture(name))

    @pytest.mark.parametrize("v", range(3, 7))
    def test_census(self, v):
        for arr in census(v):
            _product_lists_are_oracle(arr)

    @settings(max_examples=30, deadline=None)
    @given(ten_to_sixteen_lines)
    def test_ten_to_sixteen_lines(self, arr):
        _product_lists_are_oracle(arr)

    def test_label_order_is_not_position_order(self):
        # Lines 1, 2 and 10 meet in a point, so e2 e10 = f(1,10) - f(1,2): f(1,2)
        # has the lower position, f(1,10) the lower label, and the label wins.
        arr = from_json({"lines": 11, "points": [[1, 2, 10]]})
        alg = os_algebra(arr)
        doc = alg.to_json()
        [value] = [p["value"] for p in doc["products"] if (p["x"], p["y"]) == ("e2", "e10")]
        assert list(value.items()) == [("f(1,10)", 1), ("f(1,2)", -1)]
        pos = {lab: i for i, lab in enumerate(alg._labels)}
        assert pos["f(1,2)"] < pos["f(1,10)"]
        _product_lists_are_oracle(arr)

    def test_pencil_has_no_os_products(self):
        arr = load_fixture("pencil_n4")
        text = _json_text(os_algebra(arr).json_doc())
        assert '"products": []' in text
        assert text == oracles.emit_json(os_algebra(arr).to_json()) + "\n"

    @pytest.mark.parametrize("size", [cli.CHUNK - 1, cli.CHUNK, cli.CHUNK + 1, 2 * cli.CHUNK])
    def test_chunk_boundaries(self, size):
        labels = tuple(f"e{i}" for i in range(size + 1))
        table = {(i, i + 1): {i: 1, i + 1: -1} if i % 3 else {i: i} for i in range(size)}
        products = ProductList(table, labels, labels)
        assert _json_text({"products": products}) == oracles.emit_json({"products": products.to_json()}) + "\n"

    @pytest.mark.parametrize(
        "table",
        [{}, {(0, 1): {}}, {(0, 1): {2: -3}}, {(1, 2): {0: 1}, (0, 2): {1: 10**30, 0: 0}}, {(2, 0): {1: 1, 2: 7}}],
    )
    def test_one_entry_and_edge_values(self, table):
        labels = ("e10", 'q"\\', "e2")
        for z_labels in (labels, ("t", "s", "r")):
            products = ProductList(table, labels, z_labels)
            assert _json_text([products]) == oracles.emit_json([products.to_json()]) + "\n"
            assert _json_text({"k": products}) == oracles.emit_json({"k": products.to_json()}) + "\n"


def _stdout_is_oracle(arr):
    """Every command prints its oracle document as ``json.dumps`` wrote it and
    ``click.echo`` ended it. The documents with product lists or a plumbing
    matrix come from the oracles: ``to_json`` for ``os``, ``double`` and
    ``ring``, the moved ``build_report`` for ``report`` and the dense matrix
    for ``homology``. Every other command is run again with ``cli._emit``
    replaced by the one that dumped its whole document."""
    alg = os_algebra(arr)
    point = json.dumps({
        "a": [(i % 5) - 2 for i in range(alg.rank(1))],
        "b": ["1/2" if i % 3 else i for i in range(alg.rank(2))],
    })
    expected = {
        "os": oracles.emit_json(alg.to_json()),
        "double": oracles.emit_json(double(alg).to_json()),
        "ring": oracles.emit_json(intersection_ring(arr).to_json()),
        "homology": oracles.homology_json(arr),
        "report": oracles.emit_json(oracles.build_report(arr, seed=0, trials=5)),
    }
    commands = [
        ["validate"], ["nbc"], ["os"], ["double"], ["homology"], ["ring"], ["verify"], ["report"],
        ["resonance", "generic"], ["resonance", "classify"], ["resonance", "eval", "--point", point],
    ]
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arrangement.json"
        path.write_text(json.dumps(arrangement.to_json(arr)))
        for command in commands:
            new = runner.invoke(cli.main, command + [str(path)])
            assert new.exit_code == 0, command
            if command[0] in expected:
                assert new.stdout_bytes == (expected[command[0]] + "\n").encode(), command
                continue
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "_emit", oracles.emit)
                old = runner.invoke(cli.main, command + [str(path)])
            assert old.exit_code == 0, command
            assert new.stdout_bytes == old.stdout_bytes, command
    doc = cli.build_report(arr, seed=0, trials=5)
    assert doc["isomorphism"] == verify_double_isomorphism(arr).to_json()
    assert doc["intersection_ring"] == intersection_ring(arr).json_doc()


class TestStdoutMatchesOracle:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixtures(self, name):
        _stdout_is_oracle(load_fixture(name))

    @settings(max_examples=15, deadline=None)
    @given(small_arrangements)
    def test_random(self, arr):
        _stdout_is_oracle(arr)


# The dense rank modulo p and left kernel that the resonance path used before
# its sparse elimination.


class TestRankModP:
    def test_examples(self):
        assert oracles.rank_mod_p(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1
        assert oracles.rank_mod_p(RatMatrix.from_rows([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])) == 2
        assert oracles.rank_mod_p(RatMatrix.zeros(2, 3)) == 0
        assert oracles.rank_mod_p(RatMatrix(0, 3, ())) == 0

    def test_can_fall_below_the_rank(self):
        # det = 2^31 - 1, so the rows are independent over Q but not modulo it.
        m = RatMatrix.from_rows([[1, 0], [0, 2**31 - 1]])
        assert rank(m) == 2
        assert oracles.rank_mod_p(m) == 1

    @settings(max_examples=150, deadline=None)
    @given(test_exact_linalg.int_matrices(max_dim=5, max_abs=9))
    def test_matches_rank_on_small_entries(self, m):
        # No minor of a 5 x 5 matrix with entries up to 9 reaches 2^31 - 1,
        # and scaling a row by a nonzero rational changes no rank.
        q = m.to_rational()
        scaled = RatMatrix.from_rows([[x / (i + 2) for x in q.row(i)] for i in range(q.rows)]) if q.rows else q
        assert oracles.rank_mod_p(scaled) == oracles.rank_mod_p(q) == rank(q)


def check_left_kernel(m: RatMatrix) -> None:
    r, kernel = oracles.left_kernel(m)
    assert r == fraction_rank(m)
    assert len(kernel) == m.rows - r
    assert all(type(x) is int for y in kernel for x in y)
    if kernel:
        y = RatMatrix.from_rows(kernel)
        assert (y @ m).is_zero()
        assert fraction_rank(y) == len(kernel)


class TestLeftKernel:
    def test_no_rows(self):
        assert oracles.left_kernel(RatMatrix(0, 3, ())) == (0, [])

    def test_no_columns(self):
        assert oracles.left_kernel(RatMatrix(2, 0, ())) == (0, [[1, 0], [0, 1]])

    def test_all_zero(self):
        check_left_kernel(RatMatrix.zeros(3, 4))

    def test_full_rank(self):
        assert oracles.left_kernel(IntMatrix.identity(3).to_rational()) == (3, [])

    def test_fractional_entries(self):
        m = RatMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1], [Fraction(5, 7), 0]])
        check_left_kernel(m)

    @settings(max_examples=150, deadline=None)
    @given(test_exact_linalg.int_matrices(max_dim=6, max_abs=3), st.integers(0, 2**32 - 1))
    def test_random_with_dependent_rows(self, m, seed):
        # Append scaled combinations of the rows, so the kernel is rarely empty.
        rng = random.Random(seed)
        rows = m.to_rational().to_rows()
        for _ in range(rng.randint(0, 3)):
            c = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in rows]
            rows.append([sum(ci * row[j] for ci, row in zip(c, rows)) for j in range(m.cols)])
        check_left_kernel(RatMatrix.from_rows(rows))


def _records(arr) -> list:
    """A record of each of the package's twelve record classes, ``_Matrix`` as
    both of its subclasses, built from ``arr``."""
    alg = os_algebra(arr)
    graph = incidence_graph(arr)
    incidence = IntMatrix.from_rows([[int(line in pt) for pt in arr.points] for line in range(arr.n_lines)])
    point = AomotoPoint(tuple(range(1, alg.rank(1) + 1)), tuple(Fraction(1, q + 2) for q in range(alg.rank(2))))
    return [
        arr,
        alg,
        alg.json_doc()["products"],
        intersection_ring(arr),
        verify_double_isomorphism(arr),
        incidence,
        incidence.to_rational(),
        plumbing_matrix(graph),
        snf(incidence),
        graph,
        h1_boundary(arr),
        point,
        aomoto_complex(double(alg), point),
    ]


def _same_as_dataclass_twin(arr):
    """Each record behaves as the frozen dataclass on its fields: equality and
    hash by value within one class, the same repr, no assignment or deletion,
    and a TypeError for a missing, extra, unknown or repeated field."""
    records, others = _records(arr), _records(load_fixture("triangle"))
    assert len({type(x) for x in records}) == 13
    for x, y in zip(records, others):
        cls, twin = type(x), oracles.dataclass_twin(type(x))
        fields, values = cls._fields, x._values()
        tx, ty = twin(*values), twin(*y._values())
        assert repr(x) == repr(tx)
        assert (x == y, x != y) == (tx == ty, tx != ty)
        by_name = dict(zip(fields, values))
        assert x == cls(*values) == cls(**by_name) == cls(*values[:1], **dict(zip(fields[1:], values[1:])))
        try:
            want = hash(tx)
        except TypeError:
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == want == hash(cls(*values))
        for obj in (x, tx):
            for name in (fields[0], "extra"):
                with pytest.raises(AttributeError):
                    setattr(obj, name, values[0])
            with pytest.raises(AttributeError):
                delattr(obj, fields[-1])
        bad = [
            (values[:-1], {}),
            (values + (values[-1],), {}),
            (values, {"extra": 1}),
            (values[:-1], {"extra": values[-1]}),
            (values, {fields[0]: values[0]}),
        ]
        for make in (cls, twin):
            for args, kwargs in bad:
                with pytest.raises(TypeError):
                    make(*args, **kwargs)
        assert x._values() == values  # nothing above changed a field


test_dataclass_twin_fixture, test_dataclass_twin_random = fixture_and_random(_same_as_dataclass_twin)


def test_matrices_of_two_classes_never_compare_equal():
    a, b = IntMatrix(1, 2, (1, 2)), RatMatrix(1, 2, (1, 2))
    assert a._values() == b._values()
    assert a != b and b != a and not a == b


@pytest.mark.parametrize(
    "cls, args, error",
    [
        (IntMatrix, (2, 2, (1, 2, 3)), ValueError),
        (SparseIntMatrix, (1, 2, (((1, 5), (0, 1)),)), ValueError),
        (PlumbingGraph, ((0, 0), ((1, 0),)), ValueError),
        (AomotoPoint, ((0.5,), ()), TypeError),
    ],
)
def test_post_init_checks_still_raise(cls, args, error):
    # By position and by name: both ways of building a record end in its check.
    with pytest.raises(error):
        cls(*args)
    with pytest.raises(error):
        cls(**dict(zip(cls._fields, args)))


# The --point reader against the one that sent every string through Fraction's
# regex: the same point, or the same exit code and error line.


class _Failed(Exception):
    pass


def _read_point(parse, doc):
    """``parse(doc)``'s point with its coordinates' types, or what it passed
    to ``cli._fail``."""
    def fail(code, message):
        raise _Failed(code, message)

    try:
        with mock.patch.object(cli, "_fail", fail):
            pt = parse(doc)
    except _Failed as exc:
        return exc.args
    return pt, [type(v) for v in pt.a + pt.b]


plain_fractions = st.from_regex(r"[+-]?[0-9]{1,8}(/[0-9]{1,8})?", fullmatch=True)
hostile_coordinates = (
    st.from_regex(r"\s?[+-]?[0-9_]{0,4}\.?[0-9_]{0,3}([eE][+-]?[0-9]{1,7})?(/[+-]?[0-9]{0,3})?\s?", fullmatch=True)
    | st.text(alphabet="0123456789+-/._eE \t\u0663\u00b2\uff11", max_size=10)
    | st.integers(1, 4400).map(lambda n: "7" * n)
    | st.integers(1, 2200).map(lambda n: "-" + "3" * n + "/" + "9" * n)
)
coordinates = (
    st.integers(-20, 20) | st.integers() | st.integers(-(10**4299), 10**4299)
    | plain_fractions | hostile_coordinates | st.booleans() | st.none() | st.floats(allow_nan=False)
)


class TestPointReader:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(coordinates, max_size=6), st.lists(coordinates, max_size=6))
    @example(["+3/0"], [])
    @example(["-0/5", "3/-4"], ["1_0"])
    @example(["\u0663/4"], [" 1/3 "])
    @example(["1e-999999"], [])
    @example(["1/" + "7" * 4299], ["1"])
    @example(["1/" + "7" * 4299], ["12"])
    @example(["+" + "9" * 4300], [])
    @example(["+/1", "1/", "/2", "", "+", "+-1", "1/2/3"], [])
    def test_same_as_regex_reader(self, a, b):
        doc = {"a": a, "b": b}
        assert _read_point(cli._parse_point, doc) == _read_point(oracles.parse_point, doc)

    @pytest.mark.parametrize("v", ["5", "+5", "-12/34", "0/7", "-0/5", "1/" + "7" * 4299, "7" * 4301])
    def test_digits_of_a_plain_fraction(self, v):
        assert cli._digits(v) == oracles.digits(v) == len(v.lstrip("+-").replace("/", ""))


def test_every_oracle_is_read():
    """Each top-level definition in ``oracles.py`` is read by a test module,
    or by a definition there that is read: an oracle that nothing reads
    checks nothing, so it goes when the last test that read it goes."""
    here = Path(__file__).parent
    defs = {}
    for node in ast.parse((here / "oracles.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((target.id, node) for target in node.targets if isinstance(target, ast.Name))
    read = set()
    for path in here.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "oracles":
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "oracles":
                read.update(alias.name for alias in node.names)
    todo = list(read & defs.keys())
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Name) and node.id in defs and node.id not in read:
                read.add(node.id)
                todo.append(node.id)
    assert sorted(defs.keys() - read) == []
