"""The ring check and the boundary homology on every labelled arrangement
of 3-6 lines, and on the Fano plane.

The incidence graph has one independent cycle per nbc pair, and H1 of the
boundary manifold is free of rank (number of nbc pairs) + n: both are
checked on each arrangement, the non-realizable ones included."""

import pytest

import oracles
from census import FANO, census, linear_spaces
from plumbline import (
    ArrangementClass,
    classify,
    cohomology_ring,
    double,
    from_json,
    h1_boundary,
    incidence_graph,
    nbc_set,
    os_algebra,
    to_json,
    validate,
    verify_double_isomorphism,
)
from plumbline import boundary_ring


def test_counts():
    assert [sum(1 for _ in linear_spaces(v)) for v in range(3, 7)] == [2, 6, 32, 353]


def test_listed_once():
    spaces = list(linear_spaces(6))
    assert len(set(spaces)) == len(spaces)


@pytest.mark.parametrize("v", range(3, 7))
def test_every_arrangement(v):
    for arr in census(v):
        assert from_json(to_json(arr)) == arr
        assert verify_double_isomorphism(arr).ok, arr.points
        coh, dbl = cohomology_ring(arr), double(os_algebra(arr))
        assert boundary_ring._compare(coh, dbl) == oracles.compare(coh, dbl), arr.points
        n_pairs = len(nbc_set(arr))
        assert incidence_graph(arr).b1 == n_pairs, arr.points
        res = h1_boundary(arr)
        assert (res.free_rank, res.torsion) == (n_pairs + arr.n, ()), arr.points


def test_fano_plane():
    arr = validate([list(pt) for pt in FANO], 7)
    assert [len(pt) for pt in arr.points] == [3] * 7
    assert classify(arr) is ArrangementClass.GENERAL
    assert verify_double_isomorphism(arr).ok
    res = h1_boundary(arr)
    assert (res.free_rank, res.torsion) == (14, ())
