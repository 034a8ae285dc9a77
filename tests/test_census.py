"""The ring check on every labelled arrangement of 3-6 lines, and on the Fano plane."""

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


def test_fano_plane():
    arr = validate([list(pt) for pt in FANO], 7)
    assert [len(pt) for pt in arr.points] == [3] * 7
    assert classify(arr) is ArrangementClass.GENERAL
    assert verify_double_isomorphism(arr).ok
    res = h1_boundary(arr)
    assert (res.free_rank, res.torsion) == (14, ())
