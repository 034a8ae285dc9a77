"""Tests for arrangement validation, incidence data, and nbc pairs."""

from itertools import combinations

import pytest

from plumbline import (
    Arrangement,
    ArrangementClass,
    FormatError,
    IndexOutOfRange,
    InternalContradiction,
    PairCoveredTwice,
    PointTooSmall,
    beta,
    classify,
    from_json,
    nbc_set,
    to_json,
    validate,
)
from plumbline.arrangement import ArrangementError

from conftest import load_fixture


class TestValidate:
    def test_completes_double_points(self, triangle):
        assert triangle.points == ((0, 1), (0, 2), (1, 2))

    def test_two_triples_points(self, two_triples):
        assert two_triples.points == (
            (0, 1),
            (0, 2),
            (0, 3, 4),
            (1, 2, 3),
            (1, 4),
            (2, 4),
        )

    def test_input_points_are_normalized(self):
        # Unordered with repeats; same point either way.
        arr = validate([[4, 3, 0, 3]], 5)
        assert (0, 3, 4) in arr.points

    def test_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            validate([[0, 5]], 5)
        with pytest.raises(IndexOutOfRange):
            validate([[-1, 2]], 5)

    def test_point_too_small(self):
        with pytest.raises(PointTooSmall):
            validate([[2]], 5)
        with pytest.raises(PointTooSmall):
            validate([[2, 2, 2]], 5)

    def test_pair_covered_twice(self):
        with pytest.raises(PairCoveredTwice) as exc:
            validate([[0, 1, 2], [0, 1, 3]], 5)
        assert (exc.value.j, exc.value.k) == (0, 1)

    def test_duplicate_point_rejected(self):
        with pytest.raises(PairCoveredTwice):
            validate([[1, 2, 3], [1, 2, 3]], 5)

    def test_too_few_lines(self):
        with pytest.raises(ArrangementError):
            validate([], 1)

    @pytest.mark.parametrize(("points", "n_lines"), [
        ([[0, 1]], 3.0), ([[0, 1]], 2.5), ([[0, 1]], "3"), ([], True), ([[0, 1]], None),
    ], ids=repr)
    def test_non_int_n_lines(self, points, n_lines):
        # range() or < would fail on these with a bare TypeError; True would read as one line.
        with pytest.raises(FormatError, match='"lines" must be an integer'):
            validate(points, n_lines)

    @pytest.mark.parametrize("index", [1.5, "1", True, 1.0, None], ids=repr)
    def test_non_int_index(self, index):
        # int() would read each of these as line 1 (or fail with another error).
        with pytest.raises(FormatError, match="integer line indices"):
            validate([[0, index, 2]], 3)
        # The type is checked before any range or size check.
        with pytest.raises(FormatError):
            validate([[0, 9], [index, 1]], 1)

    def test_every_pair_covered_once(self, any_fixture):
        seen = set()
        for pt in any_fixture.points:
            for pair in combinations(pt, 2):
                assert pair not in seen
                seen.add(pair)
        assert seen == set(combinations(range(any_fixture.n_lines), 2))


class TestArrangementQueries:
    def test_point_of(self, two_triples):
        assert two_triples.points[two_triples.point_of(3, 4)] == (0, 3, 4)
        assert two_triples.point_of(4, 3) == two_triples.point_of(3, 4)
        with pytest.raises(ValueError):
            two_triples.point_of(2, 2)

    def test_n(self, two_triples):
        assert two_triples.n == 4
        assert two_triples.n_lines == 5


class TestNbc:
    def test_two_triples_pairs(self, two_triples):
        assert [(p.j, p.k) for p in nbc_set(two_triples)] == [(1, 2), (1, 3), (1, 4), (2, 4)]

    def test_point_indices(self, two_triples):
        for p in nbc_set(two_triples):
            pt = two_triples.points[p.point]
            assert 0 not in pt
            assert p.j == pt[0]
            assert p.k in pt

    def test_pencil_has_none(self):
        assert nbc_set(load_fixture("pencil_n4")) == ()

    def test_counts(self):
        assert len(nbc_set(load_fixture("pappus_violating"))) == 20
        assert len(nbc_set(load_fixture("nearpencil_n4"))) == 3


class TestClassify:
    def test_fixture_classes(self):
        expected = {
            "pencil_n2": ArrangementClass.PENCIL,
            "pencil_n3": ArrangementClass.PENCIL,
            "pencil_n4": ArrangementClass.PENCIL,
            "triangle": ArrangementClass.NEAR_PENCIL,
            "nearpencil_n3": ArrangementClass.NEAR_PENCIL,
            "nearpencil_n4": ArrangementClass.NEAR_PENCIL,
            "nearpencil_n5": ArrangementClass.NEAR_PENCIL,
            "two_triples": ArrangementClass.GENERAL,
            "pappus_violating": ArrangementClass.GENERAL,
        }
        for name, cls in expected.items():
            assert classify(load_fixture(name)) is cls, name

    def test_beta_values(self):
        assert beta(load_fixture("two_triples")) == 1
        assert beta(load_fixture("pappus_violating")) == 13
        assert beta(load_fixture("pencil_n4")) == -3
        assert beta(load_fixture("nearpencil_n5")) == 0

    def test_degenerate_beta_nonpositive(self, any_fixture):
        if classify(any_fixture) is not ArrangementClass.GENERAL:
            assert beta(any_fixture) <= 0

    @pytest.mark.parametrize("name", ["pencil_n3", "nearpencil_n4"])
    def test_positive_beta_on_degenerate_class_raises(self, name, monkeypatch):
        # A check that must survive python -O, so it cannot be an assert.
        monkeypatch.setattr("plumbline.arrangement.beta", lambda arr: 1)
        with pytest.raises(InternalContradiction, match="positive beta"):
            classify(load_fixture(name))

    def test_nonpositive_beta_on_general_class_raises(self, monkeypatch):
        monkeypatch.setattr("plumbline.arrangement.beta", lambda arr: 0)
        with pytest.raises(InternalContradiction, match="general arrangement with beta 0"):
            classify(load_fixture("two_triples"))


class TestJson:
    def test_round_trip(self, any_fixture):
        assert from_json(to_json(any_fixture)) == any_fixture

    def test_minimal_encoding(self, two_triples):
        doc = to_json(two_triples)
        assert doc["lines"] == 5
        assert doc["points"] == [[0, 3, 4], [1, 2, 3]]
        assert len(doc["points_full"]) == 6

    def test_format_errors(self):
        with pytest.raises(FormatError):
            from_json([1, 2])
        with pytest.raises(FormatError):
            from_json({"lines": 5})
        with pytest.raises(FormatError):
            from_json({"lines": "5", "points": []})
        with pytest.raises(FormatError):
            from_json({"lines": 5, "points": [[0, True]]})
        with pytest.raises(FormatError):
            from_json({"lines": 5, "points": "nope"})

    def test_from_json_validates(self):
        with pytest.raises(PairCoveredTwice):
            from_json({"lines": 5, "points": [[0, 1, 2], [1, 2, 3]]})


def test_arrangement_is_immutable(two_triples):
    with pytest.raises(AttributeError):
        two_triples.n_lines = 7
    assert isinstance(two_triples, Arrangement)
