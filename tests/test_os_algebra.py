"""Tests for the Orlik-Solomon algebra and its degree-three double."""

import pytest

from plumbline import (
    DegreeError,
    DoubledAlgebra,
    double,
    dual_label,
    os_algebra,
)
from plumbline.arrangement import nbc_set

from conftest import load_fixture


@pytest.fixture
def alg_two_triples(two_triples):
    return os_algebra(two_triples)


@pytest.fixture
def dbl_two_triples(alg_two_triples):
    return double(alg_two_triples)


class TestOsAlgebra:
    def test_two_triples_basis(self, alg_two_triples):
        assert alg_two_triples.basis[0] == ("1",)
        assert alg_two_triples.basis[1] == ("e1", "e2", "e3", "e4")
        assert alg_two_triples.basis[2] == ("f(1,2)", "f(1,3)", "f(1,4)", "f(2,4)")
        assert alg_two_triples.top_degree == 2

    def test_two_triples_product_table(self, alg_two_triples):
        p = alg_two_triples.basis_product
        assert p("e1", "e2") == {"f(1,2)": 1}
        assert p("e1", "e3") == {"f(1,3)": 1}
        assert p("e1", "e4") == {"f(1,4)": 1}
        assert p("e2", "e3") == {"f(1,3)": 1, "f(1,2)": -1}
        assert p("e2", "e4") == {"f(2,4)": 1}
        assert p("e3", "e4") == {}

    def test_anticommutativity(self, alg_two_triples):
        assert alg_two_triples.basis_product("e3", "e2") == {"f(1,3)": -1, "f(1,2)": 1}
        for x in alg_two_triples.basis[1]:
            assert alg_two_triples.basis_product(x, x) == {}

    def test_unit(self, alg_two_triples):
        assert alg_two_triples.basis_product("1", "e2") == {"e2": 1}
        assert alg_two_triples.basis_product("f(1,2)", "1") == {"f(1,2)": 1}

    def test_pencil_products_vanish(self):
        alg = os_algebra(load_fixture("pencil_n3"))
        assert alg.rank(1) == 3
        assert alg.rank(2) == 0
        assert alg.products == {}

    def test_ranks_match_nbc(self, any_fixture):
        alg = os_algebra(any_fixture)
        assert alg.rank(1) == any_fixture.n
        assert alg.rank(2) == len(nbc_set(any_fixture))

    def test_structure_constants_shape(self, any_fixture):
        # Each product of generators has at most two terms, coefficients +-1.
        alg = os_algebra(any_fixture)
        for vec in alg.products.values():
            assert 1 <= len(vec) <= 2
            assert set(vec.values()) <= {1, -1}

    def test_products_stored_canonically(self, any_fixture):
        alg = os_algebra(any_fixture)
        for x, y in alg.products:
            assert 0 < x < y <= alg.rank(1)


class TestDouble:
    def test_ranks(self, dbl_two_triples):
        assert dbl_two_triples.top_degree == 3
        assert [dbl_two_triples.rank(d) for d in range(4)] == [1, 8, 8, 1]

    def test_basis_order(self, dbl_two_triples):
        assert dbl_two_triples.basis[1] == (
            "e1", "e2", "e3", "e4",
            "~f(1,2)", "~f(1,3)", "~f(1,4)", "~f(2,4)",
        )
        assert dbl_two_triples.basis[2] == (
            "f(1,2)", "f(1,3)", "f(1,4)", "f(2,4)",
            "~e1", "~e2", "~e3", "~e4",
        )
        assert dbl_two_triples.basis[3] == ("~1",)

    def test_base_products_survive(self, dbl_two_triples):
        assert dbl_two_triples.basis_product("e2", "e3") == {"f(1,3)": 1, "f(1,2)": -1}

    def test_dualized_products(self, dbl_two_triples):
        p = dbl_two_triples.basis_product
        assert p("e2", "~f(1,2)") == {"~e1": 1, "~e3": 1}
        assert p("e3", "~f(1,2)") == {"~e2": -1}
        assert p("e1", "~f(1,2)") == {"~e2": -1}
        assert p("e4", "~f(1,2)") == {}
        assert p("e4", "~f(1,4)") == {"~e1": 1}
        assert p("e2", "~f(1,3)") == {"~e3": -1}

    def test_dual_pairings(self, dbl_two_triples):
        p = dbl_two_triples.basis_product
        assert p("e1", "~e1") == {"~1": 1}
        # Odd-even pairs commute, so both orders pair to the top class.
        assert p("~e1", "e1") == {"~1": 1}
        assert p("e1", "~e2") == {}
        assert p("~f(1,2)", "f(1,2)") == {"~1": 1}
        assert p("f(1,2)", "~f(1,2)") == {"~1": 1}
        assert p("~f(1,2)", "f(1,3)") == {}

    def test_graded_commutativity(self, dbl_two_triples):
        deg1 = dbl_two_triples.basis[1]
        deg2 = dbl_two_triples.basis[2]
        for x in deg1:
            for y in deg1:
                left = dbl_two_triples.basis_product(x, y)
                right = dbl_two_triples.basis_product(y, x)
                assert left == {lab: -c for lab, c in right.items()}
        for x in deg1:
            for y in deg2:
                assert dbl_two_triples.basis_product(x, y) == dbl_two_triples.basis_product(y, x)

    def test_odd_squares_vanish(self, dbl_two_triples):
        for x in dbl_two_triples.basis[1]:
            assert dbl_two_triples.basis_product(x, x) == {}

    def test_triple_products_vanish_beyond_top(self, dbl_two_triples):
        assert dbl_two_triples.basis_product("~1", "e1") == {}

    def test_pencil_double_degree_one_multiplies_to_zero(self):
        dbl = double(os_algebra(load_fixture("pencil_n4")))
        assert [dbl.rank(d) for d in range(4)] == [1, 4, 4, 1]
        for x in dbl.basis[1]:
            for y in dbl.basis[1]:
                assert dbl.basis_product(x, y) == {}

    def test_requires_top_degree_two(self, dbl_two_triples):
        with pytest.raises(DegreeError):
            double(dbl_two_triples)

    def test_keeps_base(self, dbl_two_triples, alg_two_triples):
        assert isinstance(dbl_two_triples, DoubledAlgebra)
        assert dbl_two_triples.base == alg_two_triples


def test_dual_label():
    assert dual_label("e3") == "~e3"
    assert dual_label("f(1,2)") == "~f(1,2)"


def test_to_json_shape(dbl_two_triples):
    doc = dbl_two_triples.to_json()
    assert doc["degree0"] == ["1"]
    assert len(doc["degree1"]) == 8
    assert doc["degree3"] == ["~1"]
    entries = {(row["x"], row["y"]): row["value"] for row in doc["products"]}
    assert entries[("e1", "e2")] == {"f(1,2)": 1}
    assert entries[("e2", "~f(1,2)")] == {"~e1": 1, "~e3": 1}
