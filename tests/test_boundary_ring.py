"""Tests for the intersection ring, cohomology ring, and the ring verifier."""

import pytest

from plumbline import (
    IntersectionRing,
    cohomology_ring,
    double,
    intersection_ring,
    os_algebra,
    verify_double_isomorphism,
)
from plumbline.arrangement import nbc_set

from conftest import load_fixture


@pytest.fixture
def ring_two_triples(two_triples):
    return intersection_ring(two_triples)


class TestIntersectionRing:
    def test_two_triples_bases(self, ring_two_triples):
        assert ring_two_triples.h1_labels == (
            "t1", "t2", "t3", "t4",
            "g(1,2)", "g(1,3)", "g(1,4)", "g(2,4)",
        )
        assert ring_two_triples.h2_labels == (
            "F1", "F2", "F3", "F4",
            "tau(1,2)", "tau(1,3)", "tau(1,4)", "tau(2,4)",
        )

    def test_two_triples_golden_products(self, ring_two_triples):
        p = ring_two_triples.product
        assert p("F2", "tau(1,2)") == {"t1": 1, "t3": 1}
        assert p("F3", "tau(1,2)") == {"t2": -1}
        assert p("F3", "F4") == {}
        assert p("F1", "F2") == {"g(1,2)": 1}

    def test_two_triples_more_products(self, ring_two_triples):
        p = ring_two_triples.product
        assert p("F2", "F3") == {"g(1,3)": 1, "g(1,2)": -1}
        assert p("F4", "tau(1,2)") == {}
        assert p("F2", "tau(2,4)") == {"t4": -1}
        assert p("F4", "tau(2,4)") == {"t2": 1}
        assert p("F1", "tau(1,4)") == {"t4": -1}

    def test_tau_products_vanish(self, ring_two_triples):
        taus = [lab for lab in ring_two_triples.h2_labels if lab.startswith("tau")]
        for x in taus:
            for y in taus:
                assert ring_two_triples.product(x, y) == {}

    def test_antisymmetry(self, ring_two_triples):
        labels = ring_two_triples.h2_labels
        for x in labels:
            for y in labels:
                left = ring_two_triples.product(x, y)
                right = ring_two_triples.product(y, x)
                assert left == {lab: -c for lab, c in right.items()}

    def test_self_intersection_vanishes(self, any_fixture):
        ring = intersection_ring(any_fixture)
        for lab in ring.h2_labels:
            assert ring.product(lab, lab) == {}

    def test_pairing_is_identity_on_dual_bases(self, ring_two_triples):
        assert ring_two_triples.pairing("t1", "F1") == 1
        assert ring_two_triples.pairing("t1", "F2") == 0
        assert ring_two_triples.pairing("g(1,2)", "tau(1,2)") == 1
        assert ring_two_triples.pairing("g(1,2)", "F1") == 0
        with pytest.raises(KeyError):
            ring_two_triples.pairing("F1", "t1")

    def test_products_stored_on_ordered_pairs(self, any_fixture):
        ring = intersection_ring(any_fixture)
        for x, y in ring.products:
            assert 0 <= x < y < len(ring.h2_labels)

    def test_json_shape(self, ring_two_triples):
        doc = ring_two_triples.to_json()
        assert doc["h1"][0] == "t1"
        entries = {(row["x"], row["y"]): row["value"] for row in doc["products"]}
        assert entries[("F2", "tau(1,2)")] == {"t1": 1, "t3": 1}


class TestCrossRouteConsistency:
    """The geometric tables against the algebra, generator by generator."""

    def test_surface_products_match_degree_one_products(self, any_fixture):
        ring = intersection_ring(any_fixture)
        alg = os_algebra(any_fixture)
        for a in range(1, any_fixture.n + 1):
            for b in range(1, any_fixture.n + 1):
                if a == b:
                    continue
                vec = ring.product(f"F{a}", f"F{b}")
                mu = alg.basis_product(f"e{a}", f"e{b}")
                assert vec == {"g" + lab[1:]: c for lab, c in mu.items()}

    def test_surface_tau_products_match_doubled_products(self, any_fixture):
        ring = intersection_ring(any_fixture)
        dbl = double(os_algebra(any_fixture))
        for p in nbc_set(any_fixture):
            tau = f"tau({p.j},{p.k})"
            dual_f = f"~f({p.j},{p.k})"
            for i in range(1, any_fixture.n + 1):
                vec = ring.product(f"F{i}", tau)
                mu = dbl.basis_product(f"e{i}", dual_f)
                assert vec == {"t" + lab[2:]: c for lab, c in mu.items()}


class TestCohomologyRing:
    def test_two_triples_bases(self, two_triples):
        coh = cohomology_ring(two_triples)
        assert coh.basis[0] == ("1",)
        assert coh.basis[1] == (
            "~t1", "~t2", "~t3", "~t4",
            "~g(1,2)", "~g(1,3)", "~g(1,4)", "~g(2,4)",
        )
        # Degree two in the double's order: ~tau(j,k) matches f(j,k), ~F_i matches ~e_i.
        assert coh.basis[2] == (
            "~tau(1,2)", "~tau(1,3)", "~tau(1,4)", "~tau(2,4)",
            "~F1", "~F2", "~F3", "~F4",
        )
        assert coh.basis[3] == ("pt",)

    def test_cup_products_transported(self, two_triples):
        coh = cohomology_ring(two_triples)
        p = coh.basis_product
        assert p("~t1", "~t2") == {"~tau(1,2)": 1}
        assert p("~t2", "~g(1,2)") == {"~F1": 1, "~F3": 1}
        assert p("~t3", "~g(1,2)") == {"~F2": -1}
        assert p("~g(1,2)", "~g(1,3)") == {}

    def test_top_pairings(self, two_triples):
        coh = cohomology_ring(two_triples)
        assert coh.basis_product("~t1", "~F1") == {"pt": 1}
        assert coh.basis_product("~t1", "~F2") == {}
        assert coh.basis_product("~g(1,2)", "~tau(1,2)") == {"pt": 1}


class TestVerifier:
    def test_all_fixtures_pass(self, any_fixture):
        report = verify_double_isomorphism(any_fixture)
        assert report.ok
        assert report.mismatches == ()

    def test_report_json(self, two_triples):
        doc = verify_double_isomorphism(two_triples).to_json()
        assert doc == {"ok": True, "mismatches": []}

    def test_detects_tampered_table(self, two_triples, monkeypatch):
        # Flip one sign in the geometric table; the verifier must notice.
        real = intersection_ring(two_triples)
        f1_f2 = (real._h2_index["F1"], real._h2_index["F2"])
        products = dict(real.products)
        products[f1_f2] = {
            z: -c for z, c in products[f1_f2].items()
        }
        fake = IntersectionRing(real.h1_labels, real.h2_labels, products)
        monkeypatch.setattr(
            "plumbline.boundary_ring.intersection_ring", lambda arr: fake
        )
        report = verify_double_isomorphism(two_triples)
        assert not report.ok
        assert any(
            {x, y} == {"~t1", "~t2"} for x, y, _, _ in report.mismatches
        )
        doc = report.to_json()
        assert doc["ok"] is False
        assert doc["mismatches"][0]["cohomology"] != doc["mismatches"][0]["double"]

    def test_detects_dropped_pairing(self, two_triples, monkeypatch):
        real = intersection_ring(two_triples)
        f1_f2 = (real._h2_index["F1"], real._h2_index["F2"])
        products = {
            pair: vec for pair, vec in real.products.items() if pair != f1_f2
        }
        fake = IntersectionRing(real.h1_labels, real.h2_labels, products)
        monkeypatch.setattr(
            "plumbline.boundary_ring.intersection_ring", lambda arr: fake
        )
        assert not verify_double_isomorphism(two_triples).ok
