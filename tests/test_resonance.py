"""Tests for the rank-one local system complex and resonance computations."""

import random
from fractions import Fraction

import pytest

from plumbline import (
    AomotoComplex,
    AomotoPoint,
    ArrangementClass,
    ChainConditionViolated,
    DimensionMismatch,
    aomoto_complex,
    beta,
    betti,
    betti_numbers,
    double,
    delta_matrix,
    generic_betti,
    in_resonance,
    is_nonresonant,
    os_algebra,
    phi_matrix,
    r11_prediction,
    sample_point,
    trial_seed,
    zero_a_identity_check,
)
from plumbline.exact_linalg import RatMatrix, kernel_dim, rank

from conftest import ALL_FIXTURES, load_fixture
from oracles import exact_point


@pytest.fixture
def alg_two_triples(two_triples):
    return os_algebra(two_triples)


@pytest.fixture
def dbl_two_triples(alg_two_triples):
    return double(alg_two_triples)


def frac(values):
    return tuple(Fraction(x) for x in values)


class TestDeltaMatrix:
    def test_two_triples_at_first_generator(self, alg_two_triples):
        d = delta_matrix(alg_two_triples, frac([1, 0, 0, 0]))
        assert d.to_rows() == [
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
        ]
        assert rank(d) == 3

    def test_two_triples_at_local_resonance(self, alg_two_triples):
        # e1 - e2 is supported on the triple point {1, 2, 3}, with zero sum.
        d = delta_matrix(alg_two_triples, frac([1, -1, 0, 0]))
        assert d.to_rows() == [
            [1, 0, 0, 0],
            [1, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 1, -1],
        ]
        assert rank(d) == 2

    def test_left_kernel_contains_the_point(self, alg_two_triples):
        rng = random.Random(5)
        for _ in range(20):
            a = frac([rng.randint(-9, 9) for _ in range(4)])
            d = delta_matrix(alg_two_triples, a)
            row = RatMatrix(1, 4, a)
            assert (row @ d).is_zero()

    def test_dimension_check(self, alg_two_triples):
        with pytest.raises(DimensionMismatch):
            delta_matrix(alg_two_triples, frac([1, 2]))


class TestPhiMatrix:
    def test_two_triples_at_first_dual_generator(self, alg_two_triples):
        p = phi_matrix(alg_two_triples, frac([1, 0, 0, 0]))
        assert p.to_rows() == [
            [0, 1, 0, 0],
            [-1, 0, -1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 0],
        ]
        assert rank(p) == 2

    def test_antisymmetric(self, alg_two_triples):
        rng = random.Random(6)
        for _ in range(20):
            b = frac([rng.randint(-9, 9) for _ in range(4)])
            p = phi_matrix(alg_two_triples, b)
            for i in range(4):
                for j in range(4):
                    assert p[i, j] == -p[j, i]

    def test_dimension_check(self, alg_two_triples):
        with pytest.raises(DimensionMismatch):
            phi_matrix(alg_two_triples, frac([1, 2, 3]))


@pytest.mark.parametrize("build", [delta_matrix, phi_matrix], ids=["delta", "phi"])
@pytest.mark.parametrize("bad", [0.1, "1/2", True], ids=["float", "str", "bool"])
def test_inexact_coordinate_raises_type_error(alg_two_triples, build, bad):
    # Without the check a float would flow into the entries as a float, no longer exact.
    with pytest.raises(TypeError):
        build(alg_two_triples, (Fraction(1, 2), bad, 0, 1))


@pytest.mark.parametrize("bad", [0.1, "1/2", True], ids=["float", "str", "bool"])
def test_nonresonance_and_zero_a_check_refuse_inexact_coordinates(alg_two_triples, dbl_two_triples, bad):
    # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10.
    with pytest.raises(TypeError):
        is_nonresonant(alg_two_triples, (1, bad, 0, 0))
    with pytest.raises(TypeError):
        zero_a_identity_check(dbl_two_triples, (1, bad, 0, 0))


@pytest.mark.parametrize("bad", [0.1, True], ids=["float", "bool"])
def test_point_refuses_float_and_bool(dbl_two_triples, bad):
    with pytest.raises(TypeError):
        betti_numbers(dbl_two_triples, AomotoPoint((bad, 0, 0, 0), (0, 0, 0, 0)))


class TestAomotoComplex:
    def test_shapes_and_blocks(self, alg_two_triples, dbl_two_triples):
        a = frac([1, 2, 0, -1])
        b = frac([0, 1, 1, 3])
        cx = aomoto_complex(dbl_two_triples, AomotoPoint(a, b))
        assert (cx.d1.rows, cx.d1.cols) == (1, 8)
        assert (cx.d2.rows, cx.d2.cols) == (8, 8)
        assert (cx.d3.rows, cx.d3.cols) == (8, 1)
        assert cx.d1.row(0) == a + b
        assert tuple(cx.d3.entries) == a + b
        delta = delta_matrix(alg_two_triples, a)
        phi = phi_matrix(alg_two_triples, b)
        for i in range(4):
            for j in range(4):
                assert cx.d2[i, j] == phi[i, j]
                assert cx.d2[i, 4 + j] == delta[i, j]
                assert cx.d2[4 + j, i] == -delta[i, j]
                assert cx.d2[4 + i, 4 + j] == 0

    def test_chain_identities_hold(self, dbl_two_triples):
        rng = random.Random(7)
        for _ in range(30):
            pt = sample_point(dbl_two_triples, rng)
            cx = aomoto_complex(dbl_two_triples, pt)
            assert (cx.d1 @ cx.d2).is_zero()
            assert (cx.d2 @ cx.d3).is_zero()

    def test_chain_guard_trips_on_corruption(self, dbl_two_triples, monkeypatch):
        # An all-ones Delta in place of the one the blocks' builder makes.
        ones = [{j: Fraction(1) for j in range(4)} for _ in range(4)]
        monkeypatch.setattr("plumbline.resonance._blocks", lambda alg, pt: AomotoComplex(pt, ones, [{}] * 4))
        with pytest.raises(ChainConditionViolated):
            aomoto_complex(dbl_two_triples, exact_point([1, 0, 0, 0], [0, 0, 0, 0]))

    def test_wrong_lengths(self, dbl_two_triples):
        with pytest.raises(DimensionMismatch):
            aomoto_complex(dbl_two_triples, exact_point([1, 0], [0, 0, 0, 0]))
        with pytest.raises(DimensionMismatch):
            aomoto_complex(dbl_two_triples, exact_point([1, 0, 0, 0], [0]))


class TestBetti:
    def test_zero_point_gives_ranks(self, dbl_two_triples):
        pt = exact_point([0, 0, 0, 0], [0, 0, 0, 0])
        assert betti_numbers(dbl_two_triples, pt) == (1, 8, 8, 1)

    def test_fractional_point(self, dbl_two_triples):
        pt = exact_point([1, "1/2", 0, -1], [0, 0, 0, 0])
        assert betti_numbers(dbl_two_triples, pt) == (0, 1, 1, 0)

    def test_zero_a_point(self, dbl_two_triples):
        pt = exact_point([0, 0, 0, 0], [1, 0, 0, 0])
        assert betti_numbers(dbl_two_triples, pt) == (0, 5, 5, 0)

    def test_symmetry_and_euler(self, dbl_two_triples):
        rng = random.Random(8)
        for _ in range(25):
            b = betti_numbers(dbl_two_triples, sample_point(dbl_two_triples, rng))
            assert b[0] == b[3]
            assert b[1] == b[2]
            assert b[0] - b[1] + b[2] - b[3] == 0

    def test_degree_validation(self, dbl_two_triples):
        pt = exact_point([1, 0, 0, 0], [0, 0, 0, 0])
        with pytest.raises(ValueError):
            betti(dbl_two_triples, pt, 4)
        with pytest.raises(ValueError):
            betti(dbl_two_triples, pt, -1)

    def test_in_resonance(self, dbl_two_triples):
        pt = exact_point([0, 0, 0, 0], [1, 0, 0, 0])
        assert in_resonance(dbl_two_triples, pt, 1, 5)
        assert not in_resonance(dbl_two_triples, pt, 1, 6)


class TestNonresonance:
    def test_two_triples_examples(self, alg_two_triples):
        assert is_nonresonant(alg_two_triples, frac([1, 0, 0, 0]))
        assert not is_nonresonant(alg_two_triples, frac([1, -1, 0, 0]))
        assert not is_nonresonant(alg_two_triples, frac([0, 0, 0, 0]))

    def test_pencils_are_totally_resonant(self):
        alg = os_algebra(load_fixture("pencil_n4"))
        rng = random.Random(9)
        for _ in range(10):
            a = frac([rng.randint(-9, 9) for _ in range(4)])
            assert not is_nonresonant(alg, a)

    def test_nonresonant_forces_sharp_betti(self, alg_two_triples, dbl_two_triples, two_triples):
        # At a nonresonant a (with b = 0) the complex of the double computes
        # (0, beta, beta, 0).
        a = frac([1, 0, 0, 0])
        assert is_nonresonant(alg_two_triples, a)
        pt = AomotoPoint(a, (Fraction(0),) * 4)
        assert betti_numbers(dbl_two_triples, pt) == (0, beta(two_triples), beta(two_triples), 0)


class TestZeroAIdentity:
    def test_two_triples_frozen_value(self, dbl_two_triples):
        assert zero_a_identity_check(dbl_two_triples, frac([1, 0, 0, 0])) == (5, 5)

    def test_random_b_identity(self):
        for name in ["two_triples", "triangle", "nearpencil_n3", "pappus_violating"]:
            dbl = double(os_algebra(load_fixture(name)))
            r2 = dbl.base.rank(2)
            rng = random.Random(11)
            for _ in range(5):
                b = [rng.randint(-9, 9) for _ in range(r2)]
                if all(x == 0 for x in b):
                    b[0] = 1
                lhs, rhs = zero_a_identity_check(dbl, frac(b))
                assert lhs == rhs

    def test_matches_phi_kernel(self, alg_two_triples, dbl_two_triples):
        b = frac([2, -1, 0, 3])
        lhs, rhs = zero_a_identity_check(dbl_two_triples, b)
        assert rhs == 4 - 1 + kernel_dim(phi_matrix(alg_two_triples, b))
        assert lhs == rhs

    def test_rejects_trivial_cases(self, dbl_two_triples):
        with pytest.raises(ValueError):
            zero_a_identity_check(dbl_two_triples, frac([0, 0, 0, 0]))
        pencil = double(os_algebra(load_fixture("pencil_n3")))
        with pytest.raises(DimensionMismatch):
            zero_a_identity_check(pencil, frac([]))


class TestGenericBetti:
    def test_two_triples(self, dbl_two_triples, two_triples):
        assert generic_betti(dbl_two_triples, 1, trials=5, seed=0) == beta(two_triples) == 1

    def test_pencils(self):
        for name, n in [("pencil_n2", 2), ("pencil_n3", 3), ("pencil_n4", 4)]:
            dbl = double(os_algebra(load_fixture(name)))
            assert generic_betti(dbl, 1, trials=5, seed=0) == n - 1

    def test_near_pencils_vanish(self):
        for name in ["triangle", "nearpencil_n3", "nearpencil_n4", "nearpencil_n5"]:
            dbl = double(os_algebra(load_fixture(name)))
            assert generic_betti(dbl, 1, trials=5, seed=0) == 0

    def test_general_equals_beta(self):
        for name in ["two_triples", "pappus_violating"]:
            arr = load_fixture(name)
            dbl = double(os_algebra(arr))
            assert generic_betti(dbl, 1, trials=3, seed=0) == beta(arr)

    def test_deterministic_in_seed(self, dbl_two_triples):
        runs = [generic_betti(dbl_two_triples, 1, trials=4, seed=123) for _ in range(3)]
        assert len(set(runs)) == 1

    def test_requires_trials(self, dbl_two_triples):
        with pytest.raises(ValueError):
            generic_betti(dbl_two_triples, 1, trials=0)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_requires_a_degree(self, dbl_two_triples, k):
        with pytest.raises(ValueError, match="between 0 and 3"):
            generic_betti(dbl_two_triples, k)

    def test_trial_seed(self):
        assert trial_seed(2, 3) == 2_000_009
        assert trial_seed(0, 0) == 0

    def test_sample_point_deterministic(self, dbl_two_triples):
        p1 = sample_point(dbl_two_triples, random.Random(77))
        p2 = sample_point(dbl_two_triples, random.Random(77))
        assert p1 == p2
        assert len(p1.a) == 4 and len(p1.b) == 4


class TestR11Prediction:
    def test_all_fixtures(self):
        expected = {
            "pencil_n2": (ArrangementClass.PENCIL, 2),
            "pencil_n3": (ArrangementClass.PENCIL, 3),
            "pencil_n4": (ArrangementClass.PENCIL, 4),
            "triangle": (ArrangementClass.NEAR_PENCIL, 2),
            "nearpencil_n3": (ArrangementClass.NEAR_PENCIL, 4),
            "nearpencil_n4": (ArrangementClass.NEAR_PENCIL, 6),
            "nearpencil_n5": (ArrangementClass.NEAR_PENCIL, 8),
            "two_triples": (ArrangementClass.GENERAL, 8),
            "pappus_violating": (ArrangementClass.GENERAL, 28),
        }
        assert set(expected) == set(ALL_FIXTURES)
        for name, want in expected.items():
            assert r11_prediction(load_fixture(name)) == want, name

    def test_general_dimension_is_the_whole_degree(self):
        # For general arrangements the generic first Betti number is already
        # positive, so depth-one resonance fills all of degree one.
        arr = load_fixture("two_triples")
        dbl = double(os_algebra(arr))
        cls, dim = r11_prediction(arr)
        assert cls is ArrangementClass.GENERAL
        assert dim == dbl.rank(1)
        assert generic_betti(dbl, 1, trials=3, seed=0) >= 1
