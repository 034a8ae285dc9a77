"""Tests for the exact integer/rational linear algebra kernel.

Smith normal form is checked against an independent oracle: the k-th
determinantal divisor (gcd of all k x k minors) of the input must equal the
product of the first k diagonal entries of the normal form. Rank is checked
against straightforward Gaussian elimination over Fraction.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbline.exact_linalg import (
    IntMatrix,
    RatMatrix,
    SparseIntMatrix,
    _bareiss,
    clear_denominators,
    cokernel,
    det,
    echelon,
    kernel_dim,
    rank,
    snf,
)


def minor_gcds(m: IntMatrix) -> list[int]:
    """gcd of all k x k minors of m, for k = 1 .. min(rows, cols).

    Brute force over index subsets with cofactor expansion; fine for the
    small matrices used in tests, and entirely independent of snf().
    """

    def minor_det(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
        if len(rows) == 1:
            return m[rows[0], cols[0]]
        total = 0
        sign = 1
        for pos, r in enumerate(rows):
            x = m[r, cols[0]]
            if x:
                rest = rows[:pos] + rows[pos + 1 :]
                total += sign * x * minor_det(rest, cols[1:])
            sign = -sign
        return total

    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rs in combinations(range(m.rows), k):
            for cs in combinations(range(m.cols), k):
                g = gcd(g, minor_det(rs, cs))
        out.append(g)
    return out


def fraction_rank(m: RatMatrix) -> int:
    """Rank by plain Gaussian elimination over Fraction."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def check_snf(m: IntMatrix) -> None:
    res = snf(m)
    # Exact factorization.
    assert res.u @ m @ res.v == res.s
    # U, V unimodular.
    assert abs(det(res.u)) == 1
    assert abs(det(res.v)) == 1
    # S diagonal, nonnegative, divisibility chain, zeros last.
    for i in range(res.s.rows):
        for j in range(res.s.cols):
            if i != j:
                assert res.s[i, j] == 0
    diag = res.diagonal
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # Determinantal divisor oracle: prod(diag[:k]) == gcd of k x k minors.
    divisors = minor_gcds(m)
    prod = 1
    for k, d_k in enumerate(divisors, start=1):
        prod *= diag[k - 1]
        assert prod == d_k, f"determinantal divisor mismatch at k={k}"


class TestSnfExamples:
    def test_two_by_two(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        assert snf(m).diagonal == (2, 4)
        check_snf(m)

    def test_identity(self):
        m = IntMatrix.identity(3)
        assert snf(m).diagonal == (1, 1, 1)

    def test_zero(self):
        m = IntMatrix.zeros(2, 3)
        assert snf(m).diagonal == (0, 0)

    def test_single_entry(self):
        assert snf(IntMatrix.from_rows([[-7]])).diagonal == (7,)

    def test_rectangular(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert snf(m).diagonal == (1, 3)
        check_snf(m)

    def test_torsion_example(self):
        # coker = Z/2 + Z/6.
        m = IntMatrix.from_rows([[2, 0], [0, 6]])
        assert cokernel(m) == (0, (2, 6))

    def test_nondivisible_pivot(self):
        # Forces the absorb step: minimal entries 2 and 3 off-diagonal.
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert snf(m).diagonal == (1, 6)
        check_snf(m)


class TestSnfRandom:
    def test_random_small_matrices(self):
        rng = random.Random(971)
        for _ in range(300):
            nr = rng.randint(1, 4)
            nc = rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            )
            check_snf(m)

    def test_random_rank_matches_snf(self):
        rng = random.Random(972)
        for _ in range(200):
            nr = rng.randint(1, 5)
            nc = rng.randint(1, 5)
            m = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            )
            by_snf = sum(1 for d in snf(m).diagonal if d)
            assert rank(m.to_rational()) == by_snf


@st.composite
def int_matrices(draw, max_dim=5, max_abs=20):
    nr = draw(st.integers(1, max_dim))
    nc = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(st.integers(-max_abs, max_abs), min_size=nr * nc, max_size=nr * nc)
    )
    return IntMatrix(nr, nc, tuple(entries))


class TestSnfProperties:
    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_factorization_and_divisors(self, m):
        check_snf(m)

    @settings(max_examples=100, deadline=None)
    @given(int_matrices())
    def test_transpose_same_invariants(self, m):
        assert snf(m).diagonal == snf(m.transpose()).diagonal


class TestRank:
    def test_examples(self):
        assert rank(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1
        assert rank(RatMatrix.from_rows([[1, 0], [0, 1]])) == 2
        assert rank(RatMatrix.zeros(3, 2)) == 0

    def test_fractional_entries(self):
        m = RatMatrix.from_rows(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
        )
        assert rank(m) == fraction_rank(m)

    def test_kernel_dim(self):
        m = RatMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
        assert kernel_dim(m) == 2

    @settings(max_examples=150, deadline=None)
    @given(int_matrices(max_dim=6, max_abs=9))
    def test_matches_fraction_elimination(self, m):
        q = m.to_rational()
        assert rank(q) == fraction_rank(q)

    @settings(max_examples=100, deadline=None)
    @given(int_matrices(max_dim=4, max_abs=9))
    def test_rational_scaling_invariance(self, m):
        # Scaling a row by a nonzero rational cannot change the rank.
        q = m.to_rational()
        scaled = RatMatrix.from_rows(
            [[x * Fraction(3, 7) for x in q.row(0)]] + [list(q.row(i)) for i in range(1, q.rows)]
        )
        assert rank(scaled) == rank(q)


class TestClearDenominators:
    def test_empty(self):
        assert clear_denominators([]) == []

    def test_all_zero(self):
        assert clear_denominators([0, Fraction(0), 0]) == [0, 0, 0]

    def test_int_only_is_unchanged(self):
        out = clear_denominators((3, -7, 0, 12))
        assert out == [3, -7, 0, 12]
        assert all(type(x) is int for x in out)

    def test_negative_and_mixed(self):
        assert clear_denominators([Fraction(-1, 2), 3, Fraction(5, -6), Fraction(4, 3)]) == [-3, 18, -5, 8]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(max_denominator=50), max_size=8))
    def test_positive_multiple_of_the_row(self, row):
        out = clear_denominators(row)
        assert all(type(x) is int for x in out)
        scales = {Fraction(y, x) for x, y in zip(row, out) if x}
        assert len(scales) <= 1 and all(c > 0 for c in scales)
        assert all(y == 0 for x, y in zip(row, out) if not x)


def check_echelon(m: IntMatrix) -> None:
    """Rank, leftovers of tagged rows as a left-kernel basis, and the gcd bound."""
    rows = [{j: x for j, x in enumerate(m.row(i)) if x} for i in range(m.rows)]
    r, rest = echelon(rows)
    assert r == fraction_rank(m.to_rational())
    assert rest == [{}] * (m.rows - r)
    assert echelon(rows, 2**31 - 1)[0] <= r
    assert echelon(rows, stop=1)[0] == min(r, 1)
    r, kernel = echelon([{**row, ~i: 1} for i, row in enumerate(rows)])
    assert len(kernel) == m.rows - r
    assert all(max(y) < 0 for y in kernel)
    for y in kernel:
        assert gcd(*y.values()) == 1
        assert all(sum(x * m[~t, j] for t, x in y.items()) == 0 for j in range(m.cols))
    if kernel:
        dense = IntMatrix.from_rows([[y.get(~i, 0) for i in range(m.rows)] for y in kernel])
        assert fraction_rank(dense.to_rational()) == len(kernel)


class TestEchelon:
    def test_empty(self):
        assert echelon([]) == (0, [])
        assert echelon([{}, {}]) == (0, [{}, {}])

    def test_zero_entries_are_dropped(self):
        assert echelon([{0: 0, 1: 2}, {1: 0}]) == (1, [{}])

    def test_dependency(self):
        # (2, 4) - 2 (1, 2) = 0, and the leftover of the tagged rows says so.
        assert echelon([{0: 1, 1: 2, -1: 1}, {0: 2, 1: 4, -2: 1}]) == (1, [{-1: -2, -2: 1}])

    def test_negative_positions_are_never_pivots(self):
        assert echelon([{-1: 5}, {-2: 3, -1: 1}]) == (0, [{-1: 5}, {-2: 3, -1: 1}])

    def test_modulus_can_fall_below_the_rank(self):
        p = 2**31 - 1
        assert echelon([{0: 1}, {0: 1, 1: p}]) == (2, [])
        assert echelon([{0: 1}, {0: 1, 1: p}], p)[0] == 1

    def test_stop(self):
        rows = [{i: 1} for i in range(5)]
        assert echelon(rows, stop=3)[0] == 3
        assert echelon(rows, 2**31 - 1, 3)[0] == 3

    def test_reduced_vectors_are_divided_by_their_gcd(self):
        # (2, 1) less (0, 1) is (2, 0), stored as (1, 0); the third vector
        # then leaves 1 at its tag, where an undivided (2, 0) would leave 2.
        assert echelon([{1: 1}, {0: 2, 1: 1}, {0: 1, -3: 1}]) == (2, [{-3: 1}])

    def test_dependency_of_scaled_rows(self):
        # (4, 8) on the pivot of (3, 6): 3 (4, 8) - 4 (3, 6) = 0.
        assert echelon([{0: 3, 1: 6, -1: 1}, {0: 4, 1: 8, -2: 1}]) == (1, [{-2: 3, -1: -4}])

    @settings(max_examples=150, deadline=None)
    @given(int_matrices(max_dim=6, max_abs=9))
    def test_random(self, m):
        check_echelon(m)

    @settings(max_examples=100, deadline=None)
    @given(int_matrices(max_dim=6, max_abs=3), st.integers(0, 2**32 - 1))
    def test_random_with_dependent_rows(self, m, seed):
        # Append integer combinations of the rows, so the kernel is rarely empty.
        rng = random.Random(seed)
        rows = m.to_rows()
        for _ in range(rng.randint(0, 3)):
            c = [rng.randint(-3, 3) for _ in rows]
            rows.append([sum(ci * row[j] for ci, row in zip(c, rows)) for j in range(m.cols)])
        check_echelon(IntMatrix(len(rows), m.cols, tuple(x for row in rows for x in row)))


class TestCokernel:
    def test_free_part(self):
        # Z^2 <- Z^1 by (2, 4): image has rank 1, gcd 2.
        m = IntMatrix.from_rows([[2], [4]])
        assert cokernel(m) == (1, (2,))

    def test_surjective(self):
        assert cokernel(IntMatrix.identity(3)) == (0, ())

    def test_zero_map(self):
        assert cokernel(IntMatrix.zeros(3, 2)) == (3, ())


class TestDet:
    def test_examples(self):
        assert det(IntMatrix.from_rows([[2, 4], [6, 8]])) == -8
        assert det(IntMatrix.identity(4)) == 1
        assert det(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
        assert det(IntMatrix.zeros(3, 3)) == 0

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            det(IntMatrix.zeros(2, 3))

    def test_non_exact_division_raises(self):
        # Bareiss divisions are exact on integer input; a non-integer entry
        # breaks that, and the quotient must not be floored silently.
        # IntMatrix rejects such an entry, so the row goes in directly.
        with pytest.raises(ArithmeticError, match="non-exact"):
            _bareiss([[Fraction(1, 2), 1], [1, 1]], 2)

    @settings(max_examples=100, deadline=None)
    @given(int_matrices(max_dim=4, max_abs=9))
    def test_det_vs_snf(self, m):
        if m.rows != m.cols:
            return
        diag = snf(m).diagonal
        prod = 1
        for d in diag:
            prod *= d
        assert abs(det(m)) == prod


class TestMatrixBasics:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    @pytest.mark.parametrize("entry", [Fraction(7, 2), 2.9])
    def test_int_from_rows_rejects_non_integers(self, entry):
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[entry, 2]])

    @pytest.mark.parametrize("entries", [("x", 1.5), (True, 1), (Fraction(1, 2), 1)])
    def test_int_matrix_rejects_other_entry_types(self, entries):
        with pytest.raises(TypeError):
            IntMatrix(1, 2, entries)

    def test_rat_matrix_rejects_other_entry_types(self):
        with pytest.raises(TypeError):
            rank(RatMatrix(1, 2, (0.5, 1)))
        with pytest.raises(TypeError):
            RatMatrix(1, 2, (False, 1))
        assert rank(RatMatrix(1, 2, (Fraction(1, 2), 1))) == 1

    def test_matmul(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).to_rows() == [[2, 1], [4, 3]]
        with pytest.raises(ValueError):
            a @ IntMatrix.zeros(3, 3)

    def test_indexing(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert a[1, 0] == 3
        with pytest.raises(IndexError):
            a[2, 0]

    def test_json(self):
        a = IntMatrix.from_rows([[1, -2]])
        assert a.to_json() == {"rows": 1, "cols": 2, "entries": ["1", "-2"]}
        q = RatMatrix.from_rows([[Fraction(1, 2), 3]])
        assert q.to_json() == {"rows": 1, "cols": 2, "entries": ["1/2", "3"]}


class TestSparseIntMatrix:
    def test_to_dense(self):
        m = SparseIntMatrix(2, 3, (((0, 2), (2, -1)), ()))
        assert m.to_dense() == IntMatrix.from_rows([[2, 0, -1], [0, 0, 0]])
        assert SparseIntMatrix(0, 4, ()).to_dense() == IntMatrix.zeros(0, 4)

    @pytest.mark.parametrize(
        "shape, nonzeros",
        [
            ((2, 2), (((0, 1),),)),  # one row short
            ((1, 2), (((1, 1), (0, 1)),)),  # columns out of order
            ((1, 2), (((0, 1), (0, 2)),)),  # a column twice
            ((1, 2), (((2, 1),),)),  # column out of range
            ((1, 2), (((-1, 1),),)),
            ((1, 2), (((0, 0),),)),  # a stored zero
        ],
    )
    def test_rejects_malformed_rows(self, shape, nonzeros):
        with pytest.raises(ValueError):
            SparseIntMatrix(*shape, nonzeros)

    @pytest.mark.parametrize("pair", [(0, 1.5), (0, True), (0, Fraction(1, 2)), (0.0, 1)])
    def test_rejects_non_int_entries(self, pair):
        with pytest.raises(TypeError):
            SparseIntMatrix(1, 2, ((pair,),))

    @settings(max_examples=150, deadline=None)
    @given(int_matrices(max_dim=6, max_abs=4))
    def test_cokernel_same_as_dense(self, m):
        sparse = SparseIntMatrix(
            m.rows, m.cols, tuple(tuple((j, x) for j, x in enumerate(m.row(i)) if x) for i in range(m.rows))
        )
        assert sparse.to_dense() == m
        assert cokernel(sparse) == cokernel(m)
