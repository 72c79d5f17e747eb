"""Exact linear algebra over the rationals.

The kernel under test is ``linalg.Echelon``; the rational readers ``rank``,
``row_basis`` and ``nullspace`` on top of it live in ``oracles.py``, where
the dense oracles use them, and are checked here too.  The reference
oracles are plain textbook Gaussian eliminations on Fraction matrices
(``oracle_rank`` here, ``oracle_solve_square`` and ``oracle_det`` in
``oracles.py``), independent of the fraction-free integer kernel under
test.  The subspace-intersection tests check the ``intersect_bases`` oracle
in ``oracles.py``, which the quotient-engine cross-checks rely on, and the
determinant tests check ``oracle_det``, the reference for the Schur-value
table of ``series.schur_values``, and the square-solve tests check
``oracle_solve_square``, on which the per-order detection oracle rests; the
package itself computes no determinant and solves no square system.  The
unitriangular-inverse test checks ``invert_unitriangular`` in
``oracles.py``, the reference for ``symfunc``'s inverse Kostka matrix.
"""

import math
import random
import sys
import time
from fractions import Fraction

import pytest
from oracles import (
    clear_denominators,
    contains,
    intersect_bases,
    invert_unitriangular,
    nullspace,
    oracle_det,
    oracle_solve_square,
    rank,
    row_basis,
)

from heckeseries import linalg
from heckeseries.linalg import Echelon, parse_rational, primitive, scale_to_integers


def oracle_rank(rows):
    """Fraction Gaussian elimination, no pivoting tricks."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def random_matrix(rng, nrows, ncols, planted_rank):
    left = [[rng.randint(-3, 3) for _ in range(planted_rank)] for _ in range(nrows)]
    right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(planted_rank)]
    return [
        [
            Fraction(sum(left[i][k] * right[k][j] for k in range(planted_rank)))
            for j in range(ncols)
        ]
        for i in range(nrows)
    ]


def test_scale_to_integers():
    assert scale_to_integers([Fraction(1, 2), Fraction(1, 3)], "row") == (6, [3, 2])
    # no content is divided out: D·x keeps the row's own scale
    assert scale_to_integers([Fraction(2), Fraction(4)], "row") == (1, [2, 4])
    assert scale_to_integers([Fraction(0), Fraction(0)], "row") == (1, [0, 0])
    assert scale_to_integers([Fraction(-1, 2)], "row") == (2, [-1])


def test_primitive_divides_by_the_positive_content():
    assert primitive([6, -4, 0, 10]) == [3, -2, 0, 5]
    assert primitive([-6, -4]) == [-3, -2]
    row = [3, -2, 0]
    assert primitive(row) is row  # content 1: nothing to divide
    zero = [0, 0]
    assert primitive(zero) is zero and primitive([]) == []
    assert primitive([-7]) == [-1]


def test_scale_to_integers_on_mixed_int_and_fraction_rows():
    # lcm of denominators 1, 3, 4, 1 is 12: 6·12, -2/3·12, 5/4·12, 2·12
    row = [6, Fraction(-2, 3), Fraction(5, 4), Fraction(4, 2)]
    assert scale_to_integers(row, "row") == (12, [72, -8, 15, 24])
    # Fraction(4, 2) is the integer 2, so D is 1
    assert scale_to_integers([Fraction(4, 2), -6, 0, 10], "row") == (1, [2, -6, 0, 10])
    assert scale_to_integers([-3, Fraction(-9, 6)], "row") == (2, [-6, -3])
    assert scale_to_integers([0, Fraction(0, 5), 0], "row") == (1, [0, 0, 0])
    assert scale_to_integers([], "row") == (1, [])
    D, ints = scale_to_integers([Fraction(1, 2), 3], "row")
    assert type(D) is int and all(type(v) is int for v in ints)


def test_scale_to_integers_refuses_D_past_the_bit_length_cap_as_it_grows():
    cap = linalg.BIT_LENGTH_CAP
    D, ints = scale_to_integers([3, Fraction(1, 2 ** (cap - 1))], "row")
    assert D.bit_length() == cap and ints == [3 * 2 ** (cap - 1), 1]
    # each denominator fits, their lcm does not (951 + 600 bits): D is
    # refused at the entry that takes it past the cap, before the next is
    # read, and a str has no denominator to read
    row = [Fraction(1, 3**600), Fraction(1, 2**600), "not read"]
    with pytest.raises(linalg.CapExceeded, match=f"^symmetry bit length 1551 exceeds cap {cap}$"):
        scale_to_integers(row, "symmetry")


def test_rank_matches_oracle_on_random_matrices():
    rng = random.Random(20260814)
    for _ in range(60):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        planted = rng.randint(0, min(nrows, ncols))
        m = random_matrix(rng, nrows, ncols, planted)
        assert rank(m, ncols) == oracle_rank(m)


def test_rank_edge_cases():
    assert rank([], 3) == 0
    assert rank([[0, 0]], 2) == 0
    assert rank([[1, 2], [2, 4]], 2) == 1
    assert rank([[Fraction(1, 2), 0], [0, Fraction(1, 7)]], 2) == 2


def test_echelon_contains_and_add():
    ech = Echelon(3)
    assert ech.add([1, 0, 1])
    assert ech.add([0, 1, 1])
    assert not ech.add([1, 1, 2])
    assert len(ech.rows) == 2
    assert contains(ech, [2, -1, 1])
    assert not contains(ech, [0, 0, 1])


def test_row_basis_spans_same_space():
    rng = random.Random(7)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        planted = rng.randint(0, min(nrows, ncols))
        m = random_matrix(rng, nrows, ncols, planted)
        basis = row_basis(m, ncols)
        assert len(basis) == oracle_rank(m)
        ech = Echelon(ncols)
        for row in basis:
            assert ech.add(row)
        for row in m:
            assert contains(ech, clear_denominators(row))


def test_nullspace_annihilates_and_has_right_dimension():
    rng = random.Random(99)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        planted = rng.randint(0, min(nrows, ncols))
        m = random_matrix(rng, nrows, ncols, planted)
        r = oracle_rank(m)
        null = nullspace(m, ncols)
        assert len(null) == ncols - r
        for vec in null:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        # independence of the kernel vectors
        assert rank(null, ncols) == len(null)


def test_intersect_bases():
    a = [[1, 0, 0], [0, 1, 0]]
    b = [[0, 1, 0], [0, 0, 1]]
    inter = intersect_bases(a, b, 3)
    assert len(inter) == 1
    x, y, z = inter[0]
    assert x == 0 and z == 0 and y != 0

    # nested subspaces intersect to the smaller one
    small = [[1, 2, 3]]
    big = [[1, 2, 3], [0, 0, 1]]
    inter = intersect_bases(small, big, 3)
    assert len(inter) == 1
    assert rank([inter[0], [1, 2, 3]], 3) == 1

    assert intersect_bases([[1, 0]], [[0, 1]], 2) == []
    assert intersect_bases([], [[1, 0]], 2) == []


def test_intersect_bases_random_dimension_formula():
    rng = random.Random(5)
    for _ in range(25):
        dim = rng.randint(2, 6)
        a = row_basis(random_matrix(rng, rng.randint(1, 5), dim, rng.randint(0, dim)), dim)
        b = row_basis(random_matrix(rng, rng.randint(1, 5), dim, rng.randint(0, dim)), dim)
        inter = intersect_bases(a, b, dim)
        union_rank = rank(list(a) + list(b), dim)
        assert len(inter) == len(a) + len(b) - union_rank
        ech_a, ech_b = Echelon(dim), Echelon(dim)
        for row in a:
            ech_a.add(row)
        for row in b:
            ech_b.add(row)
        for vec in inter:
            assert contains(ech_a, vec) and contains(ech_b, vec)


def test_det():
    det = oracle_det
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[Fraction(1, 2), 0], [0, 4]]) == 2
    assert det([[1]]) == 1
    assert det([]) == 1
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        # cofactor expansion oracle
        def cofactor(mat):
            if not mat:
                return Fraction(1)
            if len(mat) == 1:
                return mat[0][0]
            total = Fraction(0)
            for j in range(len(mat)):
                minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
                total += (-1) ** j * mat[0][j] * cofactor(minor)
            return total

        assert det(m) == cofactor(m)


def test_invert_unitriangular():
    u = [[1, 2, 3], [0, 1, 4], [0, 0, 1]]
    inv = invert_unitriangular(u)
    n = len(u)
    prod = [
        [sum(u[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert prod == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert all(isinstance(x, int) for row in inv for x in row)
    with pytest.raises(ValueError):
        invert_unitriangular([[2, 0], [0, 1]])


def dense_fraction_matrix(rng, nrows, ncols, planted_rank):
    """A product of two dense random fractional factors: rank at most
    planted_rank, with entries carrying unrelated denominators."""

    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    left = [[entry() for _ in range(planted_rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(planted_rank)]
    return [
        [
            sum((left[i][k] * right[k][j] for k in range(planted_rank)), Fraction(0))
            for j in range(ncols)
        ]
        for i in range(nrows)
    ]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


class TestKernelAgainstOracles:
    def test_dense_wide_and_tall(self):
        rng = random.Random(20261018)
        for nrows, ncols in [(3, 7), (7, 3), (5, 5), (2, 9), (9, 2)] * 6:
            m = dense_fraction_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
            r = oracle_rank(m)
            assert rank(m, ncols) == r
            basis = row_basis(m, ncols)
            assert len(basis) == r
            assert rank(list(basis) + m, ncols) == r
            null = nullspace(m, ncols)
            assert len(null) == ncols - r
            assert all(_dot(row, x) == 0 for row in m for x in null)
            assert all(math.gcd(*x) == 1 for x in null)
            assert rank(null, ncols) == len(null)

    def test_dense_square_solve_and_det(self):
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randint(1, 6)
            planted = n if rng.random() < 0.7 else rng.randint(0, n - 1)
            m = dense_fraction_matrix(rng, n, n, planted)
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            # the oracle finds a system singular exactly when its determinant vanishes
            x = oracle_solve_square(m, b)
            assert (x is None) == (oracle_det(m) == 0)
            if x is not None:
                assert [_dot(row, x) for row in m] == b

    def test_singular_systems(self):
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randint(2, 6)
            m = dense_fraction_matrix(rng, n, n, rng.randint(0, n - 1))
            assert oracle_det(m) == 0
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
            consistent = [_dot(row, x) for row in m]
            assert oracle_solve_square(m, consistent) is None
        # rows 1 and 2 agree on the left and disagree on the right
        m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        assert oracle_solve_square(m, [1, 5, 0]) is None
        assert oracle_solve_square(m, [1, 2, 0]) is None

    def test_zero_rows_and_empty_matrix(self):
        assert oracle_det([]) == 1
        assert oracle_solve_square([], []) == []
        assert rank([[0, 0, 0]] * 3, 3) == 0
        assert row_basis([[0, 0], [0, 0]], 2) == []
        assert nullspace([[0, 0, 0]], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert nullspace([], 2) == [[1, 0], [0, 1]]
        assert oracle_det([[1, 2], [0, 0]]) == 0
        assert oracle_solve_square([[0, 0], [0, 1]], [0, 1]) is None
        assert Echelon(0).reduced() == []
        assert Echelon(3).reduced() == []

    def test_det_sign_under_row_permutations(self):
        rng = random.Random(31337)
        for _ in range(20):
            n = rng.randint(2, 6)
            m = dense_fraction_matrix(rng, n, n, n)
            base = oracle_det(m)
            perm = list(range(n))
            rng.shuffle(perm)
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            assert oracle_det([m[i] for i in perm]) == (-1) ** inversions * base
            swapped = [m[1], m[0]] + m[2:]
            assert oracle_det(swapped) == -base

    def test_reduced_form_invariants(self):
        rng = random.Random(8)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            m = dense_fraction_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
            ech = Echelon(ncols)
            for row in m:
                ech.add(clear_denominators(row))
            rows = ech.reduced()
            assert len(rows) == len(ech.rows) == oracle_rank(m)
            for i, row in enumerate(rows):
                assert all(isinstance(a, int) for a in row)
                assert primitive(row) == row
                for j, p in enumerate(ech.pivots):
                    assert row[p] > 0 if i == j else row[p] == 0
            # same span as the input
            assert rank(rows + m, ncols) == len(rows)
            # the one such basis: the same rows from the rows in reverse
            again = Echelon(ncols)
            for row in reversed(m):
                again.add(clear_denominators(row))
            assert again.reduced() == rows


def test_parse_rational_refuses_exponents_past_the_digit_limit():
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    assert parse_rational(" -3/6 ") == Fraction(-1, 2)
    assert parse_rational("1.5E2") == 150
    # mantissa digits plus |exponent| at the limit are accepted
    assert parse_rational(f"12e-{limit - 2}") == Fraction(12, 10 ** (limit - 2))
    assert parse_rational(f"-1.5e{limit - 2}") == -15 * 10 ** (limit - 3)
    # Fraction("1e-10000000") alone took 15 s
    for text in (f"12e{limit - 1}", f"1.5e-{limit - 1}", "1e-10000000", "1e" + "9" * (limit - 1)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^rational literal expands past the limit of {limit} digits$"):
            parse_rational(text)
        assert time.perf_counter() - start < 0.1
    # a malformed or overlong exponent is Fraction's to report
    with pytest.raises(ValueError, match="^Invalid literal for Fraction: '1ex'$"):
        parse_rational("1ex")
    with pytest.raises(ValueError, match="Exceeds the limit"):
        parse_rational("1e" + "9" * (limit + 1))


def test_check_cap_passes_at_the_cap_and_refuses_one_above():
    assert linalg.check_cap("tensor degree", 1000, 1000) is None
    with pytest.raises(linalg.CapExceeded) as caught:
        linalg.check_cap("tensor degree", 1001, 1000)
    assert str(caught.value) == "tensor degree 1001 exceeds cap 1000"


def test_every_entry_point_runs_on_the_one_kernel(monkeypatch):
    from heckeseries.rmatrix import build_standard, hom_dims, symmetric_dims
    from heckeseries import symfunc

    built = []

    class CountingEchelon(Echelon):
        def __init__(self, ncols):
            built.append(ncols)
            super().__init__(ncols)

    monkeypatch.setattr(linalg, "Echelon", CountingEchelon)
    calls = {
        "rank": lambda: rank([[1, 2], [2, 4]], 2),
        "row_basis": lambda: row_basis([[1, 2], [2, 4]], 2),
        "nullspace": lambda: nullspace([[1, 2]], 2),
        "symmetric_dims": lambda: symmetric_dims(build_standard(2, 3), 3),
        "hom_dims A": lambda: hom_dims(build_standard(2, 3), build_standard(1, 3), "A", 2),
        "hom_dims E": lambda: hom_dims(build_standard(2, 3), build_standard(1, 3), "E", 2),
        "inverse Kostka matrix": lambda: symfunc._degree_data(4),
    }
    symfunc._degree_data.cache_clear()
    for name, call in calls.items():
        before = len(built)
        call()
        assert len(built) > before, f"{name} bypassed linalg.Echelon"
