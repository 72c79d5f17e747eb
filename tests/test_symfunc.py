"""Basis conversions, products, pairings, and series-evaluation maps on the
graded ring of symmetric elements."""

import math
import random
import time
from fractions import Fraction

import pytest

from heckeseries import symfunc
from heckeseries.linalg import CapExceeded
from heckeseries.partitions import (
    _strip_counts,
    conjugate,
    enumerate_partitions,
    in_hook,
    kostka,
    lr_coeff,
    partition_pairs,
    standard_tableaux_count,
    weight,
)
from heckeseries.series import TruncSeries, expand_ratio
from heckeseries.symfunc import (
    BASES,
    DEGREE_CAP,
    ConsistencyError,
    SymElement,
    hall_rep,
    hom_eval,
    inner_product,
    multiply,
    omega,
    schur_value,
    specialize_super,
    tensor_power_character,
    to_basis,
)

from oracles import (
    count_mixed_matrices,
    count_row_col_matrices,
    invert_unitriangular,
    pair_sum_character,
)


def gen(basis, lam):
    return SymElement.generator(basis, lam)


def random_element(rng, degree, basis):
    parts = enumerate_partitions(degree)
    coeffs = {
        lam: Fraction(rng.randint(-3, 3))
        for lam in parts
        if rng.random() < 0.6
    }
    return SymElement(degree, basis, coeffs)


class TestSymElement:
    def test_canonical_form_drops_zeros(self):
        u = SymElement(2, "h", {(2,): Fraction(0), (1, 1): Fraction(1)})
        assert (2,) not in u.coeffs
        assert u.coeff((2,)) == 0
        assert not u.is_zero()
        assert SymElement(2, "h", {}).is_zero()

    def test_plus_and_scaled(self):
        u = gen("s", (2,)) + gen("s", (1, 1)).scaled(2)
        assert u.coeff((1, 1)) == 2
        v = u + gen("s", (1, 1)).scaled(-2)
        assert v.coeffs == {(2,): Fraction(1)}
        with pytest.raises(ValueError):
            gen("s", (2,)) + gen("s", (1,))
        with pytest.raises(ValueError):
            gen("s", (2,)) + gen("h", (2,))

    def test_render(self):
        u = gen("h", (2,)).scaled(2) + gen("h", (1, 1))
        assert u.render() == "h: 2*[2] + 1*[1,1]"
        assert SymElement(3, "m", {}).render() == "m: 0"

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            SymElement(3, "h", {(2,): Fraction(1)})
        with pytest.raises(ValueError):
            SymElement(2, "q", {(2,): Fraction(1)})


class TestToBasis:
    def test_frozen_conversions(self):
        assert to_basis(gen("h", (2,)), "s").coeffs == {(2,): 1}
        assert to_basis(gen("e", (2,)), "s").coeffs == {(1, 1): 1}
        assert to_basis(gen("h", (1, 1)), "s").coeffs == {(2,): 1, (1, 1): 1}
        assert to_basis(gen("s", (2, 1)), "h").coeffs == {(3,): -1, (2, 1): 1}
        assert to_basis(gen("s", (1, 1)), "m").coeffs == {(1, 1): 1}
        assert to_basis(gen("m", (2,)), "s").coeffs == {(2,): 1, (1, 1): -1}
        assert to_basis(gen("h", (3,)), "m").coeffs == {
            (3,): 1,
            (2, 1): 1,
            (1, 1, 1): 1,
        }

    def test_roundtrips_all_pairs(self):
        rng = random.Random(42)
        for degree in range(0, 9):
            for basis in BASES:
                u = random_element(rng, degree, basis)
                for target in BASES:
                    back = to_basis(to_basis(u, target), basis)
                    assert back == u, (degree, basis, target)

    def test_identity_conversion_is_same_object_content(self):
        u = gen("m", (2, 1))
        assert to_basis(u, "m") == u


class TestMultiply:
    def test_unit(self):
        u = gen("s", (2, 1))
        assert multiply(SymElement.unit(), u) == u

    def test_square_of_s1(self):
        u = multiply(gen("s", (1,)), gen("s", (1,)))
        assert u.coeffs == {(2,): 1, (1, 1): 1}

    def test_lr_structure_constants(self):
        u = multiply(gen("s", (2, 1)), gen("s", (2, 1)))
        assert u.coeff((3, 2, 1)) == 2
        assert u.coeff((2, 2, 2)) == 1
        assert u.coeff((4, 2)) == 1

    def test_h_basis_products_concatenate(self):
        u = multiply(gen("h", (2,)), gen("h", (3, 1)))
        assert to_basis(u, "h").coeffs == {(3, 2, 1): 1}

    def test_commutative_and_associative(self):
        rng = random.Random(11)
        for _ in range(10):
            a = random_element(rng, rng.randint(0, 3), rng.choice(BASES))
            b = random_element(rng, rng.randint(0, 3), rng.choice(BASES))
            c = random_element(rng, rng.randint(0, 2), rng.choice(BASES))
            ab = multiply(a, b)
            assert ab == to_basis(multiply(b, a), ab.basis)
            left = multiply(ab, c)
            right = multiply(a, multiply(b, c))
            assert left == to_basis(right, left.basis)

    def test_schur_structure_constants_are_lr_coefficients(self):
        # products concatenate h-labels; the lattice-word count of
        # partitions.lr_coeff is the independent route to the same numbers
        for n in range(0, 8):
            for lam, mu in partition_pairs(n):
                prod = multiply(gen("s", lam), gen("s", mu))
                for nu in enumerate_partitions(n):
                    assert prod.coeff(nu) == lr_coeff(lam, mu, nu), (lam, mu, nu)

    def test_distributes_over_sums(self):
        a = gen("s", (2,)) + gen("s", (1, 1)).scaled(3)
        b = gen("s", (1,))
        lhs = multiply(a, b)
        rhs = multiply(gen("s", (2,)), b) + multiply(gen("s", (1, 1)), b).scaled(3)
        assert lhs == rhs


class TestInnerProduct:
    def test_schur_orthonormal(self):
        for n in range(0, 6):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    expected = 1 if lam == mu else 0
                    assert inner_product(gen("s", lam), gen("s", mu)) == expected

    def test_h_m_duality(self):
        for n in range(0, 6):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    expected = 1 if lam == mu else 0
                    assert inner_product(gen("h", lam), gen("m", mu)) == expected

    def test_h_h_counts_matrices(self):
        for n in range(0, 6):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    assert inner_product(
                        gen("h", lam), gen("h", mu)
                    ) == count_row_col_matrices(lam, mu)

    def test_mixed_triple_counts_matrices(self):
        for n in range(0, 7):
            for nu in enumerate_partitions(n):
                hv = gen("h", nu)
                for a in range(0, n + 1):
                    for lam in enumerate_partitions(a):
                        for mu in enumerate_partitions(n - a):
                            prod = multiply(gen("h", lam), gen("e", mu))
                            assert inner_product(prod, hv) == count_mixed_matrices(
                                (lam, mu), nu
                            ), (lam, mu, nu)

    def test_frozen_values(self):
        assert inner_product(gen("h", (1, 1)), gen("m", (1, 1))) == 1
        assert inner_product(gen("e", (2,)), gen("h", (2,))) == 0
        assert inner_product(gen("e", (2,)), gen("h", (1, 1))) == 1

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(gen("s", (2,)), gen("s", (1,)))


class TestOmega:
    def test_involution(self):
        rng = random.Random(17)
        for degree in range(0, 8):
            u = random_element(rng, degree, rng.choice(BASES))
            assert omega(omega(u)) == u

    def test_swaps_h_and_e(self):
        assert omega(gen("h", (3, 1))) == gen("e", (3, 1))
        assert omega(gen("e", (2, 2))) == gen("h", (2, 2))

    def test_conjugates_schur(self):
        assert omega(gen("s", (2, 1))) == gen("s", (2, 1))
        assert omega(gen("s", (3,))) == gen("s", (1, 1, 1))

    def test_is_ring_map(self):
        rng = random.Random(23)
        for _ in range(8):
            a = random_element(rng, rng.randint(0, 3), rng.choice(BASES))
            b = random_element(rng, rng.randint(0, 3), rng.choice(BASES))
            lhs = omega(multiply(a, b))
            rhs = multiply(omega(a), omega(b))
            assert lhs == to_basis(rhs, lhs.basis)


def test_h_e_alternating_sum_vanishes():
    # sum_i (-1)^i h_i e_{n-i} = 0 for n >= 1
    for n in range(1, 9):
        total = SymElement(n, "s", {})
        for i in range(0, n + 1):
            hi = gen("h", (i,) if i else ())
            en = gen("e", (n - i,) if n - i else ())
            total = total + to_basis(multiply(hi, en), "s").scaled((-1) ** i)
        assert total.is_zero(), n


def test_power_of_h1_expands_by_tableaux_counts():
    for n in range(1, 8):
        u = SymElement.unit()
        for _ in range(n):
            u = multiply(u, gen("h", (1,)))
        u = to_basis(u, "s")
        for lam in enumerate_partitions(n):
            assert u.coeff(lam) == standard_tableaux_count(lam)


class TestHomEval:
    def test_unit_and_h_generators(self):
        f = expand_ratio([1], [1, -2, 1], 6)
        assert hom_eval(f, SymElement.unit("h")) == 1
        assert hom_eval(f, gen("h", (3,))) == 4
        assert hom_eval(f, gen("h", (2, 1))) == 6

    def test_multiplicative(self):
        rng = random.Random(31)
        f = TruncSeries(
            [Fraction(1)]
            + [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(8)]
        )
        for _ in range(10):
            a = random_element(rng, rng.randint(0, 4), rng.choice(BASES))
            b = random_element(rng, rng.randint(0, 4), rng.choice(BASES))
            assert hom_eval(f, multiply(a, b)) == hom_eval(f, a) * hom_eval(f, b)

    def test_frozen_exterior_value(self):
        f = TruncSeries([1, 1, 0, 0])
        assert hom_eval(f, gen("e", (3,))) == 1
        assert hom_eval(expand_ratio([1], [1, -1], 4), gen("s", (1, 1))) == 0

    def test_order_must_cover_degree(self):
        with pytest.raises(ValueError):
            hom_eval(TruncSeries([1, 1]), gen("h", (3,)))

    def test_multinomial_monomial_sum_is_the_power_of_the_t_coefficient(self):
        # sum over lam ⊢ k of k!/prod(lam_i!) m_lam is p_1^k = h_1^k, so
        # the homomorphism sends it to a_1^k for any series with a_0 = 1
        rng = random.Random(17)
        for _ in range(6):
            f = TruncSeries(
                [Fraction(1)]
                + [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)]
            )
            for k in range(8):
                total = 0
                for lam in enumerate_partitions(k):
                    multinomial = math.factorial(k)
                    for part in lam:
                        multinomial //= math.factorial(part)
                    total += multinomial * hom_eval(f, gen("m", lam))
                assert total == f.coeff(1) ** k


class TestHallRep:
    def test_degree_zero_is_unit(self):
        f = TruncSeries([1, 5, 7])
        assert hall_rep(f, 0) == SymElement.unit()

    def test_single_alphabet_concentrates_on_rows(self):
        f = expand_ratio([1], [1, -3], 6)
        for n in range(1, 5):
            u = hall_rep(f, n)
            assert u.coeffs == {(n,): Fraction(3) ** n}

    def test_frozen_example(self):
        u = hall_rep(TruncSeries([1, 1, 1]), 2)
        assert u.coeffs == {(2,): 1}

    def test_adjoint_to_hom_eval(self):
        # the homomorphism sends h_0 to 1 whatever the series' constant term
        rng = random.Random(47)
        for a0 in (1, 2, 0, Fraction(-1, 3)):
            f = TruncSeries([a0] + [Fraction(rng.randint(-2, 3)) for _ in range(6)])
            for degree in range(0, 5):
                u = random_element(rng, degree, rng.choice(BASES))
                assert inner_product(hall_rep(f, degree), to_basis(u, "s")) == hom_eval(
                    f, u
                ), (f, u)

    def test_product_formula(self):
        # degree-n component of a product splits over the two factors
        rng = random.Random(53)
        f = TruncSeries([Fraction(1)] + [Fraction(rng.randint(-2, 2)) for _ in range(6)])
        g = TruncSeries([Fraction(1)] + [Fraction(rng.randint(-2, 2)) for _ in range(6)])
        fg = f * g
        for n in range(0, 7):
            lhs = hall_rep(fg, n)
            rhs = SymElement(n, "s", {})
            for i in range(0, n + 1):
                rhs = rhs + multiply(hall_rep(f, i), hall_rep(g, n - i))
            assert lhs == to_basis(rhs, "s"), n


class TestSpecializeSuper:
    def test_plain_alphabet_values(self):
        assert specialize_super(gen("s", (2,)), alphas=(1,)) == 1
        assert specialize_super(gen("s", (1, 1)), alphas=(1,)) == 0
        assert specialize_super(gen("s", (1, 1)), betas=(1,)) == 1
        assert specialize_super(gen("s", (2,)), alphas=(1,), betas=(1,)) == 2

    def test_h_generator_counts(self):
        # h_n at k plain variables equal to 1 counts multisets
        for n in range(1, 5):
            val = specialize_super(gen("h", (n,)), alphas=(1, 1))
            assert val == n + 1

    def test_polynomial_route_matches_root_route(self):
        u = gen("s", (2, 1))
        by_roots = specialize_super(u, alphas=(1, 2), betas=(3,))
        by_polys = specialize_super(
            u, alpha_poly=[1, -3, 2], beta_poly=[1, -3]
        )
        assert by_roots == by_polys

    def test_hook_support(self):
        for r0, r1 in [(2, 0), (1, 1), (0, 1)]:
            alphas = (1,) * r0
            betas = (1,) * r1
            for n in range(0, 7):
                for lam in enumerate_partitions(n):
                    val = specialize_super(gen("s", lam), alphas=alphas, betas=betas)
                    assert (val != 0) == in_hook(lam, r0, r1), (lam, r0, r1)
                    assert val >= 0

    def test_super_duality(self):
        # swapping the alphabets conjugates the shape
        for n in range(0, 6):
            for lam in enumerate_partitions(n):
                a = specialize_super(gen("s", lam), alphas=(1, 2), betas=(3,))
                b = specialize_super(
                    gen("s", conjugate(lam)), alphas=(3,), betas=(1, 2)
                )
                assert a == b, lam

    def test_factorization_over_subalphabets(self):
        # s_lam(x union / y) = sum over splittings mu, nu with LR coefficients
        alphas = (1, 2)
        betas = (3,)
        for n in range(0, 6):
            for lam in enumerate_partitions(n):
                lhs = specialize_super(gen("s", lam), alphas=alphas, betas=betas)
                lam_c = conjugate(lam)
                rhs = Fraction(0)
                for a in range(0, n + 1):
                    for mu in enumerate_partitions(a):
                        s_mu = specialize_super(gen("s", mu), alphas=alphas)
                        if s_mu == 0:
                            continue
                        for nu in enumerate_partitions(n - a):
                            c = lr_coeff(conjugate(mu), nu, lam_c)
                            if c:
                                rhs += (
                                    c
                                    * s_mu
                                    * specialize_super(gen("s", nu), alphas=betas)
                                )
                assert lhs == rhs, lam

    def test_rejects_zero_constant_poly(self):
        with pytest.raises(ValueError):
            specialize_super(gen("s", (1,)), alpha_poly=[0, 1])

    def test_rejects_mixing_roots_and_poly(self):
        for alphabets in (
            {"alphas": (1,), "alpha_poly": [1, -1]},
            {"betas": (5,), "beta_poly": [1, -1]},
        ):
            with pytest.raises(ValueError, match="not both"):
                specialize_super(gen("s", (1,)), **alphabets)


class TestTensorPowerCharacter:
    def test_degree_zero(self):
        assert tensor_power_character([1, -1], [1], 0) == SymElement.unit("h")

    def test_rank_one_symmetric(self):
        u = tensor_power_character([1, -1], [1], 3)
        assert u.basis == "h"
        assert u.coeffs == {(3,): 1}

    def test_frozen_rank_two(self):
        u = tensor_power_character([1, -2, 1], [1], 2)
        assert u.coeffs == {(2,): 2, (1, 1): 1}

    @pytest.mark.parametrize(
        "f0, f1",
        [
            ([1, -2, 1], [1]),
            ([1, -1], [1, -1]),
            ([1, -3, 1], [1]),  # golden ratio
            ([1], [1, -1]),
            ([1, -5, 6], [1, -4, 3]),
            ([1], [1]),  # rank zero
            ([1, Fraction(-3, 2), Fraction(1, 2)], [1, Fraction(-1, 3)]),
        ],
    )
    def test_equals_the_pair_sum(self, f0, f1):
        for n in range(0, 9):
            assert tensor_power_character(f0, f1, n) == pair_sum_character(f0, f1, n), n

    @pytest.mark.parametrize("f0, f1", [([0], [1]), ([1], [0]), ([], [1]), ([2, -1], [1])])
    def test_refuses_a_constant_term_other_than_1(self, f0, f1):
        with pytest.raises(ValueError, match="constant term 1"):
            tensor_power_character(f0, f1, 2)

    def test_cold_at_the_degree_cap(self):
        # fresh transition tables and strip counts: every Kostka number of
        # degree DEGREE_CAP is rebuilt inside the timed call
        symfunc._degree_data.cache_clear()
        _strip_counts.cache_clear()
        start = time.perf_counter()
        u = tensor_power_character([1, -3, 1], [1, -1], DEGREE_CAP)
        elapsed = time.perf_counter() - start
        ones = SymElement.generator("h", (1,) * DEGREE_CAP)
        assert inner_product(u, ones) == 4**DEGREE_CAP
        assert elapsed < 5.0

    def test_total_dimension_identity(self):
        # pairing the character with h_{(1,...,1)} recovers d^n
        for f0, f1, d in [
            ([1, -2, 1], [1], 2),
            ([1, -1], [1, -1], 2),
            ([1, -3, 3, -1], [1], 3),
        ]:
            for n in range(0, 5):
                u = tensor_power_character(f0, f1, n)
                ones = SymElement.generator("h", (1,) * n)
                assert inner_product(u, ones) == d**n

    def test_character_evaluates_like_the_series(self):
        # evaluating the degree-n character at the defining alphabets gives
        # the diamond-square of the dimension series coefficientwise
        f0, f1 = [1, -2, 1], [1]
        for n in range(0, 4):
            u = tensor_power_character(f0, f1, n)
            val = specialize_super(u, alpha_poly=f0, beta_poly=f1)
            assert val == sum(
                specialize_super(
                    SymElement.generator("m", lam), alpha_poly=f0
                )
                * specialize_super(SymElement.generator("m", mu), alpha_poly=f1)
                * specialize_super(
                    multiply(
                        SymElement.generator("h", lam),
                        SymElement.generator("e", mu),
                    ),
                    alpha_poly=f0,
                    beta_poly=f1,
                )
                for lam, mu in _pairs(n)
            )


def _pairs(n):
    from heckeseries.partitions import partition_pairs

    return partition_pairs(n)


class TestSchurValue:
    def test_dual_routes_agree_on_randoms(self):
        # the Schur table against the Kostka route through the h-basis;
        # both read h_0 as 1 whatever the series' constant term
        rng = random.Random(61)
        for trial in range(40):
            a0 = [1, 2, 0, Fraction(-1, 3)][trial % 4]
            f = TruncSeries(
                [a0] + [Fraction(rng.randint(-2, 3), rng.randint(1, 2)) for _ in range(7)]
            )
            lam = rng.choice(enumerate_partitions(rng.randint(0, 5)))
            assert schur_value(f, lam) == hom_eval(f, gen("s", lam)), (f, lam)

    def test_refuses_weights_beyond_the_window(self):
        # the table alone would answer (2, 2) from a_0 ... a_3
        f = TruncSeries([1, 2, 3, 4])
        with pytest.raises(ValueError, match="^element degree 4 exceeds truncation order 3$"):
            schur_value(f, (2, 2))

    def test_frozen(self):
        f = expand_ratio([1], [1, -1], 6)
        assert schur_value(f, (3,)) == 1
        assert schur_value(f, (1, 1)) == 0


def test_degree_cap_enforced():
    with pytest.raises(CapExceeded):
        to_basis(gen("h", (15,)), "s")


def test_cold_transition_build_at_the_degree_cap():
    # clear the shared strip tables too, so every Kostka number is rebuilt
    _strip_counts.cache_clear()
    symfunc._degree_data.cache_clear()
    start = time.perf_counter()
    parts, index, k_matrix, k_inverse = symfunc._degree_data(DEGREE_CAP)
    elapsed = time.perf_counter() - start
    assert len(parts) == 135 and index[parts[-1]] == 134
    # h_{1^14} = sum f^lam s_lam: the last column of K holds the SYT counts
    assert [row[-1] for row in k_matrix] == [
        standard_tableaux_count(lam) for lam in parts
    ]
    # both are upper unitriangular, and their product is the identity
    size = len(parts)
    for i in range(size):
        assert k_matrix[i][i] == k_inverse[i][i] == 1
        assert not any(k_matrix[i][:i]) and not any(k_inverse[i][:i])
        for j in range(i + 1, size):
            assert sum(
                k_matrix[i][m] * k_inverse[m][j] for m in range(i, j + 1)
            ) == 0
    assert elapsed < 5.0


def test_inverse_kostka_matches_back_substitution():
    symfunc._degree_data.cache_clear()
    for n in range(0, DEGREE_CAP + 1):
        _, _, k_matrix, k_inverse = symfunc._degree_data(n)
        assert k_inverse == invert_unitriangular(k_matrix), n


def test_inverse_kostka_needs_unit_pivots(monkeypatch):
    # a table with diagonal 2 has no integer inverse: its reduced rows
    # [K | I] share the pivot value 2, which must be refused, not read
    monkeypatch.setattr(symfunc, "kostka", lambda lam, mu: 2 * kostka(lam, mu))
    symfunc._degree_data.cache_clear()
    with pytest.raises(ConsistencyError):
        symfunc._degree_data(3)
