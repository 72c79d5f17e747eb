"""Truncated series arithmetic, rational detection, certificates, and the
coefficientwise product of nonnegative-support series."""

import random
import sys
import time
from fractions import Fraction

import pytest

from heckeseries import linalg, partitions
from heckeseries import series as series_module
from heckeseries.linalg import BIT_LENGTH_CAP, CapExceeded
from heckeseries.series import (
    CERTIFICATE_CAP,
    DETECTION_CAP,
    ORDER_CAP,
    BirankCertificate,
    CertificateError,
    ConsistencyError,
    InconclusiveDetection,
    RationalForm,
    RootLocationError,
    TruncSeries,
    birank_certificate,
    detect_rational,
    diamond,
    expand_ratio,
    exterior_from_symmetric,
    hankel_minor,
    parse_rationals,
    poly_mul,
    poly_from_roots,
    predict_hom_series,
    schur_values,
    split_rational_form,
    sturm_all_roots_positive,
    total_positivity,
)

from oracles import (
    big_denominator_window,
    expand_ratio_dense,
    jacobi_trudi_det,
    minor_sum_diamond,
    per_order_detect_rational,
    poly_divide_exact,
    poly_divmod,
    poly_gcd,
    squarefree_sturm_all_roots_positive,
)


def geometric(ratio, order):
    return TruncSeries([Fraction(ratio) ** n for n in range(order + 1)])


class TestTruncSeries:
    def test_construction_and_coeff(self):
        f = TruncSeries([1, 2, 3])
        assert f.order == 2
        assert f.coeff(0) == 1
        assert f.coeff(-4) == 0
        with pytest.raises(ValueError):
            f.coeff(3)

    def test_mul_truncates_to_shorter_order(self):
        f = TruncSeries([1, 1, 1])
        g = TruncSeries([1, -1])
        h = f * g
        assert h.order == 1
        assert [h.coeff(0), h.coeff(1)] == [1, 0]

    def test_mul_keeps_the_truncated_product_and_caps_the_order(self):
        rng = random.Random(60)

        def seeded(order):
            return TruncSeries(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)
            )

        f, g = seeded(60), seeded(75)
        for h in (f.mul(g), g.mul(f)):
            assert h.coeffs == tuple(poly_mul(f.coeffs, g.coeffs)[:61])
        long = TruncSeries([1] * (ORDER_CAP + 2))
        start = time.perf_counter()
        message = f"series order {ORDER_CAP + 1} exceeds cap {ORDER_CAP}"
        with pytest.raises(CapExceeded, match=f"^{message}$"):
            long.mul(long)
        assert time.perf_counter() - start < 0.5

    def test_inverse(self):
        f = TruncSeries([1, -1, 0, 0, 0])
        inv = f.inverse()
        assert [inv.coeff(n) for n in range(5)] == [1, 1, 1, 1, 1]
        assert (f * inv).coeffs == (1, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            TruncSeries([0, 1]).inverse()

    def test_scale_and_negate_variable(self):
        f = TruncSeries([1, 1, 1, 1])
        g = f.scale_variable(Fraction(2))
        assert [g.coeff(n) for n in range(4)] == [1, 2, 4, 8]
        h = f.negate_variable()
        assert [h.coeff(n) for n in range(4)] == [1, -1, 1, -1]

    def test_render_parse_roundtrip(self):
        f = TruncSeries([1, Fraction(1, 2), -3])
        assert f.render() == "1, 1/2, -3"
        assert TruncSeries.parse(f.render()) == f

    def test_one(self):
        f = TruncSeries.one(3)
        assert f.coeffs == (1, 0, 0, 0)


def test_parse_rationals():
    assert parse_rationals(" 1, -3/6 ,0") == [1, Fraction(-1, 2), 0]
    assert TruncSeries.parse("1, 1/2").coeffs == (1, Fraction(1, 2))
    assert RationalForm.parse("1,2; 1,-1") == RationalForm((1, 2), (1, -1))


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_rationals, "1,", "malformed rational list '1,'"),
        (parse_rationals, "", "malformed rational list ''"),
        (parse_rationals, "1,x", "malformed rational list '1,x': Invalid literal for Fraction: 'x'"),
        (parse_rationals, "1,1/0", "malformed rational list '1,1/0': Fraction(1, 0)"),
        (TruncSeries.parse, "1,1/0", "malformed rational list '1,1/0': Fraction(1, 0)"),
        (TruncSeries.parse, "1,,2", "malformed rational list '1,,2'"),
        (RationalForm.parse, "1;1,1/0", "malformed rational list '1,1/0': Fraction(1, 0)"),
        (RationalForm.parse, "1,,2;1", "malformed rational list '1,,2'"),
    ],
)
def test_malformed_rational_lists_raise_value_error(parse, text, message):
    with pytest.raises(ValueError) as info:
        parse(text)
    assert str(info.value) == message


def test_expand_ratio():
    f = expand_ratio([1], [1, -2, 1], 6)
    assert [f.coeff(n) for n in range(7)] == [1, 2, 3, 4, 5, 6, 7]
    f = expand_ratio([1, 1], [1, -1], 4)
    assert [f.coeff(n) for n in range(5)] == [1, 2, 2, 2, 2]
    with pytest.raises(ValueError):
        expand_ratio([1], [0, 1], 3)


def test_expand_ratio_matches_the_dense_oracle():
    rng = random.Random(11)

    def poly(length):
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(length)]

    for _ in range(150):
        order = rng.randint(0, 12)
        # num and den may be shorter or longer than the order
        num = poly(rng.randint(0, 16))
        den = [Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))] + poly(rng.randint(0, 16))
        assert expand_ratio(num, den, order).coeffs == expand_ratio_dense(num, den, order).coeffs


class TestHankelMinor:
    def test_size_one_is_coefficient(self):
        f = TruncSeries([5, 7, 11])
        assert hankel_minor(f, 2, 1) == 11
        assert hankel_minor(f, 0, 1) == 5

    def test_size_zero_is_one(self):
        assert hankel_minor(TruncSeries([1]), 3, 0) == 1

    def test_constant_series_has_vanishing_two_minors(self):
        f = TruncSeries([1] * 10)
        for i in range(1, 8):
            assert hankel_minor(f, i, 2) == 0

    def test_linear_coefficients(self):
        # a_n = n + 1 gives unit 2x2 minors and vanishing 3x3 minors
        f = TruncSeries([n + 1 for n in range(12)])
        for i in range(1, 9):
            assert hankel_minor(f, i, 2) == 1
        for i in range(2, 7):
            assert hankel_minor(f, i, 3) == 0

    def test_negative_index_entries_are_zero(self):
        f = TruncSeries([1, 1, 1, 1])
        # determinant window sticking out to the left
        assert hankel_minor(f, 0, 2) == 1 * 1 - 1 * 0
        # a negative top index reads no coefficient from the end of the list
        g = TruncSeries([1, 2, 3, 5, 8])
        for i in (-3, -2, -1):
            for k in (1, 2):
                assert hankel_minor(g, i, k) == jacobi_trudi_det(g, (i,) * k) == 0

    def test_window_overflow(self):
        with pytest.raises(ValueError):
            hankel_minor(TruncSeries([1, 1]), 1, 2)

    def test_window_past_the_order_cap_is_refused_at_once(self, monkeypatch):
        # the 2000 x 2000 window of a series of order 2000 took 14 s
        def refuse(b):
            raise AssertionError("a Schur table was built")

        monkeypatch.setattr(series_module, "_SchurTable", refuse)
        with pytest.raises(CapExceeded, match=f"^series order 2000 exceeds cap {ORDER_CAP}$"):
            hankel_minor(TruncSeries([1] * 2001), 1, 2000)

    def test_matches_schur_minor_on_rectangles(self):
        f = expand_ratio([1, 1], [1, -1], 10)
        for i in range(0, 4):
            for k in range(0, 4):
                lam = (i,) * k if i else ()
                assert hankel_minor(f, i, k) == schur_values(f, 10)(lam)


class TestSchurValues:
    def test_every_partition_agrees_with_the_determinant(self):
        rng = random.Random(2026)
        a0s = [0, 1, 2, Fraction(-1, 2)]
        for trial in range(320):
            order = rng.randint(0, 7)
            kind = trial % 4
            if kind == 0:  # integers
                tail = [rng.randint(-6, 6) for _ in range(order)]
            elif kind == 1:  # fractions with unrelated denominators
                tail = [
                    Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 7, 11]))
                    for _ in range(order)
                ]
            elif kind == 2:  # mostly zero coefficients
                tail = [rng.choice([0, 0, 0, 1, -2, Fraction(3, 4)]) for _ in range(order)]
            else:  # a positive certificate-like series
                tail = list(expand_ratio([1, 1], [1, -rng.randint(1, 3)], order).coeffs[1:])
            f = TruncSeries([a0s[trial // 4 % 4]] + tail)
            value = schur_values(f, order)
            for w in range(order + 1):
                for lam in partitions.enumerate_partitions(w):
                    assert value(lam) == jacobi_trudi_det(f, lam), (f, lam)
            # Hankel windows (i,)*k, zero parts included
            for i in range(order + 1):
                for k in range(order - i + 2):
                    assert value((i,) * k) == jacobi_trudi_det(f, (i,) * k), (f, i, k)
                    assert hankel_minor(f, i, k) == value((i,) * k)

    def test_trailing_zero_parts(self):
        f = TruncSeries([1, 2, 3, 5, 8])
        assert schur_values(f, 4)((2, 0, 0)) == jacobi_trudi_det(f, (2, 0, 0))

    @pytest.mark.parametrize("lam", [(3,), (5,), (2, 2), (1, 1, 1, 1), (0, 0, 0, 0), (3, 0)])
    def test_entries_beyond_the_window_raise_as_coeff_does(self, lam):
        f = TruncSeries([1, 2, 3])
        with pytest.raises(ValueError) as expected:
            jacobi_trudi_det(f, lam)
        with pytest.raises(ValueError) as got:
            schur_values(f, 2)(lam)
        assert str(got.value) == str(expected.value)
        assert str(got.value).endswith("beyond truncation order 2")


class TestDetectRational:
    def test_arithmetic_progression(self):
        f = TruncSeries([1, 2, 3, 4, 5, 6, 7])
        form = detect_rational(f, 3)
        assert form == RationalForm((Fraction(1),), (Fraction(1), Fraction(-2), Fraction(1)))

    def test_fibonacci(self):
        f = TruncSeries([1, 1, 2, 3, 5, 8, 13, 21])
        form = detect_rational(f, 2)
        assert form.den == (Fraction(1), Fraction(-1), Fraction(-1))
        assert form.num == (Fraction(1),)

    def test_short_window_example(self):
        f = TruncSeries([1, 3, 6, 10, 15, 21, 28])
        form = detect_rational(f, 3)
        assert form.den == (1, -3, 3, -1)
        assert form.num == (1,)

    def test_reduced_fraction_returned(self):
        # (1 - t^2)/(1 - t)^2 expands like (1 + t)/(1 - t)
        f = expand_ratio([1, 0, -1], [1, -2, 1], 9)
        form = detect_rational(f, 3)
        assert form.num == (1, 1)
        assert form.den == (1, -1)

    def test_numerator_longer_than_denominator(self):
        f = expand_ratio([1, 0, 0, 2], [1, -1], 10)
        form = detect_rational(f, 4)
        assert form.num == (1, 0, 0, 2)
        assert form.den == (1, -1)
        assert form.expand(10).coeffs == f.coeffs

    def test_polynomial_series(self):
        # polynomial of degree 4 needs the recurrence-depth budget to cover
        # its numerator, so r_max = 3 is inconclusive while 4 succeeds
        f = TruncSeries([1, 4, 6, 4, 1, 0, 0, 0, 0])
        assert detect_rational(f, 3) is None
        form = detect_rational(f, 4)
        assert form.den == (1,)
        assert form.num == (1, 4, 6, 4, 1)

    def test_inconclusive_returns_none(self):
        f = TruncSeries([1, 2, 3, 5, 7, 11, 13])  # primes: no depth-3 recurrence
        assert detect_rational(f, 3) is None

    def test_window_too_short_for_onset(self):
        # numerator degree 5 forces onset 6 past the allowed r_max + 1
        f = expand_ratio([1, 0, 0, 0, 0, 3], [1, -1], 10)
        assert detect_rational(f, 3) is None
        form = detect_rational(f, 5)
        assert form is not None and form.num == (1, 0, 0, 0, 0, 3)

    def test_random_roundtrip(self):
        rng = random.Random(1234)
        done = 0
        while done < 40:
            num = [Fraction(1)] + [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))
            ]
            den = [Fraction(1)] + [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))
            ]
            while num and num[-1] == 0:
                num.pop()
            while den and den[-1] == 0:
                den.pop()
            if poly_gcd(num, den) != [Fraction(1)]:
                continue
            form = detect_rational(expand_ratio(num, den, 10), 3)
            assert form is not None
            assert list(form.num) == num and list(form.den) == den
            done += 1

    def test_one_pass_equals_the_per_order_solves(self):
        # rational, perturbed, polynomial, zero-heavy and large-fraction
        # windows of orders 0-20 against r_max 0-10
        rng = random.Random(13)

        def rational(lo=-4, hi=4):
            return Fraction(rng.randint(lo, hi), rng.randint(1, 3))

        def window(kind, n):
            if kind in ("rational", "perturbed"):
                num = [rational() for _ in range(rng.randint(1, 5))]
                den = [1] + [rational() for _ in range(rng.randint(0, 4))]
                cs = list(expand_ratio(num, den, n).coeffs)
                if kind == "perturbed":
                    cs[rng.randrange(n + 1)] += rng.choice([1, -1, Fraction(1, 2)])
                return cs
            if kind == "polynomial":
                k = rng.randint(0, n + 1)
                return [rational() for _ in range(k)] + [0] * (n + 1 - k)
            if kind == "zero-heavy":
                return [rng.choice([0, 0, 0, 0, 1, -1, 2]) for _ in range(n + 1)]
            return [rational(-10**12, 10**12) / 10**rng.randint(0, 9) for _ in range(n + 1)]

        kinds = ("rational", "perturbed", "polynomial", "zero-heavy", "large-fraction")
        found = set()
        for i in range(3000):
            f = TruncSeries(window(kinds[i % len(kinds)], rng.randint(0, 20)))
            r_max = rng.randint(0, 10)
            form = detect_rational(f, r_max)
            assert form == per_order_detect_rational(f, r_max), (f, r_max)
            found.add(form is None)
        assert found == {True, False}


class TestDetectionCaps:
    def test_cap_is_checked_before_the_first_solve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the window was scaled before the cap check")

        # scaling the window to integers is the first step of the one pass
        monkeypatch.setattr(linalg, "lcm", refuse)
        f = TruncSeries(range(1, 120))
        message = f"recurrence order {DETECTION_CAP + 1} exceeds cap {DETECTION_CAP}"
        with pytest.raises(CapExceeded, match=f"^{message}$"):
            detect_rational(f, DETECTION_CAP + 1)
        message = f"series order {ORDER_CAP + 1} exceeds cap {ORDER_CAP}"
        with pytest.raises(CapExceeded, match=f"^{message}$"):
            detect_rational(TruncSeries([1] * (ORDER_CAP + 2)), 2)

    @pytest.mark.parametrize(
        "window, message",
        [
            # 1/∏_{k≤24}(1 - kt) to order 1000, 4616 bits: 7 s before the cap
            (lambda: expand_ratio([1], poly_from_roots(range(1, 25)), ORDER_CAP),
             "window bit length 4616"),
            (lambda: TruncSeries([2**BIT_LENGTH_CAP, 1]),
             f"window bit length {BIT_LENGTH_CAP + 1}"),
            # each entry fits, their lcm D does not
            (lambda: TruncSeries([Fraction(1, 3**600), Fraction(1, 2**600)]),
             "window denominator bit length 1551"),
            # numerator and D fit, the scaled entry D·a_n does not
            (lambda: TruncSeries([2**1000, Fraction(1, 2**30)]), "window bit length 1031"),
        ],
    )
    def test_windows_past_the_bit_length_cap_are_refused_at_once(self, window, message):
        f = window()
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=f"^{message} exceeds cap {BIT_LENGTH_CAP}$"):
            detect_rational(f, DETECTION_CAP)
        assert time.perf_counter() - start < 1.0

    def test_caps_themselves_are_allowed(self):
        f = TruncSeries([2 ** (BIT_LENGTH_CAP - 1)] * 4)
        assert detect_rational(f, 1) == RationalForm((2 ** (BIT_LENGTH_CAP - 1),), (1, -1))
        den = [1, -3, 1] + [0] * (DETECTION_CAP - 3) + [1]
        f = expand_ratio([1], den, 2 * DETECTION_CAP + 2)
        assert detect_rational(f, DETECTION_CAP) == RationalForm((1,), den)
        f = TruncSeries([1] * (ORDER_CAP + 1))
        assert detect_rational(f, 2) == RationalForm((1,), (1, -1))


class TestSchurWindowCaps:
    """Schur values read their window as detection does: D as its lcm
    grows, then the scaled window D·a_n, against BIT_LENGTH_CAP."""

    def test_a_window_past_the_cap_is_refused_by_every_reader_at_once(self):
        # total positivity to weight 24 on it took 10 s before the cap
        f = TruncSeries(big_denominator_window())
        message = f"^window denominator bit length 1075 exceeds cap {BIT_LENGTH_CAP}$"
        for read in (
            lambda: total_positivity(f, 24),
            lambda: hankel_minor(f, 0, 12),
            lambda: schur_values(f, 24),
        ):
            start = time.perf_counter()
            with pytest.raises(CapExceeded, match=message):
                read()
            assert time.perf_counter() - start < 1.0

    def test_readers_cap_only_the_coefficients_they_read(self):
        # the lcm D of a_0 ... a_9 fits, and a_10 takes it past the cap
        f = TruncSeries(big_denominator_window())
        message = f"^window denominator bit length 1075 exceeds cap {BIT_LENGTH_CAP}$"
        assert hankel_minor(f, 0, 10) == jacobi_trudi_det(f, (0,) * 10)
        assert hankel_minor(f, 1, 9) == jacobi_trudi_det(f, (1,) * 9)
        assert schur_values(f, 9)((5, 3, 1)) == jacobi_trudi_det(f, (5, 3, 1))
        assert total_positivity(f, 9) is None
        for read in (
            lambda: hankel_minor(f, 0, 11),
            lambda: schur_values(f, 10),
            lambda: total_positivity(f, 10),
        ):
            start = time.perf_counter()
            with pytest.raises(CapExceeded, match=message):
                read()
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ([1, Fraction(1, 2**BIT_LENGTH_CAP)],
             f"window denominator bit length {BIT_LENGTH_CAP + 1}"),
            ([1, 2**BIT_LENGTH_CAP], f"window bit length {BIT_LENGTH_CAP + 1}"),
        ],
    )
    def test_one_bit_past_the_cap_is_refused(self, coeffs, message):
        with pytest.raises(CapExceeded, match=f"^{message} exceeds cap {BIT_LENGTH_CAP}$"):
            hankel_minor(TruncSeries(coeffs), 1, 1)

    def test_a_window_at_the_cap_is_read(self):
        # D = 2**(cap - 1) and the scaled window [D, 1, D] are cap bits long
        small = Fraction(1, 2 ** (BIT_LENGTH_CAP - 1))
        f = TruncSeries([1, small, 1])
        assert hankel_minor(f, 1, 1) == small
        value = schur_values(f, 2)
        for lam in [(1,), (2,), (1, 1)]:
            assert value(lam) == jacobi_trudi_det(f, lam)
        assert total_positivity(f, 2) == ((1, 1), small**2 - 1)


class TestOperandAndPolynomialCaps:
    """diamond reads each operand's D, and the Sturm sequence its
    polynomial's, through linalg.scale_to_integers, within BIT_LENGTH_CAP."""

    @pytest.mark.parametrize(
        "compute, message",
        [
            (lambda wide: diamond(TruncSeries([1, 1, 1]), TruncSeries(wide), 2),
             "operand denominator bit length 1551"),
            (sturm_all_roots_positive, "polynomial denominator bit length 1551"),
        ],
    )
    def test_denominators_past_the_cap_are_refused(self, compute, message):
        # each denominator fits, their lcm does not (951 + 600 bits)
        wide = [1, Fraction(-1, 3**600), Fraction(1, 2**600)]
        with pytest.raises(CapExceeded, match=f"^{message} exceeds cap {BIT_LENGTH_CAP}$"):
            compute(wide)

    def test_denominators_at_the_cap_are_read(self):
        small = Fraction(1, 2 ** (BIT_LENGTH_CAP - 1))
        got = diamond(TruncSeries([1, small]), TruncSeries([1, 3]), 1)
        assert got == TruncSeries([1, 3 * small])
        assert sturm_all_roots_positive([1, -small])


class TestPrintBound:
    """A series coefficient whose numerator or denominator has more decimal
    digits than str converts is refused when it is rendered, and by diamond
    as soon as it is computed; a result that prints is never refused, however
    long the intermediates that lead to it."""

    @pytest.fixture
    def limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        yield sys.int_info.default_max_str_digits
        sys.set_int_max_str_digits(old)

    def test_the_bound_is_the_digit_limit_of_str(self, limit):
        def digits(x):
            sys.set_int_max_str_digits(0)
            try:
                return len(str(abs(x)))
            finally:
                sys.set_int_max_str_digits(limit)

        # powers of 10 and of 2 on both sides of 10**limit
        check = series_module._check_printable
        top = (10**limit).bit_length()
        candidates = [10**k + e for k in range(limit - 2, limit + 30) for e in (-1, 0, 1)]
        candidates += [2**b + e for b in range(top - 30, top + 30) for e in (-1, 0)]
        for x in candidates:
            for y in (x, -x, Fraction(1, x), Fraction(-1, x)):
                if digits(x) <= limit:
                    assert check(y) is y and str(y)
                else:
                    message = (
                        f"^coefficient bit length {x.bit_length()} "
                        f"exceeds the limit of {limit} decimal digits$"
                    )
                    with pytest.raises(CapExceeded, match=message):
                        check(y)
                    with pytest.raises(ValueError, match="Exceeds the limit"):
                        str(y)

    def test_no_limit_refuses_nothing(self, limit):
        x = 10 ** (2 * limit)
        sys.set_int_max_str_digits(0)
        assert series_module._check_printable(Fraction(1, x)) == Fraction(1, x)
        assert TruncSeries([1, x]).render() == f"1, {x}"
        f = expand_ratio([1], [1, -(10**100)], 100)
        assert diamond(f, f, 100).coeffs[-1] == 10**20000

    def test_rendering_refuses_what_expand_ratio_computes(self, limit):
        # an expansion may be a pairing operand, so computing it is not refused
        f = expand_ratio([1], [1, -(10**100)], ORDER_CAP)
        with pytest.raises(CapExceeded, match="^coefficient bit length "):
            f.render()

    def test_diamond_refuses_as_its_result_grows(self, limit):
        f = expand_ratio([1], [1, -(10**100)], ORDER_CAP)
        start = time.perf_counter()
        # the result is 1/(1 - 10**200 t), past the limit at degree 22
        with pytest.raises(CapExceeded, match="^coefficient bit length "):
            diamond(f, f, ORDER_CAP)
        assert time.perf_counter() - start < 1.0

    def test_diamond_prints_short_results_of_long_intermediates(self, limit):
        # read at D t, D = 2**200, the power sums of 1/(1 - t/2) carry D**n
        # and pass the limit near degree 73
        f = expand_ratio([1], [1, Fraction(-1, 2)], 200)
        assert diamond(f, f, 200).coeffs == tuple(Fraction(1, 4**n) for n in range(201))
        # power sums of 10**(100 k), cancelling to 1 + 10**200 t
        x = 10**100
        f, g = TruncSeries([1, x] + [0] * 99), expand_ratio([1], [1, -x], 100)
        assert diamond(f, g, 100).coeffs == (1, x**2) + (0,) * 99


class TestRationalForm:
    def test_validation(self):
        with pytest.raises(ValueError):
            RationalForm((Fraction(1),), (Fraction(2),))
        with pytest.raises(ValueError):
            RationalForm((Fraction(1),), ())

    def test_render_parse(self):
        form = RationalForm((Fraction(1),), (Fraction(1), Fraction(-2), Fraction(1)))
        assert form.render() == "num=1; den=1,-2,1"
        assert RationalForm.parse(form.render()) == form

    def test_expand(self):
        form = RationalForm((Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1)))
        assert form.expand(4).coeffs == (1, 2, 2, 2, 2)

    def test_keys_name_their_polynomials(self):
        want = ("1", "1,-1")
        assert split_rational_form("num=1; den=1,-1") == want
        assert split_rational_form("den=1,-1;num=1") == want
        assert split_rational_form(" den = 1,-1 ; num = 1 ") == want
        assert split_rational_form("1; 1,-1") == want
        assert RationalForm.parse("den=1,-1; num=1") == RationalForm.parse("1;1,-1")

    @pytest.mark.parametrize(
        "text",
        ["foo=1; bar=1,-1", "num=1; num=1,-1", "1; den=1,-1", "num=1;den=1;x", "1"],
    )
    def test_unknown_repeated_or_mixed_keys_are_refused(self, text):
        with pytest.raises(ValueError):
            split_rational_form(text)
        with pytest.raises(ValueError):
            RationalForm.parse(text)


class TestSturm:
    def test_known_positive(self):
        assert sturm_all_roots_positive([1, -3, 2])        # roots 1/2 and 1
        assert sturm_all_roots_positive([1, -1])
        assert sturm_all_roots_positive([1])
        assert sturm_all_roots_positive([1, -3, 1])        # irrational positive pair
        assert sturm_all_roots_positive([1, -5, 6])

    def test_known_negative(self):
        assert not sturm_all_roots_positive([1, 1])        # root -1
        assert not sturm_all_roots_positive([1, -2, 2])    # complex pair
        assert not sturm_all_roots_positive([1, 0, -1])    # one root negative
        assert not sturm_all_roots_positive([1, 4, 5])

    def test_repeated_roots_allowed(self):
        assert sturm_all_roots_positive([1, -5, 10, -10, 5, -1])  # (1-t)^5
        assert not sturm_all_roots_positive([1, 2, 1])            # (1+t)^2

    def test_rejects_zero_constant_term(self):
        with pytest.raises(ValueError):
            sturm_all_roots_positive([0, 1])
        with pytest.raises(ValueError):
            sturm_all_roots_positive([])

    def test_one_sequence_agrees_with_the_squarefree_chain(self, monkeypatch):
        # products of factors with positive, negative, complex, fractional
        # and repeated roots, under a random rational scale, then perturbed
        # or divided through
        rng = random.Random(9)

        def ratio():
            return Fraction(rng.randint(1, 12), rng.randint(1, 5))

        def factor():
            kind = rng.choice(["pos", "pos", "pos", "neg", "complex"])
            if kind == "pos":
                return [1, -ratio()]
            if kind == "neg":
                return [1, ratio()]
            b, c = ratio(), ratio()
            return [1, b, b * b / 4 + c]  # discriminant -4c < 0

        divisions = []

        def counting_remainder(p, d):
            assert all(type(c) is int for c in p + d)
            divisions.append(1)
            return remainder(p, d)

        remainder = series_module._pseudo_remainder
        monkeypatch.setattr(series_module, "_pseudo_remainder", counting_remainder)
        verdicts = set()
        for i in range(600):
            p = [Fraction(rng.choice([-7, -1, 1, 3]), rng.randint(1, 4))]
            for _ in range(rng.randint(1, 4)):
                f = factor()
                for _ in range(rng.choice([1, 1, 1, 2, 3])):
                    p = poly_mul(p, f)
            if i % 3 == 1 and len(p) > 1:
                p[rng.randrange(1, len(p))] += Fraction(rng.choice([-1, 1]), rng.randint(1, 1000))
            elif i % 3 == 2:
                p = [c / rng.randint(1, 7) for c in p]
            divisions.clear()
            verdict = sturm_all_roots_positive(p)
            assert verdict == squarefree_sturm_all_roots_positive(p), p
            # one Euclid pass: no squarefree step before the sequence
            assert len(divisions) <= len(p) - 1
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_pseudo_remainder_is_a_positive_multiple_of_the_remainder(self):
        # negative leading coefficients and zero top terms on the way down
        # would flip a sign under a factor lc**k with k odd
        rng = random.Random(17)
        for _ in range(400):
            d = [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))]
            d.append(rng.choice([-3, -1, 2, 5]))
            p = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(rng.randint(len(d), 9))]
            got, want = series_module._pseudo_remainder(p, d), poly_divmod(p, d)[1]
            assert len(got) == len(want), (p, d)
            if want:
                c = Fraction(got[-1]) / want[-1]
                assert c > 0 and got == [c * w for w in want], (p, d)


class TestTotalPositivity:
    def test_clean_series(self):
        f = expand_ratio([1, 1], [1, -1], 8)
        assert total_positivity(f, 6) is None

    def test_violation_reported_with_witness(self):
        f = TruncSeries([1, 1, 1, 0, 0, 0, 0, 0, 0])
        hit = total_positivity(f, 3)
        assert hit == ((1, 1, 1), Fraction(-1))

    def test_first_violation_in_weight_order(self):
        # 1 + t + t^3 fails first at the weight-3 shape (2,1):
        # det [[a2, a3], [a0, a1]] = 0*1 - 1*1 = -1
        f = TruncSeries([1, 1, 0, 1, 0, 0])
        lam, value = total_positivity(f, 4)
        assert lam == (2, 1)
        assert value == -1

    def test_single_positive_root_polynomial_is_clean(self):
        assert total_positivity(TruncSeries([1, 2, 0, 0, 0, 0]), 4) is None

    def test_first_violation_equals_the_determinant_scan(self):
        rng = random.Random(12)
        hits = 0
        for _ in range(60):
            order = rng.randint(0, 7)
            f = TruncSeries(
                [rng.choice([0, 1, 2, Fraction(1, 3)])]
                + [
                    Fraction(rng.randint(-1, 6), rng.choice([1, 1, 2, 7]))
                    for _ in range(order)
                ]
            )
            expected = next(
                (
                    (lam, v)
                    for w in range(order + 1)
                    for lam in partitions.enumerate_partitions(w)
                    if (v := jacobi_trudi_det(f, lam)) < 0
                ),
                None,
            )
            assert total_positivity(f, order) == expected
            hits += expected is not None
        assert 0 < hits < 60


class TestBirankCertificate:
    def test_from_polynomials(self):
        cert = BirankCertificate.from_polynomials([1, -2, 1], [1])
        assert cert.birank == (2, 0)
        assert cert.symmetric_series(4).coeffs == (1, 2, 3, 4, 5)
        assert cert.exterior_series(4).coeffs == (1, 2, 1, 0, 0)
        assert cert.render() == "f0=1,-2,1; f1=1; roots positive real: verified"

    def test_super_certificate_series(self):
        cert = BirankCertificate.from_polynomials([1, -1], [1, -1])
        assert cert.birank == (1, 1)
        assert cert.symmetric_series(5).coeffs == (1, 2, 2, 2, 2, 2)
        assert cert.exterior_series(5).coeffs == (1, 2, 2, 2, 2, 2)

    def test_rejects_noninteger(self):
        with pytest.raises(CertificateError):
            BirankCertificate.from_polynomials([1, Fraction(-1, 2)], [1])

    def test_rejects_bad_constant(self):
        with pytest.raises(CertificateError):
            BirankCertificate.from_polynomials([2, -2], [1])

    def test_rejects_negative_root(self):
        with pytest.raises(RootLocationError) as info:
            BirankCertificate.from_polynomials([1, 1], [1])
        assert info.value.polynomial == (1, 1)

    def test_degree_is_capped_before_any_root_count(self, monkeypatch):
        def refuse(p):
            raise AssertionError("root count started before the degree check")

        monkeypatch.setattr(series_module, "sturm_all_roots_positive", refuse)
        top = poly_from_roots(range(1, CERTIFICATE_CAP + 2))
        for f0, f1 in ((top, [1]), ([1, -1], top), ([1, Fraction(1, 2)], top)):
            with pytest.raises(CapExceeded) as info:
                BirankCertificate.from_polynomials(f0, f1)
            assert str(info.value) == (
                f"certificate degree {CERTIFICATE_CAP + 1} exceeds cap {CERTIFICATE_CAP}"
            )

    def test_detection_pipeline(self):
        f = TruncSeries([1, 2, 3, 4, 5, 6])
        cert = birank_certificate(f, 2)
        assert cert.f0 == (1, -2, 1) and cert.f1 == (1,)

    def test_detection_pipeline_negative_root_rejected(self):
        f = TruncSeries([1, 1, 2, 3, 5, 8, 13, 21])
        with pytest.raises(RootLocationError):
            birank_certificate(f, 2)

    def test_detection_pipeline_nonrational_window(self):
        f = TruncSeries([1, 2, 3, 5, 7, 11, 13])
        with pytest.raises(InconclusiveDetection):
            birank_certificate(f, 2)

    def test_detection_pipeline_nonunit_start(self):
        f = TruncSeries([2, 2, 2, 2, 2, 2])
        with pytest.raises(CertificateError):
            birank_certificate(f, 2)

    def test_bound_on_first_coefficient(self):
        # valid certificates satisfy r0 + r1 <= first coefficient; by AM-GM,
        # a_1 = sum alpha + sum beta >= r0 + r1, as prod alpha = |lead f0| >= 1
        golden = [1, -3, 1]
        top = poly_mul(poly_mul(golden, golden), poly_from_roots([1] * 12))
        assert len(top) - 1 == CERTIFICATE_CAP
        pairs = [
            ([1, -2, 1], [1]), ([1, -1], [1, -1]), ([1, -5, 6], [1, -1]),
            (golden, [1]), (golden, [1, -5, 5]), (top, [1]), ([1], top), (top, top),
        ]
        rng = random.Random(34)
        for _ in range(40):
            roots0 = [rng.randint(1, 5) for _ in range(rng.randint(0, 4))]
            roots1 = [rng.randint(1, 5) for _ in range(rng.randint(0, 4))]
            pairs.append((poly_from_roots(roots0), poly_from_roots(roots1)))
        for f0, f1 in pairs:
            cert = BirankCertificate.from_polynomials(f0, f1)
            a1 = cert.symmetric_series(1).coeff(1)
            assert sum(cert.birank) <= a1


def test_exterior_from_symmetric_involution():
    f = expand_ratio([1], [1, -2, 1], 8)
    g = exterior_from_symmetric(f)
    assert g.coeffs == (1, 2, 1, 0, 0, 0, 0, 0, 0)
    assert exterior_from_symmetric(g).coeffs == f.coeffs
    assert (f * g.negate_variable()).coeffs == TruncSeries.one(8).coeffs


class TestDiamond:
    def test_unit_element(self):
        # the series with a_n = [n == 0] is a two-sided unit
        one = TruncSeries.one(6)
        f = expand_ratio([1], [1, -2, 1], 6)
        assert diamond(one, f, 6).coeffs == one.coeffs
        # and rank-one against rank-one gives geometric growth
        g = expand_ratio([1], [1, -2], 6)
        h = expand_ratio([1], [1, -3], 6)
        assert diamond(g, h, 6).coeffs == tuple(Fraction(6) ** n for n in range(7))

    def test_commutative(self):
        f = expand_ratio([1, 1], [1, -1], 6)
        g = expand_ratio([1], [1, -2, 1], 6)
        assert diamond(f, g, 6).coeffs == diamond(g, f, 6).coeffs

    def test_polynomial_times_polynomial(self):
        f = TruncSeries([1, 1, 0, 0, 0, 0, 0])
        assert diamond(f, f, 6).coeffs == (1, 1, 1, 1, 1, 1, 1)

    def test_requires_enough_coefficients(self):
        with pytest.raises(ValueError):
            diamond(TruncSeries([1, 1]), TruncSeries([1, 1, 1]), 2)

    def test_evaluates_no_partition(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the pairing product evaluated a partition")

        # every Schur value a table computes passes through its __missing__;
        # total_positivity imports enumerate_partitions when it runs, so the
        # patch reaches any caller in series
        monkeypatch.setattr(partitions, "enumerate_partitions", refuse)
        monkeypatch.setattr(series_module._SchurTable, "__missing__", refuse)
        f = expand_ratio([1], [1, -5, 6], 8)
        g = expand_ratio([1, 1], [1, -1], 8)
        assert diamond(f, g, 8) == minor_sum_diamond(f, g, 8)
        cert = BirankCertificate.from_polynomials([1, -3, 1], [1, -5, 5])
        series = cert.symmetric_series(8)
        assert predict_hom_series(cert, cert, 8) == minor_sum_diamond(series, series, 8)

    def test_equals_the_minor_sum_on_seeded_series(self):
        rng = random.Random(14)
        kinds = ("integer", "fractional", "polynomial")

        def unit_series(kind, order):
            if kind == "integer":
                tail = [rng.randint(-9, 9) for _ in range(order)]
            elif kind == "fractional":
                # denominators that share no factor with one another
                tail = [
                    Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7, 11]))
                    for _ in range(order)
                ]
            else:
                # a short polynomial padded with exact zeros, as the CLI reads it
                tail = [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
                tail = (tail + [0] * order)[:order]
            return TruncSeries([1] + tail)

        for order in range(11):
            for kind in kinds:
                f, g = unit_series(kind, order), unit_series(rng.choice(kinds), order)
                assert diamond(f, g, order) == minor_sum_diamond(f, g, order)
        one = TruncSeries.one(3)
        for a0 in (0, 2, Fraction(1, 2)):
            f = TruncSeries([a0, 1, -1, 2])
            for pair in ((f, one), (one, f)):
                with pytest.raises(ValueError, match="needs constant term 1"):
                    diamond(*pair, 3)


class TestPredictHomSeries:
    def test_rank_two_against_rank_two(self):
        cert = BirankCertificate.from_polynomials([1, -2, 1], [1])
        f = predict_hom_series(cert, cert, 4)
        assert f.coeffs == (1, 4, 10, 20, 35)

    def test_rank_two_against_rank_one(self):
        a = BirankCertificate.from_polynomials([1, -2, 1], [1])
        b = BirankCertificate.from_polynomials([1, -1], [1])
        assert predict_hom_series(a, b, 4).coeffs == (1, 2, 3, 4, 5)

    def test_mixed_pair(self):
        a = BirankCertificate.from_polynomials([1, -1], [1])
        b = BirankCertificate.from_polynomials([1, -1], [1, -1])
        assert predict_hom_series(a, b, 4).coeffs == (1, 2, 2, 2, 2)

    def test_rank_zero_absorbs(self):
        zero = BirankCertificate.from_polynomials([1], [1])
        a = BirankCertificate.from_polynomials([1, -2, 1], [1])
        assert predict_hom_series(zero, a, 5).coeffs == (1, 0, 0, 0, 0, 0)

    def test_dual_of_prediction_inverts_sign_flip(self):
        a = BirankCertificate.from_polynomials([1, -2, 1], [1])
        f = predict_hom_series(a, a, 6)
        g = exterior_from_symmetric(f)
        assert (f * g.negate_variable()).coeffs == TruncSeries.one(6).coeffs

    def test_prediction_equals_the_minor_sum_on_seeded_certificates(self):
        rng = random.Random(3)

        def cert(r0, r1):
            alphas, betas = ([rng.randint(1, 4) for _ in range(r)] for r in (r0, r1))
            return BirankCertificate.from_polynomials(
                series_module.poly_from_roots(alphas), series_module.poly_from_roots(betas)
            )

        golden = BirankCertificate.from_polynomials([1, -3, 1], [1])
        zero = BirankCertificate.from_polynomials([1], [1])
        irrational_super = BirankCertificate.from_polynomials([1, -3, 1], [1, -4, 2])
        certs = [golden, zero, irrational_super] + [
            cert(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(4)
        ]
        order = 12
        for a in certs:
            for b in (golden, zero, certs[rng.randrange(2, len(certs))]):
                fa, fb = a.symmetric_series(order), b.symmetric_series(order)
                assert predict_hom_series(a, b, order) == minor_sum_diamond(fa, fb, order)

    def test_noninteger_roots_still_agree_with_diamond(self):
        a = BirankCertificate.from_polynomials([1, -3, 1], [1])
        b = BirankCertificate.from_polynomials([1, -1], [1])
        f = predict_hom_series(a, b, 4)
        assert f == minor_sum_diamond(a.symmetric_series(4), b.symmetric_series(4), 4)

    def test_huge_irrational_roots_need_no_trial_division(self):
        # reciprocal roots (2000001 ± sqrt(4000005)) / 2: trial division up
        # to the leading coefficient would take ~10^12 steps
        a = BirankCertificate.from_polynomials([1, -2000001, 999999999999], [1])
        b = BirankCertificate.from_polynomials([1, -1], [1])
        start = time.perf_counter()
        f = predict_hom_series(a, b, 4)
        assert time.perf_counter() - start < 2.0
        assert f == minor_sum_diamond(a.symmetric_series(4), b.symmetric_series(4), 4)

    def test_every_certificate_pair_is_cross_checked(self):
        big = 10**9 + 7
        certs = [
            BirankCertificate.from_polynomials(poly_mul([1, -1], [1, -big]), [1]),
            BirankCertificate.from_polynomials([1, -3, 1], [1]),  # golden ratio
            BirankCertificate.from_polynomials([1], [1]),  # rank zero
            BirankCertificate.from_polynomials([1, -3, 1], [1, -5, 5]),
        ]
        order = 6
        for a in certs:
            for b in certs:
                fa, fb = a.symmetric_series(order), b.symmetric_series(order)
                assert predict_hom_series(a, b, order) == minor_sum_diamond(fa, fb, order)

    def test_power_sums_of_certificates(self):
        order = 6

        def power_sums(cert):
            h = [c.numerator for c in cert.symmetric_series(order).coeffs]
            p = list(series_module._power_sums(h, order))
            assert all(type(x) is int for x in p)
            return p

        # reciprocal roots 1, 3, 3: p_k = 1 + 2 * 3^k
        cert = BirankCertificate.from_polynomials(
            poly_mul(poly_mul([1, -3], [1, -1]), [1, -3]), [1]
        )
        assert power_sums(cert)[1:] == [1 + 2 * 3**k for k in range(1, order + 1)]
        # golden ratio: p_k is the Lucas number L_2k
        cert = BirankCertificate.from_polynomials([1, -3, 1], [1])
        assert power_sums(cert)[1:] == [3, 7, 18, 47, 123, 322]
        # super alphabet (2 | 5): p_k = 2^k - (-5)^k
        cert = BirankCertificate.from_polynomials([1, -2], [1, -5])
        p = power_sums(cert)
        assert p[1:] == [2**k - (-5) ** k for k in range(1, order + 1)]
        # and the same identity solved for h returns the series
        assert series_module._exp_power_sums(p, order, 1) == cert.symmetric_series(order)

    def test_a_remainder_in_the_exponential_step_is_a_bug(self):
        # p_1 = 1, p_2 = 0 would need h_2 = 1/2: no product of integral series
        with pytest.raises(ConsistencyError, match="non-integral h_2"):
            series_module._exp_power_sums([0, 1, 0], 2, 1)


def test_poly_mul():
    assert poly_mul([1, 1], [1, -1]) == [Fraction(1), Fraction(0), Fraction(-1)]
    assert poly_mul([], [1]) == []


def test_divmod_on_random_rational_polynomials():
    rng = random.Random(5)
    trim, divmod_, exact = series_module.poly_trim, poly_divmod, poly_divide_exact

    def rational_poly(deg):
        lead = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg)] + [lead]

    def add(a, b):
        n = max(len(a), len(b))
        return trim([x + y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))])

    for _ in range(200):
        p = rational_poly(rng.randint(0, 7))
        d = rational_poly(rng.randint(0, 4))
        quotient, remainder = divmod_(p, d)
        assert len(remainder) < len(d)
        assert add(poly_mul(quotient, d), remainder) == p
        assert exact(poly_mul(p, d), d) == p
        if remainder:
            with pytest.raises(ValueError, match="inexact"):
                exact(p, d)
    with pytest.raises(ZeroDivisionError):
        divmod_([1, 2], [0])


def test_poly_from_roots():
    assert series_module.poly_from_roots([]) == [1]
    assert series_module.poly_from_roots([2, Fraction(1, 3)]) == [
        1,
        Fraction(-7, 3),
        Fraction(2, 3),
    ]
