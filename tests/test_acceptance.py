"""Acceptance gate: every deliverable property of the package checked
end-to-end at its stated scale, all equalities exact.

Each test covers one numbered criterion, tags itself for the one-line
summary, and asserts its own runtime budget where one is stated.
"""

import math
import random
import time
from fractions import Fraction

from heckeseries.partitions import (
    dominance_leq,
    enumerate_partitions,
    in_hook,
    kostka,
    lr_coeff,
    partition_pairs,
    standard_tableaux_count,
)
from heckeseries.rmatrix import (
    BraidViolation,
    build_standard,
    build_super,
    dim_e_component,
    dim_intertwiner,
    dim_quotient,
    exterior_dims,
    load_and_validate,
    symmetric_dims,
)
from heckeseries.series import (
    BirankCertificate,
    TruncSeries,
    detect_rational,
    diamond,
    expand_ratio,
    exterior_from_symmetric,
    poly_mul,
    predict_hom_series,
    schur_values,
)
from heckeseries.symfunc import (
    SymElement,
    hall_rep,
    hom_eval,
    inner_product,
    multiply,
    specialize_super,
    to_basis,
)
from heckeseries.verify import detected_certificate

import pytest

from oracles import count_mixed_matrices, lr_coeff_via_pieri, poly_gcd


def poly_from_roots(roots):
    out = [Fraction(1)]
    for a in roots:
        out = poly_mul(out, [Fraction(1), -Fraction(a)])
    return out


def test_criterion_01_standard_family(criterion):
    criterion(1, "standard family: binomial dimensions, certificate, duality")
    t0 = time.monotonic()
    for r in (1, 2, 3):
        for q in (Fraction(1), Fraction(2), Fraction(-1)):
            sym = build_standard(r, q)
            n_max = 4 if r == 3 else 5
            sdims = symmetric_dims(sym, n_max)
            edims = exterior_dims(sym, n_max)
            assert sdims == [
                math.comb(n + r - 1, r - 1) for n in range(n_max + 1)
            ], (r, q)
            assert edims == [math.comb(r, n) for n in range(n_max + 1)], (r, q)

            cert = detected_certificate(sym, n_max)
            expected_f0 = tuple(
                (-1) ** k * math.comb(r, k) for k in range(r + 1)
            )
            assert cert.f0 == expected_f0, (r, q)
            assert cert.f1 == (1,), (r, q)

            # series duality from the matrix dimensions themselves
            fs = TruncSeries([Fraction(v) for v in sdims])
            fe = TruncSeries([Fraction(v) for v in edims])
            assert (fs * fe.negate_variable()).coeffs == TruncSeries.one(
                n_max
            ).coeffs
            # and from the certificate, out to order 5 in every case
            cs = cert.symmetric_series(5)
            ce = cert.exterior_series(5)
            assert (cs * ce.negate_variable()).coeffs == TruncSeries.one(5).coeffs
    assert time.monotonic() - t0 < 60


def test_criterion_02_super_family(criterion):
    criterion(2, "super (1,1) family: dimensions and birank")
    t0 = time.monotonic()
    for q in (Fraction(1), Fraction(2)):
        sym = build_super(1, 1, q)
        assert symmetric_dims(sym, 5) == [1, 2, 2, 2, 2, 2]
        cert = detected_certificate(sym, 5)
        assert cert.birank == (1, 1)
    assert time.monotonic() - t0 < 10


HOM_PAIRS = [
    # (target alphabets, source alphabets, target builder, source builder)
    (((1, 1), ()), ((1, 1), ()), lambda: build_standard(2, 2), lambda: build_standard(2, 2)),
    (((1, 1), ()), ((1,), ()), lambda: build_standard(2, 2), lambda: build_standard(1, 2)),
    (((1,), ()), ((1,), (1,)), lambda: build_standard(1, 2), lambda: build_super(1, 1, 2)),
]


def test_criterion_03_hom_space_dimensions(criterion):
    criterion(3, "intertwiner dimensions match pairing product and closed form")
    t0 = time.monotonic()
    for (al_t, be_t), (al_s, be_s), mk_target, mk_source in HOM_PAIRS:
        target, source = mk_target(), mk_source()
        cert_t = BirankCertificate.from_polynomials(
            poly_from_roots(al_t), poly_from_roots(be_t)
        )
        cert_s = BirankCertificate.from_polynomials(
            poly_from_roots(al_s), poly_from_roots(be_s)
        )
        matrix_dims = [dim_intertwiner(target, source, n) for n in range(5)]

        # route 1: coefficientwise pairing of the two certified series
        via_diamond = diamond(
            cert_t.symmetric_series(4), cert_s.symmetric_series(4), 4
        )
        # route 2: the closed four-alphabet product
        num = [Fraction(1)]
        den = [Fraction(1)]
        for a in al_t:
            for a2 in al_s:
                den = poly_mul(den, [Fraction(1), -Fraction(a * a2)])
            for b2 in be_s:
                num = poly_mul(num, [Fraction(1), Fraction(a * b2)])
        for b in be_t:
            for b2 in be_s:
                den = poly_mul(den, [Fraction(1), -Fraction(b * b2)])
            for a2 in al_s:
                num = poly_mul(num, [Fraction(1), Fraction(b * a2)])
        closed = expand_ratio(num, den, 4)
        # route 3: the library's own prediction (internally cross-checked)
        predicted = predict_hom_series(cert_t, cert_s, 4)

        for n in range(5):
            assert matrix_dims[n] == via_diamond.coeff(n), (al_t, al_s, n)
            assert matrix_dims[n] == closed.coeff(n), (al_t, al_s, n)
            assert matrix_dims[n] == predicted.coeff(n), (al_t, al_s, n)

    a = build_standard(2, 2)
    assert dim_intertwiner(a, a, 2) == 10
    assert dim_intertwiner(a, a, 3) == 20
    assert time.monotonic() - t0 < 120


def test_criterion_04_dual_component_dimensions(criterion):
    criterion(4, "kernel-side dimensions equal the inverted-series transform")
    for (_, _), (_, _), mk_target, mk_source in HOM_PAIRS:
        target, source = mk_target(), mk_source()
        a_dims = [dim_intertwiner(target, source, n) for n in range(5)]
        expected = exterior_from_symmetric(TruncSeries([Fraction(v) for v in a_dims]))
        for n in range(5):
            assert dim_e_component(target, source, n) == expected.coeff(n)
    a = build_standard(2, 2)
    assert [dim_e_component(a, a, n) for n in range(5)] == [1, 4, 6, 4, 1]


def test_criterion_05_character_shadow(criterion):
    criterion(5, "quotient dimensions equal series values; total dimension splits")
    for sym in (build_standard(2, 2), build_super(1, 1, 1)):
        horizon = max(5, sym.d + 2)
        fs = TruncSeries([Fraction(v) for v in symmetric_dims(sym, horizon)])
        for n in range(1, 5):
            for nu in enumerate_partitions(n):
                lhs = dim_quotient(sym, nu, ())
                rhs = hom_eval(fs, SymElement.generator("h", nu))
                assert lhs == rhs, (sym, nu)
        cert = detected_certificate(sym, 5)
        for n in range(1, 6):
            total = Fraction(0)
            for lam, mu in partition_pairs(n):
                a = specialize_super(
                    SymElement.generator("m", lam), alpha_poly=list(cert.f0)
                )
                if a == 0:
                    continue
                b = specialize_super(
                    SymElement.generator("m", mu), alpha_poly=list(cert.f1)
                )
                if b == 0:
                    continue
                multinomial = math.factorial(n)
                for part in lam:
                    multinomial //= math.factorial(part)
                for part in mu:
                    multinomial //= math.factorial(part)
                total += a * b * multinomial
            assert total == sym.d**n, (sym, n)


def test_criterion_06_detection_roundtrip(criterion):
    criterion(6, "rational detection recovers 200 random coprime pairs")
    t0 = time.monotonic()
    rng = random.Random(31415926)
    recovered = 0
    attempts = 0
    while recovered < 200:
        attempts += 1
        assert attempts < 2000
        num = [Fraction(1)] + [
            Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(rng.randint(0, 3))
        ]
        den = [Fraction(1)] + [
            Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(rng.randint(0, 3))
        ]
        while len(num) > 1 and num[-1] == 0:
            num.pop()
        while len(den) > 1 and den[-1] == 0:
            den.pop()
        if poly_gcd(num, den) != [Fraction(1)]:
            continue
        form = detect_rational(expand_ratio(num, den, 10), 3)
        assert form is not None, (num, den)
        assert list(form.num) == num and list(form.den) == den, (num, den)
        recovered += 1
    assert time.monotonic() - t0 < 10


def test_criterion_07_support_law(criterion):
    criterion(7, "Schur values nonnegative with exact hook support")
    for r0, r1 in ((2, 0), (1, 1), (0, 2), (2, 1)):
        cert = BirankCertificate.from_polynomials(
            poly_from_roots((1,) * r0), poly_from_roots((1,) * r1)
        )
        value = schur_values(cert.symmetric_series(8))
        for w in range(0, 9):
            for lam in enumerate_partitions(w):
                val = value(lam)
                assert val >= 0, (r0, r1, lam, val)
                assert (val > 0) == in_hook(lam, r0, r1), (r0, r1, lam, val)


def test_criterion_08_symmetric_function_identities(criterion):
    criterion(8, "ring identity suite through weight 7")
    # alternating convolution of the two generator families vanishes
    for n in range(1, 8):
        total = SymElement(n, "s", {})
        for i in range(0, n + 1):
            hi = SymElement.generator("h", (i,) if i else ())
            en = SymElement.generator("e", (n - i,) if n - i else ())
            total = total + to_basis(multiply(hi, en), "s").scaled((-1) ** i)
        assert total.is_zero(), n

    # powers of the degree-one generator expand by tableaux counts
    for n in range(1, 8):
        u = SymElement.unit()
        for _ in range(n):
            u = multiply(u, SymElement.generator("h", (1,)))
        u = to_basis(u, "s")
        for lam in enumerate_partitions(n):
            assert u.coeff(lam) == standard_tableaux_count(lam), (n, lam)

    # Kostka matrix is unitriangular along dominance
    for n in range(0, 8):
        for lam in enumerate_partitions(n):
            assert kostka(lam, lam) == 1
            for mu in enumerate_partitions(n):
                if kostka(lam, mu) != 0:
                    assert dominance_leq(mu, lam), (lam, mu)

    # structure constants against the iterated-strip oracle
    for n in range(0, 8):
        for nu in enumerate_partitions(n):
            for a in range(0, n + 1):
                for lam in enumerate_partitions(a):
                    for mu in enumerate_partitions(n - a):
                        assert lr_coeff(lam, mu, nu) == lr_coeff_via_pieri(
                            lam, mu, nu
                        ), (lam, mu, nu)

    # mixed pairing counts matrices with bounded entries
    for n in range(0, 7):
        for nu in enumerate_partitions(n):
            hv = SymElement.generator("h", nu)
            for a in range(0, n + 1):
                for lam in enumerate_partitions(a):
                    for mu in enumerate_partitions(n - a):
                        prod = multiply(
                            SymElement.generator("h", lam),
                            SymElement.generator("e", mu),
                        )
                        assert inner_product(prod, hv) == count_mixed_matrices(
                            (lam, mu), nu
                        ), (lam, mu, nu)


def random_unit_series(rng, order):
    return TruncSeries(
        [Fraction(1)]
        + [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for _ in range(order)
        ]
    )


def test_criterion_09_pairing_product_laws(criterion):
    criterion(9, "pairing-product laws on 50 random series")
    rng = random.Random(2718281)
    order = 6
    for _ in range(50):
        f = random_unit_series(rng, order)
        g1 = random_unit_series(rng, order)
        g2 = random_unit_series(rng, order)

        # degree-n representative of a product splits over the factors
        fg = f * g1
        for n in range(0, order + 1):
            lhs = hall_rep(fg, n)
            rhs = SymElement(n, "s", {})
            for i in range(0, n + 1):
                rhs = rhs + multiply(hall_rep(f, i), hall_rep(g1, n - i))
            assert lhs == to_basis(rhs, "s"), n

        # multiplicativity of the pairing product in its second slot
        lhs = diamond(f, g1 * g2, order)
        rhs = diamond(f, g1, order) * diamond(f, g2, order)
        assert lhs.coeffs == rhs.coeffs

        # pairing against a geometric series rescales the variable
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        geo = TruncSeries([a**n for n in range(order + 1)])
        assert diamond(f, geo, order).coeffs == f.scale_variable(a).coeffs


def test_criterion_10_validator_soundness(criterion):
    criterion(10, "validators accept the families, reject the fake")
    for r in (1, 2, 3, 4):
        for q in (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)):
            sym = build_standard(r, q)
            assert sym.d == r
    for r0 in (0, 1, 2):
        for r1 in (0, 1, 2):
            if r0 + r1 == 0:
                continue
            for q in (Fraction(1), Fraction(2)):
                sym = build_super(r0, r1, q)
                assert sym.d == r0 + r1
    matrix = [
        [2, 0, 0, 0],
        [0, -1, 0, 0],
        [0, 0, -1, 0],
        [0, 0, 0, 2],
    ]
    with pytest.raises(BraidViolation) as info:
        load_and_validate(2, 2, matrix)
    assert info.value.witness == (1, 1, 2)
