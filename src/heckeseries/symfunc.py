"""Symmetric functions per degree: bases m, h, e, s and their pairings.

The conversion engine is deliberately small: every change of basis routes
through the Schur basis using the Kostka matrix and its integer inverse.
Products concatenate h-labels, h_lam * h_mu = h_(lam u mu), and evaluations
of a series homomorphism h_n -> a_n use the h-basis too, where it is
defined.  Its values on Schur elements (Hall representatives, and through
them tensor-power characters by the super Cauchy identity) are read off the
one table of ``series.schur_values``, with the constant term read as the
homomorphism's h_0 = 1 (Jacobi-Trudi, Macdonald I.3).

With partitions indexed in descending lexicographic order (the order
enumerate_partitions emits), dominance refines the index order, so both
defining relations

    h_mu = sum_lam K[lam][mu] * s_lam      (columns of K)
    s_lam = sum_mu K[lam][mu] * m_mu       (rows of K)

are upper unitriangular and K inverts over the integers.  In coordinates:
h->s is c |-> K c, s->h is K^{-1} c, m->s is K^{-T} c, s->m is K^T c, and
the e-basis is the h-basis composed with conjugation of Schur labels.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import linalg
from .partitions import (
    Partition,
    as_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    kostka,
    weight,
)
from .series import (
    ConsistencyError,
    TruncSeries,
    schur_values,
    super_series,
)

BASES = ("m", "h", "e", "s")

# Partition counts grow fast; transition matrices above this degree are
# refused rather than silently truncated.
DEGREE_CAP = 14


def _check_degree(n: int):
    linalg.check_cap("degree", n, DEGREE_CAP)


class SymElement:
    """Homogeneous symmetric-function element in one named basis."""

    __slots__ = ("degree", "basis", "coeffs")

    def __init__(self, degree: int, basis: str, coeffs):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[Partition, Fraction] = {}
        for lam, c in dict(coeffs).items():
            lam = as_partition(lam)
            c = linalg.rational(c)
            if weight(lam) != degree:
                raise ValueError(
                    f"partition {lam} has weight {weight(lam)}, expected {degree}"
                )
            if c != 0:
                clean[lam] = c
        self.degree = degree
        self.basis = basis
        self.coeffs = clean

    def coeff(self, lam) -> Fraction:
        return self.coeffs.get(as_partition(lam), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def scaled(self, c) -> "SymElement":
        c = linalg.rational(c)
        return SymElement(
            self.degree, self.basis, {lam: v * c for lam, v in self.coeffs.items()}
        )

    def plus(self, other: "SymElement") -> "SymElement":
        if other.degree != self.degree or other.basis != self.basis:
            raise ValueError("can only add elements of equal degree and basis")
        merged = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            merged[lam] = merged.get(lam, Fraction(0)) + c
        return SymElement(self.degree, self.basis, merged)

    __add__ = plus

    def __eq__(self, other):
        return (
            isinstance(other, SymElement)
            and self.degree == other.degree
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, self.basis, tuple(sorted(self.coeffs.items()))))

    def render(self) -> str:
        if not self.coeffs:
            return f"{self.basis}: 0"
        parts = sorted(self.coeffs, reverse=True)
        terms = " + ".join(
            f"{self.coeffs[lam]}*{format_partition(lam)}" for lam in parts
        )
        return f"{self.basis}: {terms}"

    def __repr__(self):
        return f"SymElement({self.render()})"

    @classmethod
    def unit(cls, basis: str = "s") -> "SymElement":
        return cls(0, basis, {(): Fraction(1)})

    @classmethod
    def generator(cls, basis: str, lam) -> "SymElement":
        lam = as_partition(lam)
        return cls(weight(lam), basis, {lam: Fraction(1)})


@lru_cache(maxsize=None)
def _degree_data(n: int):
    """The degree-n partitions, their index, the Kostka matrix and its
    inverse, the right half of the reduced rows [K | I]: K is unitriangular,
    so every pivot value is 1."""
    _check_degree(n)
    parts = enumerate_partitions(n)
    index = {lam: i for i, lam in enumerate(parts)}
    k_matrix = [[kostka(lam, mu) for mu in parts] for lam in parts]
    size = len(parts)
    ech = linalg.Echelon(2 * size)
    for i, row in enumerate(k_matrix):
        ech.add(row + [int(i == j) for j in range(size)])
    reduced = ech.reduced()
    if any(row[p] != 1 for row, p in zip(reduced, ech.pivots)):
        raise ConsistencyError(f"degree-{n} Kostka matrix is not unitriangular")
    return parts, index, k_matrix, [row[size:] for row in reduced]


def _coeff_vector(u: SymElement, parts, index):
    vec = [Fraction(0)] * len(parts)
    for lam, c in u.coeffs.items():
        vec[index[lam]] = c
    return vec


def _product(k, vec, transpose: bool):
    """k·vec, or kᵀ·vec, for a square integer matrix k."""
    rows = zip(*k) if transpose else k
    return [sum(x * c for x, c in zip(row, vec) if x and c) for row in rows]


def _conjugate_labels(vec, parts, index):
    """Coordinates with Schur labels conjugated, an involution."""
    return [vec[index[conjugate(lam)]] for lam in parts]


def _to_schur(u: SymElement) -> SymElement:
    if u.basis == "s":
        return u
    parts, index, k_matrix, k_inverse = _degree_data(u.degree)
    vec = _coeff_vector(u, parts, index)
    if u.basis == "m":
        out = _product(k_inverse, vec, transpose=True)
    else:
        out = _product(k_matrix, vec, transpose=False)
        if u.basis == "e":
            out = _conjugate_labels(out, parts, index)
    return SymElement(u.degree, "s", dict(zip(parts, out)))


def _from_schur(u: SymElement, target: str) -> SymElement:
    if target == "s":
        return u
    parts, index, k_matrix, k_inverse = _degree_data(u.degree)
    vec = _coeff_vector(u, parts, index)
    if target == "m":
        out = _product(k_matrix, vec, transpose=True)
    else:
        if target == "e":
            vec = _conjugate_labels(vec, parts, index)
        out = _product(k_inverse, vec, transpose=False)
    return SymElement(u.degree, target, dict(zip(parts, out)))


def to_basis(u: SymElement, target: str) -> SymElement:
    """Re-express u in the target basis; roundtrips are exact identities."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    _check_degree(u.degree)
    if u.basis == target:
        return u
    return _from_schur(_to_schur(u), target)


def _h_product(uh: SymElement, vh: SymElement) -> SymElement:
    """Product of two h-basis elements: labels concatenate, sorted back into
    a partition."""
    out: dict[Partition, Fraction] = {}
    for lam, a in uh.coeffs.items():
        for mu, b in vh.coeffs.items():
            nu = tuple(sorted(lam + mu, reverse=True))
            out[nu] = out.get(nu, Fraction(0)) + a * b
    return SymElement(uh.degree + vh.degree, "h", out)


def multiply(u: SymElement, v: SymElement) -> SymElement:
    """Product, returned in the Schur basis."""
    _check_degree(u.degree + v.degree)
    return to_basis(_h_product(to_basis(u, "h"), to_basis(v, "h")), "s")


def inner_product(u: SymElement, v: SymElement) -> Fraction:
    """Hall pairing; the Schur basis is orthonormal."""
    if u.degree != v.degree:
        raise ValueError(
            f"pairing needs equal degrees, got {u.degree} and {v.degree}"
        )
    us, vs = _to_schur(u), _to_schur(v)
    total = Fraction(0)
    for lam, a in us.coeffs.items():
        b = vs.coeffs.get(lam)
        if b:
            total += a * b
    return total


def omega(u: SymElement) -> SymElement:
    """The involution exchanging h and e, conjugating Schur labels."""
    if u.basis == "h":
        return SymElement(u.degree, "e", u.coeffs)
    if u.basis == "e":
        return SymElement(u.degree, "h", u.coeffs)
    if u.basis == "s":
        return SymElement(
            u.degree, "s", {conjugate(lam): c for lam, c in u.coeffs.items()}
        )
    flipped = omega(_to_schur(u))
    return _from_schur(flipped, "m")


def hom_eval(f: TruncSeries, u: SymElement) -> Fraction:
    """Apply the ring homomorphism sending the degree-n h-generator to the
    n-th coefficient of f."""
    f.coeff(u.degree)
    uh = to_basis(u, "h")
    total = Fraction(0)
    for lam, c in uh.coeffs.items():
        prod = c
        for part in lam:
            prod *= f.coeff(part)
            if prod == 0:
                break
        total += prod
    return total


def _values(f: TruncSeries, n: int):
    """The reader lam -> value of the series homomorphism on s_lam for
    weights up to n: ``series.schur_values`` of a_1 ... a_n with the
    constant term read as h_0 = 1.  Degrees past the cap are refused."""
    value = schur_values(TruncSeries((1,) + f.coeffs[1 : n + 1]), n)
    _check_degree(n)
    return value


def hall_rep(f: TruncSeries, n: int) -> SymElement:
    """The degree-n element representing the series homomorphism under the
    Hall pairing: sum over weight-n partitions of (value on s_lam) * s_lam,
    the values taken with h_0 = 1 whatever f's constant term."""
    value = _values(f, n)
    coeffs = {}
    for lam in enumerate_partitions(n):
        val = value(lam)
        if val:
            coeffs[lam] = val
    return SymElement(n, "s", coeffs)


def specialize_super(u: SymElement, f0, f1) -> Fraction:
    """Evaluate u on the super alphabet of f0 = prod(1 - alpha_i t) and
    f1 = prod(1 - beta_j t): the homomorphism of the series
    sum h_n t^n = f1(-t)/f0(t).  The roots stay implicit, so results stay
    exact even when they are irrational; ``poly_from_roots`` turns an
    explicit root list into its polynomial."""
    return hom_eval(super_series(f0, f1, max(u.degree, 1)), u)


def tensor_power_character(f0, f1, n: int) -> SymElement:
    """Character of the n-th tensor power attached to a certified pair of
    polynomials, expanded in the h-basis.

    With f0 = prod(1 - alpha_i t) and f1 = prod(1 - beta_j t), the character
    is sum m_lam(alpha) m_mu(beta) h_lam e_mu over pairs of partitions of n,
    which by the super Cauchy identity (Macdonald I.4) is the Hall
    representative sum_nu s_nu[f1(-t)/f0(t)] s_nu, read off the one Schur
    table of that series.
    """
    _check_degree(n)
    return to_basis(hall_rep(super_series(f0, f1, n), n), "h")


def schur_value(f: TruncSeries, lam) -> Fraction:
    """Value of the series homomorphism on the Schur generator s_lam, read
    off the Jacobi-Trudi table with h_0 = 1 whatever f's constant term."""
    lam = as_partition(lam)
    return _values(f, weight(lam))(lam)
