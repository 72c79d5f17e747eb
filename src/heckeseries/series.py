"""Truncated power series over exact rationals.

Everything here is window-honest: a series carries its truncation order, all
claims (recurrence detection, positivity, root location) are made relative to
that window, and running out of window raises instead of guessing.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .linalg import BIT_LENGTH_CAP, ORDER_CAP


class InconclusiveDetection(ValueError):
    """No stable recurrence order fits inside the available window."""


class CertificateError(ValueError):
    """Detected rational form fails an integrality or normalization check."""


class ConsistencyError(AssertionError):
    """An exact step left a remainder that the mathematics rules out;
    indicates a code bug."""


# Scans that need a sign or a check per partition visit every partition of
# every weight up to W: Schur values in total_positivity and the positivity
# suite, each a few integer products in one memoised table per series, and
# the character suite's quotient checks.  Their cost grows like p(W): at
# W = 24 about 0.1 s for total_positivity on a certified series, on a shared
# 2-CPU machine under Python 3.11.  Weights above this are refused before the
# first value.  The pairing product (diamond) visits no partition.
WEIGHT_CAP = 24
# expand_ratio takes order x len(den) steps and diamond order**2, but their
# coefficients grow in size with the order, and so do the work per step and
# the rendered output; orders above linalg.ORDER_CAP are refused before any
# coefficient is computed.  A coefficient too long to print is refused when
# it is rendered, and by diamond as soon as it is computed
# (_check_printable); intermediates are not bounded, because a pairing may
# cancel them to a short result.
# A Sturm sequence's pseudo-remainders grow in size with the degree and
# with the size of the roots, and the degree dominates: on a shared 2-CPU
# machine under Python 3.11, degree 16 takes 0.0004 s on small integer
# roots, 0.006 s on roots near 10^9 and 0.5 s on roots near 10^100, degree
# 20 0.001 s, 0.02 s and 2 s.  Certificate polynomials of higher degree are
# refused before they are built or root-counted.
CERTIFICATE_CAP = 16
# detect_rational's one pass stops once its length passes r_max, after about
# 2 r_max steps on a window with no recurrence: on the same machine, 60
# random coefficients at r_max = 24 take 0.004 s at 64 bits, 0.05 s at 256
# and 0.7 s at 1024.  A window that fits runs to its end with entries the
# size of an r x r Hankel minor, so linalg.BIT_LENGTH_CAP bounds the
# window's integers too: at 1024 bits, roots 1..24 (order 216) take 0.3 s
# and 1001 random coefficients 1.0 s.  Larger r_max are refused before the
# window is read.
DETECTION_CAP = 24


def check_weight(w: int):
    linalg.check_cap("weight", w, WEIGHT_CAP)


def check_order(n: int):
    linalg.check_cap("series order", n, ORDER_CAP)


def check_certificate_degree(n: int):
    linalg.check_cap("certificate degree", n, CERTIFICATE_CAP)


def _check_printable(x):
    """x, refused when its numerator or denominator has more decimal digits
    than ``str`` converts (``sys.get_int_max_str_digits()``, 0 for no
    limit): no output holding it could be printed.  The limit is the
    interpreter's, so a library call reads the same setting."""
    limit = sys.get_int_max_str_digits()
    n = max(abs(x.numerator), x.denominator)
    bits = n.bit_length()
    # 2**(3 limit) < 10**limit: shorter integers print
    if limit and bits > 3 * limit and n >= 10**limit:
        raise linalg.CapExceeded(
            f"coefficient bit length {bits} exceeds the limit of {limit} decimal digits"
        )
    return x


class RootLocationError(CertificateError):
    """A certificate polynomial has roots outside the positive real axis."""

    def __init__(self, message: str, polynomial):
        super().__init__(message)
        self.polynomial = tuple(polynomial)


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient lists, ascending powers)


def poly_trim(p) -> list[Fraction]:
    p = [linalg.rational(x) for x in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p, q) -> list[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return out


def poly_negate_t(p) -> list[Fraction]:
    """p(t) -> p(-t)."""
    return [linalg.rational(x) * (-1) ** i for i, x in enumerate(p)]


def render_poly(p) -> str:
    """Ascending coefficients as a comma list, e.g. ``1,-2,1``."""
    return ",".join(str(c) for c in p)


def poly_from_roots(roots) -> list[Fraction]:
    """prod(1 - a t) over the given reciprocal roots a."""
    out = [Fraction(1)]
    for a in roots:
        out = poly_mul(out, [Fraction(1), -linalg.rational(a)])
    return out


# ---------------------------------------------------------------------------
# truncated series


def parse_rationals(text: str) -> list[Fraction]:
    """The rationals of a comma list 'a,b,c'; an empty or malformed item
    raises ValueError."""
    toks = [t.strip() for t in text.split(",")]
    if not all(toks):
        raise ValueError(f"malformed rational list {text!r}")
    try:
        return [linalg.parse_rational(t) for t in toks]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational list {text!r}: {exc}") from None


class TruncSeries:
    """Power series known exactly up to and including degree `order`."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(linalg.rational(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least one coefficient")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if n < 0:
            return Fraction(0)
        if n > self.order:
            raise ValueError(
                f"coefficient {n} beyond truncation order {self.order}"
            )
        return self.coeffs[n]

    def mul(self, other: "TruncSeries") -> "TruncSeries":
        check_order(n := min(self.order, other.order))
        a, b = self.coeffs, other.coeffs
        return TruncSeries(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1))

    __mul__ = mul

    def inverse(self) -> "TruncSeries":
        return expand_ratio((1,), self.coeffs, self.order)

    def scale_variable(self, a) -> "TruncSeries":
        """f(t) -> f(a t)."""
        a = linalg.rational(a)
        return TruncSeries(
            [c * a**i for i, c in enumerate(self.coeffs)]
        )

    def negate_variable(self) -> "TruncSeries":
        """f(t) -> f(-t)."""
        return self.scale_variable(-1)

    def __eq__(self, other):
        return isinstance(other, TruncSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def render(self) -> str:
        return ", ".join(str(_check_printable(c)) for c in self.coeffs)

    def __repr__(self):
        return f"TruncSeries({self.render()})"

    @classmethod
    def parse(cls, text: str) -> "TruncSeries":
        return cls(parse_rationals(text))

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls([Fraction(1)] + [Fraction(0)] * order)


def expand_ratio(num, den, order: int) -> TruncSeries:
    """Series of num(t)/den(t) to the given order; den(0) must be nonzero."""
    check_order(order)
    den = [linalg.rational(x) for x in den]
    if not den or den[0] == 0:
        raise ValueError("denominator needs nonzero constant term")
    # den * out = num, solved degree by degree: a recurrence of den's length
    num = [linalg.rational(x) for x in num[: order + 1]]
    num += [Fraction(0)] * (order + 1 - len(num))
    tail = [(i, c) for i, c in enumerate(den[1 : order + 1], 1) if c]
    out = []
    for k in range(order + 1):
        s = num[k]
        for i, c in tail:
            if i > k:
                break
            s -= c * out[k - i]
        out.append(s / den[0])
    return TruncSeries(out)


# ---------------------------------------------------------------------------
# rational forms and certificates


# The value types here and in verify are NamedTuples rather than dataclasses:
# importing dataclasses adds about 15 ms to every process that loads them.


class _RationalFormFields(NamedTuple):
    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]


class RationalForm(_RationalFormFields):
    """A verified p/q representation with q(0) = 1."""

    __slots__ = ()

    def __new__(cls, num, den):
        den = tuple(linalg.rational(x) for x in den)
        if not den or den[0] != 1:
            raise ValueError("denominator must have constant term 1")
        return super().__new__(cls, tuple(linalg.rational(x) for x in num), den)

    def expand(self, order: int) -> TruncSeries:
        return expand_ratio(self.num, self.den, order)

    def render(self) -> str:
        return f"num={render_poly(self.num or (0,))}; den={render_poly(self.den)}"

    @classmethod
    def parse(cls, text: str) -> "RationalForm":
        return cls(*map(parse_rationals, split_rational_form(text)))


def split_rational_form(text: str) -> tuple[str, str]:
    """The numerator and denominator texts of a positional 'num;den' or of
    'num=...; den=...', whose keys may come in either order.  A part without
    a key beside a keyed one, or an unknown or repeated key, raises
    ValueError."""
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != 2:
        raise ValueError(
            f"expected 'num;den' with two coefficient lists, got {text!r}"
        )
    if not any("=" in p for p in parts):
        return parts[0], parts[1]
    fields = {}
    for part in parts:
        key, sep, val = part.partition("=")
        key = key.strip()
        if not sep or key not in ("num", "den") or key in fields:
            raise ValueError(
                f"expected the keys num and den once each, got {text!r}"
            )
        fields[key] = val.strip()
    return fields["num"], fields["den"]


def super_series(f0, f1, order: int) -> TruncSeries:
    """The series f1(-t)/f0(t) of the super alphabet whose even letters are
    the reciprocal roots of f0 and whose odd letters those of f1: sum h_n t^n
    = prod(1 + beta_j t) / prod(1 - alpha_i t) (Berele-Regev).  Both
    polynomials need constant term 1."""
    f0, f1 = poly_trim(f0), poly_trim(f1)
    if f0[:1] != [1] or f1[:1] != [1]:
        raise ValueError("alphabet polynomials need constant term 1")
    return expand_ratio(poly_negate_t(f1), f0, order)


class BirankCertificate(NamedTuple):
    """Integer polynomials f0, f1 (constant term 1, all roots positive real)
    presenting the symmetric-side series as f1(-t)/f0(t)."""

    f0: tuple[int, ...]
    f1: tuple[int, ...]
    r0: int
    r1: int

    def symmetric_series(self, order: int) -> TruncSeries:
        return super_series(self.f0, self.f1, order)

    def exterior_series(self, order: int) -> TruncSeries:
        return super_series(self.f1, self.f0, order)

    @property
    def birank(self) -> tuple[int, int]:
        return (self.r0, self.r1)

    def render(self) -> str:
        f0, f1 = render_poly(self.f0), render_poly(self.f1)
        return f"f0={f0}; f1={f1}; roots positive real: verified"

    @classmethod
    def from_polynomials(cls, f0, f1) -> "BirankCertificate":
        # the zero polynomial is refused below, by its constant term 0
        f0 = poly_trim(f0) or [Fraction(0)]
        f1 = poly_trim(f1) or [Fraction(0)]
        for p in (f0, f1):
            check_certificate_degree(len(p) - 1)
        for p in (f0, f1):
            if any(c.denominator != 1 for c in p):
                raise CertificateError(
                    f"non-integer certificate polynomial {render_poly(p)}"
                )
            if p[0] != 1:
                raise CertificateError(
                    f"certificate constant term must be 1: {render_poly(p)}"
                )
        for p in (f0, f1):
            if not sturm_all_roots_positive(p):
                raise RootLocationError(
                    "polynomial has roots off the positive real axis: "
                    f"{render_poly(p)}",
                    p,
                )
        return cls(
            tuple(int(c) for c in f0),
            tuple(int(c) for c in f1),
            len(f0) - 1,
            len(f1) - 1,
        )

    @classmethod
    def from_form(cls, num, den) -> "BirankCertificate":
        """The certificate of the series num/den, read as f1(-t)/f0(t)."""
        return cls.from_polynomials(den, poly_negate_t(num))


# ---------------------------------------------------------------------------
# Hankel minors and Schur-type determinants straight from coefficients


def hankel_minor(f: TruncSeries, i: int, k: int) -> Fraction:
    """k x k shifted-window determinant with top row a_i ... a_{i+k-1}.

    Entry (s, t) is a_{i-s+t}; indices below zero read as 0.
    """
    if k < 0:
        raise ValueError("window size must be nonnegative")
    value = schur_values(f, i + k - 1 if k else 0)
    if i < 0 < k:
        return Fraction(0)  # the first column a_{i-s} is all zero
    return value((i,) * k)


class _SchurTable(dict):
    """s(lam) = det(b_{lam_i - i + j}) over integers b, keyed by partitions
    with positive parts and filled on first read.  Along the last column,
    s(lam) = sum_i (-1)^(i+k) b_{lam_i - i + k} s(mu_i) for lam of length k,
    where mu_i drops part i and lowers every later part by one; a later part
    1 becomes a trailing zero part, a factor b_0.  Every mu_i lies inside
    lam, so a read touches nothing outside the partition it asks for."""

    __slots__ = ("b",)

    def __init__(self, b):
        super().__init__({(): 1})
        self.b = b

    def __missing__(self, lam):
        b, k = self.b, len(lam)
        low, m = tuple(x - 1 for x in lam), k - lam.count(1)  # parts > 1: lam[:m]
        v = 0
        for i, part in enumerate(lam):
            c = b[part + k - 1 - i]
            if c:
                c *= self[lam[:i] + low[i + 1 : m]] * b[0] ** (k - max(m, i + 1))
                v += -c if (k - 1 - i) & 1 else c
        self[lam] = v
        return v


def _window(f: TruncSeries) -> tuple[int, list[int]]:
    """(D, [D a_n]) for the window of f, D the lcm of its denominators: the
    exact kernels' entries grow with these, so D is checked as it grows and
    then the scaled window."""
    D, a = linalg.scale_to_integers(f.coeffs, "window denominator")
    linalg.check_cap("window bit length", max(map(abs, a)).bit_length(), BIT_LENGTH_CAP)
    return D, a


def schur_values(f: TruncSeries, top: int):
    """The reader lam -> det(a_{lam_i - i + j}) of one memo table for the
    window a_0 ... a_top of f (a_0 alone when top < 0), the only
    coefficients read and capped.

    The determinant is the series homomorphism on the Schur element s_lam
    (Jacobi-Trudi) when a_0 = 1, the h_0 that symfunc reads.  The table
    runs on the integers D a_n, D the lcm of the window's denominators,
    and the determinant is homogeneous of degree len(lam), so a value is
    its entry over D**len(lam).  Trailing zero parts, as in the Hankel
    window (0,)*k, contribute a factor a_0 each.  A top beyond f's
    truncation order, and a matrix entry beyond the window, raise as
    TruncSeries.coeff does.
    """
    f.coeff(top)
    check_order(top)
    f = TruncSeries(f.coeffs[: max(top, 0) + 1])
    D, b = _window(f)
    table, b0 = _SchurTable(b), b[0]

    def value(lam) -> Fraction:
        k = len(lam)
        if k and lam[0] + k - 1 > f.order:
            f.coeff(max(lam[0], f.order + 1))  # the first entry out of window
        n = k
        while n and not lam[n - 1]:
            n -= 1
        return Fraction(table[tuple(lam[:n])] * b0 ** (k - n), D**k)

    return value


# ---------------------------------------------------------------------------
# recurrence detection


def detect_rational(f: TruncSeries, r_max: int) -> RationalForm | None:
    """Least-order stable linear recurrence fitting the whole tail window.

    An order-r candidate a_m = sum_j c_j a_{m-j} solves the last r window
    equations; walked backwards, it holds from its onset o through the
    truncation order.  The least order whose candidate has o <= r_max + 1
    (numerator degree at most r_max) and verifies at least r + 1 equations
    wins; None when no order up to r_max fits.

    These nested systems are the leading blocks of one Hankel matrix of the
    descending window a_n, ..., a_0, followed by r_max zeros for the a_{m<0}
    that the walk reads, so one fraction-free Berlekamp-Massey pass (Massey
    1969) on the integers D a_m, D the lcm of the denominators, solves them
    all.  The connection polynomial that the pass holds at length L, just
    before it grows past L, is the reversed order-L candidate when its top
    coefficient q(0) is nonzero, and the equations the pass has checked are
    those the walk verifies.  A candidate that passes the rules is the
    unique solution of its system, so the result is the per-order one.
    """
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    linalg.check_cap("recurrence order", r_max, DETECTION_CAP)
    n = f.order
    check_order(n)
    D, a = _window(f)

    def form(lam, length, checked):
        """The rational form of connection polynomial lam at the given
        length, once the pass has checked its equations on the first
        ``checked`` terms, or None when a rule rejects it."""
        q = (lam + [0] * (length + 1 - len(lam)))[::-1]  # q[j] = lam[L - j]
        verified = min(checked - length, n)
        onset = n - verified + 1
        if not q[0] or onset > r_max + 1 or verified < length + 1:
            return None
        num = [sum(q[j] * a[i - j] for j in range(min(i, length) + 1))
               for i in range(onset)]
        return RationalForm(
            poly_trim(Fraction(x, q[0] * D) for x in num), [Fraction(x, q[0]) for x in q]
        )

    u = a[::-1] + [0] * r_max
    # lam is the connection polynomial, lam[0] the weight of the newest
    # term; prev is the one before the last growth, with its discrepancy
    # prev_d, and gap the steps since then
    lam, prev, prev_d, length, gap = [1], [1], 1, 0, 1
    for N in range(len(u)):
        d = sum(x * u[N - i] for i, x in enumerate(lam))
        if d:
            grows = 2 * length <= N
            if grows:
                got = form(lam, length, N)
                if got is not None or N + 1 - length > r_max:
                    return got
            # lam <- prev_d lam - d t^gap prev, the fraction-free update
            step = [prev_d * x for x in lam]
            step += [0] * (gap + len(prev) - len(step))
            for i, x in enumerate(prev, gap):
                step[i] -= d * x
            while not step[-1]:
                step.pop()
            if grows:
                prev, prev_d, length, gap = lam, d, N + 1 - length, 0
            lam = linalg.primitive(step)
        gap += 1
    return form(lam, length, len(u))


# ---------------------------------------------------------------------------
# positivity and certificates


def total_positivity(f: TruncSeries, max_weight: int):
    """First Schur-determinant violation up to max_weight, or None when clean.

    Partitions are scanned by weight, then in descending lexicographic order;
    the returned pair is (partition, value) for the first negative value.
    """
    from .partitions import enumerate_partitions

    value = schur_values(f, max_weight)
    check_weight(max_weight)
    for w in range(max_weight + 1):
        for lam in enumerate_partitions(w):
            val = value(lam)
            if val < 0:
                return (lam, val)
    return None


def _sign_changes(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def sturm_all_roots_positive(p) -> bool:
    """Exact test: every complex root of p is a positive real number.

    One Sturm sequence of p itself: p, p', then negated remainders down to
    g = gcd(p, p').  By the generalized Sturm theorem its sign changes at 0
    minus those at infinity count the distinct roots of p in (0, inf), with
    no squarefree step, and p has deg p - deg g distinct roots in all.  Every
    term is a primitive integer polynomial: each remainder is an integer
    pseudo-remainder divided by its content, positive factors that keep
    every sign, keep the terms small and leave no fraction.
    """
    p = poly_trim(p)
    if not p:
        raise ValueError("zero polynomial has no root certificate")
    if p[0] == 0:
        raise ValueError("polynomial must not vanish at 0")
    if len(p) == 1:
        return True
    ints = linalg.primitive(linalg.scale_to_integers(p, "polynomial denominator")[1])
    chain = [ints, linalg.primitive([i * c for i, c in enumerate(ints)][1:])]
    while len(chain[-1]) > 1:
        rem = _pseudo_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(linalg.primitive([-c for c in rem]))
    at_zero = _sign_changes([q[0] for q in chain])
    at_inf = _sign_changes([q[-1] for q in chain])
    return at_zero - at_inf == len(p) - len(chain[-1])


def _pseudo_remainder(p: list[int], d: list[int]) -> list[int]:
    """The trimmed remainder of c·p by d for integer polynomials, with c a
    power of |lc d|: a positive factor, so every sign is kept."""
    p, lead = list(p), d[-1]
    sign, lead = (1, lead) if lead > 0 else (-1, -lead)
    n = len(d) - 1
    for shift in range(len(p) - 1 - n, -1, -1):
        top = p.pop() * sign
        if top:
            p = [x * lead for x in p]
            for i, c in enumerate(d[:n], shift):
                p[i] -= top * c
    while p and not p[-1]:
        p.pop()
    return p


def birank_certificate(f: TruncSeries, r_max: int) -> BirankCertificate:
    """Detect, normalize and root-verify the (f0, f1) presentation of f.

    Expects a series that is totally positive over the window.  Raises
    InconclusiveDetection when no recurrence fits, CertificateError on
    integrality/normalization failure, RootLocationError when a Sturm check
    fails.
    """
    form = detect_rational(f, r_max)
    if form is None:
        raise InconclusiveDetection(
            f"no rational form detected within order {r_max} "
            f"at truncation order {f.order}"
        )
    return BirankCertificate.from_form(form.num, form.den)


# ---------------------------------------------------------------------------
# the pairing product and its closed forms


def exterior_from_symmetric(f: TruncSeries) -> TruncSeries:
    """The dual graded series 1 / f(-t), to the same truncation order."""
    return f.negate_variable().inverse()


def diamond(f: TruncSeries, g: TruncSeries, order: int) -> TruncSeries:
    """Degreewise pairing product: coefficient n is the sum over partitions
    lam of weight n of the Schur-determinant values of f and g at lam.

    A series with constant term 1 is the image of the complete homogeneous
    functions h_n under a ring homomorphism, so Cauchy's identity
    sum_lam s_lam(x) s_lam(y) t^|lam| = exp(sum_k p_k(x) p_k(y) t^k / k)
    (Macdonald, ch. I.4) gives the whole product from power sums: Newton's
    identity reads them off each operand, they are multiplied termwise and
    exponentiated by the same identity.  Each operand is read at D t, D the
    lcm of its denominators, so every step runs on integers; coefficient n
    is divided by (D E)**n as it is computed.  The three steps run one
    degree at a time, so a result coefficient too long to print is refused
    (CapExceeded) before any power sum of higher degree is computed; the
    power sums themselves are not bounded, since a pairing such as
    (1 + x t) with 1/(1 - x t) cancels them to 1 + x**2 t.  ValueError on
    a constant term other than 1: the minors then weight lam by
    a_0**len(lam), which no ring homomorphism does.
    """
    check_order(order)
    f.coeff(order)
    g.coeff(order)
    hs, scale = [], 1
    for s in (f, g):
        if s.coeffs[0] != 1:
            raise ValueError("the pairing product needs constant term 1")
        # read at D t: h_n = D**n a_n = D**(n-1) b_n
        D, b = linalg.scale_to_integers(s.coeffs[: order + 1], "operand denominator")
        hs.append([1] + [x * D ** (n - 1) for n, x in enumerate(b[1:], 1)])
        scale *= D
    p = (x * y for x, y in zip(*(_power_sums(h, order) for h in hs)))
    return _exp_power_sums(p, order, Fraction(1, scale))


def _power_sums(h, order: int):
    """Yield 0, p_1, ..., p_order for the alphabet whose complete homogeneous
    values are the integers h, with h_0 = 1, by Newton's identity
    n h_n = sum_{i=1}^n p_i h_{n-i}; the p_k are integers too.  Each is
    computed when it is read."""
    p = [0]
    yield 0
    for n in range(1, order + 1):
        p.append(n * h[n] - sum(p[i] * h[n - i] for i in range(1, n)))
        yield p[n]


def _exp_power_sums(p, order: int, a) -> TruncSeries:
    """exp(sum_k p_k (a t)^k / k) to the order, for the integers p_0, p_1, ...
    read from the iterable p one degree at a time: the same identity,
    solved for h.  Products of power sums of integral series have integral
    h, so every division is exact; ConsistencyError on a remainder.  Each
    coefficient h_n a^n is refused as soon as it is computed if it cannot be
    printed, before the power sums of higher degree are read."""
    ps, h, out = [], [1], []
    for n, pn in zip(range(order + 1), p):
        ps.append(pn)
        if n:
            q, r = divmod(sum(ps[i] * h[n - i] for i in range(1, n + 1)), n)
            if r:
                raise ConsistencyError(f"power sums give a non-integral h_{n}")
            h.append(q)
        out.append(_check_printable(h[n] * a**n))
    return TruncSeries(out)


def predict_hom_series(
    cert_a: BirankCertificate, cert_b: BirankCertificate, order: int
) -> TruncSeries:
    """Predicted Hilbert series of the graded hom algebra of two certified
    symmetries: the pairing product of their symmetric series."""
    return diamond(cert_a.symmetric_series(order), cert_b.symmetric_series(order), order)
