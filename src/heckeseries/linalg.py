"""Exact linear algebra over the rationals, on one elimination kernel.

``Echelon`` is the only Gaussian elimination in the package and its one
entry point: every caller adds integer rows to it directly.  It runs
fraction-free on rows kept gcd-reduced, so every intermediate value is an
exact integer, and converts no rationals.  Its rows are a basis of the
span, ``Echelon.reduced`` the reduced echelon form in primitive rows, the
one such basis of the span (the image bases of ``rmatrix._relations``;
``symfunc``'s inverse Kostka matrix is the right half of the reduced rows
[K | I]), and ``Echelon.annihilator`` one primitive vector per free column
orthogonal to every row: the kernel bases of ``rmatrix._relations`` and the
quotient coordinates of its graded-quotient engine.  Matrices are lists of
rows.  Rank, row-basis and nullspace readers of rational matrices are test
oracles, not library code, and so are determinants and square solves: Schur
values come from the memoised expansion in ``series.schur_values``, and
recurrence detection solves its nested systems in one Berlekamp-Massey pass.
``primitive`` is the one gcd reduction and ``scale_to_integers`` the one
scaling of a rational row to integers, within ``BIT_LENGTH_CAP``: no other
module takes a denominator lcm.

``CapExceeded`` lives here because every module that enforces a size cap
already imports this one, and so do ``check_cap``, which raises and words
every cap refusal but the dimension cap's, ``ORDER_CAP``, the one degree
cap that both the tensor-power engine and the series expansions enforce, and
``BIT_LENGTH_CAP``, the one bit-length cap of a symmetry's integers and of
every rational row scaled to integers.
``parse_rational``, the one parser of rational input, lives here too, so
that reading a symmetry loads no ``series`` code; ``rational`` reads any
number or string through it for the library constructors.
"""

from __future__ import annotations

import sys
from bisect import bisect
from fractions import Fraction
from math import gcd, lcm


class CapExceeded(ValueError):
    """Requested work exceeds a size cap: a tensor-power dimension, a
    Schur-minor weight, a series order or a symmetric-function degree.
    Every cap is checked before any of the work it bounds."""


def check_cap(what: str, value: int, cap: int):
    """Refuse ``value`` above ``cap`` with the one cap message."""
    if value > cap:
        raise CapExceeded(f"{what} {value} exceeds cap {cap}")


# The highest degree of a graded dimension and the highest order of a series
# expansion.  Work and output grow with it even where the ambient dimension
# does not, as for d = 1, whose d**n never exceeds any dimension cap;
# degrees and orders above this are refused before the first one is computed.
ORDER_CAP = 1000

# The bit length of the integers exact work starts from: a symmetry's s, M
# and q (validating std16 at 14281 bits took 4.6 s) and every rational row
# scaled to integers (detection on the order-1000 window of
# 1/∏_{k≤24}(1 - kt), at 4616 bits, took 7.5 s).  Longer integers are
# refused before the work starts.
BIT_LENGTH_CAP = 1024


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, refusing first a literal whose mantissa digits
    plus |exponent| exceed Python's limit on integer digits: ``Fraction``
    expands an exponent without that limit, so "1e-10000000" alone would
    take seconds."""
    mantissa, e, exponent = text.lower().partition("e")
    if e:
        try:
            digits = sum(c.isdigit() for c in mantissa) + abs(int(exponent))
        except ValueError:
            digits = 0  # a malformed exponent: Fraction says why
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if digits > limit:
            raise ValueError(f"rational literal expands past the limit of {limit} digits")
    return Fraction(text)


def rational(x) -> Fraction:
    """``Fraction(x)``, reading a string through ``parse_rational`` so that
    its digit bound holds for library callers too."""
    return parse_rational(x) if isinstance(x, str) else Fraction(x)


def primitive(row: list[int]) -> list[int]:
    """An integer row over the gcd of its entries, a positive factor that
    keeps every sign; a row of content 0 or 1 is returned as it is.  The
    gcd stops early at 1."""
    g = 0
    for a in row:
        if a:
            g = gcd(g, a)
            if g == 1:
                return row
    return [a // g for a in row] if g > 1 else row


def scale_to_integers(row, what: str) -> tuple[int, list[int]]:
    """``(D, [x*D for x in row])`` for a row of ints and ``Fraction``s, D the
    lcm of its denominators, refused as "<what> bit length" as it grows: the
    lcm of many distinct denominators costs time quadratic in their number."""
    D = 1
    for x in row:
        D = lcm(D, x.denominator)
        check_cap(f"{what} bit length", D.bit_length(), BIT_LENGTH_CAP)
    return D, [x.numerator * (D // x.denominator) for x in row]


def _eliminate(row, brow, p):
    """row·brow[p] - brow·row[p] made primitive: the fraction-free step that
    clears column p of row."""
    lead, v = brow[p], row[p]
    return primitive([a * lead - b * v for a, b in zip(row, brow)])


class Echelon:
    """Incremental fraction-free row echelon accumulator.

    Rows are stored with strictly increasing pivot columns and positive
    pivot entries; each stored row is zero left of its pivot.  Stored rows
    are plain echelon, never rewritten; ``reduced`` gives the reduced form.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def reduce(self, row) -> list[int]:
        """Reduce an integer row against the basis, gcd-normalized."""
        row = primitive(list(row))
        for brow, p in zip(self.rows, self.pivots):
            if row[p]:
                row = _eliminate(row, brow, p)
        return row

    def add(self, row) -> bool:
        """Insert a row; True when it enlarged the span."""
        out = self.reduce(row)
        for j, v in enumerate(out):
            if v:
                if v < 0:
                    out = [-a for a in out]
                pos = bisect(self.pivots, j)
                self.rows.insert(pos, out)
                self.pivots.insert(pos, j)
                return True
        return False

    def reduced(self) -> list[list[int]]:
        """Reduced echelon form, the one such basis of the span of ``rows``:
        primitive integer rows aligned with ``pivots``, each positive at its
        own pivot and zero at every other pivot."""
        out: list[list[int]] = []
        for row, p in zip(reversed(self.rows), reversed(self.pivots)):
            for brow, c in zip(out, reversed(self.pivots)):
                if row[c]:
                    row = _eliminate(row, brow, c)
            out.append(row)
        out.reverse()
        return out

    def annihilator(self) -> list[list[int]]:
        """One primitive integer vector per free column f, orthogonal to
        every stored row: D at f, the lcm of the reduced pivot values, and
        on each pivot the entry at f of its reduced row, scaled to pivot
        value D and negated."""
        reduced = self.reduced()
        D = lcm(*(row[p] for row, p in zip(reduced, self.pivots)))
        basis = []
        for f in sorted(set(range(self.ncols)).difference(self.pivots)):
            x = [0] * self.ncols
            x[f] = D
            for row, p in zip(reduced, self.pivots):
                x[p] = -row[f] * (D // row[p])
            basis.append(primitive(x))
        return basis
