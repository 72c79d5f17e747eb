"""Exact linear algebra over the rationals.

Eliminations run fraction-free on integer rows: denominators are cleared up
front and rows are kept gcd-reduced, so every intermediate value is exact no
matter how badly conditioned the input is.  Matrices are lists of rows.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd


def clear_denominators(row):
    """Rescale a rational row to coprime integers, preserving signs."""
    denom = 1
    for x in row:
        if isinstance(x, Fraction):
            d = x.denominator
            denom = denom * d // gcd(denom, d)
    if denom == 1:
        ints = [int(x) for x in row]
    else:
        ints = [int(x * denom) for x in row]
    g = 0
    for v in ints:
        if v:
            g = gcd(g, v)
            if g == 1:
                return ints
    if g > 1:
        ints = [v // g for v in ints]
    return ints


class Echelon:
    """Incremental fraction-free row echelon accumulator.

    Rows are stored with strictly increasing pivot columns; each stored row is
    zero left of its pivot.  Stored rows are not cleaned above pivots (plain
    echelon, not reduced echelon), which is all that rank, span membership and
    back-substitution need.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row) -> list[int]:
        """Reduce a row against the basis; result is integer, gcd-normalized."""
        row = clear_denominators(row)
        for brow, p in zip(self.rows, self.pivots):
            v = row[p]
            if v:
                lead = brow[p]
                row = [a * lead - b * v for a, b in zip(row, brow)]
                g = 0
                for a in row:
                    if a:
                        g = gcd(g, a)
                        if g == 1:
                            break
                if g > 1:
                    row = [a // g for a in row]
        return row

    def add(self, row) -> bool:
        """Insert a row; True when it enlarged the span."""
        row = self.reduce(row)
        for j, v in enumerate(row):
            if v:
                if v < 0:
                    row = [-a for a in row]
                pos = bisect(self.pivots, j)
                self.rows.insert(pos, row)
                self.pivots.insert(pos, j)
                return True
        return False

    def contains(self, row) -> bool:
        return not any(self.reduce(row))


def rank(rows, ncols: int | None = None) -> int:
    rows = list(rows)
    if not rows:
        return 0
    ech = Echelon(len(rows[0]) if ncols is None else ncols)
    for r in rows:
        ech.add(r)
    return ech.rank


def row_basis(rows, ncols: int) -> list[list[int]]:
    """Echelon basis (integer rows) of the span of `rows`."""
    ech = Echelon(ncols)
    for r in rows:
        ech.add(r)
    return ech.rows


def nullspace(rows, ncols: int) -> list[list[int]]:
    """Basis of {x : M x = 0}, one integer vector per free column."""
    ech = Echelon(ncols)
    for r in rows:
        ech.add(r)
    in_pivots = set(ech.pivots)
    basis = []
    for f in range(ncols):
        if f in in_pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for brow, p in zip(reversed(ech.rows), reversed(ech.pivots)):
            s = Fraction(0)
            for c in range(p + 1, ncols):
                if brow[c] and x[c]:
                    s += brow[c] * x[c]
            if s:
                x[p] = -s / brow[p]
        basis.append(clear_denominators(x))
    return basis


def solve_square(a_rows, rhs):
    """Unique rational solution of a square system, or None when singular."""
    n = len(a_rows)
    m = [
        [Fraction(x) for x in row] + [Fraction(b)]
        for row, b in zip(a_rows, rhs)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        lead = m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / lead
            if f:
                for c in range(col, n + 1):
                    m[r][c] -= f * m[col][c]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        s = m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / m[r][r]
    return x


def det(rows) -> Fraction:
    """Exact determinant of a square rational matrix."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        lead = m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / lead
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def invert_unitriangular(u) -> list[list[int]]:
    """Inverse of an upper triangular integer matrix with unit diagonal."""
    p = len(u)
    if any(u[i][i] != 1 for i in range(p)):
        raise ValueError("matrix is not unitriangular")
    inv = [[0] * p for _ in range(p)]
    for j in range(p):
        inv[j][j] = 1
        for i in range(j - 1, -1, -1):
            s = sum(u[i][k] * inv[k][j] for k in range(i + 1, j + 1) if u[i][k])
            inv[i][j] = -s
    return inv
