"""Concrete Hecke symmetries and exact linear algebra on tensor powers.

Every graded dimension -- the two quadratic quotients, the mixed quotients
and the two hom-algebra families -- comes from one engine: a quadratic
quotient of a tensor algebra, computed degree by degree by fraction-free
integer elimination on the previous quotient tensored with one more slot,
so the full tensor-power matrices are never materialized.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import linalg
from .linalg import ORDER_CAP, CapExceeded
from .partitions import as_partition, weight

# Refuse tensor computations whose ambient dimension d**n exceeds this;
# validation works on V⊗3, so symmetries with d**3 above it are refused too.
# Degrees n above linalg.ORDER_CAP are refused as well; only d = 1 gets
# past the first check with such a degree.
DIMENSION_CAP = 4096


class SymmetryError(ValueError):
    """Base class for validation failures of a candidate symmetry."""


class BraidViolation(SymmetryError):
    """Braid identity fails; witness is a 1-based basis triple (i, j, k)."""

    def __init__(self, witness):
        self.witness = tuple(witness)
        super().__init__(
            f"braid identity fails on basis vector {self.witness}"
        )


class HeckeViolation(SymmetryError):
    """Quadratic relation fails; witness is a 1-based basis pair (i, j)."""

    def __init__(self, witness):
        self.witness = tuple(witness)
        super().__init__(
            f"quadratic relation fails on basis vector {self.witness}"
        )


class FileFormatError(ValueError):
    """Malformed symmetry file; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _check_cap(d: int, n: int):
    if d**n > DIMENSION_CAP:
        raise CapExceeded(
            f"tensor power dimension {d}**{n} exceeds cap {DIMENSION_CAP}"
        )
    if n > ORDER_CAP:
        raise CapExceeded(f"tensor degree {n} exceeds cap {ORDER_CAP}")


def _memo(sym, key, build):
    """``sym._cache[key]``, built on first use."""
    if key not in sym._cache:
        sym._cache[key] = build()
    return sym._cache[key]


class HeckeSymmetry:
    """A validated solution R of the braid + quadratic relations on V⊗V,
    stored once as M/s for an integer d²×d² matrix M: ``cols[c]`` lists the
    nonzero ``(row, M[row][c])`` with rows ascending, and ``s`` is the lcm
    of the entries' denominators.  Column (i-1)·d + (j-1) holds R(e_i⊗e_j),
    row (k-1)·d + (l-1) its e_k⊗e_l component.  ``matrix`` is a derived
    read.  Instances are immutable after construction.
    """

    __slots__ = ("d", "q", "s", "cols", "source", "_cache")

    def __init__(self, d: int, q, matrix, source: str = "user"):
        q = Fraction(q)
        if q == 0:
            raise ValueError("the parameter q must be nonzero")
        if d < 1:
            raise ValueError("dimension must be at least 1")
        dd = d * d
        if len(matrix) != dd or any(len(row) != dd for row in matrix):
            raise ValueError(f"matrix must be {dd}x{dd}")
        _check_cap(d, 3)
        self.d = d
        self.q = q
        rows = [[Fraction(x) for x in row] for row in matrix]
        cols = [[(r, x) for r, x in enumerate(col) if x] for col in zip(*rows)]
        self.s = s = lcm(*(x.denominator for col in cols for _, x in col))
        self.cols = tuple(tuple((r, int(x * s)) for r, x in col) for col in cols)
        self.source = source
        self._cache = {}
        _validate(self)

    @property
    def matrix(self):
        """R as d² rows of d² ``Fraction`` entries, rebuilt from ``cols``."""
        cols = [dict(col) for col in self.cols]
        return tuple(
            tuple(Fraction(col.get(r, 0), self.s) for col in cols) for r in range(len(cols))
        )

    def _pair_basis(self, key: str):
        """Im or Ker of b·M - a·s = b·s·(R - q), where R = M/s and q = a/b."""
        a, b = self.q.numerator, self.q.denominator
        return _memo(self, key, lambda: _relation_basis(
            _entries(self, b, -a), self.d**2, key == "kernel"
        ))

    def image_pair_basis(self):
        """Row basis of Im(R - q) inside V⊗V."""
        return self._pair_basis("image")

    def kernel_pair_basis(self):
        """Basis of Ker(R - q) inside V⊗V."""
        return self._pair_basis("kernel")

    def __repr__(self):
        return f"HeckeSymmetry(d={self.d}, q={self.q}, source={self.source})"


def _entries(sym: HeckeSymmetry, u: int, v: int):
    """Nonzero ``(row, col, x)`` of the integer matrix u·M + v·s."""
    out = []
    for c, col in enumerate(sym.cols):
        entries = {r: u * m for r, m in col}
        entries[c] = entries.get(c, 0) + v * sym.s
        out += [(r, c, x) for r, x in entries.items() if x]
    return out


def _relation_basis(entries, size: int, kernel: bool):
    """A basis of Ker X if ``kernel``, else a row basis of Im X (the row
    space of the transpose), for the size×size integer operator X with the
    given nonzero ``(row, col, x)``.  The nonzero rows reach ``linalg`` in
    index order, so every basis is that of the dense matrix: a zero row is
    a no-op in ``linalg.Echelon``."""
    rows = {}
    for r, c, x in entries:
        i, j = (r, c) if kernel else (c, r)
        rows.setdefault(i, [0] * size)[j] = x
    rows = [rows[i] for i in sorted(rows)]
    return tuple(map(tuple, (linalg.nullspace if kernel else linalg.row_basis)(rows, size)))


def _apply(cols, d: int, n: int, pos: int, vec):
    """M at slots (pos, pos+1) of V⊗n applied to a sparse ``{index: int}``
    vector; the result has no zero entries."""
    stride = d ** (n - pos - 1)
    block = stride * d * d
    out = {}
    for x, val in vec.items():
        hi, rest = divmod(x, block)
        pair, lo = divmod(rest, stride)
        base = hi * block + lo
        for row, m in cols[pair]:
            k = base + row * stride
            out[k] = out.get(k, 0) + m * val
    return {k: v for k, v in out.items() if v}


def _validate(sym: HeckeSymmetry):
    d = sym.d
    dd = d * d
    a, b = sym.q.numerator, sym.q.denominator
    s, cols = sym.s, sym.cols
    # quadratic relation (R - q)(R + 1) = 0, column by column, as
    # (b·M - a·s)(M + s) = 0
    for c in range(dd):
        w = _apply(cols, d, 2, 1, {c: 1})
        w[c] = w.get(c, 0) + s
        lhs = {k: b * v for k, v in _apply(cols, d, 2, 1, w).items()}
        if lhs != {k: a * s * v for k, v in w.items() if v}:
            raise HeckeViolation((c // d + 1, c % d + 1))
    # braid identity M12 M23 M12 = M23 M12 M23 on V⊗3, basis vector by
    # basis vector
    for x in range(d**3):
        lhs = rhs = {x: 1}
        for pos in (1, 2, 1):
            lhs = _apply(cols, d, 3, pos, lhs)
        for pos in (2, 1, 2):
            rhs = _apply(cols, d, 3, pos, rhs)
        if lhs != rhs:
            raise BraidViolation((x // dd + 1, (x // d) % d + 1, x % d + 1))


def _deformed_swap(parity, q, source: str) -> HeckeSymmetry:
    """The deformed transposition on basis vectors of the given parities
    (0 even, 1 odd): even diagonal pairs scale by q and odd ones by -1,
    ordered pairs swap with the sign of odd-odd pairs, and the
    lower-triangular correction keeps the quadratic relation exact."""
    q = Fraction(q)
    d = len(parity)
    _check_cap(d, 3)  # before the d**4 matrix entries are built
    dd = d * d
    mat = [[0] * dd for _ in range(dd)]
    for i in range(d):
        for j in range(d):
            col = i * d + j
            sign = -1 if parity[i] and parity[j] else 1
            if i == j:
                mat[col][col] = -1 if parity[i] else q
            elif i < j:
                mat[j * d + i][col] = sign
            else:
                mat[j * d + i][col] = q * sign
                mat[col][col] = q - 1
    return HeckeSymmetry(d, q, mat, source=source)


def build_standard(r: int, q) -> HeckeSymmetry:
    """The deformed-transposition symmetry on an r-dimensional space."""
    if r < 1:
        raise ValueError("dimension must be at least 1")
    return _deformed_swap([0] * r, q, "standard")


def build_super(r0: int, r1: int, q) -> HeckeSymmetry:
    """The graded variant: r0 even basis vectors followed by r1 odd ones."""
    if r0 < 0 or r1 < 0 or r0 + r1 < 1:
        raise ValueError("need r0, r1 >= 0 with r0 + r1 >= 1")
    return _deformed_swap([0] * r0 + [1] * r1, q, "super")


def load_and_validate(d: int, q, matrix) -> HeckeSymmetry:
    """Validate a user-supplied candidate; raises BraidViolation or
    HeckeViolation with a 1-based witness on failure."""
    return HeckeSymmetry(d, q, matrix, source="user")


# ---------------------------------------------------------------------------
# file format


def serialize_symmetry(sym: HeckeSymmetry) -> str:
    lines = [
        "hecke-symmetry v1",
        f"d = {sym.d}",
        f"q = {sym.q.numerator}/{sym.q.denominator}",
    ]
    for row in sym.matrix:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_symmetry_text(text: str) -> HeckeSymmetry:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "hecke-symmetry v1":
        raise FileFormatError(1, "expected header 'hecke-symmetry v1'")
    if len(lines) < 3:
        raise FileFormatError(len(lines), "missing d / q lines")

    def keyed(line_no: int, key: str) -> str:
        raw = lines[line_no - 1]
        head, _, val = raw.partition("=")
        if head.strip() != key:
            raise FileFormatError(line_no, f"expected '{key} = ...'")
        return val.strip()

    try:
        d = int(keyed(2, "d"))
    except ValueError as exc:
        raise FileFormatError(2, f"bad dimension: {exc}") from None
    if d < 1:
        raise FileFormatError(2, "dimension must be at least 1")
    _check_cap(d, 3)  # before any of the d**4 entries is read
    try:
        q = Fraction(keyed(3, "q"))
    except (ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(3, f"bad q: {exc}") from None
    if q == 0:
        raise FileFormatError(3, "the parameter q must be nonzero")
    dd = d * d
    body = lines[3:]
    if len(body) < dd:
        raise FileFormatError(len(lines), f"expected {dd} matrix rows")
    matrix = []
    for line_no, line in enumerate(body[:dd], 4):
        toks = line.split()
        if len(toks) != dd:
            raise FileFormatError(line_no, f"expected {dd} entries, got {len(toks)}")
        try:
            matrix.append([Fraction(t) for t in toks])
        except (ValueError, ZeroDivisionError) as exc:
            raise FileFormatError(line_no, f"bad entry: {exc}") from None
    tail = [ln for ln in body[dd:] if ln.strip()]
    if tail:
        raise FileFormatError(4 + dd, "unexpected trailing content")
    return load_and_validate(d, q, matrix)


def load_symmetry_file(path: str) -> HeckeSymmetry:
    with open(path, "r", encoding="ascii") as fh:
        return parse_symmetry_text(fh.read())


# ---------------------------------------------------------------------------
# graded dimension engines


def _graded_quotient_dims(d: int, relations, n_max: int):
    """Dimensions, per degree up to n_max, of the quotient of the tensor
    algebra on V = k^d by the ideal generated by ``relations(p)``, a basis
    (possibly empty) of the relations inserted at tensor slots (p, p+1).

    The degree-n relation space is W_{n-1}⊗V + V^{⊗(n-2)}⊗R_{n-1}, and
    W_{n-2}⊗V⊗V already lies in W_{n-1}⊗V, so Q_n is Q_{n-1}⊗V modulo the
    rows z⊗u for z in a basis of Q_{n-2} and u in R_{n-1}, pushed through
    the previous extension map Q_{n-2}⊗V → Q_{n-1}.  Every elimination has
    the size of the quotient, never of the tensor power.  ``relations`` is
    called only after the cap check.
    """
    _check_cap(d, n_max)
    dims = [1, d] if n_max else [1]
    # ext[j*d + a]: the class of (basis vector j of Q_{n-2})⊗e_a in Q_{n-1},
    # as (basis index, integer coefficient) pairs, all up to one common scale
    ext = [[(a, 1)] for a in range(d)]
    for n in range(2, n_max + 1):
        ncols = dims[n - 1] * d
        ech = linalg.Echelon(ncols)
        for u in relations(n - 1):
            support = [(*divmod(k, d), x) for k, x in enumerate(u) if x]
            for j in range(dims[n - 2]):
                row = [0] * ncols
                for a, b, x in support:
                    for k, c in ext[j * d + a]:
                        row[k * d + b] += x * c
                if any(row):
                    ech.add(row)
        dims.append(ncols - ech.rank)
        if n == n_max:
            break
        # scaled by the common pivot value D, which leaves every span alone
        D, reduced = ech.reduced()
        pivot_row = dict(zip(ech.pivots, reduced))
        free = [c for c in range(ncols) if c not in pivot_row]
        index = {c: k for k, c in enumerate(free)}
        ext = [
            [(index[c], D)]
            if c in index
            else [(index[f], -pivot_row[c][f]) for f in free if pivot_row[c][f]]
            for c in range(ncols)
        ]
    return dims


def _cached_dims(sym: HeckeSymmetry, key, d: int, relations, n_max: int):
    cached = sym._cache.get(key)
    if cached is None or len(cached) <= n_max:
        cached = _graded_quotient_dims(d, relations, n_max)
        sym._cache[key] = cached
    return list(cached[: n_max + 1])


def symmetric_dims(sym: HeckeSymmetry, n_max: int):
    """dim of the degree-n component of the quadratic quotient by
    Im(R - q), for n = 0..n_max."""
    return _cached_dims(
        sym, "sym_dims", sym.d, lambda p: sym.image_pair_basis(), n_max
    )


def exterior_dims(sym: HeckeSymmetry, n_max: int):
    """dim of the degree-n component of the quadratic quotient by
    Ker(R - q), for n = 0..n_max."""
    return _cached_dims(
        sym, "ext_dims", sym.d, lambda p: sym.kernel_pair_basis(), n_max
    )


def dim_quotient(sym: HeckeSymmetry, lam, mu) -> int:
    """Dimension of the tensor power modulo image relations inside the
    blocks of lam and kernel relations inside the blocks of mu (mu laid out
    after lam); no relation crosses a block boundary."""
    lam, mu = as_partition(lam), as_partition(mu)
    n = weight(lam) + weight(mu)
    # per adjacent pair of slots: the relation basis, or None at a boundary
    slots = []
    for parts, basis in ((lam, sym.image_pair_basis), (mu, sym.kernel_pair_basis)):
        for part in parts:
            slots += [basis] * (part - 1) + [None]
    return _graded_quotient_dims(
        sym.d, lambda p: slots[p - 1]() if slots[p - 1] else (), n
    )[n]


# ---------------------------------------------------------------------------
# hom-space dimensions for a pair of symmetries


def _conjugation_entries(sym_target: HeckeSymmetry, sym_source: HeckeSymmetry):
    """Nonzero ``(row, col, x)`` of the transpose of (conjugation - identity)
    on the square of Hom(V, V'), times a·s'·s.  Conjugation takes a two-slot
    map φ to R'^{-1}·φ·R with R = M/s the source symmetry, and the quadratic
    relation gives R'^{-1} = (R' - (q-1))/q = P/(a·s') with P = b·M' - (a-b)·s'."""
    d, dp = sym_source.d, sym_target.d
    big = d * dp
    a, b = sym_source.q.numerator, sym_source.q.denominator
    scale = a * sym_target.s * sym_source.s
    out = {(k, k): -scale for k in range(big * big)}
    right = [
        (*divmod(r, d), *divmod(c, d), m) for r, c, m in _entries(sym_source, 1, 0)
    ]
    for r, c, p in _entries(sym_target, b, b - a):
        (a2, c2), (a1, c1) = divmod(r, dp), divmod(c, dp)
        for b1, e1, b2, e2, m in right:
            row = (a2 * d + b2) * big + (c2 * d + e2)
            col = (a1 * d + b1) * big + (c1 * d + e1)
            out[col, row] = out.get((col, row), 0) + p * m
    return [(r, c, x) for (r, c), x in out.items() if x]


def require_same_q(sym_target: HeckeSymmetry, sym_source: HeckeSymmetry):
    if sym_target.q != sym_source.q:
        raise ValueError(
            f"the two symmetries must share q; got {sym_target.q} "
            f"and {sym_source.q}"
        )


def hom_dims(sym_target: HeckeSymmetry, sym_source: HeckeSymmetry, kind: str, n_max: int):
    """Dimensions for n = 0..n_max of hom family ``kind``: "A" as in
    ``dim_intertwiner``, "E" as in ``dim_e_component``.  The pair relations,
    built once per pair, are Im X for "A" and Ker X for "E", with X the
    transpose of (conjugation - identity)."""
    require_same_q(sym_target, sym_source)
    big = sym_source.d * sym_target.d
    def relations(p):
        return _memo(sym_source, (kind, "relations", sym_target), lambda: _relation_basis(
            _conjugation_entries(sym_target, sym_source), big * big, kind == "E"
        ))

    return _cached_dims(sym_source, (kind, sym_target), big, relations, n_max)


def dim_intertwiner(sym_target: HeckeSymmetry, sym_source: HeckeSymmetry, n: int) -> int:
    """Dimension of the space of maps between the n-th tensor powers
    commuting with both braid actions: the graded quotient of the tensor
    algebra on Hom(V, V') by the row space of (conjugation - identity)."""
    return hom_dims(sym_target, sym_source, "A", n)[n]


def dim_e_component(sym_target: HeckeSymmetry, sym_source: HeckeSymmetry, n: int) -> int:
    """Dimension of the intersection over all adjacent positions p of the
    copies W_p of I = Im(conjugation - identity) on the n-th tensor power
    of Hom(V, V').  Since dim ∩_p W_p = N - dim Σ_p W_p^⊥ and W_p^⊥ is the
    annihilator of I placed at slots (p, p+1), this is the graded quotient
    by that annihilator."""
    return hom_dims(sym_target, sym_source, "E", n)[n]
