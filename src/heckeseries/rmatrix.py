"""Concrete Hecke symmetries and exact linear algebra on tensor powers.

A symmetry is built from its stored form R = M/s, sparse integer columns M
and an integer s; ``load_and_validate`` is the one reader of a dense matrix,
and ``read_symmetry`` the one reader of a specifier such as ``std:r=2,q=3``.
The two quadratic quotients and the two hom-algebra families come from one
engine: a quadratic quotient of a tensor algebra by pair relations, computed
degree by degree by integer elimination on the previous quotient tensored
with one more slot, never on a full tensor power.  Their pair relations
come from one operator, the FRT relation R'·T₁T₂ = T₁T₂·R as a map Y on
two-slot maps (``_frt_entries``): "A" is the image of Yᵀ and "E" its
kernel, and "sym" and "ext" are "A" and "E" against the one-dimensional
symmetry q.  ``_relations`` builds a family's pair relations and ``_dims``
caches its graded dimensions; a mixed quotient multiplies them.  Every
family reads the builtin deformed swap that a user symmetry conjugates
(``_normal_form``) where there is one: all four are invariant under
conjugation by g⊗g.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod

from . import linalg
from .linalg import BIT_LENGTH_CAP, ORDER_CAP, CapExceeded

# Refuse tensor computations whose ambient dimension d**n exceeds this;
# validation works on V⊗3, so symmetries with d**3 above it are refused too.
# Degrees n above linalg.ORDER_CAP are refused as well; only d = 1 gets
# past the first check with such a degree.
DIMENSION_CAP = 4096

# Validation applies M to every basis vector of V⊗2 and V⊗3, so on dense
# input its work grows like d**8 well inside the dimension cap.  Symmetries
# whose bound on that work (``_validation_steps``) exceeds this are refused
# before the first step.
VALIDATION_CAP = 10**7


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
    # d**n > cap exactly when d**min(n, k) > cap for k = cap.bit_length(),
    # since 2**k > cap, so the check costs the same for any n
    if d ** min(n, DIMENSION_CAP.bit_length()) > DIMENSION_CAP:
        raise CapExceeded(
            f"tensor power dimension {d}**{n} exceeds cap {DIMENSION_CAP}"
        )
    linalg.check_cap("tensor degree", n, ORDER_CAP)


class HeckeSymmetry:
    """A validated solution R of the braid + quadratic relations on V⊗V,
    built from its stored form M/s, s a positive integer and M an integer
    d²×d² matrix: ``cols[c]`` lists the nonzero ``(row, M[row][c])``, rows
    ascending.  Column (i-1)·d + (j-1) holds R(e_i⊗e_j), row (k-1)·d + (l-1)
    its e_k⊗e_l component.  Only q is read as a rational; ``matrix`` is a
    derived read.  Instances are immutable after construction; ``_cache``
    holds only the graded dimensions ``_dims`` derives from them.
    ``_twin`` is the matrix every relation family reads: the builtin
    deformed swap a user symmetry conjugates (``_normal_form``) when there
    is one, else the symmetry itself.
    """

    __slots__ = ("d", "q", "s", "cols", "source", "_twin", "_cache")

    def __init__(self, d: int, q, s: int, cols, source: str = "user"):
        q = linalg.rational(q)
        if q == 0:
            raise ValueError("the parameter q must be nonzero")
        if d < 1:
            raise ValueError("dimension must be at least 1")
        _check_cap(d, 3)  # before any column is read
        dd = d * d
        cols = tuple(map(tuple, cols))
        distinct = [
            len({r for r, m in c if isinstance(r, int) and isinstance(m, int) and 0 <= r < dd})
            for c in cols
        ]
        if not isinstance(s, int) or s < 1 or len(cols) != dd or distinct != list(map(len, cols)):
            raise ValueError(
                f"stored form: need integers, s >= 1, {dd} columns, distinct rows below {dd}"
            )
        big = max(abs(q.numerator), q.denominator, s, *(abs(m) for c in cols for _, m in c))
        linalg.check_cap("symmetry bit length", big.bit_length(), BIT_LENGTH_CAP)
        self.d = d
        self.q = q
        self.s = s
        self.cols = cols
        self.source = source
        self._cache = {}
        steps = _validation_steps(d, self.cols)
        linalg.check_cap("validation work bound", steps, VALIDATION_CAP)
        self._twin = (source == "user" and _normal_form(self, steps)) or self
        # a twin B was validated when it was built, and g is invertible (its
        # columns are eigenvectors of distinct eigenvalues), so R =
        # (g⊗g)·B·(g⊗g)^-1 is a Hecke symmetry exactly when B is
        if self._twin is self:
            _validate(self)

    @property
    def matrix(self):
        """R as d² rows of d² ``Fraction`` entries, rebuilt from ``cols``."""
        cols = [dict(col) for col in self.cols]
        return tuple(
            tuple(Fraction(col.get(r, 0), self.s) for col in cols) for r in range(len(cols))
        )

    def __repr__(self):
        return f"HeckeSymmetry(d={self.d}, q={self.q}, source={self.source})"


def _times(op, vec):
    """The column operator ``op`` applied to a sparse ``{index: int}``
    vector: ``op[k]`` lists the nonzero ``(row, x)`` of column k.  The
    result has no zero entries."""
    out = {}
    for k, v in vec.items():
        for r, x in op[k]:
            out[r] = out.get(r, 0) + x * v
    return {r: x for r, x in out.items() if x}


def _validation_steps(d: int, cols) -> int:
    """An upper bound on the inner-loop steps of ``_validate``'s ``_times``
    calls.  With at most m nonzeros per column, M applied to a vector of k
    entries takes at most k·m steps and leaves at most k·m entries, and at
    most d**3 on V⊗3: two applies per column of V⊗2, to a basis vector and
    to a vector of at most m + 1 entries, and three applies per side of the
    braid identity on each of the d**3 basis vectors of V⊗3, the first of
    them a column of a slot operator.  The two slot operators hold at most
    2·d**3·m pairs, which the first braid term already counts."""
    m = max(map(len, cols))
    steps, k = d * d * (m + (m + 1) * m), 1
    for _ in range(3):
        steps += 2 * d**3 * k * m
        k = min(k * m, d**3)
    return steps


def _validate(sym: HeckeSymmetry):
    d = sym.d
    dd = d * d
    a, b = sym.q.numerator, sym.q.denominator
    s, cols = sym.s, sym.cols
    # quadratic relation (R - q)(R + 1) = 0, column by column, as
    # (b·M - a·s)(M + s) = 0
    for c in range(dd):
        w = _times(cols, {c: 1})
        w[c] = w.get(c, 0) + s
        lhs = {k: b * v for k, v in _times(cols, w).items()}
        if lhs != {k: a * s * v for k, v in w.items() if v}:
            raise HeckeViolation((c // d + 1, c % d + 1))
    # braid identity M12 M23 M12 = M23 M12 M23 on V⊗3, basis vector by
    # basis vector, with M at slots (1, 2) and (2, 3) as column operators
    m12 = [[(r * d + x % d, m) for r, m in cols[x // d]] for x in range(d**3)]
    m23 = [[(x - x % dd + r, m) for r, m in cols[x % dd]] for x in range(d**3)]
    for x in range(d**3):
        if _times(m12, _times(m23, dict(m12[x]))) != _times(m23, _times(m12, dict(m23[x]))):
            raise BraidViolation((x // dd + 1, (x // d) % d + 1, x % d + 1))


def _normal_form(sym: HeckeSymmetry, steps: int) -> HeckeSymmetry | None:
    """The deformed swap B that an unvalidated user symmetry R conjugates,
    R = (g⊗g)·B·(g⊗g)^-1, or None; nothing here raises.

    X = Tr₂R - Tr₁R, with Tr₂R[i][k] = Σ_j R[(i,j),(k,j)] and Tr₁R[j][l] =
    Σ_i R[(i,j),(i,l)], is conjugated by g when R is by g⊗g (Gurevich 1991),
    and for every deformed swap it is (q-1)·diag(2i - d + 1).  When each of
    those d distinct eigenvalues has a one-dimensional kernel, its integer
    vectors are the columns g_i of g, up to a scale that conjugating B by a
    diagonal matrix does not see.  B's parities are read off M·(g_i⊗g_j),
    i ≤ j: B(e_i⊗e_i) is -e_i⊗e_i exactly on an odd vector, and B(e_i⊗e_j)
    is -e_j⊗e_i exactly on an odd pair.  At q = -1 the diagonal says
    nothing, and a single odd vector gives the same B as an even one.  B is
    kept when M·(g⊗g) = s·(g⊗g)·B, column by column.  Only q ≠ 1, d ≥ 2 and
    more nonzeros than a deformed swap's are tried."""
    d, s, cols = sym.d, sym.s, sym.cols
    a, b = sym.q.numerator, sym.q.denominator
    nnz = sum(map(len, cols))
    if d < 2 or a == b or nnz <= d + 3 * d * (d - 1) // 2:
        return None
    trace = [[0] * d for _ in range(d)]  # b·s·X
    for c, col in enumerate(cols):
        k, l = divmod(c, d)
        for r, m in col:
            i, j = divmod(r, d)
            if j == l:
                trace[i][k] += b * m
            if i == k:
                trace[j][l] -= b * m
    g = []
    for i in range(d):
        ech = linalg.Echelon(d)
        shift = s * (a - b) * (2 * i - d + 1)
        for r, row in enumerate(trace):
            ech.add([v - shift * (r == c) for c, v in enumerate(row)])
        kernel = ech.annihilator()
        if len(kernel) != 1:
            return None
        g.append([(k, v) for k, v in enumerate(kernel[0]) if v])
    # the two products below take at most nnz(g)²·m and 2·nnz(g)² steps for
    # m nonzeros per column of M, so 2·nnz(g)²·m in all, since more nonzeros
    # than a deformed swap's put two in some column.  Within validation's
    # own bound, which the cap has checked, a sparse file pays for its
    # nonzeros; past it no twin is tried.
    if 2 * sum(map(len, g)) ** 2 * max(map(len, cols)) > steps:
        return None
    gg = [[(k * d + l, u * v) for k, u in g[i] for l, v in g[j]] for i in range(d) for j in range(d)]
    image = [_times(cols, dict(col)) for col in gg]  # M·(g⊗g)

    def odd(i, j):
        return image[i * d + j] == {r: -s * x for r, x in gg[j * d + i]}

    if sym.q != -1:
        parity = [odd(i, i) for i in range(d)]
    else:
        parity = [any(odd(*sorted((i, j))) for j in range(d) if j != i) for i in range(d)]
    twin = _deformed_swap(d, parity.__getitem__, sym.q, "twin")
    for c, col in enumerate(twin.cols):
        if {r: twin.s * x for r, x in image[c].items()} != _times(gg, {r: s * x for r, x in col}):
            return None
    return twin


def _deformed_swap(d: int, odd, q, source: str) -> HeckeSymmetry:
    """The deformed transposition on d basis vectors, vector i odd when
    ``odd(i)``: even diagonal pairs scale by q and odd ones by -1, ordered
    pairs swap with the sign of odd-odd pairs, and the lower-triangular
    correction keeps the quadratic relation exact.  Its columns, M = s·R
    with s = b for q = a/b, are made after the cap check, and nothing of
    length d before it."""
    q = linalg.rational(q)
    a, b = q.numerator, q.denominator
    s = 1 if d == 1 and odd(0) else b

    def column(i, j):
        sign = -1 if odd(i) and odd(j) else 1
        if i == j:
            return [(i * d + i, -s if odd(i) else a)]
        if i < j:
            return [(j * d + i, sign * s)]
        return [(j * d + i, sign * a), (i * d + j, a - b)]

    cols = ([(r, m) for r, m in column(i, j) if m] for i in range(d) for j in range(d))
    return HeckeSymmetry(d, q, s, cols, source=source)


def build_standard(r: int, q) -> HeckeSymmetry:
    """The deformed-transposition symmetry on an r-dimensional space."""
    return _deformed_swap(r, lambda i: False, q, "standard")


def build_super(r0: int, r1: int, q) -> HeckeSymmetry:
    """The graded variant: r0 even basis vectors followed by r1 odd ones."""
    if r0 < 0 or r1 < 0 or r0 + r1 < 1:
        raise ValueError("need r0, r1 >= 0 with r0 + r1 >= 1")
    return _deformed_swap(r0 + r1, lambda i: i >= r0, q, "super")


def load_and_validate(d: int, q, matrix) -> HeckeSymmetry:
    """Validate a user-supplied candidate given as d² rows of d² rationals,
    the one dense reader: s is the lcm of their denominators, and M = s·R.
    Raises BraidViolation or HeckeViolation with a 1-based witness."""
    dd = d * d
    if len(matrix) != dd or any(len(row) != dd for row in matrix):
        raise ValueError(f"matrix must be {dd}x{dd}")
    # int and Fraction zeros are dropped unconverted; any other entry,
    # a "0" string included, is converted in row order
    rows = [
        [linalg.rational(x) if x or not isinstance(x, (int, Fraction)) else 0 for x in row]
        for row in matrix
    ]
    cols = [[(r, x) for r, x in enumerate(col) if x] for col in zip(*rows)]
    s, entries = linalg.scale_to_integers([x for col in cols for _, x in col], "symmetry")
    entries = iter(entries)
    return HeckeSymmetry(d, q, s, [[(r, next(entries)) for r, _ in col] for col in cols])


# ---------------------------------------------------------------------------
# file format


def parse_symmetry_text(text: str) -> HeckeSymmetry:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "hecke-symmetry v1":
        raise FileFormatError(1, "expected header 'hecke-symmetry v1'")
    if len(lines) < 3:
        raise FileFormatError(len(lines), "missing d / q lines")

    def keyed(line_no: int, key: str, read, what: str):
        head, _, val = lines[line_no - 1].partition("=")
        if head.strip() != key:
            raise FileFormatError(line_no, f"expected '{key} = ...'")
        try:
            return read(val.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise FileFormatError(line_no, f"bad {what}: {exc}") from None

    d = keyed(2, "d", int, "dimension")
    if d < 1:
        raise FileFormatError(2, "dimension must be at least 1")
    _check_cap(d, 3)  # before any of the d**4 entries is read
    # one parse per distinct token: a d = 16 file holds 65536, mostly "0"
    read = cache(linalg.parse_rational)
    q = keyed(3, "q", read, "q")
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
            matrix.append([read(t) for t in toks])
        except (ValueError, ZeroDivisionError) as exc:
            raise FileFormatError(line_no, f"bad entry: {exc}") from None
    for line_no, line in enumerate(body[dd:], 4 + dd):
        if line.strip():
            raise FileFormatError(line_no, "unexpected trailing content")
    return load_and_validate(d, q, matrix)


def load_symmetry_file(path: str) -> HeckeSymmetry:
    with open(path, "r", encoding="ascii") as fh:
        return parse_symmetry_text(fh.read())


def read_symmetry(spec: str) -> HeckeSymmetry:
    """The symmetry named by ``std:r=R,q=Q``, ``super:r0,r1,q=Q`` or
    ``file:PATH``, the one reader of that grammar.  A malformed specifier
    raises ValueError, and so does a builder's ValueError or a literal's
    ZeroDivisionError, wrapped in a message naming the specifier; caps,
    validation failures, file-format and OS errors pass through."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"symmetry specifier {spec!r} needs a 'std:', 'super:' or 'file:' prefix")
    if kind == "file":
        return load_symmetry_file(rest)
    fields = [f.strip() for f in rest.split(",")]
    if kind == "std":
        kv = dict(f.split("=", 1) for f in fields if "=" in f)
        if len(kv) != len(fields) or sorted(kv) != ["q", "r"]:
            raise ValueError(f"std specifier must be 'std:r=R,q=Q', got {spec!r}")
        build, sizes, q = build_standard, [kv["r"]], kv["q"]
    elif kind == "super":
        if len(fields) != 3 or not fields[2].startswith("q="):
            raise ValueError(f"super specifier must be 'super:r0,r1,q=Q', got {spec!r}")
        build, sizes, q = build_super, fields[:2], fields[2][2:]
    else:
        raise ValueError(f"unknown symmetry kind {kind!r}")
    try:
        return build(*map(int, sizes), linalg.parse_rational(q))
    except (CapExceeded, SymmetryError):
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad symmetry specifier {spec!r}: {exc}") from None


# ---------------------------------------------------------------------------
# graded dimension engines


def _graded_quotient_dims(d: int, relations, n_max: int):
    """Dimensions, per degree up to n_max, of the quotient of the tensor
    algebra on V = k^d by the ideal generated by ``relations``, a basis
    (possibly empty, supports as ``_relations`` gives them) of the relations
    placed at every pair of adjacent slots.

    The degree-n relation space is W_{n-1}⊗V + V^{⊗(n-2)}⊗R, and
    W_{n-2}⊗V⊗V already lies in W_{n-1}⊗V, so Q_n is Q_{n-1}⊗V modulo the
    rows z⊗u for z in a basis of Q_{n-2} and u in R, pushed through the
    previous extension map Q_{n-2}⊗V → Q_{n-1}.  Every elimination has the
    size of the quotient, never of the tensor power.
    """
    dims = [1, d] if n_max else [1]
    # ext[j*d + a]: the class of (basis vector j of Q_{n-2})⊗e_a in Q_{n-1},
    # as (basis index, integer coefficient) pairs: its pairings with the
    # annihilator of the degree-(n-1) relations, one coordinate per vector
    ext = [[(a, 1)] for a in range(d)]
    for n in range(2, n_max + 1):
        ncols = dims[n - 1] * d
        ech = linalg.Echelon(ncols)
        for support in relations:
            for j in range(dims[n - 2]):
                row = [0] * ncols
                for a, b, x in support:
                    for k, c in ext[j * d + a]:
                        row[k * d + b] += x * c
                if any(row):
                    ech.add(row)
        dims.append(ncols - len(ech.rows))
        if n == n_max:
            break
        ann = ech.annihilator()
        ext = [[(k, x[c]) for k, x in enumerate(ann) if x[c]] for c in range(ncols)]
    return dims


def _frt_entries(sym_target: HeckeSymmetry, sym_source: HeckeSymmetry):
    """Nonzero ``(row, col, x)`` of Yᵀ, for Y(φ) = s·M'φ - s'·φM = s·s'·(R'φ
    - φR) on two-slot maps φ: V⊗V → V'⊗V', R = M/s the source symmetry and
    R' = M'/s' the target.  The coordinate t_ab⊗t_ce of φ, a and c indexing
    V' and b and e indexing V, sits at (a·d + b)·d·d' + c·d + e, the sum of
    a part from (a, c) and a part from (b, e)."""
    d, dp = sym_source.d, sym_target.d
    big = d * dp
    left = [a * d * big + c * d for a in range(dp) for c in range(dp)]
    right = [b * big + e for b in range(d) for e in range(d)]
    out = {}
    for k, col in enumerate(sym_target.cols):
        for r, m in col:
            for j in right:
                out[left[k] + j, left[r] + j] = sym_source.s * m
    for k, col in enumerate(sym_source.cols):
        for r, m in col:
            for i in left:
                key = i + right[r], i + right[k]
                out[key] = out.get(key, 0) - sym_target.s * m
    return [(r, c, x) for (r, c), x in out.items() if x]


def _relations(sym: HeckeSymmetry, kind: str, target: HeckeSymmetry | None = None):
    """The pair relations of family ``kind`` as supports ``[(a, b, x), …]``,
    x on e_a⊗e_b: the reduced basis of Im Yᵀ (the row space of Y) for "sym"
    and "A", a basis of Ker Yᵀ for "ext" and "E", Y as in ``_frt_entries``.
    Target None, as "sym" and "ext" read, is the one-dimensional symmetry
    q = a/b: there Yᵀ = a·s - b·M = -b·s·(R - q).  Conjugation minus
    identity, φ ↦ R'^{-1}φR - φ, is -R'^{-1}·Y(φ)/(s·s'), with row space
    Im Yᵀ, and for a shared q it is Y(φR)/(q·s·s'), as R'^{-1}φ - φR^{-1} =
    (R'φ - φR)/q, with transpose kernel Ker Yᵀ.  The rows of Yᵀ stay sparse
    until each, in index order, enters one ``linalg.Echelon``; none is kept."""
    target = target or build_standard(1, sym.q)
    d = sym.d * target.d
    kernel = kind in ("ext", "E")
    rows = {}
    for r, c, x in _frt_entries(target._twin, sym._twin):
        i, j = (r, c) if kernel else (c, r)
        rows.setdefault(i, {})[j] = x
    ech = linalg.Echelon(d * d)
    for i in sorted(rows):
        row = [0] * (d * d)
        for j, x in rows.pop(i).items():
            row[j] = x
        ech.add(row)
    basis = ech.annihilator() if kernel else ech.reduced()
    return [[(*divmod(k, d), x) for k, x in enumerate(u) if x] for u in basis]


def _dims(sym: HeckeSymmetry, kind: str, n_max: int, target: HeckeSymmetry | None = None):
    """Dimensions for n = 0..n_max of the quotient by the ``kind`` relations
    at every pair of adjacent slots, the one memo per symmetry and target; a
    longer cached list serves any shorter request.  The relations are built
    after the cap check, and only for degree 2 and up, which read them."""
    key = (kind, target)
    dims = sym._cache.get(key)
    if dims is None or len(dims) <= n_max:
        d = sym.d * (target.d if target else 1)
        _check_cap(d, n_max)
        relations = _relations(sym, kind, target) if n_max > 1 else ()
        dims = sym._cache[key] = _graded_quotient_dims(d, relations, n_max)
    return dims[: n_max + 1]


def symmetric_dims(sym: HeckeSymmetry, n_max: int):
    """dim of the degree-n component of the quadratic quotient by
    Im(R - q), for n = 0..n_max."""
    return _dims(sym, "sym", n_max)


def exterior_dims(sym: HeckeSymmetry, n_max: int):
    """dim of the degree-n component of the quadratic quotient by
    Ker(R - q), for n = 0..n_max."""
    return _dims(sym, "ext", n_max)


def dim_quotient(sym: HeckeSymmetry, lam, mu) -> int:
    """Dimension of the tensor power modulo image relations inside the
    blocks of lam and kernel relations inside the blocks of mu (mu laid out
    after lam).  No relation crosses a block boundary, so the quotient is
    the tensor product of one chain quotient per block, and its dimension
    the product of the cached "sym" and "ext" dimensions."""
    from .partitions import as_partition, weight

    lam, mu = as_partition(lam), as_partition(mu)
    _check_cap(sym.d, weight(lam) + weight(mu))
    sdims = _dims(sym, "sym", max(lam, default=0))
    edims = _dims(sym, "ext", max(mu, default=0))
    return prod(sdims[p] for p in lam) * prod(edims[p] for p in mu)


# ---------------------------------------------------------------------------
# hom-space dimensions for a pair of symmetries


def require_same_q(sym_target: HeckeSymmetry, sym_source: HeckeSymmetry):
    if sym_target.q != sym_source.q:
        raise ValueError(
            f"the two symmetries must share q; got {sym_target.q} "
            f"and {sym_source.q}"
        )


def hom_dims(sym_target: HeckeSymmetry, sym_source: HeckeSymmetry, kind: str, n_max: int):
    """Dimensions for n = 0..n_max of hom family ``kind``: "A" as in
    ``dim_intertwiner``, "E" as in ``dim_e_component``, from the FRT
    relation of ``_relations``; E needs the shared q checked here.  Against
    ``build_standard(1, q)`` they are the sym and ext dimensions."""
    if kind not in ("A", "E"):
        raise ValueError(f"hom family must be 'A' or 'E', got {kind!r}")
    require_same_q(sym_target, sym_source)
    return _dims(sym_source, kind, n_max, sym_target)


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
