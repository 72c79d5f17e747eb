"""Independent routes kept as small-size oracles.

The library computes every graded dimension with one degree-by-degree
quotient engine.  The routes here work on the whole tensor power instead:
the quotient dimension is d**n minus the rank of every embedded relation
vector, and the dual component is an iterated intersection of subspaces.
They share nothing with the engine: their pair bases come from the dense
route on the matrix as given, never from a user symmetry's sparse twin.
They cost d**n columns, so use them only at small n.

``rank``, ``row_basis``, ``reduced_basis`` and ``nullspace`` are the
rational readers that these routes eliminate with: each clears every row of
a rational matrix of its denominators once and adds it to one
``linalg.Echelon``, the library's kernel, which itself takes integer rows
only; ``contains`` tests membership in an ``Echelon``'s span.  The library
has no such reader: it adds integer rows to ``linalg.Echelon`` directly.
``clear_denominators`` scales those rows by the lcm of their denominators
without the library's own scaling, ``linalg.scale_to_integers``.

``validate_dense`` and ``pair_conjugation_matrix`` read R as a dense
``Fraction`` matrix, where the library reads its sparse integer columns:
the first applies R to dense vectors on V⊗3 (``apply_block``) and raises
what the library's validator raises, the second builds the conjugation on
the square of Hom(V, V') entry by entry from R and the inverse R'^{-1}.
``dense_pair_bases`` and ``dense_hom_relations`` are the dense route to the
relation spaces that the library builds from the sparse nonzero entries of
one FRT operator: every row of the full matrix of R - q or of (conjugation
- identity), zero or not, goes through ``row_basis`` or ``nullspace`` in
index order.  The library stores image bases in reduced form, the
``reduced_basis`` of the same rows.  ``deformed_swap_rows`` writes a
builtin as d² rows of ``Fraction`` entries, where the library writes its
integer columns directly.

``oracle_solve_square`` and ``oracle_det`` are textbook Gaussian
eliminations on Fraction matrices, independent of the library's one
fraction-free integer kernel, and ``invert_unitriangular`` is back
substitution, the reference for the inverse Kostka matrix that the library
reads off one reduced ``linalg.Echelon``.  ``jacobi_trudi_det`` is one
``oracle_det`` of the matrix (a_{lam_i - i + j}) per partition, where the
library expands that determinant along its last column into one memoised
integer table per series; ``minor_sum_diamond`` is the pairing product
summed from it by its definition, where the library's ``diamond``
evaluates no partition and exponentiates products of power sums (Cauchy's
identity).

``pair_sum_character`` is the tensor-power character the library once
built: a sum over every partition pair (lam, mu) of m_lam(alpha)
m_mu(beta) h_lam e_mu, the alphabet values specialized through
``symfunc.specialize_super``.  The library reads the same element off one
Schur-value table by the super Cauchy identity (``symfunc.hall_rep``).

``expand_ratio_dense`` expands num/den by solving one dense triangular
Toeplitz system with the textbook elimination, where the library runs the
denominator's recurrence.

``per_order_detect_rational`` is the recurrence detector the library once
ran: one ``oracle_solve_square`` of the last r window equations for each
order r, a backward walk to the onset, and a re-check of q·f over the
verified range.  The library solves all orders in one fraction-free
Berlekamp-Massey pass.

``squarefree_sturm_all_roots_positive`` is the two-pass root certificate the
library once ran: a squarefree part through ``poly_gcd`` and
``poly_divide_exact``, then the classical Sturm chain of that part.  Both
divide ``Fraction`` polynomials with ``poly_divmod``; the library builds one
generalized Sturm sequence of the polynomial itself from integer
pseudo-remainders.

``lr_coeff`` counts Littlewood-Richardson coefficients as lattice-word
fillings, the independent count that ``symfunc.multiply``'s structure
constants must reproduce, and ``lr_coeff_via_pieri`` reaches the same
numbers through the Jacobi-Trudi determinant and iterated Pieri steps;
``standard_tableaux_count`` (hook lengths), ``dominance_leq`` and
``partition_pairs`` are the other partition counts that only the tests
read.  ``count_row_col_matrices``/``count_mixed_matrices`` count the
integer matrices that the pairings of h and e products must reproduce.

``serialize_symmetry`` writes a symmetry as the text that
``rmatrix.parse_symmetry_text`` reads, from the dense ``matrix``: the
fixture behind every ``file:`` symmetry of the tests, and
``big_denominator_window`` the window behind the tests of the Schur
readers' bit-length cap.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from heckeseries import linalg
from heckeseries.partitions import (
    Partition,
    _strip_counts,
    as_partition,
    conjugate,
    enumerate_partitions,
    weight,
)
from heckeseries.rmatrix import BraidViolation, HeckeSymmetry, HeckeViolation
from heckeseries.series import RationalForm, TruncSeries, poly_mul, poly_trim
from heckeseries.symfunc import SymElement, _h_product, specialize_super, to_basis


def clear_denominators(row) -> list[int]:
    """A rational row rescaled to coprime integers, signs kept, by the lcm of
    its denominators: the integer rows the dense routes hand to
    ``linalg.Echelon``, read without the library's own scaling."""
    s = lcm(*(x.denominator for x in row))
    return linalg.primitive([x.numerator * (s // x.denominator) for x in row])


def _echelon(rows, ncols: int) -> linalg.Echelon:
    ech = linalg.Echelon(ncols)
    for r in rows:
        ech.add(clear_denominators(r))
    return ech


def rank(rows, ncols: int | None = None) -> int:
    rows = list(rows)
    if not rows:
        return 0
    return len(_echelon(rows, len(rows[0]) if ncols is None else ncols).rows)


def row_basis(rows, ncols: int) -> list[list[int]]:
    """Echelon basis (integer rows) of the span of `rows`."""
    return _echelon(rows, ncols).rows


def reduced_basis(rows, ncols: int) -> list[list[int]]:
    """The primitive reduced echelon basis of the span of `rows`, the one
    such basis of that space."""
    return _echelon(rows, ncols).reduced()


def nullspace(rows, ncols: int) -> list[list[int]]:
    """Basis of {x : M x = 0}, one integer vector per free column."""
    return _echelon(rows, ncols).annihilator()


def contains(ech: linalg.Echelon, row) -> bool:
    """Whether an integer row lies in the span of ``ech``."""
    return not any(ech.reduce(row))


def intersect_bases(basis_a, basis_b, dim: int) -> list[list[int]]:
    """Echelon basis of span(basis_a) ∩ span(basis_b) inside k^dim."""
    if not basis_a or not basis_b:
        return []
    pa = len(basis_a)
    rows = []
    for r in range(dim):
        rows.append([av[r] for av in basis_a] + [-bv[r] for bv in basis_b])
    ech = linalg.Echelon(dim)
    for combo in nullspace(rows, pa + len(basis_b)):
        vec = [
            sum(combo[i] * basis_a[i][r] for i in range(pa)) for r in range(dim)
        ]
        ech.add(vec)
    return ech.rows


def embedded_pair_vectors(vecs, d: int, n: int, pos: int):
    """All tensor embeddings of two-site vectors at slots (pos, pos+1)."""
    dd = d * d
    stride = d ** (n - pos - 1)
    block_stride = stride * dd
    out = []
    for v in vecs:
        support = [(pair, v[pair]) for pair in range(dd) if v[pair]]
        for w in range(d ** (n - 2)):
            hi, lo = divmod(w, stride)
            base = hi * block_stride + lo
            row = [Fraction(0)] * (d**n)
            for pair, val in support:
                row[base + pair * stride] = val
            out.append(row)
    return out


def spanning_quotient_dim(d: int, bases, n: int) -> int:
    """d**n minus the rank of the spanning set; ``bases`` maps a 1-based
    position p to the pair basis inserted at slots (p, p+1)."""
    spanning = []
    for pos, basis in bases.items():
        spanning.extend(embedded_pair_vectors(basis, d, n, pos))
    return d**n - rank(spanning, d**n)


def block_positions(lam, offset: int = 0) -> list[int]:
    """Adjacent positions lying strictly inside the parts of a partition
    laid out left to right from slot offset + 1 (1-based)."""
    positions = []
    for part in lam:
        positions.extend(offset + i for i in range(1, part))
        offset += part
    return positions


def quotient_dim(sym, lam, mu) -> int:
    """Image relations inside the blocks of lam, kernel relations inside
    the blocks of mu laid out after lam."""
    lam, mu = as_partition(lam), as_partition(mu)
    n = weight(lam) + weight(mu)
    if n <= 1:
        return sym.d**n
    image, kernel = dense_pair_bases(sym)
    bases = {p: image for p in block_positions(lam)}
    for p in block_positions(mu, weight(lam)):
        bases[p] = kernel
    return spanning_quotient_dim(sym.d, bases, n)


def apply_block(block, site_dim: int, n: int, pos: int, vec):
    """Apply a two-site operator at slots (pos, pos+1) of a dense tensor
    vector."""
    size = site_dim**n
    if len(vec) != size:
        raise ValueError(f"vector length {len(vec)} != {site_dim}**{n}")
    dd = site_dim * site_dim
    stride = site_dim ** (n - pos - 1)
    block_stride = stride * dd
    out = [Fraction(0)] * size
    for x, val in enumerate(vec):
        if not val:
            continue
        lo = x % stride
        pair = (x // stride) % dd
        base = (x // block_stride) * block_stride + lo
        for row in range(dd):
            m = block[row][pair]
            if m:
                out[base + row * stride] += m * val
    return out


def validate_dense(d: int, q, matrix):
    """Raise HeckeViolation or BraidViolation, with the library's witness,
    when the d²×d² matrix fails (R - q)(R + 1) = 0 or the braid identity."""
    q = Fraction(q)
    mat = [[Fraction(x) for x in row] for row in matrix]
    dd = d * d
    for col in range(dd):
        w = [mat[r][col] + (r == col) for r in range(dd)]
        for r in range(dd):
            acc = -q * w[r]
            for c in range(dd):
                if w[c]:
                    acc += mat[r][c] * w[c]
            if acc != 0:
                raise HeckeViolation((col // d + 1, col % d + 1))
    for x in range(d**3):
        vec = [Fraction(0)] * d**3
        vec[x] = Fraction(1)
        lhs = vec
        for pos in (1, 2, 1):
            lhs = apply_block(mat, d, 3, pos, lhs)
        rhs = vec
        for pos in (2, 1, 2):
            rhs = apply_block(mat, d, 3, pos, rhs)
        if lhs != rhs:
            raise BraidViolation((x // dd + 1, (x // d) % d + 1, x % d + 1))


def deformed_swap_rows(parity, q) -> list[list[Fraction]]:
    """The deformed transposition on basis vectors of the given parities
    (0 even, 1 odd) as a dense d²×d² matrix: q or -1 on the diagonal pairs,
    ±1 on pairs i < j, ±q and the correction q - 1 on pairs i > j."""
    q = Fraction(q)
    d = len(parity)
    dd = d * d
    mat = [[Fraction(0)] * dd for _ in range(dd)]
    for i in range(d):
        for j in range(d):
            col = i * d + j
            sign = -1 if parity[i] and parity[j] else 1
            if i == j:
                mat[col][col] = Fraction(-1) if parity[i] else q
            elif i < j:
                mat[j * d + i][col] = Fraction(sign)
            else:
                mat[j * d + i][col] = q * sign
                mat[col][col] = q - 1
    return mat


def big_denominator_window() -> list[Fraction]:
    """The 25 coefficients of 1/prod(1 - t/p_i) for 8 seeded odd 16-bit p_i:
    a certified, totally positive window whose denominators have an lcm of
    2577 bits (at 1075 bits it first passes ``linalg.BIT_LENGTH_CAP``)."""
    rng = random.Random(3)
    h = [Fraction(1)] + [Fraction(0)] * 24
    for p in [rng.getrandbits(16) | 1 for _ in range(8)]:
        for n in range(1, 25):
            h[n] += h[n - 1] / p
    return h


def serialize_symmetry(sym: HeckeSymmetry) -> str:
    lines = [
        "hecke-symmetry v1",
        f"d = {sym.d}",
        f"q = {sym.q.numerator}/{sym.q.denominator}",
    ]
    for row in sym.matrix:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def pair_conjugation_matrix(sym_target, sym_source):
    """Matrix, on the square of Hom(V, V'), of conjugating a two-slot map by
    the source symmetry and the inverse target symmetry."""
    d, dp = sym_source.d, sym_target.d
    big = d * dp
    q = sym_target.q
    ddp = dp * dp
    tmat = sym_target.matrix
    rinv = [
        [(tmat[r][c] - (q - 1) * (r == c)) / q for c in range(ddp)]
        for r in range(ddp)
    ]
    rmat = sym_source.matrix
    size = big * big
    mat = [[Fraction(0)] * size for _ in range(size)]
    for a, c, a2, c2 in itertools.product(range(dp), repeat=4):
        left = rinv[a2 * dp + c2][a * dp + c]
        if not left:
            continue
        for b, e, b2, e2 in itertools.product(range(d), repeat=4):
            right = rmat[b * d + e][b2 * d + e2]
            if not right:
                continue
            row = (a2 * d + b2) * big + (c2 * d + e2)
            col = (a * d + b) * big + (c * d + e)
            mat[row][col] += left * right
    return mat


def conj_minus_one(sym_target, sym_source):
    conj = pair_conjugation_matrix(sym_target, sym_source)
    size = len(conj)
    return [[conj[r][c] - (r == c) for c in range(size)] for r in range(size)]


def dense_pair_bases(sym):
    """(Im, Ker) bases of R - q from the full d²×d² integer matrix
    b·M - a·s = b·s·(R - q), for q = a/b and R = M/s; the image is the row
    space of its transpose."""
    dd = sym.d**2
    a, b = sym.q.numerator, sym.q.denominator
    s = lcm(*(x.denominator for row in sym.matrix for x in row))
    rows = [
        [b * int(x * s) - a * s * (r == c) for c, x in enumerate(row)]
        for r, row in enumerate(sym.matrix)
    ]
    return row_basis(zip(*rows), dd), nullspace(rows, dd)


def dense_hom_relations(sym_target, sym_source):
    """(A, E) pair relations from the full matrix of (conjugation - identity):
    its row space, and the null space of its transpose."""
    rows = conj_minus_one(sym_target, sym_source)
    size = len(rows)
    return row_basis(rows, size), nullspace(zip(*rows), size)


def intertwiner_dim(sym_target, sym_source, n: int) -> int:
    """Quotient of the n-th tensor power of Hom(V, V') by the row space of
    (conjugation - identity) at every adjacent pair."""
    big = sym_source.d * sym_target.d
    if n <= 1:
        return big**n
    rows = conj_minus_one(sym_target, sym_source)
    basis = row_basis(rows, len(rows))
    return spanning_quotient_dim(big, {p: basis for p in range(1, n)}, n)


def e_component_dim(sym_target, sym_source, n: int) -> int:
    """Intersection over all adjacent positions of the embedded copies of
    Im(conjugation - identity), one subspace intersection at a time."""
    big = sym_source.d * sym_target.d
    if n <= 1:
        return big**n
    rows = conj_minus_one(sym_target, sym_source)
    image_basis = row_basis(zip(*rows), len(rows))
    ambient = big**n
    current = None
    for pos in range(1, n):
        embedded = embedded_pair_vectors(image_basis, big, n, pos)
        if current is None:
            current = row_basis(embedded, ambient)
        else:
            current = intersect_bases(current, embedded, ambient)
        if not current:
            return 0
    return len(current)


def oracle_solve_square(a_rows, rhs):
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


def oracle_det(rows) -> Fraction:
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
    """Inverse of an upper triangular integer matrix with unit diagonal, by
    back substitution column by column."""
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


def jacobi_trudi_det(f: TruncSeries, lam) -> Fraction:
    """det(a_{lam_i - i + j}), the matrix read entry by entry, row by row,
    through ``f.coeff``."""
    k = len(lam)
    return oracle_det([[f.coeff(lam[s] - s + t) for t in range(k)] for s in range(k)])


def minor_sum_diamond(f: TruncSeries, g: TruncSeries, order: int) -> TruncSeries:
    """Coefficient n is the sum over partitions of weight n of the two
    Jacobi-Trudi determinants multiplied together."""
    return TruncSeries(
        sum(
            (
                jacobi_trudi_det(f, lam) * jacobi_trudi_det(g, lam)
                for lam in enumerate_partitions(n)
            ),
            Fraction(0),
        )
        for n in range(order + 1)
    )


def pair_sum_character(f0, f1, n: int) -> SymElement:
    """The degree-n tensor-power character as the sum over partition pairs
    (lam, mu) of n of m_lam(alpha) m_mu(beta) h_lam e_mu, each alphabet
    value a specialization at the implicit roots of f0 or f1."""
    result = SymElement(n, "h", {})
    for lam, mu in partition_pairs(n):
        a = specialize_super(SymElement.generator("m", lam), f0, [1])
        if a == 0:
            continue
        b = specialize_super(SymElement.generator("m", mu), f1, [1])
        if b == 0:
            continue
        e_part = to_basis(SymElement.generator("e", mu), "h")
        term = _h_product(SymElement.generator("h", lam), e_part)
        result = result + term.scaled(a * b)
    return result


def expand_ratio_dense(num, den, order: int) -> TruncSeries:
    """num(t)/den(t) to the given order: the coefficients x solve T x = num,
    where T is the lower triangular Toeplitz matrix of den, with num and den
    padded or cut to order + 1 coefficients."""

    def pad(p):
        p = [Fraction(x) for x in p][: order + 1]
        return p + [Fraction(0)] * (order + 1 - len(p))

    den = pad(den)
    rows = [[den[i - j] if j <= i else 0 for j in range(order + 1)] for i in range(order + 1)]
    return TruncSeries(oracle_solve_square(rows, pad(num)))


def per_order_detect_rational(f: TruncSeries, r_max: int):
    """For r = 0..min(r_max, n): solve the last r window equations, strip
    trailing zero coefficients, walk the recurrence back to its onset o and
    accept when o <= r_max + 1, the window verifies at least r_eff + 1
    equations and q·f vanishes from o through n.  None when no order fits."""
    n = f.order
    a = f.coeff

    def recurrence_holds(c, m):
        return a(m) == sum(cj * a(m - j - 1) for j, cj in enumerate(c))

    for r in range(0, min(r_max, n) + 1):
        rows = [[a(m - j) for j in range(1, r + 1)] for m in range(n - r + 1, n + 1)]
        c = oracle_solve_square(rows, [a(m) for m in range(n - r + 1, n + 1)])
        if c is None:
            continue
        while c and c[-1] == 0:
            c.pop()
        m = n
        while m >= 1 and recurrence_holds(c, m):
            m -= 1
        onset = m + 1
        if onset > r_max + 1 or n - onset + 1 < len(c) + 1:
            continue
        q = [Fraction(1)] + [-cj for cj in c]
        prod = poly_mul(q, list(f.coeffs))
        if any(prod[i] != 0 for i in range(onset, n + 1)):
            continue
        return RationalForm(tuple(poly_trim(prod[:onset])), tuple(q))
    return None


def poly_derivative(p) -> list[Fraction]:
    return [Fraction(c) * i for i, c in enumerate(p)][1:]


def poly_divmod(p, d) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of p by d, the remainder of lower degree."""
    p, d = poly_trim(p), poly_trim(d)
    if not d:
        raise ZeroDivisionError("division by zero polynomial")
    out = [Fraction(0)] * max(0, len(p) - len(d) + 1)
    work = list(p)
    for shift in range(len(p) - len(d), -1, -1):
        f = work[shift + len(d) - 1] / d[-1]
        out[shift] = f
        if f:
            for i, c in enumerate(d):
                work[shift + i] -= f * c
    return poly_trim(out), poly_trim(work)


def poly_gcd(p, q) -> list[Fraction]:
    """Monic gcd of two rational polynomials."""
    a, b = poly_trim(p), poly_trim(q)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def poly_divide_exact(p, d) -> list[Fraction]:
    """Quotient p / d, requiring zero remainder."""
    quotient, remainder = poly_divmod(p, d)
    if remainder:
        raise ValueError("inexact polynomial division")
    return quotient


def squarefree_sturm_all_roots_positive(p) -> bool:
    """Every complex root of p (nonzero, p(0) != 0) is positive real: the
    squarefree part sf = p / gcd(p, p') carries every distinct root, and its
    classical Sturm chain must count deg sf roots in (0, inf)."""
    p = poly_trim(p)
    g = poly_gcd(p, poly_derivative(p))
    sf = poly_divide_exact(p, g)
    if len(sf) == 1:
        return True
    chain = [sf, poly_derivative(sf)]
    while len(chain[-1]) > 1:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])

    def sign_changes(values):
        signs = [v > 0 for v in values if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    at_zero = sign_changes([q[0] for q in chain])
    at_inf = sign_changes([q[-1] for q in chain])
    return at_zero - at_inf == len(sf) - 1


@lru_cache(maxsize=None)
def partition_pairs(n: int) -> tuple[tuple[Partition, Partition], ...]:
    """All ordered pairs (lam, mu) with |lam| + |mu| = n."""
    out = []
    for a in range(n, -1, -1):
        for lam in enumerate_partitions(a):
            for mu in enumerate_partitions(n - a):
                out.append((lam, mu))
    return tuple(out)


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """True when mu is dominated by lam (equal weights required)."""
    if sum(mu) != sum(lam):
        raise ValueError("dominance compares partitions of equal weight")
    ps_mu = ps_lam = 0
    for i in range(max(len(mu), len(lam))):
        ps_mu += mu[i] if i < len(mu) else 0
        ps_lam += lam[i] if i < len(lam) else 0
        if ps_mu > ps_lam:
            return False
    return True


def standard_tableaux_count(lam: Partition) -> int:
    """Number of standard tableaux of shape lam (hook length formula)."""
    n = sum(lam)
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    count, rem = divmod(factorial(n), hooks)
    assert rem == 0
    return count


def _cells_of_skew(outer: Partition, inner: Partition):
    """Skew cells in reading order: rows top to bottom, right to left."""
    cells = []
    for r, row_len in enumerate(outer):
        start = inner[r] if r < len(inner) else 0
        for c in range(row_len - 1, start - 1, -1):
            cells.append((r, c))
    return cells


@lru_cache(maxsize=None)
def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient: multiplicity of nu in lam * mu.

    Counts column-strict fillings of nu/lam with content mu whose reverse
    reading word is a lattice word.  Returns 0 on weight mismatch.
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if len(lam) > len(nu):
        return 0
    if any(lam[i] > nu[i] for i in range(len(lam))):
        return 0
    if not mu:
        return 1 if lam == nu else 0
    cells = _cells_of_skew(nu, lam)
    nrows = len(nu)
    fill = [[0] * nu[r] for r in range(nrows)]
    counts = [0] * (len(mu) + 1)
    inner_len = [lam[r] if r < len(lam) else 0 for r in range(nrows)]
    total = 0

    def backtrack(idx: int):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        hi = len(mu)
        if c + 1 < nu[r]:
            hi = min(hi, fill[r][c + 1])
        lo = 1
        if r > 0 and c < nu[r - 1] and c >= inner_len[r - 1]:
            lo = fill[r - 1][c] + 1
        for v in range(lo, hi + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            fill[r][c] = v
            counts[v] += 1
            backtrack(idx + 1)
            counts[v] -= 1
        fill[r][c] = 0

    backtrack(0)
    return total


@lru_cache(maxsize=None)
def lr_coeff_via_pieri(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient as a signed sum of iterated Pieri
    steps: s_mu is the Jacobi-Trudi determinant det(h_{mu_i - i + j}), and
    each monomial counts horizontal-strip chains from lam to nu."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    k = len(mu)
    total = 0
    for perm in itertools.permutations(range(k)):
        sizes = [mu[i] - i + perm[i] for i in range(k)]
        if min(sizes, default=0) < 0:
            continue
        inversions = sum(
            1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b]
        )
        chains = _strip_counts(lam, tuple(e for e in sizes if e)).get(nu, 0)
        total += -chains if inversions % 2 else chains
    return total


def _bounded_compositions(total: int, bounds):
    """Compositions of `total` with 0 <= part_i <= bounds[i]."""

    def rec(i, remaining):
        if i == len(bounds):
            if remaining == 0:
                yield ()
            return
        hi = min(bounds[i], remaining)
        for v in range(hi + 1):
            for rest in rec(i + 1, remaining - v):
                yield (v,) + rest

    yield from rec(0, total)


@lru_cache(maxsize=None)
def count_row_col_matrices(mu, lam) -> int:
    """Nonnegative integer matrices with row sums lam_i and column sums mu_j."""
    mu, lam = tuple(mu), tuple(lam)
    if sum(mu) != sum(lam):
        raise ValueError("matrix counts require equal weights")
    memo = {}

    def rec(i: int, remaining: tuple) -> int:
        if i == len(lam):
            return 1
        key = (i, remaining)
        got = memo.get(key)
        if got is None:
            got = 0
            for row in _bounded_compositions(lam[i], remaining):
                got += rec(i + 1, tuple(r - v for r, v in zip(remaining, row)))
            memo[key] = got
        return got

    return rec(0, mu)


def _binary_compositions(total: int, bounds):
    """0/1 vectors with sum `total`, entry j allowed only when bounds[j] > 0."""

    def rec(i, remaining):
        if i == len(bounds):
            if remaining == 0:
                yield ()
            return
        if len(bounds) - i < remaining:
            return
        for v in (0, 1):
            if v and (remaining == 0 or bounds[i] == 0):
                continue
            for rest in rec(i + 1, remaining - v):
                yield (v,) + rest

    yield from rec(0, total)


@lru_cache(maxsize=None)
def count_mixed_matrices(pair, nu) -> int:
    """Pairs (A, B): A nonnegative with column sums lam, B zero/one with
    column sums mu, rows indexed by nu with joint row sums nu_l."""
    lam, mu = tuple(pair[0]), tuple(pair[1])
    nu = tuple(nu)
    if sum(lam) + sum(mu) != sum(nu):
        raise ValueError("matrix counts require equal weights")
    memo = {}

    def rec(l: int, rem_lam: tuple, rem_mu: tuple) -> int:
        if l == len(nu):
            return 1
        key = (l, rem_lam, rem_mu)
        got = memo.get(key)
        if got is None:
            got = 0
            target = nu[l]
            for b_used in range(min(target, len(mu)) + 1):
                for brow in _binary_compositions(b_used, rem_mu):
                    next_mu = tuple(r - v for r, v in zip(rem_mu, brow))
                    for arow in _bounded_compositions(target - b_used, rem_lam):
                        got += rec(
                            l + 1,
                            tuple(r - v for r, v in zip(rem_lam, arow)),
                            next_mu,
                        )
            memo[key] = got
        return got

    return rec(0, lam, mu)
