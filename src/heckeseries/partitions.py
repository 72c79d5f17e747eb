"""Integer partitions and the tableau counts built on them.

A partition is a tuple of weakly decreasing positive integers; the zero
partition is the empty tuple.  All counts are exact Python integers and may
exceed 64 bits.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType

Partition = tuple[int, ...]
PartitionPair = tuple[Partition, Partition]


def as_partition(parts) -> Partition:
    """Validate and normalize a sequence into a partition tuple."""
    lam = tuple(int(p) for p in parts)
    for i, p in enumerate(lam):
        if p <= 0:
            raise ValueError(f"partition parts must be positive, got {p}")
        if i and lam[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing: {lam}")
    return lam


def weight(lam: Partition) -> int:
    return sum(lam)


def format_partition(lam: Partition) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"expected bracketed partition, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ()
    return as_partition(int(tok) for tok in body.split(","))


def _descending(n: int, max_part: int, max_len: int):
    if n == 0:
        yield ()
        return
    if max_len <= 0 or max_part <= 0:
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _descending(n - first, first, max_len - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def enumerate_partitions(n: int, max_len: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("weight must be nonnegative")
    return tuple(_descending(n, n, n if max_len is None else max_len))


@lru_cache(maxsize=None)
def partition_pairs(n: int) -> tuple[PartitionPair, ...]:
    """All ordered pairs (lam, mu) with |lam| + |mu| = n."""
    out = []
    for a in range(n, -1, -1):
        for lam in enumerate_partitions(a):
            for mu in enumerate_partitions(n - a):
                out.append((lam, mu))
    return tuple(out)


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(
        sum(1 for p in lam if p > i) for i in range(lam[0])
    )


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
    count, rem = divmod(math.factorial(n), hooks)
    assert rem == 0
    return count


def _add_strip(shape: Partition, size: int):
    """Every tau ⊇ shape with tau/shape a horizontal strip of `size` cells.

    A horizontal strip interlaces: shape_i <= tau_i <= shape_{i-1}, so at
    most one new row is started, no longer than the last row of shape.
    """

    def rec(i, remaining):
        if i == len(shape):
            if not i or remaining <= shape[-1]:
                yield (remaining,) if remaining else ()
            return
        cur = shape[i]
        top = min(shape[i - 1], cur + remaining) if i else cur + remaining
        for t in range(cur, top + 1):
            for rest in rec(i + 1, remaining - (t - cur)):
                yield (t,) + rest

    yield from rec(0, size)


@lru_cache(maxsize=None)
def _strip_counts(start: Partition, sizes: tuple[int, ...]) -> MappingProxyType:
    """Read-only map from each shape tau to the number of chains
    start ⊆ ... ⊆ tau whose k-th step adds a horizontal strip of sizes[k]
    cells.

    Built from the table of sizes[:-1], so contents sharing a prefix share
    work.  Such chains from () are the semistandard tableaux of shape tau
    and content sizes (iterated Pieri: h_mu = sum K[tau][mu] s_tau).
    """
    if not sizes:
        return MappingProxyType({start: 1})
    out: dict[Partition, int] = {}
    for shape, ways in _strip_counts(start, sizes[:-1]).items():
        for tau in _add_strip(shape, sizes[-1]):
            out[tau] = out.get(tau, 0) + ways
    return MappingProxyType(out)


def kostka(lam: Partition, mu: Partition) -> int:
    """Semistandard tableaux of shape lam and content mu: chains of
    horizontal strips of sizes mu_1, mu_2, ... grown from the empty shape."""
    lam = tuple(lam)
    mu = tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError("kostka requires equal weights")
    return _strip_counts((), mu).get(lam, 0)


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
        if c + 1 < nu[r] :
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


def in_hook(lam: Partition, r0: int, r1: int) -> bool:
    """True when lam fits the (r0, r1) hook: row j <= r1 for all j > r0."""
    if r0 < 0 or r1 < 0:
        raise ValueError("hook parameters must be nonnegative")
    return all(p <= r1 for p in lam[r0:])
