"""Integer partitions and the Kostka numbers built on them.

A partition is a tuple of weakly decreasing positive integers; the zero
partition is the empty tuple.  All counts are exact Python integers and may
exceed 64 bits.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

Partition = tuple[int, ...]


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


def _descending(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _descending(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("weight must be nonnegative")
    return tuple(_descending(n, n))


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(
        sum(1 for p in lam if p > i) for i in range(lam[0])
    )


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


def in_hook(lam: Partition, r0: int, r1: int) -> bool:
    """True when lam fits the (r0, r1) hook: row j <= r1 for all j > r0."""
    if r0 < 0 or r1 < 0:
        raise ValueError("hook parameters must be nonnegative")
    return all(p <= r1 for p in lam[r0:])
