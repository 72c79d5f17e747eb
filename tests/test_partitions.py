"""Combinatorial layer: enumeration, tableaux counts, structure constants.

Oracle policy: closed-form counts are cross-checked against independent
brute-force enumerations written here in the test module, so the library
implementation and its checker never share code paths.
"""

import itertools
import math

import pytest

from heckeseries.partitions import (
    _add_strip,
    as_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    in_hook,
    kostka,
    parse_partition,
    weight,
)

from oracles import (
    count_mixed_matrices,
    count_row_col_matrices,
    dominance_leq,
    lr_coeff,
    lr_coeff_via_pieri,
    partition_pairs,
    standard_tableaux_count,
)

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def brute_kostka(lam, mu):
    """Count semistandard tableaux of shape lam and content mu by direct
    row-by-row fill enumeration."""
    lam, mu = as_partition(lam), as_partition(mu)
    if weight(lam) != weight(mu):
        return 0
    rows = len(lam)

    def fill(r, prev_row, remaining):
        if r == rows:
            return 1 if all(v == 0 for v in remaining) else 0
        total = 0
        width = lam[r]
        for values in itertools.combinations_with_replacement(
            range(1, len(mu) + 1), width
        ):
            if any(values.count(v) > remaining[v - 1] for v in set(values)):
                continue
            if prev_row is not None and any(
                c < len(prev_row) and values[c] <= prev_row[c]
                for c in range(width)
            ):
                continue
            nxt = list(remaining)
            for v in values:
                nxt[v - 1] -= 1
            total += fill(r + 1, values, nxt)
        return total

    return fill(0, None, list(mu))


def test_enumeration_counts():
    for n, expected in enumerate(PARTITION_COUNTS):
        assert len(enumerate_partitions(n)) == expected


def test_enumeration_order_is_descending_lex():
    for n in range(9):
        parts = enumerate_partitions(n)
        assert list(parts) == sorted(parts, reverse=True)
        assert all(weight(lam) == n for lam in parts)


def test_as_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((2, 0))
    with pytest.raises(ValueError):
        as_partition((-1,))


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    for n in range(8):
        for lam in enumerate_partitions(n):
            assert conjugate(conjugate(lam)) == lam


def test_dominance():
    assert dominance_leq((1, 1, 1), (3,))
    assert dominance_leq((2, 1), (3,))
    assert not dominance_leq((3,), (2, 1))
    assert dominance_leq((2, 2), (2, 2))
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    with pytest.raises(ValueError):
        dominance_leq((2,), (1,))


def test_standard_tableaux_count_known_values():
    assert standard_tableaux_count(()) == 1
    assert standard_tableaux_count((5,)) == 1
    assert standard_tableaux_count((1, 1, 1, 1)) == 1
    assert standard_tableaux_count((2, 1)) == 2
    assert standard_tableaux_count((2, 2)) == 2
    assert standard_tableaux_count((3, 2)) == 5
    assert standard_tableaux_count((4, 3, 2, 1)) == 768


def test_standard_tableaux_square_sum():
    for n in range(1, 7):
        total = sum(
            standard_tableaux_count(lam) ** 2 for lam in enumerate_partitions(n)
        )
        assert total == math.factorial(n)


def test_kostka_against_brute_force():
    for n in range(0, 7):
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                assert kostka(lam, mu) == brute_kostka(lam, mu), (lam, mu)


def test_kostka_frozen_and_triangular():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2,), (2,)) == 1
    assert kostka((1, 1), (2,)) == 0
    for n in range(8):
        for lam in enumerate_partitions(n):
            assert kostka(lam, lam) == 1
            for mu in enumerate_partitions(n):
                if kostka(lam, mu) != 0:
                    assert dominance_leq(mu, lam)


def test_kostka_rsk_and_dominance_through_weight_12():
    # RSK pairs words of content mu with (SSYT of content mu, SYT) of one
    # shape, so sum_lam K[lam][mu] f^lam = n! / prod mu_i!; and K[lam][mu]
    # is positive exactly when lam dominates mu, with K[mu][mu] = 1
    for n in range(13):
        parts = enumerate_partitions(n)
        for mu in parts:
            words = math.factorial(n)
            for part in mu:
                words //= math.factorial(part)
            column = {lam: kostka(lam, mu) for lam in parts}
            assert sum(
                k * standard_tableaux_count(lam) for lam, k in column.items()
            ) == words, mu
            assert column[mu] == 1
            for lam, k in column.items():
                assert (k > 0) == dominance_leq(mu, lam), (lam, mu)


def test_strip_walker_adds_exactly_the_horizontal_strips():
    for n in range(7):
        for shape in enumerate_partitions(n):
            for size in range(4):
                got = list(_add_strip(shape, size))
                assert len(got) == len(set(got))
                expected = [
                    nu
                    for nu in enumerate_partitions(n + size)
                    if _is_horizontal_strip(nu, shape)
                ]
                assert sorted(got) == sorted(expected), (shape, size)


def test_kostka_weight_mismatch():
    with pytest.raises(ValueError):
        kostka((2,), (1,))


def test_lr_known_values():
    assert lr_coeff((1,), (1,), (2,)) == 1
    assert lr_coeff((1,), (1,), (1, 1)) == 1
    assert lr_coeff((1, 1), (1, 1), (2, 2)) == 1
    assert lr_coeff((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coeff((2,), (1,), (3,)) == 1
    assert lr_coeff((2,), (1,), (2, 1)) == 1
    assert lr_coeff((3,), (2,), (4, 1)) == 1
    # containment and weight guards
    assert lr_coeff((3,), (1,), (2, 2)) == 0
    assert lr_coeff((1,), (1,), (3,)) == 0


def _contains(outer, inner):
    return len(inner) <= len(outer) and all(
        inner[i] <= outer[i] for i in range(len(inner))
    )


def _is_horizontal_strip(nu, lam):
    """nu ⊇ lam with at most one cell of nu/lam in each column."""
    conj_l, conj_n = conjugate(lam), conjugate(nu)
    return _contains(nu, lam) and all(
        conj_n[i] - (conj_l[i] if i < len(conj_l) else 0) <= 1
        for i in range(len(conj_n))
    )


def test_lr_pieri_rule():
    # multiplying by a single row: coefficient 1 exactly on horizontal strips
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            for k in range(1, 4):
                for nu in enumerate_partitions(n + k):
                    expected = 1 if _is_horizontal_strip(nu, lam) else 0
                    assert lr_coeff(lam, (k,), nu) == expected, (lam, k, nu)


def test_lr_agrees_with_pieri_oracle():
    for n in range(0, 7):
        for nu in enumerate_partitions(n):
            for a in range(0, n + 1):
                for lam in enumerate_partitions(a):
                    for mu in enumerate_partitions(n - a):
                        assert lr_coeff(lam, mu, nu) == lr_coeff_via_pieri(
                            lam, mu, nu
                        ), (lam, mu, nu)


def test_lr_symmetric_in_lower_arguments():
    for n in range(0, 7):
        for nu in enumerate_partitions(n):
            for a in range(0, n // 2 + 1):
                for lam in enumerate_partitions(a):
                    for mu in enumerate_partitions(n - a):
                        assert lr_coeff(lam, mu, nu) == lr_coeff(mu, lam, nu)


def brute_row_col_matrices(mu, lam):
    """All nonnegative integer matrices with given row and column sums."""
    mu, lam = as_partition(mu), as_partition(lam)
    if weight(mu) != weight(lam):
        return 0
    cols = len(lam)
    count = 0

    def rows(r, colsums):
        nonlocal count
        if r == len(mu):
            if all(v == 0 for v in colsums):
                count += 1
            return
        for combo in itertools.product(
            *(range(min(mu[r], colsums[c]) + 1) for c in range(cols))
        ):
            if sum(combo) != mu[r]:
                continue
            rows(r + 1, [colsums[c] - combo[c] for c in range(cols)])

    rows(0, list(lam))
    return count


def test_count_row_col_matrices():
    assert count_row_col_matrices((1, 1), (1, 1)) == 2
    assert count_row_col_matrices((2,), (1, 1)) == 1
    assert count_row_col_matrices((2, 1), (1, 1, 1)) == 3
    for n in range(0, 6):
        for mu in enumerate_partitions(n):
            for lam in enumerate_partitions(n):
                assert count_row_col_matrices(mu, lam) == brute_row_col_matrices(
                    mu, lam
                ), (mu, lam)
    with pytest.raises(ValueError):
        count_row_col_matrices((2,), (1,))


def brute_mixed_matrices(lam, mu, nu):
    """Pairs (A, B): A nonnegative integer, B zero-one, rows indexed by nu,
    A-columns by lam, B-columns by mu, with joint row sums nu, A-column sums
    lam, B-column sums mu."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    if weight(lam) + weight(mu) != weight(nu):
        return 0
    count = 0
    acols, bcols = len(lam), len(mu)

    def rows(r, rem_a, rem_b):
        nonlocal count
        if r == len(nu):
            if all(v == 0 for v in rem_a) and all(v == 0 for v in rem_b):
                count += 1
            return
        for a_row in itertools.product(
            *(range(min(nu[r], rem_a[c]) + 1) for c in range(acols))
        ):
            rest = nu[r] - sum(a_row)
            if rest < 0:
                continue
            for b_row in itertools.product(
                *(range(min(1, rem_b[c]) + 1) for c in range(bcols))
            ):
                if sum(b_row) != rest:
                    continue
                rows(
                    r + 1,
                    [rem_a[c] - a_row[c] for c in range(acols)],
                    [rem_b[c] - b_row[c] for c in range(bcols)],
                )

    rows(0, list(lam), list(mu))
    return count


def test_count_mixed_matrices():
    for n in range(0, 6):
        for nu in enumerate_partitions(n):
            for a in range(0, n + 1):
                for lam in enumerate_partitions(a):
                    for mu in enumerate_partitions(n - a):
                        assert count_mixed_matrices(
                            (lam, mu), nu
                        ) == brute_mixed_matrices(lam, mu, nu), (lam, mu, nu)
    with pytest.raises(ValueError):
        count_mixed_matrices(((1,), (1,)), (1,))


def test_partition_pairs():
    for n in range(7):
        pairs = list(partition_pairs(n))
        expected = sum(
            PARTITION_COUNTS[a] * PARTITION_COUNTS[n - a] for a in range(n + 1)
        )
        assert len(pairs) == expected
        assert len(set(pairs)) == len(pairs)
        assert all(weight(a) + weight(b) == n for a, b in pairs)


def test_in_hook():
    assert in_hook((), 0, 0)
    assert in_hook((3, 3), 2, 0)
    assert not in_hook((3, 3, 1), 2, 0)
    assert in_hook((5, 1, 1, 1), 1, 1)
    assert not in_hook((5, 2, 1), 1, 1)
    assert in_hook((1, 1, 1, 1), 0, 1)
    with pytest.raises(ValueError):
        in_hook((1,), -1, 0)


def test_format_and_parse():
    assert format_partition(()) == "[]"
    assert format_partition((3, 1)) == "[3,1]"
    assert parse_partition("[3,1]") == (3, 1)
    assert parse_partition("[]") == ()
    with pytest.raises(ValueError):
        parse_partition("[1,2]")
    for n in range(7):
        for lam in enumerate_partitions(n):
            assert parse_partition(format_partition(lam)) == lam
