"""Closed-form reference values and output checkers for the benchmark jobs.

Everything here is plain Python integers and ``fractions.Fraction``; nothing
imports ``heckeseries``, so a wrong answer from the program cannot also be
the expected answer.

Series are described by reciprocal roots: ``sym(alphas, betas)`` is
prod(1 + b t) / prod(1 - a t), the symmetric-side Hilbert series of a
symmetry whose certificate is f0 = prod(1 - a t), f1 = prod(1 - b t).  A
builtin of birank (r0, r1) has alphas = [1]*r0 and betas = [1]*r1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable

# ---------------------------------------------------------------------------
# integer polynomials and series


def poly_from_roots(roots, sign: int) -> list[int]:
    """prod(1 + sign * a * t) as ascending integer coefficients."""
    out = [1]
    for a in roots:
        nxt = out + [0]
        for i, c in enumerate(out):
            nxt[i + 1] += sign * a * c
        out = nxt
    return out


def ratio_series(num, den_roots, order: int) -> list[int]:
    """Coefficients 0..order of num(t) / prod(1 - a t), exact integers."""
    out = list(num[: order + 1]) + [0] * max(0, order + 1 - len(num))
    for a in den_roots:
        for n in range(1, order + 1):
            out[n] += a * out[n - 1]
    return out


def sym_series(alphas, betas, order: int) -> list[int]:
    return ratio_series(poly_from_roots(betas, +1), alphas, order)


def ext_series(alphas, betas, order: int) -> list[int]:
    return ratio_series(poly_from_roots(alphas, +1), betas, order)


def pair_roots(alphas, betas, alphas2, betas2):
    """Reciprocal roots of the hom-space series A of two certificates:
    A = prod(1 + b a2 t) prod(1 + a b2 t) / (prod(1 - a a2 t) prod(1 - b b2 t))."""
    den = [a * a2 for a in alphas for a2 in alphas2]
    den += [b * b2 for b in betas for b2 in betas2]
    num = [b * a2 for b in betas for a2 in alphas2]
    num += [a * b2 for a in alphas for b2 in betas2]
    return den, num


def hom_series(alphas, betas, alphas2, betas2, order: int) -> list[int]:
    den, num = pair_roots(alphas, betas, alphas2, betas2)
    return sym_series(den, num, order)


def hom_dual_series(alphas, betas, alphas2, betas2, order: int) -> list[int]:
    """E = 1 / A(-t): numerator and denominator roots of A trade places."""
    den, num = pair_roots(alphas, betas, alphas2, betas2)
    return ext_series(den, num, order)


def std_sym(r: int, n: int) -> int:
    return comb(n + r - 1, r - 1)


def std_ext(r: int, n: int) -> int:
    return comb(r, n)


def birank_roots(r0: int, r1: int):
    return [1] * r0, [1] * r1


def quotient_dim(r0: int, r1: int, lam, mu) -> int:
    """Mixed quotient: prod sym_{lam_i} * prod ext_{mu_j}."""
    top = max([0, *lam, *mu])
    alphas, betas = birank_roots(r0, r1)
    s = sym_series(alphas, betas, top)
    e = ext_series(alphas, betas, top)
    out = 1
    for p in lam:
        out *= s[p]
    for p in mu:
        out *= e[p]
    return out


# ---------------------------------------------------------------------------
# partitions, in the descending lexicographic order the reports use


def partitions(n: int, max_part: int | None = None):
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return out


def fmt_partition(lam) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"


def in_hook(lam, r0: int, r1: int) -> bool:
    return all(p <= r1 for p in lam[r0:])


def det(m) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    m = [list(row) for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def schur_value(coeffs, lam) -> int:
    """Jacobi-Trudi: the series homomorphism h_n -> coeffs[n] on s_lam."""
    k = len(lam)
    at = lambda i: coeffs[i] if i >= 0 else 0
    return det([[at(lam[s] - s + t) for t in range(k)] for s in range(k)])


def render(coeffs) -> str:
    return ", ".join(str(c) for c in coeffs)


def render_list(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def certificate_text(alphas, betas) -> str:
    f0 = render_list(poly_from_roots(alphas, -1))
    f1 = render_list(poly_from_roots(betas, -1))
    return f"f0={f0}; f1={f1}; roots positive real: verified"


# ---------------------------------------------------------------------------
# expected verify reports

Matcher = Callable[[str], bool]


@dataclass(frozen=True)
class Check:
    """One expected report line: its name and a test on the left value
    (and, in machine output, on the right value)."""

    name: str
    lhs: Matcher
    rhs: Matcher | None = None


@dataclass(frozen=True)
class Suite:
    name: str
    checks: tuple[Check, ...]
    conjectural: bool


def equals(text: str) -> Matcher:
    return lambda got: got == text


def series_prefix(reference: list[int], min_terms: int) -> Matcher:
    """A rendered series that agrees with the reference on every printed
    term and prints at least min_terms of them; the program chooses its own
    window length."""

    def match(got: str) -> bool:
        try:
            vals = [int(t) for t in got.split(",")]
        except ValueError:
            return False
        return min_terms <= len(vals) <= len(reference) and vals == reference[: len(vals)]

    return match


def unit_prefix(min_terms: int) -> Matcher:
    def match(got: str) -> bool:
        try:
            vals = [int(t) for t in got.split(",")]
        except ValueError:
            return False
        return len(vals) >= min_terms and vals[0] == 1 and not any(vals[1:])

    return match


# longest series window any report can print (the ambient cap allows at
# most degree 12 on a two-dimensional space)
_HORIZON = 64


def suite_hilbert(r0, r1, nmax, conjectural) -> Suite:
    a, b = birank_roots(r0, r1)
    checks = (
        Check("duality_product", unit_prefix(nmax + 1)),
        Check("certificate", equals(certificate_text(a, b))),
        Check("birank_bound", equals(f"r0+r1 = {r0 + r1}")),
        Check(
            "symmetric_series_matches_certificate",
            series_prefix(sym_series(a, b, _HORIZON), nmax + 1),
        ),
        Check(
            "exterior_series_matches_certificate",
            series_prefix(ext_series(a, b, _HORIZON), nmax + 1),
        ),
    )
    return Suite("hilbert", checks, conjectural)


def suite_character(r0, r1, nmax, conjectural) -> Suite:
    checks = []
    for n in range(1, nmax + 1):
        for nu in partitions(n):
            value = str(quotient_dim(r0, r1, nu, ()))
            checks.append(
                Check(f"quotient_dim[{fmt_partition(nu)}]", equals(value), equals(value))
            )
    d = r0 + r1
    for n in range(1, nmax + 2):
        checks.append(
            Check(
                f"tensor_dimension_identity[n={n}]",
                equals(str(d**n)),
                equals(str(d**n)),
            )
        )
    return Suite("character", tuple(checks), conjectural)


def suite_homspace(birank_target, birank_source, nmax, conjectural) -> Suite:
    at, bt = birank_roots(*birank_target)
    a_s, b_s = birank_roots(*birank_source)
    hom = hom_series(a_s, b_s, at, bt, nmax)
    dual = hom_dual_series(a_s, b_s, at, bt, nmax)
    checks = [
        Check(f"hom_dim[n={n}]", equals(str(hom[n])), equals(str(hom[n])))
        for n in range(nmax + 1)
    ]
    checks += [
        Check(f"hom_dual_dim[n={n}]", equals(str(dual[n])), equals(str(dual[n])))
        for n in range(nmax + 1)
    ]
    return Suite("homspace", tuple(checks), conjectural)


def suite_positivity(r0, r1, max_weight, conjectural) -> Suite:
    a, b = birank_roots(r0, r1)
    coeffs = sym_series(a, b, max_weight)
    checks = []
    for w in range(max_weight + 1):
        for lam in partitions(w):
            hook = in_hook(lam, r0, r1)
            checks.append(
                Check(
                    f"schur_support[{fmt_partition(lam)}]",
                    equals(f"value {schur_value(coeffs, lam)}"),
                    equals(f"in hook: {hook}"),
                )
            )
    for k in range(1, max_weight + 1):
        values = [schur_value(coeffs, (n,) * k) for n in range(1, max_weight // k + 1)]
        checks.append(
            Check(
                f"rectangle_vanishing[k={k}]",
                equals(", ".join(str(v) for v in values)),
                equals("no revival after vanishing"),
            )
        )
    return Suite("positivity", tuple(checks), conjectural)


# ---------------------------------------------------------------------------
# parsing and checking program output


def _check_lines(expected: list[Check], got: list[tuple[str, str, str | None, bool]]):
    if len(got) != len(expected):
        return f"{len(got)} checks reported, expected {len(expected)}"
    for want, (name, lhs, rhs, passed) in zip(expected, got):
        if name != want.name:
            return f"check {name!r} where {want.name!r} was expected"
        if not passed:
            return f"check {name} failed"
        if not want.lhs(lhs):
            return f"check {name}: unexpected value {lhs!r}"
        if rhs is not None and want.rhs is not None and not want.rhs(rhs):
            return f"check {name}: unexpected reference {rhs!r}"
    return None


def check_machine(stdout: str, suites: list[Suite]) -> str | None:
    """Verify `verify --machine` output; returns None or a reason."""
    rows = []
    banners = 0
    for line in stdout.splitlines():
        if line.startswith("#"):
            banners += line.startswith("# conjectural")
            continue
        parts = line.split("\t")
        if len(parts) != 4 or parts[3] not in ("pass", "fail"):
            return f"malformed machine line {line!r}"
        rows.append((parts[0], parts[1], parts[2], parts[3] == "pass"))
    want_banners = sum(s.conjectural for s in suites)
    if banners != want_banners:
        return f"{banners} conjectural banners, expected {want_banners}"
    return _check_lines([c for s in suites for c in s.checks], rows)


def check_human(stdout: str, suites: list[Suite]) -> str | None:
    """Verify human `verify` output; returns None or a reason."""
    lines = stdout.splitlines()
    i = 0
    for suite in suites:
        if i >= len(lines) or lines[i] != f"suite {suite.name}":
            return f"missing 'suite {suite.name}' header"
        i += 1
        note = i < len(lines) and lines[i].startswith("  note:")
        if note != suite.conjectural:
            return f"conjectural note mismatch in suite {suite.name}"
        i += note
        rows = []
        while i < len(lines) and lines[i].startswith("  ["):
            line = lines[i]
            passed = line.startswith("  [PASS] ")
            name, _, lhs = line[len("  [PASS] "):].partition(": ")
            rows.append((name, lhs, None, passed))
            i += 1
        reason = _check_lines(list(suite.checks), rows)
        if reason:
            return f"suite {suite.name}: {reason}"
        total = len(suite.checks)
        if i >= len(lines) or lines[i] != f"  {total}/{total} checks passed":
            return f"suite {suite.name}: missing '{total}/{total} checks passed'"
        i += 1
    if i != len(lines):
        return f"unexpected trailing output {lines[i]!r}"
    return None
