"""Seeded job lists for the three benchmark workloads.

A workload is a fixed list of `heckeseries` command lines plus the
expected result of each.  The seed only chooses inputs (q values, the dense
conjugating matrices, reciprocal roots); the structure and size of each job
list is the same for every seed, so the work in one pass barely depends on
the seed.  The program never sees the seed, only the generated arguments
and files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

# Generic q only.  At q = -1 the quadratic relation (R - q)(R + 1) = 0 has
# the double root -1, the super family collapses onto the standard one, and
# the closed forms in oracle.py no longer describe it.
Q_SAFE = ("2", "3", "1/2", "-2", "3/2")


@dataclass
class Job:
    argv: list[str]
    stdout: str | None = None
    suites: list[oracle.Suite] | None = None
    machine: bool = False

    def check(self, returncode: int, stdout: str) -> str | None:
        """None when the job's output is right, else a short reason."""
        if returncode != 0:
            return f"exit code {returncode}"
        if self.stdout is not None:
            if stdout != self.stdout:
                return f"stdout {stdout[:80]!r} != expected {self.stdout[:80]!r}"
            return None
        checker = oracle.check_machine if self.machine else oracle.check_human
        return checker(stdout, self.suites)


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    symmetries: list[str]
    files: dict[str, str] = field(default_factory=dict)

    def write_inputs(self, root: Path):
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="ascii")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"heckeseries-bench:{workload}:{seed}")


class _QDeck:
    """Hands out q values so that every pass uses each safe value equally
    often, in a seeded order; keeps pass cost from hinging on one draw."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.deck: list[str] = []

    def draw(self) -> str:
        if not self.deck:
            self.deck = list(Q_SAFE)
            self.rng.shuffle(self.deck)
        return self.deck.pop()


def std(r: int, q: str) -> str:
    return f"std:r={r},q={q}"


def sup(r0: int, r1: int, q: str) -> str:
    return f"super:{r0},{r1},q={q}"


def _compute_series(spec, birank, what, degree) -> Job:
    a, b = oracle.birank_roots(*birank)
    series = oracle.sym_series if what == "sym" else oracle.ext_series
    return Job(
        ["compute", "--symmetry", spec, "--what", what, "--degree", str(degree)],
        oracle.render(series(a, b, degree)) + "\n",
    )


def _compute_pair(spec, birank, spec2, birank2, what, degree) -> Job:
    # compute --what A:SPEC2 on SPEC gives maps from SPEC's space to SPEC2's
    a, b = oracle.birank_roots(*birank)
    a2, b2 = oracle.birank_roots(*birank2)
    series = oracle.hom_series if what == "A" else oracle.hom_dual_series
    return Job(
        ["compute", "--symmetry", spec, "--what", f"{what}:{spec2}", "--degree", str(degree)],
        oracle.render(series(a, b, a2, b2, degree)) + "\n",
    )


def _compute_quotient(spec, birank, lam, mu) -> Job:
    what = f"quotient:{oracle.fmt_partition(lam)};{oracle.fmt_partition(mu)}"
    return Job(
        ["compute", "--symmetry", spec, "--what", what],
        f"{oracle.quotient_dim(*birank, lam, mu)}\n",
    )


def brute(seed: int, root: str) -> Workload:
    """Sparse integer builtins through the brute-force engines only."""
    deck = _QDeck(_rng("brute", seed))
    jobs = []
    specs = []

    def s(r0, r1, q=None):
        q = q or deck.draw()
        spec = std(r0, q) if r1 == 0 else sup(r0, r1, q)
        specs.append(spec)
        return spec

    # degree 5, not 6, on the two heaviest cases: a pass of many ~0.5 s
    # jobs gives more passes per run, so the median over passes is steadier.
    # The heaviest jobs (std4 sym, the two A pairs) take a fixed q, so that
    # pass cost does not depend on which q the seed deals them; 3/2 keeps
    # Fraction entries (clear_denominators) on the heaviest path.
    jobs.append(_compute_series(s(4, 0, "3/2"), (4, 0), "sym", 5))
    jobs.append(_compute_series(s(3, 0), (3, 0), "sym", 7))
    jobs.append(_compute_series(s(3, 0), (3, 0), "ext", 7))
    jobs.append(_compute_series(s(2, 0), (2, 0), "sym", 12))
    jobs.append(_compute_series(s(2, 1), (2, 1), "sym", 7))
    jobs.append(_compute_series(s(1, 2), (1, 2), "ext", 7))
    jobs.append(_compute_series(s(1, 1), (1, 1), "sym", 12))
    # a pair shares q
    q = "2"
    specs += [std(2, q)]
    jobs.append(_compute_pair(std(2, q), (2, 0), std(2, q), (2, 0), "A", 5))
    q = "1/2"
    specs += [sup(1, 1, q), std(2, q)]
    jobs.append(_compute_pair(sup(1, 1, q), (1, 1), std(2, q), (2, 0), "A", 5))
    q = deck.draw()
    specs += [std(2, q)]
    jobs.append(_compute_pair(std(2, q), (2, 0), std(2, q), (2, 0), "E", 4))
    q = deck.draw()
    specs += [std(2, q), sup(1, 1, q)]
    jobs.append(_compute_pair(std(2, q), (2, 0), sup(1, 1, q), (1, 1), "E", 4))
    jobs.append(_compute_quotient(s(3, 0), (3, 0), (2, 1), (2,)))
    jobs.append(_compute_quotient(s(2, 1), (2, 1), (2, 2), (2,)))
    jobs.append(_compute_quotient(s(2, 0), (2, 0), (3, 1), (2,)))
    jobs.append(_compute_quotient(s(1, 1), (1, 1), (3, 2), (3,)))
    # one tiny job reaches every other layer, so that each per-layer time
    # is measured on every workload; on std:r=1 it costs ~2% of a pass
    jobs.append(_verify_all(s(1, 0), (1, 0), 3, 6))
    return Workload("brute", jobs, sorted(set(specs)))


def _verify_all(spec, birank, nmax, max_weight) -> Job:
    return Job(
        ["verify", "--suite", "all", "--symmetry", spec, "--nmax", str(nmax),
         "--max-weight", str(max_weight)],
        suites=[
            oracle.suite_hilbert(*birank, nmax, False),
            oracle.suite_character(*birank, nmax, False),
            oracle.suite_homspace(birank, birank, nmax, False),
            oracle.suite_positivity(*birank, max_weight, False),
        ],
    )


def _roots(rng: random.Random, count: int) -> list[int]:
    return sorted(rng.choice((1, 2, 3)) for _ in range(count))


def _predict_lines(series, certs) -> str:
    lines = [oracle.render(series)]
    for k, (a, b) in enumerate(certs):
        tag = "" if k == 0 else "2"
        lines.append(f"birank{tag}: ({len(a)}, {len(b)})")
        lines.append(f"certificate{tag}: {oracle.certificate_text(a, b)}")
    return "\n".join(lines) + "\n"


def _root_flags(a, b, suffix="") -> list[str]:
    out = []
    if a:
        out += [f"--alphas{suffix}", oracle.render_list(a)]
    if b:
        out += [f"--betas{suffix}", oracle.render_list(b)]
    return out


def _series_flag(a, b, suffix="") -> list[str]:
    num = oracle.render_list(oracle.poly_from_roots(b, +1))
    den = oracle.render_list(oracle.poly_from_roots(a, -1))
    return [f"--series{suffix}", f"{num};{den}"]


def closed(seed: int, root: str) -> Workload:
    """Closed-form routes: certificates, series kernels, symmetric
    functions; the matrix side is trivial (rank-one or tiny builtins)."""
    rng = _rng("closed", seed)
    deck = _QDeck(rng)
    jobs = []
    specs = []

    # tensor identity on std:r=1: cold Kostka tables up to degree nmax + 1
    spec = std(1, deck.draw())
    specs.append(spec)
    nmax = 9
    jobs.append(
        Job(
            ["verify", "--suite", "character", "--symmetry", spec, "--nmax", str(nmax)],
            suites=[oracle.suite_character(1, 0, nmax, False)],
        )
    )
    spec = sup(2, 1, deck.draw())
    specs.append(spec)
    jobs.append(
        Job(
            ["verify", "--suite", "positivity", "--symmetry", spec, "--nmax", "4",
             "--max-weight", "8"],
            suites=[oracle.suite_positivity(2, 1, 8, False)],
        )
    )
    # every suite once on a small builtin, so the matrix layers are measured
    spec = sup(1, 1, deck.draw())
    specs.append(spec)
    jobs.append(_verify_all(spec, (1, 1), 3, 8))

    # pairing product on two seeded certificates, both input forms
    a, b, a2, b2 = _roots(rng, 2), _roots(rng, 1), _roots(rng, 1), _roots(rng, 1)
    jobs.append(
        Job(
            ["predict", "--what", "A", *_root_flags(a, b), *_root_flags(a2, b2, "2"),
             "--degree", "18"],
            _predict_lines(oracle.hom_series(a, b, a2, b2, 18), [(a, b), (a2, b2)]),
        )
    )
    a, b, a2, b2 = _roots(rng, 1), _roots(rng, 1), _roots(rng, 2), _roots(rng, 0)
    jobs.append(
        Job(
            ["predict", "--what", "E", *_series_flag(a, b), *_series_flag(a2, b2, "2"),
             "--degree", "14"],
            _predict_lines(oracle.hom_dual_series(a, b, a2, b2, 14), [(a, b), (a2, b2)]),
        )
    )
    a, b = _roots(rng, 3), _roots(rng, 2)
    jobs.append(
        Job(
            ["predict", "--what", "sym", *_series_flag(a, b), "--degree", "30"],
            _predict_lines(oracle.sym_series(a, b, 30), [(a, b)]),
        )
    )
    a, b = _roots(rng, 2), _roots(rng, 3)
    jobs.append(
        Job(
            ["predict", "--what", "ext", *_root_flags(a, b), "--degree", "30"],
            _predict_lines(oracle.ext_series(a, b, 30), [(a, b)]),
        )
    )

    # series utilities on truncations of seeded rational functions
    a, b, a2, b2 = _roots(rng, 1), _roots(rng, 1), _roots(rng, 2), _roots(rng, 1)
    degree = 14
    jobs.append(
        Job(
            ["series", "diamond",
             "--f", oracle.render_list(oracle.sym_series(a, b, degree)),
             "--g", oracle.render_list(oracle.sym_series(a2, b2, degree)),
             "--degree", str(degree)],
            oracle.render(oracle.hom_series(a, b, a2, b2, degree)) + "\n",
        )
    )
    a, b = _roots(rng, 3), _roots(rng, 2)
    order = 2 * (len(a) + len(b)) + 6
    num = oracle.poly_from_roots(b, +1)
    den = oracle.poly_from_roots(a, -1)
    jobs.append(
        Job(
            ["series", "detect-rational",
             "--coeffs", oracle.render_list(oracle.sym_series(a, b, order))],
            f"num={oracle.render_list(num)}; den={oracle.render_list(den)}\n",
        )
    )
    a, b = _roots(rng, 2), _roots(rng, 2)
    weight = 12
    jobs.append(
        Job(
            ["series", "total-positivity",
             "--coeffs", oracle.render_list(oracle.sym_series(a, b, weight)),
             "--max-weight", str(weight)],
            "ok\n",
        )
    )
    return Workload("closed", jobs, sorted(set(specs)))


# ---------------------------------------------------------------------------
# dense "user" symmetries: a builtin conjugated by g (x) g


def builtin_matrix(r0: int, r1: int, q: Fraction) -> list[list[Fraction]]:
    """The builtin super symmetry (std when r1 = 0), the same construction
    as `build_super`, built here so that the benchmark writes its own
    inputs."""
    d = r0 + r1
    odd = [False] * r0 + [True] * r1
    mat = [[Fraction(0)] * (d * d) for _ in range(d * d)]
    for i in range(d):
        for j in range(d):
            col = i * d + j
            sign = -1 if odd[i] and odd[j] else 1
            if i == j:
                mat[col][col] = Fraction(-1) if odd[i] else q
            elif i < j:
                mat[j * d + i][col] = Fraction(sign)
            else:
                mat[j * d + i][col] = q * sign
                mat[col][col] = q - 1
    return mat


def _inverse(m):
    """Gauss-Jordan inverse of a nonsingular matrix over Fractions."""
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _kron(g):
    d = len(g)
    return [
        [g[k][i] * g[l][j] for i in range(d) for j in range(d)]
        for k in range(d)
        for l in range(d)
    ]


def _matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def _transpose(x):
    return [list(col) for col in zip(*x)]


# g = S1 * M * S2: a fixed dense, fractional, nonsingular M between two
# seeded signed permutation matrices.  Every draw has the same entry sizes,
# so a dense job costs about the same for every seed, while the seed still
# moves every entry of the conjugated matrix.
_DENSE = {
    2: (("1", "1/2"), ("-2", "3")),
    3: (("1", "1/2", "-1"), ("2", "1", "1/3"), ("-1", "3/2", "2")),
}


def _signed_permutation(rng: random.Random, d: int):
    perm = list(range(d))
    rng.shuffle(perm)
    return [[Fraction(rng.choice((1, -1))) if perm[i] == j else Fraction(0) for j in range(d)] for i in range(d)]


def draw_conjugator(rng: random.Random, d: int):
    """Seeded g = S1 * M * S2 in GL_d(Q) and its inverse S2^T * M^-1 * S1^T
    (a signed permutation's inverse is its transpose).  g (x) g is
    invertible because g is."""
    m = [[Fraction(x) for x in row] for row in _DENSE[d]]
    s1, s2 = _signed_permutation(rng, d), _signed_permutation(rng, d)
    g = _matmul(_matmul(s1, m), s2)
    g_inv = _matmul(_matmul(_transpose(s2), _inverse(m)), _transpose(s1))
    return g, g_inv


def conjugated_text(r0: int, r1: int, q: str, g, g_inv) -> str:
    """hecke-symmetry v1 text of (g (x) g) R (g (x) g)^-1."""
    qf = Fraction(q)
    dense = _matmul(_matmul(_kron(g), builtin_matrix(r0, r1, qf)), _kron(g_inv))
    d = r0 + r1
    lines = ["hecke-symmetry v1", f"d = {d}", f"q = {qf.numerator}/{qf.denominator}"]
    lines += [" ".join(str(x) for x in row) for row in dense]
    return "\n".join(lines) + "\n"


def verify(seed: int, root: str) -> Workload:
    """`verify` on dense user symmetries, written as files under root."""
    rng = _rng("verify", seed)
    deck = _QDeck(rng)
    files: dict[str, str] = {}

    def user(r0, r1, q):
        g, g_inv = draw_conjugator(rng, r0 + r1)
        path = f"{root}/u{len(files)}_{r0}{r1}.hs"
        files[path] = conjugated_text(r0, r1, q, g, g_inv)
        return f"file:{path}"

    def job(suite, spec, birank, nmax, spec2=None, birank2=None, max_weight=6):
        argv = ["verify", "--suite", suite, "--symmetry", spec, "--nmax", str(nmax),
                "--max-weight", str(max_weight), "--machine"]
        if spec2 is not None:
            argv += ["--symmetry2", spec2]
        wanted = ("hilbert", "character", "homspace", "positivity") if suite == "all" else (suite,)
        suites = []
        for name in wanted:
            if name == "hilbert":
                suites.append(oracle.suite_hilbert(*birank, nmax, True))
            elif name == "character":
                suites.append(oracle.suite_character(*birank, nmax, True))
            elif name == "homspace":
                suites.append(oracle.suite_homspace(birank2 or birank, birank, nmax, True))
            else:
                suites.append(oracle.suite_positivity(*birank, max_weight, True))
        return Job(argv, suites=suites, machine=True)

    jobs = []
    for suite, birank in (("hilbert", (2, 1)), ("character", (1, 2)), ("positivity", (3, 0))):
        jobs.append(job(suite, user(*birank, deck.draw()), birank, 3))
    for birank, birank2 in (((2, 0), (2, 0)), ((1, 1), (2, 0))):
        q = deck.draw()
        jobs.append(job("homspace", user(*birank, q), birank, 4, user(*birank2, q), birank2))
    jobs.append(job("all", user(1, 1, deck.draw()), (1, 1), 3))
    return Workload("verify", jobs, sorted({a for j in jobs for a in j.argv if a.startswith("file:")}), files)


WORKLOADS = {"brute": brute, "closed": closed, "verify": verify}
