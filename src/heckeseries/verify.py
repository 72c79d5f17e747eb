"""Cross-validation suites: closed-form predictions against brute force.

Each suite runs every check and reports all outcomes; a failing check never
aborts the run.  Reports are deterministic given identical inputs, and each
check carries rendered left/right values so mismatches are inspectable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .rmatrix import (
    HeckeSymmetry,
    dim_quotient,
    exterior_dims,
    hom_dims,
    require_same_q,
    symmetric_dims,
)
from .series import (
    BirankCertificate,
    CertificateError,
    InconclusiveDetection,
    TruncSeries,
    birank_certificate,
    check_weight,
    diamond,
    exterior_from_symmetric,
    schur_values,
)

SUITES = ("hilbert", "character", "homspace", "positivity")


class CheckResult(NamedTuple):
    name: str
    lhs: str
    rhs: str
    passed: bool


class VerificationReport:
    def __init__(self, suite: str, conjectural: bool = False):
        self.suite = suite
        self.checks: list[CheckResult] = []
        self.conjectural = conjectural

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, lhs, rhs, passed: bool):
        self.checks.append(CheckResult(name, str(lhs), str(rhs), passed))

    def compare(self, name: str, lhs, rhs):
        self.add(name, lhs, rhs, lhs == rhs)

    def render_machine(self) -> str:
        lines = []
        if self.conjectural:
            lines.append(
                "# conjectural: structural hypotheses unverified for "
                "user-supplied input"
            )
        for c in self.checks:
            state = "pass" if c.passed else "fail"
            lines.append(f"{c.name}\t{c.lhs}\t{c.rhs}\t{state}")
        return "\n".join(lines)

    def render_human(self) -> str:
        lines = [f"suite {self.suite}"]
        if self.conjectural:
            lines.append(
                "  note: input is user-supplied; predictions are conjectural"
                " (structural hypotheses not algorithmically verified)"
            )
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            if c.passed:
                lines.append(f"  [{mark}] {c.name}: {c.lhs}")
            else:
                lines.append(f"  [{mark}] {c.name}: {c.lhs} expected {c.rhs}")
        done = sum(1 for c in self.checks if c.passed)
        lines.append(f"  {done}/{len(self.checks)} checks passed")
        return "\n".join(lines)


def series_horizon(d: int, n_max: int) -> int:
    """Matrix-series truncation: enough coefficients to detect a recurrence
    of depth d.  A window over the dimension cap raises CapExceeded in the
    engine, before any elimination."""
    return max(n_max, d + 2)


def detected_certificate(sym: HeckeSymmetry, n_max: int) -> BirankCertificate:
    """Detect and certify the symmetric-side series of a symmetry from its
    matrix-computed dimensions.  Raises like birank_certificate."""
    horizon = series_horizon(sym.d, n_max)
    return birank_certificate(TruncSeries(symmetric_dims(sym, horizon)), sym.d)


def _certificate(
    report: VerificationReport, sym: HeckeSymmetry, n_max: int, checks
) -> BirankCertificate | None:
    """The detected certificate, or None after adding each of ``checks`` to
    the report as a failure carrying the detection error."""
    try:
        return detected_certificate(sym, n_max)
    except (InconclusiveDetection, CertificateError) as exc:
        for name in checks:
            report.add(name, f"error: {exc}", "certified rational form", False)
        return None


def _is_conjectural(*syms: HeckeSymmetry) -> bool:
    return any(s.source == "user" for s in syms)


def suite_hilbert(sym: HeckeSymmetry, n_max: int) -> VerificationReport:
    """Graded dimensions of the two quadratic quotients and their closed
    forms: duality of the two series, recurrence detection, root
    certificate, degree bound, and both certified expansions."""
    report = VerificationReport("hilbert", conjectural=_is_conjectural(sym))
    horizon = series_horizon(sym.d, n_max)
    fs = TruncSeries(symmetric_dims(sym, horizon))
    fe = TruncSeries(exterior_dims(sym, horizon))
    product = fs.mul(fe.negate_variable())
    report.compare(
        "duality_product", product.render(), TruncSeries.one(horizon).render()
    )
    checks = (
        "certificate",
        "birank_bound",
        "symmetric_series_matches_certificate",
        "exterior_series_matches_certificate",
    )
    cert = _certificate(report, sym, n_max, checks)
    if cert is None:
        return report
    report.add(
        "certificate",
        cert.render(),
        "roots positive real: verified",
        True,
    )
    report.add(
        "birank_bound",
        f"r0+r1 = {cert.r0 + cert.r1}",
        f"<= {sym.d}",
        cert.r0 + cert.r1 <= sym.d,
    )
    report.compare(
        "symmetric_series_matches_certificate",
        fs.render(),
        cert.symmetric_series(horizon).render(),
    )
    report.compare(
        "exterior_series_matches_certificate",
        fe.render(),
        cert.exterior_series(horizon).render(),
    )
    return report


def suite_character(sym: HeckeSymmetry, n_max: int) -> VerificationReport:
    """Consistency rows: ``dim_quotient(ν, ())``, a product of symmetric_dims,
    against the same series' coefficients multiplied; and the certificate's
    tensor-power identity: the homomorphism sends p_1^n, V^{⊗n}'s character, to d^n."""
    from .partitions import enumerate_partitions, format_partition

    check_weight(n_max)
    report = VerificationReport("character", conjectural=_is_conjectural(sym))
    fs = TruncSeries(symmetric_dims(sym, series_horizon(sym.d, n_max)))
    for n in range(1, n_max + 1):
        for nu in enumerate_partitions(n):
            lhs = dim_quotient(sym, nu, ())
            rhs = Fraction(1)
            for part in nu:
                rhs *= fs.coeff(part)
            report.compare(
                f"quotient_dim[{format_partition(nu)}]", lhs, rhs
            )
    cert = _certificate(report, sym, n_max, ("tensor_dimension_identity",))
    if cert is None:
        return report
    # one degree beyond the matrix checks.  Summed with multinomial weights,
    # the monomials m_lam over lam ⊢ n give p_1^n, and the series
    # homomorphism sends p_1 to the t-coefficient of the symmetric series
    t1 = cert.symmetric_series(1).coeff(1)
    for n in range(1, n_max + 2):
        report.compare(f"tensor_dimension_identity[n={n}]", t1**n, sym.d**n)
    return report


def suite_homspace(
    sym_target: HeckeSymmetry, sym_source: HeckeSymmetry, n_max: int
) -> VerificationReport:
    """Intertwiner-space dimensions against the pairing-product prediction,
    and the dual-algebra dimensions against the inverted-series transform of
    the brute-force results."""
    require_same_q(sym_target, sym_source)
    report = VerificationReport(
        "homspace", conjectural=_is_conjectural(sym_target, sym_source)
    )
    f_source = TruncSeries(symmetric_dims(sym_source, n_max))
    f_target = TruncSeries(symmetric_dims(sym_target, n_max))
    predicted = diamond(f_source, f_target, n_max)
    a_dims = hom_dims(sym_target, sym_source, "A", n_max)
    e_dims = hom_dims(sym_target, sym_source, "E", n_max)
    for n in range(n_max + 1):
        report.compare(f"hom_dim[n={n}]", a_dims[n], predicted.coeff(n))
    dual_expected = exterior_from_symmetric(TruncSeries(a_dims))
    for n in range(n_max + 1):
        report.compare(f"hom_dual_dim[n={n}]", e_dims[n], dual_expected.coeff(n))
    return report


def suite_positivity(cert: BirankCertificate, max_weight: int) -> VerificationReport:
    """Sign and support of the certified series on Schur generators: values
    are nonnegative, vanish exactly off the hook region, and vanishing along
    rectangle rows never reverses."""
    from .partitions import enumerate_partitions, format_partition, in_hook

    check_weight(max_weight)
    report = VerificationReport("positivity")
    value = schur_values(cert.symmetric_series(max_weight), max_weight)
    for w in range(max_weight + 1):
        for lam in enumerate_partitions(w):
            val = value(lam)
            hook = in_hook(lam, cert.r0, cert.r1)
            ok = val >= 0 and (val > 0) == hook
            report.add(
                f"schur_support[{format_partition(lam)}]",
                f"value {val}",
                f"in hook: {hook}",
                ok,
            )
    for k in range(1, max_weight + 1):
        # k <= max_weight, so every row has at least one rectangle
        values = [value((n,) * k) for n in range(1, max_weight // k + 1)]
        report.add(
            f"rectangle_vanishing[k={k}]",
            ", ".join(str(v) for v in values),
            "no revival after vanishing",
            0 not in values or not any(values[values.index(0):]),
        )
    return report


def run_suites(
    suite: str, sym: HeckeSymmetry, sym2: HeckeSymmetry, n_max: int, max_weight: int
) -> list[VerificationReport]:
    """Reports of one suite of SUITES, or of all of them for "all", in
    SUITES order; homspace pairs sym2 (target) with sym (source).  The
    positivity weight, and the character suite's partition weight n_max,
    are checked before any suite runs."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES} or 'all'")
    wanted = SUITES if suite == "all" else (suite,)
    if "positivity" in wanted:
        check_weight(max_weight)
    if "character" in wanted:
        check_weight(n_max)
    reports = []
    if "hilbert" in wanted:
        reports.append(suite_hilbert(sym, n_max))
    if "character" in wanted:
        reports.append(suite_character(sym, n_max))
    if "homspace" in wanted:
        reports.append(suite_homspace(sym2, sym, n_max))
    if "positivity" in wanted:
        report = VerificationReport("positivity")
        cert = _certificate(report, sym, n_max, ("certificate",))
        if cert is not None:
            report = suite_positivity(cert, max_weight)
        report.conjectural = _is_conjectural(sym)
        reports.append(report)
    return reports
