"""Verification suites: report structure, determinism, and outcomes on the
built-in families."""

import pytest
from oracles import jacobi_trudi_det, serialize_symmetry

from heckeseries import verify
from heckeseries.rmatrix import (
    build_standard,
    build_super,
    parse_symmetry_text,
)
from heckeseries.linalg import CapExceeded
from heckeseries.partitions import enumerate_partitions, format_partition
from heckeseries.series import WEIGHT_CAP, BirankCertificate
from heckeseries.verify import (
    VerificationReport,
    detected_certificate,
    series_horizon,
    suite_character,
    suite_hilbert,
    suite_homspace,
    suite_positivity,
)


def check_map(report):
    return {c.name: c for c in report.checks}


class TestReportRendering:
    def test_machine_format(self):
        report = VerificationReport("demo")
        report.add("alpha", 1, 1, True)
        report.add("beta", "x", "y", False)
        lines = report.render_machine().splitlines()
        assert lines[0] == "alpha\t1\t1\tpass"
        assert lines[1] == "beta\tx\ty\tfail"

    def test_human_format(self):
        report = VerificationReport("demo")
        report.add("alpha", 1, 1, True)
        report.add("beta", "x", "y", False)
        text = report.render_human()
        assert text.startswith("suite demo")
        assert "[PASS] alpha: 1" in text
        assert "[FAIL] beta: x expected y" in text
        assert "1/2 checks passed" in text

    def test_conjectural_banner(self):
        report = VerificationReport("demo", conjectural=True)
        report.add("alpha", 1, 1, True)
        assert report.render_machine().startswith("# conjectural:")
        assert "conjectural" in report.render_human()

    def test_passed_property(self):
        report = VerificationReport("demo")
        assert report.passed
        report.add("a", 1, 1, True)
        assert report.passed
        report.add("b", 1, 2, False)
        assert not report.passed


def test_series_horizon():
    # enough coefficients for a depth-d recurrence; the engine owns the cap
    assert series_horizon(2, 4) == 4
    assert series_horizon(3, 4) == 5
    assert series_horizon(4, 4) == 6
    assert series_horizon(2, 9) == 9
    assert series_horizon(5, 3) == 7
    assert series_horizon(6, 10) == 10


def test_detected_certificate():
    cert = detected_certificate(build_standard(2, 2), 4)
    assert cert.f0 == (1, -2, 1) and cert.f1 == (1,)
    cert = detected_certificate(build_super(1, 1, 1), 4)
    assert cert.birank == (1, 1)


class TestSuiteHilbert:
    def test_standard_all_pass(self):
        report = suite_hilbert(build_standard(2, 2), 4)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == [
            "duality_product",
            "certificate",
            "birank_bound",
            "symmetric_series_matches_certificate",
            "exterior_series_matches_certificate",
        ]
        cert_line = check_map(report)["certificate"].lhs
        assert "f0=1,-2,1" in cert_line and "f1=1" in cert_line

    def test_super_all_pass(self):
        report = suite_hilbert(build_super(1, 1, 1), 5)
        assert report.passed
        cert_line = check_map(report)["certificate"].lhs
        assert "f0=1,-1;" in cert_line and "f1=1,-1" in cert_line

    def test_nonsemisimple_parameter(self):
        assert suite_hilbert(build_standard(2, -1), 4).passed

    def test_not_conjectural_for_builtins(self):
        assert not suite_hilbert(build_standard(2, 2), 3).conjectural

    def test_deterministic(self):
        a = suite_hilbert(build_standard(2, 2), 4).render_machine()
        b = suite_hilbert(build_standard(2, 2), 4).render_machine()
        assert a == b


class TestSuiteCharacter:
    def test_standard_values(self):
        report = suite_character(build_standard(2, 2), 3)
        assert report.passed
        checks = check_map(report)
        assert checks["quotient_dim[[2,1]]"].lhs == "6"
        assert checks["tensor_dimension_identity[n=4]"].lhs == "16"

    def test_super_values(self):
        report = suite_character(build_super(1, 1, 1), 3)
        assert report.passed
        checks = check_map(report)
        assert checks["quotient_dim[[2]]"].lhs == "2"
        assert checks["tensor_dimension_identity[n=2]"].lhs == "4"

    def test_identity_runs_one_degree_past_matrix_checks(self):
        report = suite_character(build_standard(2, 2), 2)
        names = [c.name for c in report.checks]
        assert "tensor_dimension_identity[n=3]" in names
        assert "quotient_dim[[3]]" not in names

    def test_identity_on_a_certificate_with_constant_f0(self):
        # super 0,2: f0 = 1 has no t-coefficient, f1 = (1 - t)^2
        report = suite_character(build_super(0, 2, 2), 3)
        assert report.passed
        assert check_map(report)["tensor_dimension_identity[n=4]"].lhs == "16"

    def test_std1_runs_past_the_old_degree_cap(self):
        # the identity once went through the Kostka tables, capped at degree 14
        sym = build_standard(1, 2)
        report = verify.run_suites("character", sym, sym, 14, 8)[0]
        assert report.passed
        assert check_map(report)["tensor_dimension_identity[n=15]"].lhs == "1"


class TestSuiteHomspace:
    def test_standard_pair(self):
        a = build_standard(2, 2)
        report = suite_homspace(a, a, 3)
        assert report.passed
        checks = check_map(report)
        assert checks["hom_dim[n=2]"].lhs == "10"
        assert checks["hom_dual_dim[n=2]"].lhs == "6"

    def test_mixed_pair(self):
        report = suite_homspace(build_standard(2, 2), build_standard(1, 2), 3)
        assert report.passed

    def test_super_pair(self):
        report = suite_homspace(build_standard(1, 2), build_super(1, 1, 2), 3)
        assert report.passed

    def test_q_mismatch(self):
        with pytest.raises(ValueError):
            suite_homspace(build_standard(2, 2), build_standard(2, 3), 2)

    def test_user_input_marks_conjectural(self):
        loaded = parse_symmetry_text(serialize_symmetry(build_standard(2, 2)))
        report = suite_homspace(loaded, build_standard(2, 2), 2)
        assert report.conjectural
        assert report.passed


class TestSuitePositivity:
    def test_two_zero_hook(self):
        cert = BirankCertificate.from_polynomials([1, -2, 1], [1])
        report = suite_positivity(cert, 6)
        assert report.passed
        checks = check_map(report)
        assert checks["schur_support[[1,1,1]]"].lhs == "value 0"
        assert checks["schur_support[[3,3]]"].lhs == "value 1"

    def test_mixed_hook(self):
        cert = BirankCertificate.from_polynomials([1, -1], [1, -1])
        report = suite_positivity(cert, 6)
        assert report.passed
        checks = check_map(report)
        # shapes with a second row longer than 1 sit outside the (1,1) hook
        assert checks["schur_support[[2,2]]"].lhs == "value 0"
        assert checks["schur_support[[3,2]]"].lhs == "value 0"
        assert checks["schur_support[[2,1,1]]"].lhs == "value 2"
        assert checks["schur_support[[3,1]]"].lhs == "value 2"

    def test_rectangle_checks_present(self):
        cert = BirankCertificate.from_polynomials([1, -2, 1], [1])
        report = suite_positivity(cert, 4)
        names = [c.name for c in report.checks]
        assert "rectangle_vanishing[k=1]" in names
        assert "rectangle_vanishing[k=4]" in names

    @pytest.mark.parametrize(
        "f0, f1",
        [([1, -3, 2], [1]), ([1, -3, 1], [1, -2]), ([1], [1]), ([1, -4, 4], [1, -1])],
    )
    def test_rows_carry_the_determinant_values(self, f0, f1):
        max_weight = 7
        cert = BirankCertificate.from_polynomials(f0, f1)
        f = cert.symmetric_series(max_weight)
        expected = [
            (f"schur_support[{format_partition(lam)}]", f"value {jacobi_trudi_det(f, lam)}")
            for w in range(max_weight + 1)
            for lam in enumerate_partitions(w)
        ] + [
            (
                f"rectangle_vanishing[k={k}]",
                ", ".join(
                    str(jacobi_trudi_det(f, (n,) * k)) for n in range(1, max_weight // k + 1)
                ),
            )
            for k in range(1, max_weight + 1)
        ]
        report = suite_positivity(cert, max_weight)
        assert [(c.name, c.lhs) for c in report.checks] == expected
        assert report.passed


def test_run_suites_order_and_unknown_names():
    sym = build_standard(2, 2)
    reports = verify.run_suites("all", sym, sym, 2, 3)
    assert tuple(r.suite for r in reports) == verify.SUITES
    assert all(r.passed for r in reports)
    assert [r.suite for r in verify.run_suites("homspace", sym, sym, 2, 3)] == ["homspace"]
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        verify.run_suites("bogus", sym, sym, 2, 3)


@pytest.mark.parametrize("suite", ["character", "all"])
def test_character_weight_is_checked_before_any_suite_runs(suite, monkeypatch):
    def refuse(*args):
        raise AssertionError("a suite ran before the weight check")

    for name in verify.SUITES:
        monkeypatch.setattr(verify, f"suite_{name}", refuse)
    sym = build_standard(1, 2)
    with pytest.raises(CapExceeded, match=f"weight {WEIGHT_CAP + 1} exceeds"):
        verify.run_suites(suite, sym, sym, WEIGHT_CAP + 1, 3)


def test_character_suite_checks_its_own_weight(monkeypatch):
    # at weight 25 it ran 9321 checks in 1.7 s instead of refusing
    def refuse(*args):
        raise AssertionError("an engine ran before the weight check")

    monkeypatch.setattr(verify, "dim_quotient", refuse)
    monkeypatch.setattr(verify, "symmetric_dims", refuse)
    with pytest.raises(CapExceeded, match=f"^weight {WEIGHT_CAP + 1} exceeds cap {WEIGHT_CAP}$"):
        suite_character(build_standard(1, 2), WEIGHT_CAP + 1)


# Exact output of `verify --suite all --nmax 3 --max-weight 5` on std:r=2,q=2
# when detection finds nothing: every check that needs the certificate shows
# the detection error in place of its value.
_NO_FORM = "error: no rational form detected within order 2 at truncation order 4"
_HUMAN_NOTE = (
    "  note: input is user-supplied; predictions are conjectural"
    " (structural hypotheses not algorithmically verified)\n"
)
_MACHINE_NOTE = (
    "# conjectural: structural hypotheses unverified for user-supplied input\n"
)
_HUMAN_BLOCKS = [
    "suite hilbert\n",
    "  [PASS] duality_product: 1, 0, 0, 0, 0\n"
    f"  [FAIL] certificate: {_NO_FORM} expected certified rational form\n"
    f"  [FAIL] birank_bound: {_NO_FORM} expected certified rational form\n"
    f"  [FAIL] symmetric_series_matches_certificate: {_NO_FORM} expected certified rational form\n"
    f"  [FAIL] exterior_series_matches_certificate: {_NO_FORM} expected certified rational form\n"
    "  1/5 checks passed\n"
    "suite character\n",
    "  [PASS] quotient_dim[[1]]: 2\n"
    "  [PASS] quotient_dim[[2]]: 3\n"
    "  [PASS] quotient_dim[[1,1]]: 4\n"
    "  [PASS] quotient_dim[[3]]: 4\n"
    "  [PASS] quotient_dim[[2,1]]: 6\n"
    "  [PASS] quotient_dim[[1,1,1]]: 8\n"
    f"  [FAIL] tensor_dimension_identity: {_NO_FORM} expected certified rational form\n"
    "  6/7 checks passed\n"
    "suite homspace\n",
    "  [PASS] hom_dim[n=0]: 1\n"
    "  [PASS] hom_dim[n=1]: 4\n"
    "  [PASS] hom_dim[n=2]: 10\n"
    "  [PASS] hom_dim[n=3]: 20\n"
    "  [PASS] hom_dual_dim[n=0]: 1\n"
    "  [PASS] hom_dual_dim[n=1]: 4\n"
    "  [PASS] hom_dual_dim[n=2]: 6\n"
    "  [PASS] hom_dual_dim[n=3]: 4\n"
    "  8/8 checks passed\n"
    "suite positivity\n",
    f"  [FAIL] certificate: {_NO_FORM} expected certified rational form\n"
    "  0/1 checks passed\n",
]
_MACHINE_BLOCKS = [
    "",
    "duality_product\t1, 0, 0, 0, 0\t1, 0, 0, 0, 0\tpass\n"
    f"certificate\t{_NO_FORM}\tcertified rational form\tfail\n"
    f"birank_bound\t{_NO_FORM}\tcertified rational form\tfail\n"
    f"symmetric_series_matches_certificate\t{_NO_FORM}\tcertified rational form\tfail\n"
    f"exterior_series_matches_certificate\t{_NO_FORM}\tcertified rational form\tfail\n",
    "quotient_dim[[1]]\t2\t2\tpass\n"
    "quotient_dim[[2]]\t3\t3\tpass\n"
    "quotient_dim[[1,1]]\t4\t4\tpass\n"
    "quotient_dim[[3]]\t4\t4\tpass\n"
    "quotient_dim[[2,1]]\t6\t6\tpass\n"
    "quotient_dim[[1,1,1]]\t8\t8\tpass\n"
    f"tensor_dimension_identity\t{_NO_FORM}\tcertified rational form\tfail\n",
    "hom_dim[n=0]\t1\t1\tpass\n"
    "hom_dim[n=1]\t4\t4\tpass\n"
    "hom_dim[n=2]\t10\t10\tpass\n"
    "hom_dim[n=3]\t20\t20\tpass\n"
    "hom_dual_dim[n=0]\t1\t1\tpass\n"
    "hom_dual_dim[n=1]\t4\t4\tpass\n"
    "hom_dual_dim[n=2]\t6\t6\tpass\n"
    "hom_dual_dim[n=3]\t4\t4\tpass\n",
    f"certificate\t{_NO_FORM}\tcertified rational form\tfail\n",
]


@pytest.mark.parametrize("machine", [False, True], ids=["human", "machine"])
@pytest.mark.parametrize("source", ["builtin", "file"])
def test_failed_detection_rows_through_the_cli(
    source, machine, monkeypatch, capsys, tmp_path
):
    from heckeseries import series
    from heckeseries.cli import main

    monkeypatch.setattr(series, "detect_rational", lambda f, r_max: None)
    spec = "std:r=2,q=2"
    if source == "file":
        path = tmp_path / "std2.txt"
        path.write_text(serialize_symmetry(build_standard(2, 2)))
        spec = f"file:{path}"
    argv = ["verify", "--suite", "all", "--symmetry", spec, "--nmax", "3"]
    argv += ["--max-weight", "5"] + (["--machine"] if machine else [])
    assert main(argv) == 1
    # each suite's conjectural note sits right after its heading
    note = (_MACHINE_NOTE if machine else _HUMAN_NOTE) if source == "file" else ""
    blocks = _MACHINE_BLOCKS if machine else _HUMAN_BLOCKS
    assert capsys.readouterr().out == note.join(blocks)
