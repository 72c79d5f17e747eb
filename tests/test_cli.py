"""Command-line interface: output text is part of the contract, so these
tests pin exact lines; exit codes distinguish verification failures (1),
input errors (2), and cap overruns (3)."""

import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import heckeseries
from heckeseries import rmatrix, series, verify
from heckeseries.cli import main
from heckeseries.rmatrix import (
    BIT_LENGTH_CAP,
    VALIDATION_CAP,
    build_standard,
    serialize_symmetry,
)
from heckeseries.series import (
    CERTIFICATE_CAP,
    DETECTION_CAP,
    ORDER_CAP,
    WEIGHT_CAP,
    BirankCertificate,
    poly_from_roots,
)

SRC = str(Path(heckeseries.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredict:
    def test_symmetric_series_from_alphas(self, capsys):
        code, out, _ = run(
            capsys, "predict", "--what", "sym", "--alphas", "1,1", "--degree", "5"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1, 2, 3, 4, 5, 6"
        assert lines[1] == "birank: (2, 0)"
        assert lines[2] == "certificate: f0=1,-2,1; f1=1; roots positive real: verified"

    def test_exterior_series_from_series_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "predict",
            "--what",
            "ext",
            "--series",
            "1;1,-2,1",
            "--degree",
            "4",
        )
        assert code == 0
        assert out.splitlines()[0] == "1, 2, 1, 0, 0"

    def test_super_series_with_betas(self, capsys):
        code, out, _ = run(
            capsys,
            "predict",
            "--what",
            "sym",
            "--alphas",
            "1",
            "--betas",
            "1",
            "--degree",
            "5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1, 2, 2, 2, 2, 2"
        assert lines[1] == "birank: (1, 1)"

    def test_hom_prediction_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "predict",
            "--what",
            "A",
            "--alphas",
            "1,1",
            "--alphas2",
            "1,1",
            "--degree",
            "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1, 4, 10, 20, 35"
        assert lines[1] == "birank: (2, 0)"
        assert lines[3] == "birank2: (2, 0)"

    def test_dual_component_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "predict",
            "--what",
            "E",
            "--alphas",
            "1,1",
            "--alphas2",
            "1,1",
            "--degree",
            "4",
        )
        assert code == 0
        assert out.splitlines()[0] == "1, 4, 6, 4, 1"

    def test_pair_requires_second_certificate(self, capsys):
        code, _, err = run(capsys, "predict", "--what", "A", "--alphas", "1,1")
        assert code == 2
        assert "--alphas2" in err

    def test_rejects_both_series_and_roots(self, capsys):
        code, _, err = run(
            capsys,
            "predict",
            "--what",
            "sym",
            "--series",
            "1;1,-1",
            "--alphas",
            "1",
        )
        assert code == 2

    def test_negative_root_rejected(self, capsys):
        code, _, err = run(capsys, "predict", "--what", "sym", "--series", "1;1,1")
        assert code == 1
        assert "positive" in err or "root" in err

    def test_noninteger_certificate_rejected(self, capsys):
        code, _, err = run(capsys, "predict", "--what", "sym", "--alphas", "1/2")
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--series", "1;1,1"),
             "polynomial has roots off the positive real axis: 1,1"),
            (("--alphas", "1/2"), "non-integer certificate polynomial 1,-1/2"),
            (("--series", "1;2,-1"), "certificate constant term must be 1: 2,-1"),
            (("--series", "1;0"), "certificate constant term must be 1: 0"),
            (("--series", "0;1"), "certificate constant term must be 1: 0"),
        ],
    )
    def test_certificate_errors_render_the_polynomial(self, capsys, argv, message):
        code, out, err = run(capsys, "predict", "--what", "sym", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "text",
        ["num=1; den=1,-1", "den=1,-1; num=1", "den = 1,-1;num = 1", "1;1,-1"],
    )
    def test_series_keys_name_their_polynomials(self, capsys, text):
        code, out, _ = run(capsys, "predict", "--what", "sym", "--series", text,
                           "--degree", "3")
        assert (code, out.splitlines()[0]) == (0, "1, 1, 1, 1")
        code, out, _ = run(capsys, "predict", "--what", "A", "--alphas", "1",
                           "--series2", text, "--degree", "3")
        assert (code, out.splitlines()[0]) == (0, "1, 1, 1, 1")

    @pytest.mark.parametrize(
        "text", ["foo=1; bar=1,-1", "num=1; num=1,-1", "den=1,-1; den=1", "1; den=1,-1"]
    )
    def test_unknown_repeated_or_mixed_series_keys_are_usage_errors(self, capsys, text):
        code, out, err = run(capsys, "predict", "--what", "sym", "--series", text)
        assert (code, out) == (2, "")
        assert err == f"error: expected the keys num and den once each, got {text!r}\n"


class TestCompute:
    def test_symmetric_dims(self, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            "--symmetry",
            "std:r=2,q=2",
            "--what",
            "sym",
            "--degree",
            "5",
        )
        assert code == 0
        assert out.strip() == "1, 2, 3, 4, 5, 6"

    def test_exterior_dims(self, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            "--symmetry",
            "std:r=2,q=2",
            "--what",
            "ext",
            "--degree",
            "5",
        )
        assert code == 0
        assert out.strip() == "1, 2, 1, 0, 0, 0"

    def test_super_symmetry(self, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            "--symmetry",
            "super:1,1,q=1",
            "--what",
            "sym",
            "--degree",
            "4",
        )
        assert code == 0
        assert out.strip() == "1, 2, 2, 2, 2"

    def test_quotient_scalar_case(self, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            "--symmetry",
            "std:r=1,q=3",
            "--what",
            "quotient:[1];[1]",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_quotient_matches_product_law(self, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            "--symmetry",
            "std:r=2,q=2",
            "--what",
            "quotient:[1];[1]",
        )
        assert code == 0
        assert out.strip() == "4"

    def test_quotient_mixed(self, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            "--symmetry",
            "std:r=2,q=2",
            "--what",
            "quotient:[2,1];[]",
        )
        assert code == 0
        assert out.strip() == "6"

    def test_hom_dims_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            "--symmetry",
            "std:r=1,q=2",
            "--what",
            "A:std:r=2,q=2",
            "--degree",
            "4",
        )
        assert code == 0
        assert out.strip() == "1, 2, 3, 4, 5"

    def test_e_dims_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            "--symmetry",
            "std:r=2,q=2",
            "--what",
            "E:std:r=2,q=2",
            "--degree",
            "4",
        )
        assert code == 0
        assert out.strip() == "1, 4, 6, 4, 1"

    def test_file_symmetry(self, capsys, tmp_path):
        path = tmp_path / "sym.txt"
        path.write_text(serialize_symmetry(build_standard(2, 2)))
        code, out, _ = run(
            capsys,
            "compute",
            "--symmetry",
            f"file:{path}",
            "--what",
            "sym",
            "--degree",
            "3",
        )
        assert code == 0
        assert out.strip() == "1, 2, 3, 4"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "compute",
            "--symmetry",
            f"file:{tmp_path}/absent.txt",
            "--what",
            "sym",
        )
        assert code == 2

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a symmetry file\n")
        code, _, err = run(
            capsys, "compute", "--symmetry", f"file:{path}", "--what", "sym"
        )
        assert code == 2
        assert "line 1" in err

    def test_nonpositive_file_dimension_is_a_usage_error(self, capsys, tmp_path):
        # d = -1 with one row has a matrix of the right shape for d*d = 1
        for d, rows in ((-1, "2\n"), (0, "")):
            path = tmp_path / "dim.txt"
            path.write_text(f"hecke-symmetry v1\nd = {d}\nq = 1\n{rows}")
            for what in ("sym", "ext"):
                code, out, err = run(
                    capsys, "compute", "--symmetry", f"file:{path}",
                    "--what", what, "--degree", "3",
                )
                assert (code, out) == (2, "")
                assert "line 2: dimension must be at least 1" in err

    def test_invalid_symmetry_rejected(self, capsys, tmp_path):
        path = tmp_path / "braidless.txt"
        path.write_text(
            "hecke-symmetry v1\nd = 2\nq = 2\n"
            "2 0 0 0\n0 -1 0 0\n0 0 -1 0\n0 0 0 2\n"
        )
        code, _, err = run(
            capsys, "compute", "--symmetry", f"file:{path}", "--what", "sym"
        )
        assert code == 1
        assert "rejected" in err
        assert "(1, 1, 2)" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys,
            "compute",
            "--symmetry",
            "std:r=4,q=2",
            "--what",
            "sym",
            "--degree",
            "12",
        )
        assert code == 3

    def test_unknown_what(self, capsys):
        code, _, err = run(
            capsys, "compute", "--symmetry", "std:r=2,q=2", "--what", "nope"
        )
        assert code == 2

    def test_bad_symmetry_spec(self, capsys):
        code, _, err = run(
            capsys, "compute", "--symmetry", "std:r=two,q=2", "--what", "sym"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "symmetry, what, message",
        [
            ("2", "sym", "symmetry specifier '2' needs a 'std:', 'super:' or 'file:' prefix"),
            ("foo:1", "sym", "unknown symmetry kind 'foo'"),
            ("std:r=2,q=2", "quotient:[2,1]",
             "quotient wants 'quotient:[parts];[parts]', got '[2,1]'"),
            ("std:r=2,q=2", "quotient:[2,x];[]", "invalid literal for int() with base 10: 'x'"),
        ],
    )
    def test_malformed_specifiers_are_usage_errors(self, capsys, symmetry, what, message):
        code, out, err = run(capsys, "compute", "--symmetry", symmetry, "--what", what)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_std_specifier_takes_exactly_r_and_q(self, capsys):
        for spec in ("std:r=2,q=2,x=1", "std:r=2,r=3,q=2", "std:r=2", "std:r=2,q"):
            code, out, err = run(
                capsys, "compute", "--symmetry", spec, "--what", "sym", "--degree", "2"
            )
            assert (code, out) == (2, "")
            assert f"std specifier must be 'std:r=R,q=Q', got {spec!r}" in err
        for spec in ("std:r=2,q=2", "std:q=2,r=2"):
            code, out, _ = run(
                capsys, "compute", "--symmetry", spec, "--what", "sym", "--degree", "2"
            )
            assert (code, out) == (0, "1, 2, 3\n")

    def test_validation_stays_cheap_up_to_the_dimension_cap(self, capsys):
        # d = 16 is the largest d whose V⊗3 fits the cap; validation works
        # on sparse integer columns, so this takes well under a second
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "compute", "--symmetry", "std:r=16,q=2", "--what", "sym",
            "--degree", "1",
        )
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (0, "1, 16\n")

    def test_std16_reads_degree_one_and_caps_a_mixed_quotient(self, capsys):
        # the cap is on the tensor power of the whole quotient, though its
        # blocks need only the degree-1 dimensions
        spec = "std:r=16,q=2"
        code, out, _ = run(
            capsys, "compute", "--symmetry", spec, "--what", f"A:{spec}", "--degree", "1"
        )
        assert (code, out) == (0, "1, 256\n")
        code, out, err = run(
            capsys, "compute", "--symmetry", spec, "--what", "quotient:[1,1,1];[1]"
        )
        message = "error: tensor power dimension 16**4 exceeds cap 4096\n"
        assert (code, out, err) == (3, "", message)


class TestVerify:
    def test_all_suites_pass_for_standard(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "all",
            "--symmetry",
            "std:r=2,q=2",
            "--nmax",
            "3",
            "--max-weight",
            "5",
        )
        assert code == 0
        assert "suite hilbert" in out
        assert "suite character" in out
        assert "suite homspace" in out
        assert "suite positivity" in out
        assert "FAIL" not in out

    def test_single_suite_machine_format(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "hilbert",
            "--symmetry",
            "std:r=2,q=2",
            "--machine",
        )
        assert code == 0
        for line in out.strip().splitlines():
            assert line.startswith("#") or len(line.split("\t")) == 4
        assert all(
            line.endswith("pass")
            for line in out.strip().splitlines()
            if not line.startswith("#")
        )

    def test_nonsemisimple_full_pipeline(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "all",
            "--symmetry",
            "std:r=2,q=-1",
            "--nmax",
            "3",
            "--max-weight",
            "4",
        )
        assert code == 0

    def test_homspace_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "homspace",
            "--symmetry",
            "std:r=1,q=2",
            "--symmetry2",
            "super:1,1,q=2",
            "--nmax",
            "3",
        )
        assert code == 0

    def test_conjectural_banner_for_file_input(self, capsys, tmp_path):
        path = tmp_path / "sym.txt"
        path.write_text(serialize_symmetry(build_standard(2, 2)))
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "hilbert",
            "--symmetry",
            f"file:{path}",
            "--nmax",
            "3",
        )
        assert code == 0
        assert "conjectural" in out

    def test_q_mismatch_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "verify",
            "--suite",
            "homspace",
            "--symmetry",
            "std:r=2,q=2",
            "--symmetry2",
            "std:r=2,q=3",
        )
        assert code == 2


class TestSeries:
    def test_detect_rational(self, capsys):
        code, out, _ = run(
            capsys, "series", "detect-rational", "--coeffs", "1,2,3,4,5,6,7"
        )
        assert code == 0
        assert out.strip() == "num=1; den=1,-2,1"

    def test_detect_rational_fibonacci(self, capsys):
        code, out, _ = run(
            capsys,
            "series",
            "detect-rational",
            "--coeffs",
            "1,1,2,3,5,8,13,21",
            "--rmax",
            "2",
        )
        assert code == 0
        assert out.strip() == "num=1; den=1,-1,-1"

    def test_detect_rational_inconclusive(self, capsys):
        code, out, _ = run(
            capsys,
            "series",
            "detect-rational",
            "--coeffs",
            "1,2,3,5,7,11,13",
            "--rmax",
            "2",
        )
        assert code == 1
        assert "inconclusive" in out

    def test_diamond(self, capsys):
        code, out, _ = run(
            capsys,
            "series",
            "diamond",
            "--f",
            "1,1",
            "--g",
            "1,1",
            "--degree",
            "5",
        )
        assert code == 0
        assert out.strip() == "1, 1, 1, 1, 1, 1"

    @pytest.mark.parametrize("f, g", [("2,3", "1,1"), ("1,1", "0,1"), ("1/2,1", "1,2")])
    def test_diamond_refuses_a_constant_term_other_than_1(self, capsys, f, g):
        code, out, err = run(
            capsys, "series", "diamond", "--f", f, "--g", g, "--degree", "4"
        )
        assert (code, out) == (2, "")
        assert err == "error: the pairing product needs constant term 1\n"

    def test_total_positivity_ok(self, capsys):
        code, out, _ = run(
            capsys,
            "series",
            "total-positivity",
            "--coeffs",
            "1,2,4,8,16",
            "--max-weight",
            "4",
        )
        assert code == 0
        assert out.strip() == "ok"

    def test_total_positivity_violation(self, capsys):
        code, out, _ = run(
            capsys,
            "series",
            "total-positivity",
            "--coeffs",
            "1,1,1",
            "--max-weight",
            "3",
        )
        assert code == 1
        assert out.strip() == "violation at [1,1,1]: -1"

    @pytest.mark.parametrize(
        "coeffs, err",
        [
            ("1,,2", "error: malformed rational list '1,,2'\n"),
            ("1,1/0", "error: malformed rational list '1,1/0': Fraction(1, 0)\n"),
        ],
    )
    def test_malformed_coefficient_lists_are_usage_errors(self, capsys, coeffs, err):
        assert run(capsys, "series", "detect-rational", "--coeffs", coeffs) == (2, "", err)

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "series", "detect-rational")
        assert code == 2


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_bad_flag_value(self, capsys):
        code, _, _ = run(
            capsys, "predict", "--what", "sym", "--alphas", "1,1", "--degree", "x"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--symmetry", "std:r=2,q=2", "--what", "sym", "--degree", "-1"),
            ("compute", "--symmetry", "std:r=2,q=2", "--what", "sym", "--degree", "-3"),
            (
                "compute",
                "--symmetry",
                "std:r=2,q=2",
                "--what",
                "A:std:r=2,q=2",
                "--degree",
                "-1",
            ),
            ("verify", "--suite", "hilbert", "--symmetry", "std:r=2,q=2", "--nmax", "-2"),
            ("verify", "--suite", "positivity", "--symmetry", "std:r=2,q=2", "--max-weight", "-1"),
            ("predict", "--what", "sym", "--alphas", "1,1", "--degree", "-1"),
            ("series", "diamond", "--f", "1,1", "--g", "1,1", "--degree", "-1"),
            ("series", "total-positivity", "--coeffs", "1,1", "--max-weight", "-1"),
            ("series", "detect-rational", "--coeffs", "1,2,3", "--rmax", "-1"),
        ],
    )
    def test_negative_sizes_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be non-negative" in err

    @pytest.mark.parametrize(
        "argv, file_text, message",
        [
            (("compute", "--symmetry", "std:r=2,q=1e-1000000", "--what", "sym"), None,
             "bad symmetry specifier 'std:r=2,q=1e-1000000': {}"),
            (("compute", "--symmetry", "super:1,1,q=1e300000", "--what", "sym"), None,
             "bad symmetry specifier 'super:1,1,q=1e300000': {}"),
            (("compute", "--symmetry", "file:q.hs", "--what", "sym"),
             "d = 1\nq = 1e-100000000\n2\n", "line 3: bad q: {}"),
            (("compute", "--symmetry", "file:entry.hs", "--what", "sym"),
             "d = 1\nq = 2\n1e-10000000\n", "line 4: bad entry: {}"),
            (("predict", "--what", "sym", "--alphas", "1,1e-10000000"), None,
             "malformed rational list '1,1e-10000000': {}"),
            (("series", "detect-rational", "--coeffs", "1,2,1e10000000"), None,
             "malformed rational list '1,2,1e10000000': {}"),
        ],
    )
    def test_rationals_past_the_digit_limit_exit_2_at_once(
        self, capsys, tmp_path, monkeypatch, argv, file_text, message
    ):
        # Fraction expands an exponent without Python's limit on integer
        # digits: q=1e-300000 took 12.9 s, and 1e-1000000 ran past 60 s (one
        # shared 2-CPU machine, Python 3.11)
        monkeypatch.chdir(tmp_path)
        if file_text is not None:
            (tmp_path / argv[2].removeprefix("file:")).write_text("hecke-symmetry v1\n" + file_text)
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "error: " + message.format(
            f"rational literal expands past the limit of {limit} digits"
        ) + "\n"

    def test_zero_degree_is_allowed(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--symmetry", "std:r=2,q=2", "--what", "sym", "--degree", "0"
        )
        assert (code, out) == (0, "1\n")

    def test_huge_certificate_roots_finish(self, capsys):
        code, out, _ = run(
            capsys,
            "predict",
            "--what",
            "A",
            "--series",
            "1;1,-2000001,999999999999",
            "--alphas2",
            "1",
            "--degree",
            "4",
        )
        assert code == 0
        # pairing with 1/(1-t) returns the first series unchanged
        assert out.splitlines()[0] == (
            "1, 2000001, 3000004000002, 4000010000010000003, "
            "5000020000031000020000005"
        )


# every command with its help string and every flag it accepts; the help
# text is pinned by these invariants, not by its layout, which argparse
# changes across Python versions
COMMAND_HELP = {
    "predict": (
        "closed-form series from a certified rational presentation",
        {"--series", "--alphas", "--betas", "--series2", "--alphas2", "--betas2",
         "--degree", "--what"},
    ),
    "compute": (
        "exact dimensions from a concrete symmetry",
        {"--symmetry", "--degree", "--what"},
    ),
    "verify": (
        "run cross-validation suites",
        {"--suite", "--symmetry", "--symmetry2", "--nmax", "--max-weight", "--machine"},
    ),
    "series": (
        "series utilities: detection, pairing product, positivity",
        {"--coeffs", "--f", "--g", "--degree", "--max-weight", "--rmax"},
    ),
}


def help_text(capsys, monkeypatch, *argv):
    """stdout of ``--help`` at 80 columns, with its whitespace collapsed."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.err) == (0, "")
    return " ".join(captured.out.split())


class TestHelp:
    def test_top_level_lists_every_command_with_its_help(self, capsys, monkeypatch):
        out = help_text(capsys, monkeypatch)
        assert out.startswith("usage: heckeseries ")
        assert "{predict,compute,verify,series}" in out
        for command, (summary, _) in COMMAND_HELP.items():
            assert f" {command} {summary} " in out + " ", command

    @pytest.mark.parametrize("command", sorted(COMMAND_HELP))
    def test_subcommand_names_every_flag(self, capsys, monkeypatch, command):
        out = help_text(capsys, monkeypatch, command)
        assert out.startswith(f"usage: heckeseries {command} ")
        assert set(re.findall(r"--[a-z0-9-]+", out)) == COMMAND_HELP[command][1] | {"--help"}
        # choices are spelled out: verify's suites, the series actions
        if command == "verify":
            assert "{" + ",".join((*verify.SUITES, "all")) + "}" in out
        if command == "series":
            assert "{detect-rational,diamond,total-positivity}" in out


# symmetry files over the dimension cap: name -> (d, whether all d*d rows
# are written, each of d*d zeros)
CAP_FILES = {"zeros17.hs": (17, True), "head17.hs": (17, False), "head100.hs": (100, False)}


class TestTypedFailures:
    @pytest.mark.parametrize(
        "argv",
        [
            (
                "verify",
                "--suite",
                "positivity",
                "--symmetry",
                "std:r=2,q=2",
                "--max-weight",
                "40",
            ),
            ("series", "total-positivity", "--coeffs", "1,2,1", "--max-weight", "60"),
            ("verify", "--suite", "character", "--symmetry", "std:r=1,q=2", "--nmax", "40"),
            # refused before the operand is padded to the weight
            ("series", "total-positivity", "--coeffs", "1,1", "--max-weight", "1000000000"),
        ],
    )
    def test_schur_minor_weights_beyond_the_cap_exit_3_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == f"error: weight {argv[-1]} exceeds cap {WEIGHT_CAP}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("series", "diamond", "--f", "1,2", "--g", "1,3", "--degree", str(ORDER_CAP + 1)),
            # refused before the operands are padded to the degree
            ("series", "diamond", "--f", "1,1", "--g", "1,1", "--degree", "1000000000"),
            ("predict", "--what", "A", "--alphas", "1", "--alphas2", "1",
             "--degree", str(ORDER_CAP + 1)),
        ],
    )
    def test_pairing_product_orders_beyond_the_cap_exit_3_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == f"error: series order {argv[-1]} exceeds cap {ORDER_CAP}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # a random integer unit series against another: 1.5-1.9 s
            ("series", "diamond", "--f", "random", "--g", "random"),
            # the closed bench job's certificate pair: 1.7 s
            ("predict", "--what", "A", "--alphas", "1,3", "--betas", "1",
             "--alphas2", "3", "--betas2", "1"),
        ],
    )
    def test_pairing_product_at_the_cap_order(self, capsys, argv):
        # times measured in-process on a shared 2-CPU machine, Python 3.11
        rng = random.Random(1000)
        argv = [
            ",".join(["1"] + [str(rng.randint(-9, 9)) for _ in range(ORDER_CAP)])
            if a == "random" else a
            for a in argv
        ]
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv, "--degree", str(ORDER_CAP))
        assert time.perf_counter() - start < 6.0
        assert code == 0
        coeffs = out.splitlines()[0].split(", ")
        assert len(coeffs) == ORDER_CAP + 1
        code, low, _ = run(capsys, *argv, "--degree", "8")
        assert code == 0
        assert coeffs[:9] == low.splitlines()[0].split(", ")

    def test_diamond_at_the_weight_cap_is_fast(self, capsys):
        rng = random.Random(24)
        f, g = (
            ",".join(["1"] + [str(rng.randint(-9, 9)) for _ in range(WEIGHT_CAP)])
            for _ in range(2)
        )
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "series", "diamond", "--f", f, "--g", g, "--degree", str(WEIGHT_CAP)
        )
        assert time.perf_counter() - start < 1.5
        assert code == 0
        assert len(out.split(", ")) == WEIGHT_CAP + 1

    def test_total_positivity_at_the_weight_cap_is_fast(self, capsys):
        cert = BirankCertificate.from_polynomials(
            poly_from_roots([1, 2, 3]), poly_from_roots([1, 2])
        )
        coeffs = ",".join(str(c) for c in cert.symmetric_series(WEIGHT_CAP).coeffs)
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "series", "total-positivity", "--coeffs", coeffs,
            "--max-weight", str(WEIGHT_CAP),
        )
        assert time.perf_counter() - start < 0.75
        assert (code, out) == (0, "ok\n")

    def test_all_suites_check_the_weight_before_any_suite_runs(
        self, capsys, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("a suite ran before the weight check")

        for name in verify.SUITES:
            monkeypatch.setattr(verify, f"suite_{name}", refuse)
        code, out, err = run(
            capsys, "verify", "--suite", "all", "--symmetry", "std:r=2,q=2",
            "--max-weight", str(WEIGHT_CAP + 1),
        )
        assert (code, out) == (3, "")
        assert err == f"error: weight {WEIGHT_CAP + 1} exceeds cap {WEIGHT_CAP}\n"

    @pytest.mark.parametrize(
        "argv, power",
        [
            # verify's window max(nmax, d + 2) = 7 is refused, not shrunk
            # until detection fails
            *(
                (("verify", "--suite", suite, "--symmetry", "std:r=5,q=2",
                  "--nmax", "3"), "5**7")
                for suite in ("hilbert", "character", "positivity")
            ),
            # validation works on V⊗3
            (("compute", "--symmetry", "std:r=17,q=2", "--what", "sym",
              "--degree", "1"), "17**3"),
            # a file's d is refused on line 2, before any row is read: a
            # complete all-zero file and files that stop after the q line
            *(
                (("compute", "--symmetry", f"file:{name}", "--what", "sym",
                  "--degree", "1"), f"{d}**3")
                for name, (d, _) in CAP_FILES.items()
            ),
            # the check never builds d**n: 2**(10**9) took 9.6 s to refuse
            (("compute", "--symmetry", "std:r=2,q=2", "--what", "sym",
              "--degree", "1000000000"), "2**1000000000"),
            (("verify", "--suite", "hilbert", "--symmetry", "std:r=2,q=2",
              "--nmax", "1000000000"), "2**1000000000"),
            (("compute", "--symmetry", "std:r=2,q=2", "--what", "A:std:r=2,q=2",
              "--degree", "1000000000"), "4**1000000000"),
        ],
    )
    def test_dimension_cap_exits_3_before_any_work(
        self, capsys, tmp_path, monkeypatch, argv, power
    ):
        monkeypatch.chdir(tmp_path)
        name = argv[2].removeprefix("file:")
        if name in CAP_FILES:
            d, complete = CAP_FILES[name]
            rows = (" ".join(["0"] * d * d) + "\n") * (d * d) if complete else ""
            (tmp_path / name).write_text(f"hecke-symmetry v1\nd = {d}\nq = 2\n{rows}")
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == f"error: tensor power dimension {power} exceeds cap 4096\n"

    def test_mixed_quotient_degree_beyond_the_cap_exits_3_in_bounded_memory(self):
        # a slot list of length 10**9 ended in MemoryError under a 1.5 GB
        # address-space limit; the child lowers its own limit to 1 GB, so a
        # blow-up stays out of the test run
        child = (
            "import resource, sys\n"
            "soft, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "cap = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "from heckeseries.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", child, "compute", "--symmetry", "std:r=2,q=2",
             "--what", "quotient:[1000000000];[]"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=30,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "error: tensor power dimension 2**1000000000 exceeds cap 4096\n"

    def test_dense_validation_beyond_the_work_cap_exits_3_at_once(self, capsys, tmp_path):
        # (g⊗g) R (g⊗g)^-1 for R = std:r=8,q=2 and g = I + J, J all ones,
        # whose inverse is I - J/9: a valid symmetry with full columns, whose
        # validation took 6.6 s before the work cap (one shared 2-CPU
        # machine, Python 3.11); (d + 1)·g^-1 keeps the product integral
        d = 8
        g = [[1 + (i == j) for j in range(d)] for i in range(d)]
        g_inv = [[(d + 1) * (i == j) - 1 for j in range(d)] for i in range(d)]

        def kron(a):
            return [[a[i][k] * a[j][l] for k in range(d) for l in range(d)]
                    for i in range(d) for j in range(d)]

        def mul(x, y):
            cols = list(zip(*y))
            return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]

        m = [[int(x) for x in row] for row in build_standard(d, 2).matrix]
        dense = mul(mul(kron(g), m), kron(g_inv))
        rows = "".join(" ".join(f"{x}/{(d + 1) ** 2}" for x in row) + "\n" for row in dense)
        path = tmp_path / "dense8.hs"
        path.write_text(f"hecke-symmetry v1\nd = {d}\nq = 2\n{rows}")
        start = time.perf_counter()
        code, out, err = run(
            capsys, "compute", "--symmetry", f"file:{path}", "--what", "sym", "--degree", "1"
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            f"error: validation work bound 38084608 exceeds cap {VALIDATION_CAP}\n"
        )

    @pytest.mark.parametrize(
        "spec, bits, out",
        [
            # validating std16 with 14281-bit integers took 5.4 s (one
            # shared 2-CPU machine, Python 3.11); from the file written by
            # serialize_symmetry too
            ("std:r=16,q=1e-4299", 14281, ""),
            ("file:big16.hs", 14281, ""),
            ("std:r=2,q=1/" + str(2**BIT_LENGTH_CAP), BIT_LENGTH_CAP + 1, ""),
            # at the cap itself, and far below it, symmetries run as before
            ("std:r=2,q=1/" + str(2 ** (BIT_LENGTH_CAP - 1)), None, "1, 2, 3\n"),
            ("std:r=16,q=2", None, "1, 16, 136\n"),
        ],
    )
    def test_symmetries_past_the_bit_length_cap_exit_3_at_once(
        self, capsys, tmp_path, monkeypatch, spec, bits, out
    ):
        monkeypatch.chdir(tmp_path)
        if spec.startswith("file:"):
            with monkeypatch.context() as m:
                m.setattr(rmatrix, "BIT_LENGTH_CAP", 10**5)
                m.setattr(rmatrix, "_validate", lambda sym: None)
                text = serialize_symmetry(build_standard(16, "1e-4299"))
            (tmp_path / "big16.hs").write_text(text)
        start = time.perf_counter()
        code, stdout, err = run(
            capsys, "compute", "--symmetry", spec, "--what", "sym", "--degree", "2"
        )
        assert time.perf_counter() - start < 1.0
        refusal = f"error: symmetry bit length {bits} exceeds cap {BIT_LENGTH_CAP}\n"
        assert (code, stdout, err) == ((0, out, "") if bits is None else (3, "", refusal))

    @pytest.mark.parametrize(
        "argv, degree",
        [
            # d = 1: d**n never exceeds the dimension cap, the degree does
            (("compute", "--symmetry", "std:r=1,q=2", "--what", "A:std:r=1,q=2",
              "--degree", "200000"), 200000),
            (("compute", "--symmetry", "std:r=1,q=2", "--what", "A:std:r=1,q=2",
              "--degree", "50000"), 50000),
            (("compute", "--symmetry", "std:r=1,q=2", "--what", "sym",
              "--degree", "1000000"), 1000000),
            (("verify", "--suite", "hilbert", "--symmetry", "std:r=1,q=2",
              "--nmax", "10000"), 10000),
        ],
    )
    def test_tensor_degrees_beyond_the_cap_exit_3_at_once(self, capsys, argv, degree):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == f"error: tensor degree {degree} exceeds cap {ORDER_CAP}\n"

    @pytest.mark.parametrize(
        "what, tail",
        [("sym", "1"), ("ext", "0"), ("A:std:r=1,q=2", "1"), ("E:std:r=1,q=2", "0")],
    )
    def test_cap_tensor_degree_itself_is_allowed(self, capsys, what, tail):
        code, out, _ = run(
            capsys, "compute", "--symmetry", "std:r=1,q=2", "--what", what,
            "--degree", str(ORDER_CAP),
        )
        assert (code, out) == (0, ", ".join(["1", "1"] + [tail] * (ORDER_CAP - 1)) + "\n")

    @pytest.mark.parametrize(
        "argv, degree",
        [
            (("--what", "sym", "--alphas", ",".join(map(str, range(1, 41)))), 40),
            (("--what", "ext", "--alphas", "1", "--betas", ",".join(["2"] * 17)), 17),
            (("--what", "sym", "--series", "1;" + ",".join(["1"] * 30)), 29),
            (("--what", "A", "--alphas", "1",
              "--series2", ",".join(["1"] * 18) + ";1"), 17),
        ],
    )
    def test_certificate_degrees_beyond_the_cap_exit_3_at_once(
        self, capsys, argv, degree
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "predict", *argv, "--degree", "2")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        message = f"certificate degree {degree} exceeds cap {CERTIFICATE_CAP}"
        assert err == f"error: {message}\n"

    def test_cap_degree_certificate_with_huge_roots_is_fast(self, capsys):
        roots = ",".join(str(10**9 + i) for i in range(CERTIFICATE_CAP))
        start = time.perf_counter()
        code, out, _ = run(capsys, "predict", "--what", "sym", "--alphas", roots,
                           "--degree", "2")
        assert time.perf_counter() - start < 0.5
        assert code == 0
        assert out.splitlines()[1] == f"birank: ({CERTIFICATE_CAP}, 0)"

    def test_cap_certificate_degree_itself_is_allowed(self, capsys):
        roots = ",".join(map(str, range(1, CERTIFICATE_CAP + 1)))
        code, out, _ = run(capsys, "predict", "--what", "sym", "--alphas", roots,
                           "--degree", "1")
        assert code == 0
        assert out.splitlines()[:2] == [
            f"1, {CERTIFICATE_CAP * (CERTIFICATE_CAP + 1) // 2}",
            f"birank: ({CERTIFICATE_CAP}, 0)",
        ]

    @pytest.mark.parametrize(
        "length, argv, message",
        [
            # the default r_max is half the truncation order: 119 // 2
            (120, (), f"recurrence order 59 exceeds cap {DETECTION_CAP}"),
            (120, ("--rmax", str(DETECTION_CAP + 1)),
             f"recurrence order {DETECTION_CAP + 1} exceeds cap {DETECTION_CAP}"),
            (ORDER_CAP + 2, ("--rmax", "2"),
             f"series order {ORDER_CAP + 1} exceeds cap {ORDER_CAP}"),
        ],
    )
    def test_detection_beyond_the_cap_exits_3_at_once(
        self, capsys, length, argv, message
    ):
        coeffs = ",".join(str(n * n + 1) for n in range(length))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "series", "detect-rational", "--coeffs", coeffs, *argv
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_default_detection_up_to_the_cap_is_allowed(self, capsys):
        # 2 * DETECTION_CAP + 2 coefficients give the default r_max = DETECTION_CAP
        coeffs = ",".join(str(n + 1) for n in range(2 * DETECTION_CAP + 2))
        code, out, _ = run(capsys, "series", "detect-rational", "--coeffs", coeffs)
        assert (code, out) == (0, "num=1; den=1,-2,1\n")

    def test_detection_on_big_coefficients_at_the_cap_is_fast(self, capsys):
        # one Berlekamp-Massey pass stops once its length passes r_max:
        # about 1 s here, where a solve per order took 35-53 s
        rng = random.Random(1024)
        coeffs = ",".join(str(rng.getrandbits(1024)) for _ in range(60))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "series", "detect-rational", "--coeffs", coeffs,
            "--rmax", str(DETECTION_CAP),
        )
        assert time.perf_counter() - start < 10.0
        assert (code, out, err) == (1, "inconclusive at truncation order 59\n", "")

    @pytest.mark.parametrize("what", ["sym", "ext"])
    def test_expansion_orders_beyond_the_cap_exit_3_at_once(self, capsys, what):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "predict", "--what", what, "--alphas", "1,1", "--degree", "100000"
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == f"error: series order 100000 exceeds cap {ORDER_CAP}\n"

    def test_cap_order_itself_is_allowed(self, capsys):
        code, out, _ = run(
            capsys, "predict", "--what", "sym", "--alphas", "1,1",
            "--degree", str(ORDER_CAP),
        )
        assert code == 0
        assert out.splitlines()[0] == ", ".join(str(n + 1) for n in range(ORDER_CAP + 1))

    def test_cap_weight_itself_is_allowed(self, capsys):
        code, out, _ = run(
            capsys, "series", "diamond", "--f", "1,1", "--g", "1,1",
            "--degree", str(WEIGHT_CAP),
        )
        assert code == 0
        assert out == ", ".join(["1"] * (WEIGHT_CAP + 1)) + "\n"

    def test_disagreeing_routes_end_in_an_error_not_a_traceback(
        self, capsys, monkeypatch
    ):
        # a wrong p_1 makes the exponential step's division by 2 inexact
        right = series._power_sums
        monkeypatch.setattr(
            series,
            "_power_sums",
            lambda h, order: [x + (k == 1) for k, x in enumerate(right(h, order))],
        )
        # integer roots, and golden-ratio roots that no root search splits
        for argv in (
            ("--alphas", "1,1", "--alphas2", "1,1", "--degree", "4"),
            ("--series", "1;1,-3,1", "--alphas2", "1"),
        ):
            code, out, err = run(capsys, "predict", "--what", "A", *argv)
            assert (code, out) == (1, "")
            assert err == "error: power sums give a non-integral h_2\n"
