"""Command-line interface.

Exit codes: 0 all requested checks passed; 1 a check failed or a prediction
was refused (inconclusive detection, failed certificate, rejected symmetry,
an exact step leaving a remainder); 2 usage or parse error; 3 resource cap
exceeded.
"""

from __future__ import annotations

import argparse
import gc
import sys
from fractions import Fraction

# partitions, rmatrix, series and verify are imported by the code that uses
# them: compute loads no series code, and predict and series no matrix code


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on bad input.  A parser made with ``fill`` calls
    fill(parser) to add its arguments when it first parses, so a subparser
    whose arguments need a module costs nothing unless its command runs."""

    def __init__(self, *args, fill=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill

    def parse_known_args(self, args=None, namespace=None):
        if self._fill is not None:
            fill, self._fill = self._fill, None
            fill(self)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise ValueError(message)


def _size(text: str) -> int:
    """argparse type of every degree and weight: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _certificate_from_flags(series_text, alphas, betas, suffix=""):
    from .series import (
        BirankCertificate,
        check_certificate_degree,
        parse_rationals,
        poly_from_roots,
        split_rational_form,
    )

    if series_text is not None:
        if alphas or betas:
            raise ValueError(f"give either --series{suffix} or root lists, not both")
        return BirankCertificate.from_form(*map(parse_rationals, split_rational_form(series_text)))
    if not alphas and not betas:
        raise ValueError(
            f"need --series{suffix} or at least one of "
            f"--alphas{suffix}/--betas{suffix}"
        )
    polys = []
    for roots in (alphas, betas):
        roots = parse_rationals(roots) if roots else ()
        check_certificate_degree(len(roots))
        polys.append(poly_from_roots(roots))
    return BirankCertificate.from_polynomials(*polys)


def cmd_predict(args) -> int:
    from .series import diamond, predict_hom_series

    cert = _certificate_from_flags(args.series, args.alphas, args.betas)
    certs = [("", cert)]
    if args.what in ("A", "E"):
        cert2 = _certificate_from_flags(
            args.series2, args.alphas2, args.betas2, suffix="2"
        )
        certs.append(("2", cert2))
        if args.what == "A":
            out = predict_hom_series(cert, cert2, args.degree)
        else:
            # 1/A(-t) is the pairing with the dual alphabet, so diamond's
            # print bound reads the printed series, not A
            sym, ext = cert.symmetric_series, cert2.exterior_series
            out = diamond(sym(args.degree), ext(args.degree), args.degree)
    elif args.what == "sym":
        out = cert.symmetric_series(args.degree)
    else:
        out = cert.exterior_series(args.degree)
    print(out.render())
    for suffix, c in certs:
        print(f"birank{suffix}: ({c.r0}, {c.r1})")
        print(f"certificate{suffix}: {c.render()}")
    return 0


def _parse_quotient_arg(rest: str):
    from .partitions import parse_partition

    parts = rest.split(";")
    if len(parts) != 2:
        raise ValueError(f"quotient wants 'quotient:[parts];[parts]', got {rest!r}")
    return parse_partition(parts[0]), parse_partition(parts[1])


def cmd_compute(args) -> int:
    from . import rmatrix

    sym = rmatrix.read_symmetry(args.symmetry)
    what = args.what
    n_max = args.degree
    if what == "sym":
        dims = rmatrix.symmetric_dims(sym, n_max)
    elif what == "ext":
        dims = rmatrix.exterior_dims(sym, n_max)
    elif what.startswith("quotient:"):
        lam, mu = _parse_quotient_arg(what[len("quotient:"):])
        print(rmatrix.dim_quotient(sym, lam, mu))
        return 0
    elif what.startswith(("A:", "E:")):
        dims = rmatrix.hom_dims(rmatrix.read_symmetry(what[2:]), sym, what[0], n_max)
    else:
        raise ValueError(f"unknown computation {what!r}")
    print(", ".join(str(v) for v in dims))
    return 0


def cmd_verify(args) -> int:
    from . import rmatrix, verify

    sym = rmatrix.read_symmetry(args.symmetry)
    sym2 = rmatrix.read_symmetry(args.symmetry2) if args.symmetry2 else sym
    reports = verify.run_suites(args.suite, sym, sym2, args.nmax, args.max_weight)
    blocks = [r.render_machine() if args.machine else r.render_human() for r in reports]
    print("\n".join(blocks))
    return 0 if all(r.passed for r in reports) else 1


def cmd_series(args) -> int:
    from . import series

    if args.action == "detect-rational":
        coeffs = series.parse_rationals(_require(args.coeffs, "--coeffs"))
        f = series.TruncSeries(coeffs)
        r_max = args.rmax if args.rmax is not None else max(0, f.order // 2)
        form = series.detect_rational(f, r_max)
        if form is None:
            print(f"inconclusive at truncation order {f.order}")
            return 1
        print(form.render())
        return 0
    # each cap is checked before the operands are padded to the size it bounds
    if args.action == "diamond":
        series.check_order(args.degree)
        f = _padded_series(_require(args.f, "--f"), args.degree)
        g = _padded_series(_require(args.g, "--g"), args.degree)
        print(series.diamond(f, g, args.degree).render())
        return 0
    if args.action == "total-positivity":
        series.check_weight(args.max_weight)
        f = _padded_series(_require(args.coeffs, "--coeffs"), args.max_weight)
        hit = series.total_positivity(f, args.max_weight)
        if hit is None:
            print("ok")
            return 0
        from .partitions import format_partition

        lam, value = hit
        print(f"violation at {format_partition(lam)}: {value}")
        return 1


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"{flag} is required for this action")
    return value


def _padded_series(text: str, order: int):
    """Coefficient lists on the command line denote polynomials: everything
    beyond the last given coefficient is an exact zero."""
    from .series import TruncSeries, parse_rationals

    coeffs = parse_rationals(text)
    if len(coeffs) < order + 1:
        coeffs = coeffs + [Fraction(0)] * (order + 1 - len(coeffs))
    return TruncSeries(coeffs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heckeseries",
        description=(
            "Exact Hilbert-series arithmetic for graded algebras built "
            "from Hecke symmetries."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    predict = sub.add_parser(
        "predict",
        help="closed-form series from a certified rational presentation",
        description=(
            "Input is either --series 'num;den' (ascending coefficients of "
            "f1(-t) and f0(t)) or explicit reciprocal-root lists --alphas/"
            "--betas. Output: the series, one coefficient list per line, "
            "then birank and certificate status."
        ),
    )
    predict.add_argument("--series", help="rational form 'num;den'")
    predict.add_argument("--alphas", help="comma list of denominator roots")
    predict.add_argument("--betas", help="comma list of numerator roots")
    predict.add_argument("--series2", help="second rational form (A/E)")
    predict.add_argument("--alphas2", help="second denominator roots (A/E)")
    predict.add_argument("--betas2", help="second numerator roots (A/E)")
    predict.add_argument("--degree", type=_size, default=12)
    predict.add_argument("--what", required=True, choices=("sym", "ext", "A", "E"))
    predict.set_defaults(func=cmd_predict)

    compute = sub.add_parser(
        "compute",
        help="exact dimensions from a concrete symmetry",
        description=(
            "Symmetries: std:r=R,q=Q | super:r0,r1,q=Q | file:PATH. "
            "--what sym|ext prints dimensions for degrees 0..N; "
            "quotient:[parts];[parts] prints one mixed-quotient dimension; "
            "A:SPEC2 / E:SPEC2 print hom-algebra dimensions against a "
            "second symmetry."
        ),
    )
    compute.add_argument("--symmetry", required=True)
    compute.add_argument("--degree", type=_size, default=4)
    compute.add_argument("--what", required=True)
    compute.set_defaults(func=cmd_compute)

    sub.add_parser(
        "verify",
        help="run cross-validation suites",
        description=(
            "Machine output: one check per line, 'name<TAB>lhs<TAB>rhs<TAB>"
            "pass|fail'; lines starting with # are notes."
        ),
        fill=_verify_arguments,
    )

    series_cmd = sub.add_parser(
        "series",
        help="series utilities: detection, pairing product, positivity",
        description=(
            "Coefficient lists are comma-separated exact rationals. For "
            "diamond and total-positivity the list denotes a polynomial "
            "(higher coefficients are exact zeros); detect-rational treats "
            "it as the known truncation window. diamond needs constant term "
            "1 in both operands; its --degree is capped at 1000, "
            "total-positivity's --max-weight at 24."
        ),
    )
    series_cmd.add_argument(
        "action", choices=("detect-rational", "diamond", "total-positivity")
    )
    series_cmd.add_argument("--coeffs")
    series_cmd.add_argument("--f")
    series_cmd.add_argument("--g")
    series_cmd.add_argument("--degree", type=_size, default=12)
    series_cmd.add_argument("--max-weight", type=_size, default=8)
    series_cmd.add_argument("--rmax", type=_size)
    series_cmd.set_defaults(func=cmd_series)
    return parser


def _verify_arguments(verify_cmd):
    from . import verify

    verify_cmd.add_argument(
        "--suite",
        required=True,
        choices=(*verify.SUITES, "all"),
    )
    verify_cmd.add_argument("--symmetry", required=True)
    verify_cmd.add_argument("--symmetry2")
    verify_cmd.add_argument("--nmax", type=_size, default=4)
    verify_cmd.add_argument("--max-weight", type=_size, default=8)
    verify_cmd.add_argument("--machine", action="store_true")
    verify_cmd.set_defaults(func=cmd_verify)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, AssertionError) as exc:
        # an error type can only be raised once its module is loaded, so
        # the modules are imported here, on the error path only
        from . import linalg, rmatrix, series

        refusals = (
            series.InconclusiveDetection,
            series.CertificateError,
            series.ConsistencyError,
        )
        for types, code, tag in (
            (rmatrix.SymmetryError, 1, "rejected"),
            (linalg.CapExceeded, 3, "error"),
            (refusals, 1, "error"),
            ((OSError, ValueError), 2, "error"),
        ):
            if isinstance(exc, types):
                print(f"{tag}: {exc}", file=sys.stderr)
                return code
        raise


def console_entry():
    code = main()
    # the interpreter's shutdown runs full collections over every tracked
    # object, and collections skip frozen ones.  main does not freeze: a
    # caller that runs it in-process goes on, and frozen objects are never
    # collected again
    gc.freeze()
    sys.exit(code)
