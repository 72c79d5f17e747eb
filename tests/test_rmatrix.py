"""Concrete symmetries: builders, validation, the matrix-free braid
generator, and the graded dimension engines.  The operator oracle here is a
dense Kronecker embedding built independently in the test module."""

import itertools
import math
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles
import pytest

import heckeseries
from heckeseries import linalg, rmatrix, series, symfunc
from heckeseries.partitions import conjugate, partition_pairs, weight
from heckeseries.rmatrix import (
    BIT_LENGTH_CAP,
    DIMENSION_CAP,
    VALIDATION_CAP,
    BraidViolation,
    CapExceeded,
    FileFormatError,
    HeckeSymmetry,
    HeckeViolation,
    SymmetryError,
    _times,
    _validation_steps,
    build_standard,
    build_super,
    dim_e_component,
    dim_intertwiner,
    dim_quotient,
    exterior_dims,
    load_and_validate,
    load_symmetry_file,
    parse_symmetry_text,
    serialize_symmetry,
    symmetric_dims,
)


def binomial(n, k):
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def identity(n):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def kron(a, b):
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    return [
        [a[i][j] * b[k][l] for j in range(ca) for l in range(cb)]
        for i in range(ra)
        for k in range(rb)
    ]


def embed_dense(sym, n, pos):
    """I^(pos-1) x R x I^(n-pos-1) as an explicit matrix."""
    mat = [list(row) for row in sym.matrix]
    left = identity(sym.d ** (pos - 1))
    right = identity(sym.d ** (n - pos - 1))
    return kron(kron(left, mat), right)


def mat_vec(m, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in m]


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


class TestBuilders:
    def test_standard_rank_one_is_scalar(self):
        sym = build_standard(1, 2)
        assert sym.d == 1
        assert sym.matrix == ((Fraction(2),),)
        assert sym.source == "standard"

    def test_standard_rank_two_entries(self):
        sym = build_standard(2, 2)
        q = Fraction(2)
        # columns indexed by (i,j), rows by (k,l); basis order 11,12,21,22:
        # e1e2 -> e2e1, e2e1 -> q e1e2 + (q-1) e2e1, diagonal scales by q
        expected = [
            [q, 0, 0, 0],
            [0, 0, q, 0],
            [0, 1, q - 1, 0],
            [0, 0, 0, q],
        ]
        assert sym.matrix == tuple(tuple(Fraction(x) for x in r) for r in expected)

    def test_standard_satisfies_quadratic_identity_matrixwise(self):
        for r, q in [(2, 2), (3, 2), (2, Fraction(1, 2)), (2, -1)]:
            sym = build_standard(r, q)
            dd = r * r
            m = [list(row) for row in sym.matrix]
            lhs = mat_mul(
                [[m[i][j] - q * (i == j) for j in range(dd)] for i in range(dd)],
                [[m[i][j] + (i == j) for j in range(dd)] for i in range(dd)],
            )
            assert all(x == 0 for row in lhs for x in row)

    def test_super_reduces_to_standard_when_all_even(self):
        for r in range(1, 6):
            for q in (2, Fraction(3, 2), -1, 1, Fraction(-1, 2)):
                std = build_standard(r, q)
                assert build_super(r, 0, q).matrix == std.matrix
                assert std.source == "standard"

    def test_super_single_odd_is_minus_one(self):
        sym = build_super(0, 1, 1)
        assert sym.d == 1
        assert sym.matrix == ((Fraction(-1),),)

    def test_super_one_one_entries(self):
        sym = build_super(1, 1, 1)
        assert sym.source == "super"
        # mixed pairs swap with a plus sign; the odd-odd diagonal gets -1
        expected = [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, -1],
        ]
        assert sym.matrix == tuple(tuple(Fraction(x) for x in r) for r in expected)

    def test_nilpotent_square_at_minus_one(self):
        mat = build_standard(2, -1).matrix
        m = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(mat)]
        assert all(x == 0 for row in mat_mul(m, m) for x in row)

    def test_builder_argument_validation(self):
        with pytest.raises(ValueError):
            build_standard(0, 2)
        with pytest.raises(ValueError):
            build_standard(2, 0)
        with pytest.raises(ValueError):
            build_super(0, 0, 2)


class TestValidation:
    def test_accepts_builder_matrices(self):
        sym = load_and_validate(2, 2, build_standard(2, 2).matrix)
        assert sym.source == "user"

    def test_scalar_accepted(self):
        sym = load_and_validate(1, 1, [[-1]])
        assert sym.q == 1

    def test_braid_violation_with_witness(self):
        matrix = [
            [2, 0, 0, 0],
            [0, -1, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, 2],
        ]
        with pytest.raises(BraidViolation) as info:
            load_and_validate(2, 2, matrix)
        assert info.value.witness == (1, 1, 2)
        assert isinstance(info.value, SymmetryError)

    def test_hecke_violation_with_witness(self):
        # the plain swap fails (R - 2)(R + 1) = 0 immediately
        swap = [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ]
        with pytest.raises(HeckeViolation) as info:
            load_and_validate(2, 2, swap)
        assert info.value.witness == (1, 1)

    def test_shape_and_q_validation(self):
        with pytest.raises(ValueError):
            load_and_validate(2, 2, [[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            load_and_validate(1, 0, [[1]])

    def test_dimension_must_be_positive(self):
        # d = -1 and d = 0 give a 1x1 and a 0x0 matrix of the right shape
        for d, matrix in ((-1, [[2]]), (0, [])):
            with pytest.raises(ValueError, match="dimension must be at least 1"):
                load_and_validate(d, 2, matrix)
            with pytest.raises(FileFormatError) as info:
                parse_symmetry_text(
                    f"hecke-symmetry v1\nd = {d}\nq = 2\n"
                    + "".join(" ".join(map(str, row)) + "\n" for row in matrix)
                )
            assert info.value.line == 2
            assert "dimension must be at least 1" in str(info.value)


def braid_generator(sym, n, pos, vec):
    """The braid generator at slots (pos, pos+1) of the n-th tensor power,
    as a column operator through the sparse integer apply: R = M/s."""
    stride = sym.d ** (n - pos - 1)
    block = stride * sym.d**2
    op = [
        [(x - x % block + x % stride + r * stride, m) for r, m in sym.cols[x % block // stride]]
        for x in range(sym.d**n)
    ]
    out = _times(op, {x: int(v) for x, v in enumerate(vec) if v})
    return [Fraction(out.get(x, 0), sym.s) for x in range(len(vec))]


def seeded_conjugate(sym, seed):
    """(g⊗g) R (g⊗g)^-1 for a seeded unit lower-triangular g with
    fractional entries, as Fraction rows: a dense fractional user matrix."""
    rng = random.Random(seed)
    d = sym.d
    g, g_inv = identity(d), identity(d)
    for i in range(d):
        for j in range(i):
            g[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            # forward substitution: row i of g^-1 from the rows above it
            g_inv[i] = [x - g[i][j] * y for x, y in zip(g_inv[i], g_inv[j])]
    gg, gg_inv = kron(g, g), kron(g_inv, g_inv)
    assert mat_mul(gg, gg_inv) == identity(d * d)
    return mat_mul(mat_mul(gg, [list(row) for row in sym.matrix]), gg_inv)


STORED_FORM_BUILDS = {
    "std1": lambda: build_standard(1, 2),
    "std2": lambda: build_standard(2, Fraction(3, 2)),
    "std3": lambda: build_standard(3, -1),
    "super11": lambda: build_super(1, 1, Fraction(1, 2)),
    "super21": lambda: build_super(2, 1, 3),
}


class TestStoredForm:
    @pytest.mark.parametrize("dense", [False, True], ids=["builtin", "dense"])
    @pytest.mark.parametrize("name", sorted(STORED_FORM_BUILDS))
    def test_int_fraction_and_string_rows_store_one_form(self, name, dense):
        sym = STORED_FORM_BUILDS[name]()
        rows = seeded_conjugate(sym, name) if dense else [list(row) for row in sym.matrix]
        assert not dense or sym.d == 1 or any(x.denominator > 1 for row in rows for x in row)
        # the same rows as Fractions, as ints where integral, and as strings
        # with zeros written "0" and non-integers unreduced, -1/2 as "-3/6"
        as_ints = [[int(x) if x.denominator == 1 else x for x in row] for row in rows]
        as_text = [
            [str(x) if x.denominator == 1 else f"{3 * x.numerator}/{3 * x.denominator}" for x in row]
            for row in rows
        ]
        forms = [load_and_validate(sym.d, sym.q, m) for m in (rows, as_ints, as_text)]
        s, cols = forms[0].s, forms[0].cols
        assert all((f.s, f.cols) == (s, cols) for f in forms)
        assert s == math.lcm(*(x.denominator for row in rows for x in row))
        assert len(cols) == sym.d**2
        for col in cols:
            assert all(type(m) is int and m for _, m in col)
            assert [r for r, _ in col] == sorted({r for r, _ in col})
        assert forms[0].matrix == tuple(map(tuple, rows))
        text = serialize_symmetry(forms[0])
        assert serialize_symmetry(parse_symmetry_text(text)) == text

    def test_entries_are_converted_before_zeros_drop(self):
        sym = load_and_validate(1, Fraction(-1, 2), [["-3/6"]])
        assert (sym.s, sym.cols) == (2, (((0, -1),),))
        with pytest.raises(ValueError, match="Invalid literal for Fraction: 'two'"):
            load_and_validate(1, 2, [["two"]])
        # zeros skip conversion, and the first bad entry in row order is
        # still the one reported
        rows = [[0, Fraction(0), "0", 0] for _ in range(4)]
        rows[1][2], rows[2][0] = "x", "y"
        with pytest.raises(ValueError, match="Invalid literal for Fraction: 'x'"):
            load_and_validate(2, 2, rows)

    def test_strings_past_the_digit_limit_are_refused_at_once(self):
        # Fraction("1e-3000000") alone takes over a second; every library
        # constructor reads strings through linalg.rational, so
        # parse_rational refuses it before expanding the exponent
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        huge = "1e-3000000"
        calls = {
            "build_standard q": lambda: build_standard(2, huge),
            "build_super q": lambda: build_super(1, 1, huge),
            "load_and_validate q": lambda: load_and_validate(1, huge, [[-1]]),
            "load_and_validate entry": lambda: load_and_validate(1, 2, [[huge]]),
            "TruncSeries": lambda: series.TruncSeries([1, huge]),
            "TruncSeries.scale_variable": lambda: series.TruncSeries([1]).scale_variable(huge),
            "RationalForm num": lambda: series.RationalForm([huge], [1]),
            "RationalForm den": lambda: series.RationalForm([1], [1, huge]),
            "poly_from_roots": lambda: series.poly_from_roots([huge]),
            "poly_trim": lambda: series.poly_trim([1, huge]),
            "poly_negate_t": lambda: series.poly_negate_t([1, huge]),
            "expand_ratio num": lambda: series.expand_ratio([huge], [1], 2),
            "expand_ratio den": lambda: series.expand_ratio([1], [1, huge], 2),
            "SymElement": lambda: symfunc.SymElement(1, "s", {(1,): huge}),
            "SymElement.scaled": lambda: symfunc.SymElement.unit().scaled(huge),
            "specialize_super alpha_poly": lambda: symfunc.specialize_super(
                symfunc.SymElement.unit(), alpha_poly=[1, huge]
            ),
        }
        for name, call in calls.items():
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"^rational literal expands past the limit of {limit} digits$"):
                call()
            assert time.perf_counter() - start < 1, name

    @pytest.mark.parametrize("q", [2, Fraction(1, 2), Fraction(3, 2), -1, Fraction(-5, 7), 1], ids=str)
    def test_builtins_write_the_stored_form_of_their_dense_rows(self, q):
        """The builtin's columns, written directly, are the dense reading of
        the same matrix: every parity pattern up to d = 4, and a few at 5."""
        patterns = [p for d in range(1, 5) for p in itertools.product((0, 1), repeat=d)]
        patterns += [(0,) * 5, (1,) * 5, (0, 1, 0, 1, 1), (1, 0, 0, 1, 0)]
        for parity in patterns:
            dense = load_and_validate(len(parity), q, oracles.deformed_swap_rows(parity, q))
            built = rmatrix._deformed_swap(parity, q, "twin")
            assert (built.s, built.cols) == (dense.s, dense.cols), parity

    def test_malformed_stored_forms_are_refused(self):
        """std2 at q = 2 with a column missing, a row out of range or listed
        twice, or s = 0: each would validate (a repeated row sums where
        ``matrix`` keeps the last entry, and 0·R passes every identity)."""
        cols = [[(0, 2)], [(2, 1)], [(1, 2), (2, 1)], [(3, 2)]]
        message = "^stored form: need integers, s >= 1, 4 columns, distinct rows below 4$"
        for s, bad in [
            (1, cols[:3]),
            (1, cols[:2] + [[(1, 2), (4, 1)], [(3, 2)]]),
            (1, cols[:2] + [[(-1, 2), (2, 1)], [(3, 2)]]),
            (1, cols[:2] + [[(1, 2), (2, 1), (2, 0)], [(3, 2)]]),
            (0, [[(0, 0)], [], [], []]),
        ]:
            with pytest.raises(ValueError, match=message):
                HeckeSymmetry(2, 2, s, bad)
        assert HeckeSymmetry(2, 2, 1, cols).cols == build_standard(2, 2).cols

    def test_stored_forms_of_non_integers_are_refused(self):
        """M and s are integers.  std2 at q = 3/2 written as R itself, with
        s = 1 and entries 3/2 or 1.5, or with a float s, would validate and
        then raise TypeError in the gcd of the first elimination; a float
        row is refused too."""
        sym = build_standard(2, "3/2")
        message = "^stored form: need integers, s >= 1, 4 columns, distinct rows below 4$"
        for s, cols in [
            (1, [[(r, Fraction(m, sym.s)) for r, m in col] for col in sym.cols]),
            (1, [[(r, m / sym.s) for r, m in col] for col in sym.cols]),
            (float(sym.s), sym.cols),
            (sym.s, [[(float(r), m) for r, m in col] for col in sym.cols]),
        ]:
            with pytest.raises(ValueError, match=message):
                HeckeSymmetry(2, "3/2", s, cols)
        assert HeckeSymmetry(2, "3/2", sym.s, sym.cols).cols == sym.cols


class TestValidationBound:
    @pytest.mark.parametrize("dense", [False, True], ids=["builtin", "dense"])
    @pytest.mark.parametrize("name", sorted(STORED_FORM_BUILDS))
    def test_bound_covers_the_steps_taken(self, monkeypatch, name, dense):
        sym = STORED_FORM_BUILDS[name]()
        rows = seeded_conjugate(sym, name) if dense else sym.matrix
        steps = []

        def counting_times(op, vec):
            steps.append(sum(len(op[k]) for k in vec))
            return _times(op, vec)

        monkeypatch.setattr(rmatrix, "_times", counting_times)
        built = load_and_validate(sym.d, sym.q, rows)
        assert 0 < sum(steps) <= _validation_steps(built.d, built.cols)

    def test_builtins_at_the_dimension_cap_pass(self):
        for sym in (build_standard(16, 2), build_super(8, 8, 2), build_super(0, 16, -1)):
            assert _validation_steps(sym.d, sym.cols) <= VALIDATION_CAP

    def test_refused_before_the_first_step(self, monkeypatch):
        sym = build_super(2, 1, 3)
        bound = _validation_steps(sym.d, sym.cols)

        def refuse(*args):
            raise AssertionError("validation started over the cap")

        monkeypatch.setattr(rmatrix, "VALIDATION_CAP", bound - 1)
        monkeypatch.setattr(rmatrix, "_times", refuse)
        with pytest.raises(
            CapExceeded, match=f"^validation work bound {bound} exceeds cap {bound - 1}$"
        ):
            load_and_validate(sym.d, sym.q, sym.matrix)
        monkeypatch.setattr(rmatrix, "_times", _times)
        monkeypatch.setattr(rmatrix, "VALIDATION_CAP", bound)
        assert load_and_validate(sym.d, sym.q, sym.matrix).cols == sym.cols


SPEC_FORMATS = {
    "std": "std specifier must be 'std:r=R,q=Q', got {!r}",
    "super": "super specifier must be 'super:r0,r1,q=Q', got {!r}",
}


class TestReadSymmetry:
    """The one specifier reader, called as a library function."""

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("2", "symmetry specifier '2' needs a 'std:', 'super:' or 'file:' prefix"),
            ("", "symmetry specifier '' needs a 'std:', 'super:' or 'file:' prefix"),
            ("std", "symmetry specifier 'std' needs a 'std:', 'super:' or 'file:' prefix"),
            ("foo:1", "unknown symmetry kind 'foo'"),
            (":", "unknown symmetry kind ''"),
            ("STD:r=2,q=2", "unknown symmetry kind 'STD'"),
            (" std:r=2,q=2", "unknown symmetry kind ' std'"),
            ("std:r=2", SPEC_FORMATS["std"]),
            ("std:r=2,q=2,x=1", SPEC_FORMATS["std"]),
            ("std:r=2,r=3", SPEC_FORMATS["std"]),
            ("std:r=2,q=2,", SPEC_FORMATS["std"]),
            ("std:r = 2,q=2", SPEC_FORMATS["std"]),
            ("super:1,1", SPEC_FORMATS["super"]),
            ("super:1,1,q=2,x", SPEC_FORMATS["super"]),
            ("super:1,1,x=2", SPEC_FORMATS["super"]),
            ("super:,,", SPEC_FORMATS["super"]),
            ("std:r=x,q=2", "bad symmetry specifier 'std:r=x,q=2': "
             "invalid literal for int() with base 10: 'x'"),
            ("std:r=2=3,q=2", "bad symmetry specifier 'std:r=2=3,q=2': "
             "invalid literal for int() with base 10: '2=3'"),
            ("super:a,1,q=2", "bad symmetry specifier 'super:a,1,q=2': "
             "invalid literal for int() with base 10: 'a'"),
            (" super: 1 , 1 , q= ", "unknown symmetry kind ' super'"),
            ("super: 1 , 1 , q= ", "bad symmetry specifier 'super: 1 , 1 , q= ': "
             "Invalid literal for Fraction: ''"),
            ("std:r=0,q=2", "bad symmetry specifier 'std:r=0,q=2': dimension must be at least 1"),
            ("std:r=2,q=0", "bad symmetry specifier 'std:r=2,q=0': "
             "the parameter q must be nonzero"),
            ("super:0,0,q=2", "bad symmetry specifier 'super:0,0,q=2': "
             "need r0, r1 >= 0 with r0 + r1 >= 1"),
            # the literal is read before the builder checks r
            ("std:r=0,q=1/0", "bad symmetry specifier 'std:r=0,q=1/0': Fraction(1, 0)"),
            ("std:r=2,q=1/0", "bad symmetry specifier 'std:r=2,q=1/0': Fraction(1, 0)"),
            ("std:r=2,q=1e-1000000", "bad symmetry specifier 'std:r=2,q=1e-1000000': "
             "rational literal expands past the limit of 4300 digits"),
        ],
    )
    def test_malformed_specifiers_raise_value_error(self, spec, message):
        if message in SPEC_FORMATS.values():
            message = message.format(spec)
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            rmatrix.read_symmetry(spec)
        assert time.perf_counter() - start < 1.0
        assert type(info.value) is ValueError
        assert str(info.value) == message

    def test_caps_pass_through_unwrapped(self):
        with pytest.raises(CapExceeded) as info:
            rmatrix.read_symmetry("std:r=17,q=2")
        assert str(info.value) == f"tensor power dimension 17**3 exceeds cap {DIMENSION_CAP}"
        with pytest.raises(CapExceeded, match="^symmetry bit length 1025 exceeds cap 1024$"):
            rmatrix.read_symmetry(f"std:r=2,q=1/{2**BIT_LENGTH_CAP}")

    def test_file_errors_pass_through_unwrapped(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            rmatrix.read_symmetry(f"file:{tmp_path / 'missing.hs'}")
        with pytest.raises(OSError):
            rmatrix.read_symmetry("file:")
        for name, rows, error in (
            ("braid.hs", [[2, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 2]], BraidViolation),
            ("hecke.hs", [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], HeckeViolation),
        ):
            path = tmp_path / name
            path.write_text("hecke-symmetry v1\nd = 2\nq = 2\n" + "".join(
                " ".join(map(str, row)) + "\n" for row in rows
            ))
            with pytest.raises(error):
                rmatrix.read_symmetry(f"file:{path}")
        path = tmp_path / "format.hs"
        path.write_text("hecke-symmetry v1\nd = x\nq = 2\n")
        with pytest.raises(FileFormatError, match="^line 2: bad dimension"):
            rmatrix.read_symmetry(f"file:{path}")

    def test_readme_specifiers_read_as_their_builders(self, tmp_path):
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        q = r"q=(-?\d+(?:/\d+)?)(?![\w./-])"
        cases = {
            spec: build_standard(int(r), Fraction(qv))
            for spec, r, qv in re.findall(rf"(?<![\w:])(std:r=(\d+),{q})", text)
        } | {
            spec: build_super(int(r0), int(r1), Fraction(qv))
            for spec, r0, r1, qv in re.findall(rf"(?<![\w:])(super:(\d+),(\d+),{q})", text)
        }
        assert {"std:r=2,q=-1", "super:1,1,q=1"} <= cases.keys()
        # spaces around the fields are stripped
        cases["std: q=2 , r=3 "] = build_standard(3, 2)
        cases["super: 2 , 1 , q=1/2"] = build_super(2, 1, Fraction(1, 2))
        path = tmp_path / "std2.hs"
        path.write_text(serialize_symmetry(build_standard(2, 3)))
        cases[f"file:{path}"] = load_symmetry_file(path)
        for spec, want in cases.items():
            got = rmatrix.read_symmetry(spec)
            assert (got.d, got.q, got.s, got.cols, got.source) == (
                want.d, want.q, want.s, want.cols, want.source
            ), spec


class TestBitLengthCap:
    def test_refused_before_validation(self, monkeypatch):
        def no_validation(sym):
            raise AssertionError("validation started before the bit check")

        monkeypatch.setattr(rmatrix, "_validate", no_validation)
        message = f"^symmetry bit length {{}} exceeds cap {BIT_LENGTH_CAP}$"
        big = Fraction(1, 2**BIT_LENGTH_CAP)
        # q, an entry, and s
        for q, matrix in ((big, [[-1]]), (2, [[1 / big]]), (2, [[big]])):
            with pytest.raises(CapExceeded, match=message.format(BIT_LENGTH_CAP + 1)):
                load_and_validate(1, q, matrix)
        # s is checked while the lcm grows: over these 65536 distinct
        # denominators the lcm alone ran past 30 s
        rows = [[Fraction(1, 2**100 + 2 * (i * 256 + j) + 1) for j in range(256)] for i in range(256)]
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=message.format(r"\d+")):
            load_and_validate(16, 2, rows)
        assert time.perf_counter() - start < 1.0


class TestTensorOperator:
    def test_matches_dense_embedding(self):
        rng = random.Random(2024)
        for sym in [build_standard(2, 2), build_super(1, 1, 1), build_standard(2, -1)]:
            for n in (2, 3, 4):
                dim = sym.d**n
                for pos in range(1, n):
                    dense = embed_dense(sym, n, pos)
                    for _ in range(5):
                        vec = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
                        assert braid_generator(sym, n, pos, vec) == mat_vec(dense, vec)

    def test_quadratic_relation_on_random_vectors(self):
        rng = random.Random(7)
        sym = build_standard(3, 2)
        n, dim = 3, 27
        for pos in (1, 2):
            for _ in range(20):
                v = [Fraction(rng.randint(-5, 5)) for _ in range(dim)]
                rv = braid_generator(sym, n, pos, v)
                rrv = braid_generator(sym, n, pos, rv)
                # (R_i - q)(R_i + 1) v = R_i^2 v - (q-1) R_i v - q v
                lhs = [
                    rrv[x] - (sym.q - 1) * rv[x] - sym.q * v[x]
                    for x in range(dim)
                ]
                assert all(x == 0 for x in lhs)

    def test_braid_relation_on_random_vectors(self):
        rng = random.Random(8)
        sym = build_super(1, 1, 2)
        n, dim = 3, 8

        def r(pos, v):
            return braid_generator(sym, n, pos, v)

        for _ in range(20):
            v = [Fraction(rng.randint(-5, 5)) for _ in range(dim)]
            assert r(1, r(2, r(1, v))) == r(2, r(1, r(2, v)))


class TestGradedDims:
    def test_standard_binomial_laws(self):
        for r in (1, 2, 3):
            for q in (Fraction(2), Fraction(1), Fraction(-1)):
                sym = build_standard(r, q)
                n_max = 4
                sdims = symmetric_dims(sym, n_max)
                edims = exterior_dims(sym, n_max)
                assert sdims == [binomial(n + r - 1, r - 1) for n in range(n_max + 1)]
                assert edims == [binomial(r, n) for n in range(n_max + 1)]

    def test_super_dims(self):
        sym = build_super(1, 1, 1)
        assert symmetric_dims(sym, 5) == [1, 2, 2, 2, 2, 2]
        assert exterior_dims(sym, 5) == [1, 2, 2, 2, 2, 2]

    def test_duality_product(self):
        from heckeseries.series import TruncSeries

        for sym in [build_standard(2, 2), build_super(1, 1, 2), build_standard(2, -1)]:
            n_max = 4
            s = TruncSeries(symmetric_dims(sym, n_max))
            e = TruncSeries(exterior_dims(sym, n_max))
            assert (s * e.negate_variable()).coeffs == TruncSeries.one(n_max).coeffs

    def test_dims_are_cached(self):
        sym = build_standard(2, 2)
        first = symmetric_dims(sym, 4)
        second = symmetric_dims(sym, 4)
        assert first == second
        assert sym._cache["dims", "sym", None] == first


class TestDimQuotient:
    def test_base_cases(self):
        sym = build_standard(2, 2)
        assert dim_quotient(sym, (), ()) == 1
        assert dim_quotient(sym, (1,), ()) == 2
        assert dim_quotient(sym, (), (1,)) == 2

    def test_pure_rows_and_columns(self):
        sym = build_standard(2, 2)
        assert dim_quotient(sym, (2,), ()) == 3
        assert dim_quotient(sym, (3,), ()) == 4
        assert dim_quotient(sym, (), (2,)) == 1
        assert dim_quotient(sym, (), (3,)) == 0
        assert dim_quotient(sym, (1, 1), ()) == 4

    def test_product_law(self):
        # dimension of the two-sided quotient factors over the parts
        for sym in [build_standard(2, 2), build_super(1, 1, 1)]:
            sdims = symmetric_dims(sym, 4)
            edims = exterior_dims(sym, 4)
            for n in range(0, 5):
                for lam, mu in partition_pairs(n):
                    expected = 1
                    for part in lam:
                        expected *= sdims[part]
                    for part in mu:
                        expected *= edims[part]
                    assert dim_quotient(sym, lam, mu) == expected, (lam, mu)

    def test_partition_validation(self):
        sym = build_standard(2, 2)
        with pytest.raises(ValueError):
            dim_quotient(sym, (1, 2), ())


class TestHomSpaces:
    def test_frozen_standard_pair(self):
        a = build_standard(2, 2)
        assert dim_intertwiner(a, a, 0) == 1
        assert dim_intertwiner(a, a, 1) == 4
        assert dim_intertwiner(a, a, 2) == 10
        assert dim_intertwiner(a, a, 3) == 20

    def test_scalar_pairs(self):
        a = build_standard(1, 2)
        assert [dim_intertwiner(a, a, n) for n in range(5)] == [1, 1, 1, 1, 1]

    def test_mixed_rank_pair(self):
        a = build_standard(2, 2)
        b = build_standard(1, 2)
        assert [dim_intertwiner(a, b, n) for n in range(5)] == [1, 2, 3, 4, 5]
        assert [dim_intertwiner(b, a, n) for n in range(5)] == [1, 2, 3, 4, 5]

    def test_super_pair(self):
        a = build_standard(1, 2)
        b = build_super(1, 1, 2)
        assert [dim_intertwiner(b, a, n) for n in range(5)] == [1, 2, 2, 2, 2]

    def test_q_mismatch_rejected(self):
        a = build_standard(2, 2)
        b = build_standard(2, 3)
        with pytest.raises(ValueError):
            dim_intertwiner(a, b, 2)
        with pytest.raises(ValueError):
            dim_e_component(a, b, 2)

    def test_e_component_values(self):
        a = build_standard(2, 2)
        assert [dim_e_component(a, a, n) for n in range(5)] == [1, 4, 6, 4, 1]
        b = build_standard(1, 2)
        assert [dim_e_component(b, b, n) for n in range(3)] == [1, 1, 0]

    def test_e_component_mixed_pair(self):
        a = build_standard(2, 2)
        b = build_standard(1, 2)
        # dual of 1/(1-t)^2 is (1+t)^2
        assert [dim_e_component(a, b, n) for n in range(4)] == [1, 2, 1, 0]

    def test_hom_dims_refuses_other_family_names(self):
        a = build_standard(2, 2)
        assert rmatrix.hom_dims(a, a, "A", 3) == [1, 4, 10, 20]
        assert rmatrix.hom_dims(a, a, "E", 3) == [1, 4, 6, 4]
        for kind in ("e", "a", "sym", "ext", ""):
            with pytest.raises(ValueError, match=f"^hom family must be 'A' or 'E', got {kind!r}$"):
                rmatrix.hom_dims(a, a, kind, 3)
        # checked before the q of the pair, and nothing is cached
        with pytest.raises(ValueError, match="^hom family must be 'A' or 'E'"):
            rmatrix.hom_dims(a, build_standard(2, 3), "sym", 3)
        assert sorted(key[1] for key in a._cache) == ["A", "A", "E", "E"]


class TestCaps:
    def test_symmetric_dims_cap(self):
        sym = build_standard(4, 2)
        with pytest.raises(CapExceeded):
            symmetric_dims(sym, 7)

    def test_quotient_cap(self):
        sym = build_standard(4, 2)
        with pytest.raises(CapExceeded):
            dim_quotient(sym, (7,), ())

    def test_intertwiner_cap(self):
        a = build_standard(2, 2)
        with pytest.raises(CapExceeded):
            dim_intertwiner(a, a, 7)

    def test_caps_are_checked_before_any_elimination(self, monkeypatch):
        sym = build_standard(4, 2)
        a = build_standard(2, 2)

        def no_elimination(ncols):
            raise AssertionError("elimination started before the cap check")

        monkeypatch.setattr(linalg, "Echelon", no_elimination)
        with pytest.raises(CapExceeded):
            symmetric_dims(sym, 7)
        with pytest.raises(CapExceeded):
            dim_quotient(sym, (7,), ())
        with pytest.raises(CapExceeded):
            dim_intertwiner(a, a, 7)

    def test_validation_is_capped_before_it_starts(self, monkeypatch):
        def no_validation(sym):
            raise AssertionError("validation started before the cap check")

        monkeypatch.setattr(rmatrix, "_validate", no_validation)
        message = r"^tensor power dimension 17\*\*3 exceeds cap 4096$"
        with pytest.raises(CapExceeded, match=message):
            build_standard(17, 2)
        with pytest.raises(CapExceeded, match=message):
            build_super(9, 8, 2)
        big = [[0] * 17**2 for _ in range(17**2)]
        with pytest.raises(CapExceeded, match=message):
            load_and_validate(17, 2, big)
        # 16**3 = 4096 sits exactly at the cap
        monkeypatch.setattr(rmatrix, "_validate", lambda sym: None)
        assert build_standard(16, 2).d == 16

    def test_cap_is_inclusive(self):
        sym = build_standard(2, 2)
        # 2**12 = 4096 sits exactly at the cap and must be allowed
        assert DIMENSION_CAP == 4096
        assert dim_quotient(sym, (12,), ()) == 13


@pytest.mark.parametrize(
    "overrun, message",
    [
        (
            lambda: symmetric_dims(build_standard(4, 2), 7),
            "tensor power dimension 4**7 exceeds cap 4096",
        ),
        (
            lambda: series.total_positivity(series.TruncSeries([1] * 26), 25),
            "weight 25 exceeds cap 24",
        ),
        (
            lambda: series.expand_ratio([1], [1, -1], 1001),
            "series order 1001 exceeds cap 1000",
        ),
        (
            lambda: symfunc.to_basis(symfunc.SymElement.generator("h", (15,)), "s"),
            "degree 15 exceeds cap 14",
        ),
        (
            lambda: build_standard(2, Fraction(1, 2**1024)),
            "symmetry bit length 1025 exceeds cap 1024",
        ),
    ],
    ids=["dimension", "weight", "order", "degree", "bits"],
)
def test_every_cap_raises_the_one_cap_error(overrun, message):
    assert rmatrix.CapExceeded is linalg.CapExceeded
    assert heckeseries.CapExceeded is linalg.CapExceeded
    with pytest.raises(linalg.CapExceeded) as caught:
        overrun()
    assert caught.type is linalg.CapExceeded
    assert str(caught.value) == message


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        sym = build_super(1, 1, Fraction(1, 2))
        text = serialize_symmetry(sym)
        back = parse_symmetry_text(text)
        assert back.d == sym.d
        assert back.q == sym.q
        assert back.matrix == sym.matrix
        assert back.source == "user"
        path = tmp_path / "sym.txt"
        path.write_text(text)
        assert load_symmetry_file(str(path)).matrix == sym.matrix

    def test_header_errors_carry_line_numbers(self):
        with pytest.raises(FileFormatError) as info:
            parse_symmetry_text("wrong header\nd = 1\nq = 1\n1\n")
        assert info.value.line == 1
        with pytest.raises(FileFormatError) as info:
            parse_symmetry_text("hecke-symmetry v1\nd = x\nq = 1\n1\n")
        assert info.value.line == 2
        with pytest.raises(FileFormatError) as info:
            parse_symmetry_text("hecke-symmetry v1\nd = 1\nq = zero\n1\n")
        assert info.value.line == 3
        with pytest.raises(FileFormatError) as info:
            parse_symmetry_text("hecke-symmetry v1\nd = 1\nq = 0\n1\n")
        assert info.value.line == 3
        assert str(info.value) == "line 3: the parameter q must be nonzero"

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("hecke-symmetry v1\n", 1, "missing d / q lines"),
            ("hecke-symmetry v1\nd = 1\n", 2, "missing d / q lines"),
            ("hecke-symmetry v1\nq = 1\nd = 1\n1\n", 2, "expected 'd = ...'"),
            ("hecke-symmetry v1\nd = 1\nr = 1\n1\n", 3, "expected 'q = ...'"),
            (
                "hecke-symmetry v1\nd = 2\nq = 2\n2 0 0 0\n0 0 1\n0 1 0 1\n0 0 0 2\n",
                5,
                "expected 4 entries, got 3",
            ),
        ],
        ids=["header-only", "no-q-line", "d-key", "q-key", "short-row"],
    )
    def test_format_errors_name_their_line(self, text, line, message):
        with pytest.raises(FileFormatError) as info:
            parse_symmetry_text(text)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"

    def test_entry_errors_carry_line_numbers(self):
        good = serialize_symmetry(build_standard(2, 2))
        lines = good.splitlines()
        lines[5] = "1 2 oops 4"
        with pytest.raises(FileFormatError) as info:
            parse_symmetry_text("\n".join(lines) + "\n")
        assert info.value.line == 6

    def test_each_distinct_entry_is_parsed_once(self, monkeypatch):
        # std16 writes 65536 entries, almost all of them "0"; with one parse
        # per entry, reading it took 0.18 s, against 0.05 s
        text = serialize_symmetry(build_standard(16, 2))
        tokens = set(" ".join(text.splitlines()[3:]).split())
        parse, calls = linalg.parse_rational, []
        monkeypatch.setattr(linalg, "parse_rational", lambda t: calls.append(t) or parse(t))
        assert parse_symmetry_text(text).matrix == build_standard(16, 2).matrix
        assert len(calls) <= len(tokens) + 1  # and q
        # a bad entry still raises at its first occurrence, in row order
        lines = serialize_symmetry(build_standard(2, 2)).splitlines()
        lines[4] = lines[5] = "0 oops 0 0"
        with pytest.raises(FileFormatError) as info:
            parse_symmetry_text("\n".join(lines) + "\n")
        assert info.value.line == 5

    def test_missing_rows_and_trailing_garbage(self):
        good = serialize_symmetry(build_standard(2, 2)).splitlines()
        with pytest.raises(FileFormatError):
            parse_symmetry_text("\n".join(good[:-1]) + "\n")
        with pytest.raises(FileFormatError):
            parse_symmetry_text("\n".join(good + ["extra"]) + "\n")
        # blank lines after the matrix are allowed, so the error names the
        # first nonblank one: line 7, not line 5
        text = "hecke-symmetry v1\nd = 1\nq = 2\n2\n\n  \njunk\n"
        with pytest.raises(FileFormatError, match="^line 7: unexpected trailing content$"):
            parse_symmetry_text(text)

    def test_parsed_matrix_is_validated(self):
        text = serialize_symmetry(build_standard(2, 2))
        # corrupt one entry so the braid check must fire
        broken = text.replace("1", "7", 1)
        with pytest.raises((SymmetryError, FileFormatError)):
            parse_symmetry_text(broken)
