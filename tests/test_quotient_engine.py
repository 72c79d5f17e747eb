"""The degree-by-degree quotient engine against the full-ambient oracles in
``oracles.py``, on the builtins and on seeded dense conjugates.

Conjugating R by g⊗g for an invertible rational g gives a dense, fractional
"user" symmetry isomorphic to R, so every graded dimension must come out
the same as for the builtin it came from.

The library reads R only as sparse integer columns; the dense ``Fraction``
validator and conjugation matrix in ``oracles.py`` must reject the same
candidates with the same witness and give relation rows spanning the same
space.
"""

import itertools
import random
from fractions import Fraction

import oracles
import pytest

from heckeseries import linalg, rmatrix, verify
from heckeseries.cli import main
from heckeseries.partitions import partition_pairs
from heckeseries.rmatrix import (
    SymmetryError,
    build_standard,
    build_super,
    dim_e_component,
    dim_intertwiner,
    dim_quotient,
    exterior_dims,
    load_and_validate,
    symmetric_dims,
)

# (name, builder, deepest mixed-quotient degree cross-checked)
BUILTINS = [
    ("std2", lambda: build_standard(2, 2), 6),
    ("super11", lambda: build_super(1, 1, Fraction(1, 2)), 6),
    ("std3", lambda: build_standard(3, -1), 4),
    ("super21", lambda: build_super(2, 1, 2), 4),
]


def kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def mat_mul(a, b):
    return [
        [sum(x * b[k][j] for k, x in enumerate(row) if x) for j in range(len(b[0]))]
        for row in a
    ]


def random_invertible(n, rng):
    """(g, g^-1) for a random invertible rational n×n matrix g."""
    while True:
        g = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        unit = [[int(i == j) for i in range(n)] for j in range(n)]
        cols = [oracles.oracle_solve_square(g, e) for e in unit]
        if None not in cols:
            return g, [list(row) for row in zip(*cols)]


def conjugate_rows(d, rows, rng):
    """(g⊗g) R (g⊗g)^-1 for a d²×d² matrix R and a random invertible
    rational g.  For d ≥ 2, g is redrawn until it has no zero entry, so it is
    not monomial: a diagonal g conjugates a deformed swap to itself."""
    g, g_inv = random_invertible(d, rng)
    while d >= 2 and not all(map(all, g)):
        g, g_inv = random_invertible(d, rng)
    return mat_mul(mat_mul(kron(g, g), [list(r) for r in rows]), kron(g_inv, g_inv))


def dense_conjugate(sym, rng):
    """A g⊗g conjugate of sym, read as a user matrix.  It differs from sym
    unless R commutes with every g⊗g: a scalar (d = 1), or ± the plain swap
    (std or super:0,r at q = 1)."""
    d = sym.d
    dense = load_and_validate(d, sym.q, conjugate_rows(d, sym.matrix, rng))
    swap = tuple(tuple(int(r == c % d * d + c // d) for c in range(d * d)) for r in range(d * d))
    if d > 1 and sym.matrix not in (swap, tuple(tuple(-x for x in row) for row in swap)):
        assert dense.matrix != sym.matrix, sym
    return dense


# The Hecke symmetry R = q + 2Ω of the bilinear form W = [[0, 2], [-1, 0]]
# at q = 4 (Ω = ωβ, ω = Σ W_ij e_i⊗e_j, β(e_k⊗e_l) = (W^-1)_kl): no conjugate
# of a deformed swap, and with no more nonzeros than one, so it gets no twin
FORM = [[4, 0, 0, 0], [0, 0, 2, 0], [0, 2, 3, 0], [0, 0, 0, 4]]


def test_free_algebra_without_relations():
    assert rmatrix._graded_quotient_dims(3, (), 5) == [1, 3, 9, 27, 81, 243]
    assert rmatrix._graded_quotient_dims(3, (), 0) == [1]


@pytest.mark.parametrize("dense", [False, True], ids=["builtin", "dense"])
@pytest.mark.parametrize("name,build,n_max", BUILTINS, ids=[b[0] for b in BUILTINS])
def test_mixed_quotients_match_spanning_set(name, build, n_max, dense):
    sym = build()
    if dense:
        sym = dense_conjugate(sym, random.Random(name))
    for n in range(n_max + 1):
        for lam, mu in partition_pairs(n):
            assert dim_quotient(sym, lam, mu) == oracles.quotient_dim(sym, lam, mu), (
                lam,
                mu,
            )


@pytest.mark.parametrize("name,build,n_max", BUILTINS, ids=[b[0] for b in BUILTINS])
def test_dense_conjugates_keep_chain_dims(name, build, n_max):
    sym = build()
    dense = dense_conjugate(sym, random.Random(name))
    assert dense.source == "user" and dense.matrix != sym.matrix
    assert symmetric_dims(dense, n_max) == symmetric_dims(sym, n_max)
    assert exterior_dims(dense, n_max) == exterior_dims(sym, n_max)


# (even, odd) basis vectors of the builtins whose dense conjugates must come
# back as the builtin itself
TWIN_BIRANKS = [(2, 0), (3, 0), (4, 0), (1, 1), (2, 1), (1, 2), (0, 2), (2, 2)]


@pytest.mark.parametrize("q", [2, Fraction(1, 2), Fraction(3, 2), -1], ids=str)
@pytest.mark.parametrize("r0,r1", TWIN_BIRANKS, ids=[f"super{r0}{r1}" for r0, r1 in TWIN_BIRANKS])
def test_the_twin_of_a_dense_conjugate_is_the_builtin(r0, r1, q):
    """At q = -1 parity is read from the pairs alone, and a single odd
    vector gives the matrix of an even one.  A conjugator that keeps the
    builtin's nonzero count tries no twin, so the first check keeps the
    case from passing on R itself."""
    builtin = build_super(r0, r1, q)
    dense = dense_conjugate(builtin, random.Random(f"twin super{r0}{r1} at {q}"))
    assert dense._twin is not dense
    assert dense._twin.cols == builtin.cols and dense._twin.s == builtin.s


def test_odd_vectors_before_even_ones_give_a_valid_twin():
    """The twin keeps the order of g's columns, so its odd vectors may come
    first: every parity order builds a Hecke symmetry, and a dense conjugate
    of one comes back as it."""
    rng = random.Random("parity orders")
    for parity in itertools.chain(*(itertools.product((0, 1), repeat=d) for d in (2, 3))):
        for q in (2, Fraction(1, 2), -1):
            swap = rmatrix._deformed_swap(parity, q, "twin")
            dense = dense_conjugate(swap, rng)
            assert dense._twin is not dense and dense._twin.cols == swap.cols, (parity, q)


HOM_PAIRS = [
    ("std2", "std2"),
    ("std2", "std1"),
    ("std1", "std2"),
    ("super11", "std2"),
    ("super11", "super11"),
    ("std3", "std1"),
]
HOM_SYMS = {
    "std1": lambda: build_standard(1, 2),
    "std2": lambda: build_standard(2, 2),
    "std3": lambda: build_standard(3, 2),
    "super11": lambda: build_super(1, 1, 2),
}


@pytest.mark.parametrize("target,source", HOM_PAIRS, ids=["x".join(p) for p in HOM_PAIRS])
def test_hom_dims_match_oracles_and_survive_conjugation(target, source):
    a, b = HOM_SYMS[target](), HOM_SYMS[source]()
    rng = random.Random(target + source)
    a_dense, b_dense = dense_conjugate(a, rng), dense_conjugate(b, rng)
    for n in range(5):
        hom = dim_intertwiner(a, b, n)
        dual = dim_e_component(a, b, n)
        assert hom == oracles.intertwiner_dim(a, b, n), n
        assert dual == oracles.e_component_dim(a, b, n), n
        assert dim_intertwiner(a_dense, b_dense, n) == hom, n
        assert dim_e_component(a_dense, b_dense, n) == dual, n
    assert oracles.e_component_dim(a_dense, b_dense, 4) == dim_e_component(a, b, 4)


def rejection(check, *args):
    """(type, witness, message) of the SymmetryError raised, or None."""
    try:
        check(*args)
    except SymmetryError as exc:
        return type(exc), exc.witness, str(exc)
    return None


@pytest.mark.parametrize("name,build,n_max", BUILTINS, ids=[b[0] for b in BUILTINS])
def test_validator_rejects_like_the_dense_oracle(name, build, n_max, monkeypatch):
    """Builtins and dense conjugates, each as given, with one entry
    perturbed, and conjugated by a random G on V⊗V (which keeps the
    quadratic relation but not, in general, the braid identity); and a
    builtin perturbed at row (i,j), column (k,l) with i ≠ k and j ≠ l, then
    conjugated densely: both partial traces keep their values, so g is found,
    but R·(g⊗g) = (g⊗g)·B fails, no twin is kept, and the rejection must be
    that of the candidate as given."""
    rng = random.Random("reject" + name)
    sym = build()
    seen = set()
    for base in (sym, dense_conjugate(sym, rng)):
        mat = [list(row) for row in base.matrix]
        dd = len(mat)
        candidates = [mat]
        for _ in range(3):
            bad = [list(row) for row in mat]
            step = Fraction(rng.choice([-2, -1, 1]), rng.randint(1, 2))
            bad[rng.randrange(dd)][rng.randrange(dd)] += step
            candidates.append(bad)
        g, g_inv = random_invertible(dd, rng)
        candidates.append(mat_mul(mat_mul(g, mat), g_inv))
        for cand in candidates:
            got = rejection(load_and_validate, sym.d, sym.q, cand)
            assert got == rejection(oracles.validate_dense, sym.d, sym.q, cand)
            seen.add(got and got[0])
    twins = []
    normal_form = rmatrix._normal_form

    def recording(*args):
        twins.append(normal_form(*args))
        return twins[-1]

    monkeypatch.setattr(rmatrix, "_normal_form", recording)
    d = sym.d
    (i, k), (j, l) = rng.sample(range(d), 2), rng.sample(range(d), 2)
    off_trace = [list(row) for row in sym.matrix]
    off_trace[i * d + j][k * d + l] += rng.choice([-2, -1, 1, 2])
    off_trace = conjugate_rows(d, off_trace, rng)
    got = rejection(load_and_validate, d, sym.q, off_trace)
    assert got is not None and twins[0] is None
    assert got == rejection(oracles.validate_dense, d, sym.q, off_trace)
    assert seen == {None, rmatrix.HeckeViolation, rmatrix.BraidViolation}


@pytest.mark.parametrize("target,source", HOM_PAIRS, ids=["x".join(p) for p in HOM_PAIRS])
def test_frt_rows_span_the_dense_conjugation_relations(target, source):
    """The rows of the FRT operator Y, the relation rows of A and E, span
    what the dense (conjugation - identity) spans, and its transpose has the
    same null space, on builtins and on dense conjugates read as given."""
    a, b = HOM_SYMS[target](), HOM_SYMS[source]()
    rng = random.Random("conj" + target + source)
    for pair in ((a, b), (dense_conjugate(a, rng), dense_conjugate(b, rng))):
        want = oracles.conj_minus_one(*pair)
        size = len(want)
        # the entries are the nonzeros of Yᵀ, each listed once
        rows = [[0] * size for _ in range(size)]
        for r, c, x in rmatrix._frt_entries(*pair):
            assert x and not rows[c][r]
            rows[c][r] = x
        assert oracles.reduced_basis(rows, size) == oracles.reduced_basis(want, size)
        assert oracles.nullspace(zip(*rows), size) == oracles.nullspace(zip(*want), size)


def test_relation_bases_equal_the_dense_route():
    """The one sparse relation builder gives, under their memo keys, the
    kernel bases of the full matrices that the engine reads (a user
    symmetry's sparse twin where it has one) bit for bit, and the reduced
    form of their image bases, which on builtins and twins is the dense
    route's own basis; inputs with no twin run on the matrix as given."""
    rng = random.Random("relation bases")
    syms = [sym for _, build, _ in BUILTINS for sym in (build(), dense_conjugate(build(), rng))]
    no_twin = no_twin_symmetries()
    for sym in syms + list(no_twin.values()):
        image, kernel = oracles.dense_pair_bases(sym._twin)
        got = {kind: rmatrix._relations(sym, kind) for kind in ("sym", "ext")}
        assert got["sym"] == tuple(map(tuple, oracles.reduced_basis(image, sym.d**2))), sym
        assert got["ext"] == tuple(map(tuple, kernel)), sym
        if sym in syms:
            assert got["sym"] == tuple(map(tuple, image)), sym
        for kind in got:
            assert sym._cache["relations", kind, None] is got[kind]
    pairs = [(HOM_SYMS[target](), HOM_SYMS[source]()) for target, source in HOM_PAIRS]
    pairs += [(dense_conjugate(a, rng), dense_conjugate(b, rng)) for a, b in pairs]
    pairs += [(no_twin["super11 q=1"], no_twin["super11 q=1 again"]), (no_twin["form"],) * 2]
    for t, s in pairs:
        image, kernel = oracles.dense_hom_relations(t._twin, s._twin)
        for kind, want in (("A", oracles.reduced_basis(image, (t.d * s.d) ** 2)), ("E", kernel)):
            rmatrix.hom_dims(t, s, kind, 2)
            got = s._cache["relations", kind, t]
            assert got == tuple(map(tuple, want)), (t, s, kind)
            assert rmatrix._relations(s, kind, t) is got


def no_twin_symmetries():
    """User symmetries that get no sparse twin, so the engine runs on the
    matrix as given: dense fractional conjugates at q = 1, where X =
    Tr₂R - Tr₁R is 0, and the bilinear form, which has no more nonzeros
    than a deformed swap."""
    rng = random.Random("no twin")
    syms = {
        "super21 q=1": dense_conjugate(build_super(2, 1, 1), rng),
        "super11 q=1": dense_conjugate(build_super(1, 1, 1), rng),
        "super11 q=1 again": dense_conjugate(build_super(1, 1, 1), rng),
        "form": load_and_validate(2, 4, FORM),
    }
    assert all(sym._twin is sym for sym in syms.values())
    return syms


def test_sym_and_ext_are_a_and_e_against_the_one_dimensional_symmetry():
    """Against R' = q on k the FRT operator has Yᵀ = a·s - b·M = -b·s·(R -
    q), so the symmetric and exterior dimensions are the A and E dimensions
    of the pair (std:1, R): on builtins, dense conjugates with twins, the
    inputs with no twin and at q = -1."""
    rng = random.Random("one-dimensional target")
    syms = [sym for _, build, _ in BUILTINS for sym in (build(), dense_conjugate(build(), rng))]
    syms += [build_super(1, 1, -1), dense_conjugate(build_super(2, 1, -1), rng)]
    syms += no_twin_symmetries().values()
    assert sum(sym.q == -1 for sym in syms) == 4
    for sym in syms:
        line, n = build_standard(1, sym.q), 4 if sym.d <= 2 else 3
        assert symmetric_dims(sym, n) == rmatrix.hom_dims(line, sym, "A", n), sym
        assert exterior_dims(sym, n) == rmatrix.hom_dims(line, sym, "E", n), sym


def test_dense_rows_without_a_twin_equal_the_dense_oracles():
    """Where no twin is found, sym, ext, mixed, A and E come from the matrix
    as given and equal the full-ambient oracles; the form's sym and ext
    dims are 1, 2, 3, ... and 1, 2, 1, 0, 0.  A dense conjugate of the form
    gets no twin either: its X has the eigenvalues of a deformed swap's, but
    the form is no deformed swap, so it runs on its own rows."""
    syms = no_twin_symmetries()
    form = syms["form"]
    assert symmetric_dims(form, 6) == [1, 2, 3, 4, 5, 6, 7]
    assert exterior_dims(form, 4) == [1, 2, 1, 0, 0]
    dense_form = dense_conjugate(form, random.Random("dense form"))
    assert dense_form._twin is dense_form
    syms["dense form"] = dense_form
    for name, sym in syms.items():
        for n in range(5 if sym.d == 2 else 4):
            part = [n] if n else []
            assert symmetric_dims(sym, n)[n] == oracles.quotient_dim(sym, part, []), name
            assert exterior_dims(sym, n)[n] == oracles.quotient_dim(sym, [], part), name
        assert dim_quotient(sym, (2, 1), (1,)) == oracles.quotient_dim(sym, (2, 1), (1,)), name
    pairs = [("super11 q=1", "super11 q=1 again"), ("form", "dense form"), ("dense form", "form")]
    for target, source in pairs:
        a, b = syms[target], syms[source]
        for n in range(4):
            assert dim_intertwiner(a, b, n) == oracles.intertwiner_dim(a, b, n), (target, source, n)
            assert dim_e_component(a, b, n) == oracles.e_component_dim(a, b, n), (target, source, n)


def test_engine_hands_echelon_integer_rows_only(monkeypatch):
    """No relation or quotient row is scaled to integers: on dense
    fractional conjugates that get no twin, with ``linalg.scale_to_integers``
    (and so ``clear_denominators``) made to raise after the oracles ran and
    before the first library call, the relation bases and dims still equal
    the dense oracles."""
    syms = no_twin_symmetries()
    sym, a, b = syms["super21 q=1"], syms["super11 q=1"], syms["super11 q=1 again"]
    assert all(any(x.denominator > 1 for row in s.matrix for x in row) for s in (sym, a, b))
    want = {
        "sym": [oracles.quotient_dim(sym, [k] if k else [], []) for k in range(5)],
        "ext": [oracles.quotient_dim(sym, [], [k] if k else []) for k in range(5)],
        "mixed": oracles.quotient_dim(sym, (2, 1), (2,)),
        "A": [oracles.intertwiner_dim(a, b, k) for k in range(4)],
        "E": [oracles.e_component_dim(a, b, k) for k in range(4)],
    }

    def refuse(row):
        raise AssertionError("a row reached scale_to_integers")

    monkeypatch.setattr(linalg, "scale_to_integers", refuse)
    got = {
        "sym": symmetric_dims(sym, 4),
        "ext": exterior_dims(sym, 4),
        "mixed": dim_quotient(sym, (2, 1), (2,)),
        "A": rmatrix.hom_dims(a, b, "A", 3),
        "E": rmatrix.hom_dims(a, b, "E", 3),
    }
    assert got == want


def test_per_degree_callers_build_one_chain_per_family(monkeypatch, capsys):
    calls = {"chains": 0, "entries": 0}
    engine, entries = rmatrix._graded_quotient_dims, rmatrix._frt_entries

    def counting_engine(*args):
        calls["chains"] += 1
        return engine(*args)

    def counting_entries(*args):
        calls["entries"] += 1
        return entries(*args)

    monkeypatch.setattr(rmatrix, "_graded_quotient_dims", counting_engine)
    monkeypatch.setattr(rmatrix, "_frt_entries", counting_entries)
    # one sym chain (source and target coincide); one A and one E chain;
    # each family reads the one builder of relation entries once
    assert verify.suite_homspace(*[build_standard(2, 2)] * 2, 5).passed
    assert calls == {"chains": 3, "entries": 3}
    calls.update(chains=0, entries=0)
    spec = "std:r=2,q=2"
    assert main(["compute", "--symmetry", spec, "--what", "A:" + spec, "--degree", "5"]) == 0
    assert capsys.readouterr().out == "1, 4, 10, 20, 35, 56\n"
    assert calls == {"chains": 1, "entries": 1}
    # each relation family is built once per symmetry and target, whichever
    # reader asks first: sym and ext against the one-dimensional symmetry q,
    # A and E against the given target
    calls.update(entries=0)
    sym = build_standard(2, 2)
    assert symmetric_dims(sym, 4) == [1, 2, 3, 4, 5]
    assert exterior_dims(sym, 4) == [1, 2, 1, 0, 0]
    assert dim_quotient(sym, (2, 1), (2,)) == 6
    assert dim_quotient(sym, (3,), (2, 2)) == 4
    assert calls["entries"] == 2
    calls.update(entries=0)
    target, source = build_standard(2, 2), build_super(1, 1, 2)
    assert rmatrix.hom_dims(target, source, "A", 3) == [1, 4, 8, 12]
    assert rmatrix.hom_dims(target, source, "E", 3) == [1, 4, 8, 12]
    assert dim_intertwiner(target, source, 4) == 16
    assert dim_e_component(target, source, 4) == 16
    assert calls["entries"] == 2


def test_mixed_quotients_run_no_chain_of_their_own(monkeypatch):
    chains = []
    engine = rmatrix._graded_quotient_dims

    def counting_engine(*args):
        chains.append(args)
        return engine(*args)

    monkeypatch.setattr(rmatrix, "_graded_quotient_dims", counting_engine)
    # a mixed quotient is a product of the cached sym and ext dimensions
    sym = build_standard(2, 2)
    symmetric_dims(sym, 4)
    exterior_dims(sym, 4)
    chains.clear()
    pairs = [
        (lam, mu)
        for n in range(9)
        for lam, mu in partition_pairs(n)
        if max(lam + mu, default=0) <= 4
    ]
    assert len(pairs) > 100
    for lam, mu in pairs:
        dim_quotient(sym, lam, mu)
    assert chains == []
    # cold, it builds the sym chain to degree 3 and the ext chain to degree 2
    assert dim_quotient(build_standard(2, 2), (3,), (2, 2)) == 4
    assert [args[2] for args in chains] == [3, 2]


def test_degree_one_builds_no_relations(monkeypatch):
    """Below degree 2 no elimination reads the relations, so none are built:
    on std16 the hom relations would span a 65536-column family."""
    sym = build_standard(16, 2)

    def refuse(*args):
        raise AssertionError("relations were built for a degree-1 request")

    monkeypatch.setattr(rmatrix, "_relations", refuse)
    assert symmetric_dims(sym, 1) == exterior_dims(sym, 1) == [1, 16]
    for kind in "AE":
        assert rmatrix.hom_dims(sym, sym, kind, 1) == [1, 256]
    assert dim_quotient(sym, (1, 1), (1,)) == 4096


# (name, builtin specifier, constructor) for the file-path tests
FILE_CASES = [
    ("std2", "std:r=2,q=2", lambda: build_standard(2, 2)),
    ("super11", "super:1,1,q=1/2", lambda: build_super(1, 1, Fraction(1, 2))),
    ("super21", "super:2,1,q=2", lambda: build_super(2, 1, 2)),
]


@pytest.mark.parametrize("name,spec,build", FILE_CASES, ids=[c[0] for c in FILE_CASES])
def test_dense_conjugate_files_print_the_builtin_output(name, spec, build, capsys, tmp_path):
    """A dense conjugate written to a file and read back through the CLI
    prints what the builtin prints; verify only adds its conjectural notes."""

    def out(*argv):
        assert main(list(argv)) == 0, argv
        return capsys.readouterr().out

    sym = build()
    path = tmp_path / f"{name}.txt"
    path.write_text(rmatrix.serialize_symmetry(dense_conjugate(sym, random.Random(name))))
    dense = f"file:{path}"
    # the hom families act on d² dimensions: (d²)**4 exceeds the dimension
    # cap for d = 3
    hom_degree = 4 if sym.d == 2 else 3
    whats = [("sym", 4), ("ext", 4), ("quotient:[2,1];[2]", 4)]
    whats += [(f"A:{dense}", hom_degree), (f"E:{dense}", hom_degree)]
    for what, degree in whats:
        compute = ["compute", "--degree", str(degree), "--what"]
        got = out(*compute, what, "--symmetry", dense)
        assert got == out(*compute, what.replace(dense, spec), "--symmetry", spec), what
    argv = ["verify", "--suite", "all", "--nmax", "3", "--max-weight", "6", "--machine"]
    got = out(*argv, "--symmetry", dense).splitlines()
    want = out(*argv, "--symmetry", spec).splitlines()
    assert any(line.startswith("#") for line in got)
    assert [line for line in got if not line.startswith("#")] == want
