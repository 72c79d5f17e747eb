"""Package surface: the public names, which modules a command loads, and
that every private name in the package is used by the package."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heckeseries
from heckeseries import partitions, series, symfunc

SRC = str(Path(heckeseries.__file__).resolve().parent.parent)

# every name `heckeseries/__init__.py` bound when it imported eagerly, less
# the four partition counts that only the tests read, kept in tests/oracles.py
PUBLIC = """
conjugate enumerate_partitions in_hook kostka
BirankCertificate CertificateError InconclusiveDetection RationalForm
RootLocationError TruncSeries birank_certificate detect_rational diamond
exterior_from_symmetric hankel_minor predict_hom_series
sturm_all_roots_positive total_positivity
SymElement hall_rep hom_eval inner_product multiply omega schur_value
specialize_super tensor_power_character to_basis
BraidViolation CapExceeded HeckeSymmetry HeckeViolation build_standard
build_super dim_e_component dim_intertwiner dim_quotient exterior_dims
load_and_validate symmetric_dims
VerificationReport suite_character suite_hilbert suite_homspace
suite_positivity
""".split()


def unreferenced_private_names(package: Path) -> list[str]:
    """Every top-level function and class of a module of ``package`` (but
    ``__init__`` and ``__main__``) outside ``heckeseries.__all__`` that no
    name, attribute or ``from`` import in the package reads outside its own
    definition; docstrings and comments are not read."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    defined, readers = [], {}  # name -> {(module, top-level name reading it)}
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if module not in ("__init__", "__main__") and stmt.name not in heckeseries.__all__:
                    defined.append((module, stmt.name))
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    readers.setdefault(name, set()).add((module, owner))
    return [
        f"{module}.{name}"
        for module, name in defined
        if not readers.get(name, set()) - {(module, name)}
    ]


def loaded_after(code: str) -> set[str]:
    """heckeseries modules in sys.modules after running code in a fresh
    interpreter."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('heckeseries'))))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_every_public_name_still_imports_from_the_package():
    namespace = {}
    exec(f"from heckeseries import {', '.join(PUBLIC)}", namespace)
    assert all(namespace[name] is not None for name in PUBLIC)
    assert sorted(PUBLIC) == heckeseries.__all__
    assert heckeseries.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        heckeseries.no_such_name


def test_every_private_name_is_used_by_the_package():
    """A function or class that only the tests call belongs in tests/."""
    assert unreferenced_private_names(Path(heckeseries.__file__).parent) == []


def test_importing_the_package_loads_no_module():
    assert loaded_after("import heckeseries") == {"heckeseries"}


def test_every_module_imports_only_the_standard_library():
    """pyproject.toml's ``dependencies = []``: each top-level module that
    importing every module (but ``__main__``) loads is in the standard
    library.  Only modules loaded after start-up count, since site ``.pth``
    files may preload others."""
    modules = sorted(
        f"heckeseries.{path.stem}"
        for path in Path(heckeseries.__file__).parent.glob("*.py")
        if path.stem not in ("__init__", "__main__")
    )
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"for name in {modules!r}:\n"
        "    __import__(name)\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(json.dumps(sorted(new - {'heckeseries'} - sys.stdlib_module_names)))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert "heckeseries.cli" in modules
    assert json.loads(out.splitlines()[-1]) == []


def test_only_linalg_takes_a_denominator_lcm():
    """Every rational row is scaled to integers by ``linalg.scale_to_integers``,
    within the bit-length cap: no other module imports ``math.lcm`` or reads
    it as ``math.lcm``."""
    readers = set()
    for path in Path(heckeseries.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                if any(alias.name == "lcm" for alias in node.names):
                    readers.add(path.stem)
            elif isinstance(node, ast.Attribute) and node.attr == "lcm":
                if isinstance(node.value, ast.Name) and node.value.id == "math":
                    readers.add(path.stem)
    assert readers == {"linalg"}


def test_only_coeff_and_the_schur_reader_compare_a_truncation_order():
    """``TruncSeries.coeff`` makes every truncation check: the one other
    comparison in ``src/`` that reads a ``.order`` attribute is the
    partition reader of ``schur_values``, which names the first entry past
    its window."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Compare) and any(
                isinstance(n, ast.Attribute) and n.attr == "order" for n in ast.walk(child)
            ):
                found.append(".".join(scope))
            visit(child, scope)

    for path in Path(heckeseries.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
    assert sorted(found) == ["series.TruncSeries.coeff", "series.schur_values.value"]


def test_compute_loads_only_the_matrix_modules():
    """compute loads no series code and predict no matrix code, and
    partitions is loaded only by the commands that read or print a
    partition."""
    for argv, modules in (
        (["compute", "--symmetry", "std:r=2,q=2", "--what", "sym", "--degree", "3"], ["rmatrix"]),
        (["predict", "--what", "sym", "--alphas", "1,1", "--degree", "4"], ["series"]),
        (
            ["compute", "--symmetry", "std:r=2,q=2", "--what", "quotient:[2,1];[2]"],
            ["rmatrix", "partitions"],
        ),
        (
            ["series", "total-positivity", "--coeffs", "1,1,1", "--max-weight", "3"],
            ["series", "partitions"],
        ),
    ):
        code = f"from heckeseries.cli import main\nmain({argv!r})"
        assert loaded_after(code) == {
            "heckeseries",
            "heckeseries.cli",
            "heckeseries.linalg",
            *(f"heckeseries.{module}" for module in modules),
        }, argv


@pytest.mark.parametrize("suite", ["hilbert", "homspace", "character", "positivity"])
def test_verify_loads_partitions_only_for_the_suites_that_enumerate_them(suite):
    argv = ["verify", "--suite", suite, "--symmetry", "std:r=2,q=2", "--nmax", "3"]
    code = f"from heckeseries.cli import main\nmain({argv!r})"
    expected = {
        "heckeseries",
        "heckeseries.cli",
        "heckeseries.linalg",
        "heckeseries.rmatrix",
        "heckeseries.series",
        "heckeseries.verify",
    }
    if suite in ("character", "positivity"):
        expected.add("heckeseries.partitions")
    assert loaded_after(code) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "all", "--symmetry", "std:r=2,q=2", "--nmax", "3"],
        ["predict", "--what", "A", "--alphas", "1,1", "--alphas2", "1", "--degree", "6"],
    ],
    ids=["verify", "predict"],
)
def test_no_command_loads_the_symmetric_function_tables(argv):
    code = f"from heckeseries.cli import main\nmain({argv!r})"
    assert "heckeseries.symfunc" not in loaded_after(code)


ORDER_TWO = series.TruncSeries([1, 2, 3])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: partitions.parse_partition("2,1"), "expected bracketed partition, got '2,1'"),
        (lambda: partitions.enumerate_partitions(-1), "weight must be nonnegative"),
        (lambda: series.TruncSeries([]), "a truncated series needs at least one coefficient"),
        (lambda: series.hankel_minor(ORDER_TWO, 0, -1), "window size must be nonnegative"),
        (lambda: series.detect_rational(ORDER_TWO, -1), "r_max must be nonnegative"),
        (lambda: series.total_positivity(ORDER_TWO, 3), "coefficient 3 beyond truncation order 2"),
        (lambda: series.hankel_minor(ORDER_TWO, 1, 3), "coefficient 3 beyond truncation order 2"),
        (lambda: series.diamond(ORDER_TWO, ORDER_TWO, 3),
         "coefficient 3 beyond truncation order 2"),
        (lambda: symfunc.SymElement(-1, "s", {}), "degree must be nonnegative"),
        (lambda: symfunc.to_basis(symfunc.SymElement.unit(), "x"), "unknown basis 'x'"),
        (lambda: symfunc.hall_rep(ORDER_TWO, 3), "coefficient 3 beyond truncation order 2"),
        (lambda: symfunc.schur_value(ORDER_TWO, (2, 1)),
         "coefficient 3 beyond truncation order 2"),
        (lambda: symfunc.hom_eval(ORDER_TWO, symfunc.SymElement.generator("h", (3,))),
         "coefficient 3 beyond truncation order 2"),
    ],
    ids=[
        "parse_partition", "enumerate_partitions", "TruncSeries", "hankel_minor",
        "detect_rational", "total_positivity", "hankel_minor_window", "diamond",
        "SymElement", "to_basis", "hall_rep", "schur_value", "hom_eval",
    ],
)
def test_argument_refusals_name_their_fault(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message
