"""Package surface: the public names, and which modules a command loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heckeseries

SRC = str(Path(heckeseries.__file__).resolve().parent.parent)

# every name `heckeseries/__init__.py` bound when it imported eagerly
PUBLIC = """
conjugate dominance_leq enumerate_partitions in_hook kostka lr_coeff
partition_pairs standard_tableaux_count
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


def test_compute_loads_only_the_matrix_modules():
    """compute loads no series code and predict no matrix code, and neither
    loads partitions, which only the commands that read or print a
    partition need."""
    for argv, module in (
        (["compute", "--symmetry", "std:r=2,q=2", "--what", "sym", "--degree", "3"], "rmatrix"),
        (["predict", "--what", "sym", "--alphas", "1,1", "--degree", "4"], "series"),
    ):
        code = f"from heckeseries.cli import main\nmain({argv!r})"
        assert loaded_after(code) == {
            "heckeseries",
            "heckeseries.cli",
            "heckeseries.linalg",
            f"heckeseries.{module}",
        }, argv


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
