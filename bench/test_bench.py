"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import oracle
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(12)


def _series_mul(a, b):
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


# ---------------------------------------------------------------------------
# closed forms


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_std_closed_forms_match_the_series(r):
    assert oracle.sym_series([1] * r, [], 12) == [oracle.std_sym(r, n) for n in range(13)]
    assert oracle.ext_series([1] * r, [], 12) == [oracle.std_ext(r, n) for n in range(13)]


@pytest.mark.parametrize("r0,r1", [(1, 1), (2, 1), (1, 2), (0, 2)])
def test_super_series_are_dual(r0, r1):
    a, b = oracle.birank_roots(r0, r1)
    sym = oracle.sym_series(a, b, 10)
    ext = oracle.ext_series(a, b, 10)
    ext_neg = [(-1) ** n * c for n, c in enumerate(ext)]
    assert _series_mul(sym, ext_neg) == [1] + [0] * 10


def test_hom_series_known_values():
    # std2 x std2: A = 1/(1-t)^4, E = (1+t)^4
    assert oracle.hom_series([1, 1], [], [1, 1], [], 6) == [comb(n + 3, 3) for n in range(7)]
    assert oracle.hom_dual_series([1, 1], [], [1, 1], [], 5) == [1, 4, 6, 4, 1, 0]
    # super(1,1) x std2: A = (1+t)^2 / (1-t)^2
    assert oracle.hom_series([1], [1], [1, 1], [], 5) == [1, 4, 8, 12, 16, 20]


def test_hom_dual_is_inverse_at_minus_t():
    a, b, a2, b2 = [1, 2], [3], [2], [1, 1]
    hom = oracle.hom_series(a, b, a2, b2, 9)
    dual = oracle.hom_dual_series(a, b, a2, b2, 9)
    hom_neg = [(-1) ** n * c for n, c in enumerate(hom)]
    assert _series_mul(hom_neg, dual) == [1] + [0] * 9


def test_quotient_dim_is_a_product():
    assert oracle.quotient_dim(2, 0, (3, 1), (2,)) == 4 * 2 * 1
    assert oracle.quotient_dim(3, 0, (2, 1), (2,)) == 6 * 3 * 3


@pytest.mark.parametrize("r0,r1", [(2, 0), (1, 1), (2, 1), (0, 3)])
def test_schur_values_vanish_exactly_off_the_hook(r0, r1):
    # hook Schur positivity: an independent check of the Bareiss determinant
    coeffs = oracle.sym_series(*oracle.birank_roots(r0, r1), 8)
    for w in range(9):
        for lam in oracle.partitions(w):
            v = oracle.schur_value(coeffs, lam)
            assert v >= 0 and (v > 0) == oracle.in_hook(lam, r0, r1)


def test_schur_values_of_the_standard_alphabet():
    # s_lam(1, 1) for two variables: lam_1 - lam_2 + 1 when at most two rows
    coeffs = oracle.sym_series([1, 1], [], 6)
    assert oracle.schur_value(coeffs, (4, 1)) == 4
    assert oracle.schur_value(coeffs, (2, 2)) == 1
    assert oracle.schur_value(coeffs, (1, 1, 1)) == 0


def test_partitions_in_report_order():
    assert oracle.partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [len(oracle.partitions(n)) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


# ---------------------------------------------------------------------------
# the generator


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name):
    make = workloads.WORKLOADS[name]
    a, b = make(5, "in"), make(5, "in")
    assert [j.argv for j in a.jobs] == [j.argv for j in b.jobs]
    assert [j.stdout for j in a.jobs] == [j.stdout for j in b.jobs]
    assert a.files == b.files and a.symmetries == b.symmetries
    others = [make(s, "in") for s in range(6, 10)]
    assert any([j.argv for j in o.jobs] != [j.argv for j in a.jobs] or o.files != a.files for o in others)
    # the structure of a pass does not depend on the seed
    assert all(len(o.jobs) == len(a.jobs) for o in others)


def _q_values(wl):
    for job in wl.jobs:
        for arg in job.argv:
            for spec in (arg, arg.partition(":")[2]):
                if spec.startswith(("std:", "super:")):
                    yield spec.split(":", 1)[0], spec.rpartition("q=")[2]
    for text in wl.files.values():
        q = Fraction(text.splitlines()[2].partition("=")[2].strip())
        yield "file", str(q)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_draws_only_safe_q(name):
    safe = {Fraction(q) for q in workloads.Q_SAFE}
    assert Fraction(-1) not in safe
    for seed in SEEDS:
        for kind, q in _q_values(workloads.WORKLOADS[name](seed, "in")):
            assert Fraction(q) in safe, (kind, q)


@pytest.mark.parametrize("d", [2, 3])
def test_conjugators_are_nonsingular(d):
    rng = workloads._rng("test", d)
    for _ in range(200):
        g, g_inv = workloads.draw_conjugator(rng, d)
        prod = workloads._matmul(g, g_inv)
        assert prod == [[int(i == j) for j in range(d)] for i in range(d)]
        big = workloads._matmul(workloads._kron(g), workloads._kron(g_inv))
        assert big == [[int(i == j) for j in range(d * d)] for i in range(d * d)]


def test_conjugated_files_are_dense_and_exact():
    wl = workloads.verify(3, "in")
    assert wl.files
    for text in wl.files.values():
        lines = text.splitlines()
        assert lines[0] == "hecke-symmetry v1"
        d = int(lines[1].partition("=")[2])
        rows = [[Fraction(t) for t in line.split()] for line in lines[3:]]
        assert len(rows) == d * d and all(len(r) == d * d for r in rows)
        assert any(x.denominator != 1 for r in rows for x in r)
        # dense: far more nonzeros than the sparse builtin's <= 2 per column
        assert sum(1 for r in rows for x in r if x) > 2 * d * d


# ---------------------------------------------------------------------------
# output checking


def _run_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "heckeseries", *argv],
        capture_output=True, text=True, cwd=ROOT, env=run.child_env(),
    )
    return proc.returncode, proc.stdout


def _mutations(out: str):
    """Deliberately wrong variants of a correct output."""
    lines = out.splitlines(keepends=True)
    for i, ch in enumerate(out):
        if ch.isdigit():
            yield out[:i] + str((int(ch) + 1) % 10) + out[i + 1:]
            break
    if len(lines) > 1:
        yield "".join(lines[:-1])
    yield out.replace("[PASS]", "[FAIL]", 1).replace("\tpass", "\tfail", 1)
    yield ""


@pytest.fixture(scope="module")
def inputs():
    work = run.WORK / "test-inputs"
    shutil.rmtree(work, ignore_errors=True)
    yield str(work.relative_to(ROOT))
    shutil.rmtree(work, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_oracle_rejects_wrong_output(name, inputs):
    wl = workloads.WORKLOADS[name](11, inputs)
    wl.write_inputs(ROOT)
    cheap = [j for j in wl.jobs if "--degree" not in j.argv or int(j.argv[j.argv.index("--degree") + 1]) < 6]
    for job in (cheap or wl.jobs)[:4]:
        code, out = _run_cli(job.argv)
        assert job.check(code, out) is None
        assert job.check(1, out) is not None
        for wrong in _mutations(out):
            if wrong != out:
                assert job.check(0, wrong) is not None, (job.argv, wrong)


def test_dropped_check_is_a_failure():
    suite = oracle.suite_hilbert(2, 0, 3, False)
    good = [f"{c.name}\tx\ty\tpass" for c in suite.checks]
    assert "5 checks reported" not in (oracle.check_machine("\n".join(good), [suite]) or "")
    assert oracle.check_machine("\n".join(good[:-1]), [suite]) is not None


# ---------------------------------------------------------------------------
# tracing


def test_self_times_partition_the_root_span():
    # root [0, 10] with children [1, 4] and [5, 9]; [5, 9] has child [6, 7]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    own = tracer.self_times(parent, start, end)
    assert own == [3.0, 3.0, 3.0, 1.0]
    assert sum(own) == end[0] - start[0]
    assert tracer.nesting_error(parent, start, end, own) is None


@pytest.mark.parametrize(
    "parent, start, end",
    [
        ([-1, 0], [0.0, 1.0], [5.0, 6.0]),  # child ends after its parent
        ([-1, 0, 0], [0.0, 0.5, 1.0], [5.0, 4.0, 5.0]),  # siblings overlap
        ([-1], [2.0], [1.0]),  # ends before it starts
    ],
)
def test_nesting_check_rejects_broken_spans(parent, start, end):
    own = tracer.self_times(parent, start, end)
    assert tracer.nesting_error(parent, start, end, own) is not None


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# smoke passes (each takes one pass of the workload)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    return proc


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_has_no_failed_jobs(name):
    proc = _bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "jobs_failed_ratio" in proc.stdout
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_pass_reports_every_layer():
    proc = _bench("--workload", "verify", "--seed", "7", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["verify.checks"]["value"] == metrics["verify.checks_passed"]["value"] > 0
    assert metrics["cli.self_s"]["value"] > 0
    assert metrics["rmatrix.validate.calls"]["value"] > 0
    assert metrics["linalg.max_int_bits"]["value"] > 64


def test_refuses_to_run_without_the_sources():
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("--workload", "closed", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
