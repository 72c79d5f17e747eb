"""heckeseries benchmark: seeded CLI workloads, checked against closed forms.

    python3 bench/run.py --workload brute|closed|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the checkout's
`src/heckeseries`, started as `python3 -m heckeseries ...` (PYTHONPATH=src).

Each workload is a fixed list of jobs made from the seed (workloads.py) and
run as a closed loop with one client: one child process at a time, the next
started when the previous exits.  One pass runs the whole list.  Passes
repeat until S seconds have gone by; each end-to-end metric is the median
over passes:

    wall_s       wall time of a pass, first child start to last exit
    cpu_s        user + sys time of the pass's children (from wait4)
    peak_rss_mb  largest child max-RSS in the pass
    setup_s      median over fresh processes (one before every pass, at least
                 five) that import heckeseries and construct every symmetry
                 the workload names (probe.py)

Every job's stdout and exit code are checked against oracle.py; a job that
fails, or exceeds its time limit, counts in `failed`, and the human summary
prints jobs_failed_ratio = failed / attempted.

With --trace 1 the passes alternate untraced and traced (tracer.py); the
per-layer metrics are medians over the traced passes, and
trace.overhead_s is the traced minus the untraced median wall time.

The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"

JOB_LIMIT_S = 60.0  # a job running longer is killed and counts as failed
RUN_LIMIT_S = 165.0  # no job starts after this; the run must end within 180 s
SETUP_REPEATS = 5  # at least; one more probe runs before every pass

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Deadline:
    def __init__(self, seconds: float):
        self.at = time.perf_counter() + seconds

    def left(self) -> float:
        return self.at - time.perf_counter()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd: list[str], limit: float):
    """Run one child to completion or until `limit` seconds pass.

    Returns (wall_s, cpu_s, maxrss_kb, returncode, stdout, stderr); a
    killed child has a negative return code."""
    with tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=child_env()
        )
        timer = threading.Timer(max(limit, 0.0), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss, proc.returncode, out.decode(errors="replace"), stderr


def setup_probe(workload: workloads.Workload, deadline: Deadline, check: bool = False) -> float:
    """Wall time of one fresh process that imports heckeseries and builds
    every symmetry the workload names."""
    cmd = [sys.executable, str(BENCH / "probe.py"), *workload.symmetries]
    wall, _, _, code, out, err = run_child(cmd, min(JOB_LIMIT_S, deadline.left()))
    if code != 0:
        raise SystemExit(f"set-up probe failed (exit {code}):\n{err}")
    if check:
        got = Path(out.strip()).resolve()
        want = (ROOT / "src" / "heckeseries" / "__init__.py").resolve()
        if got != want:
            raise SystemExit(f"probe imported {got}, expected {want}")
    return wall


def run_pass(workload, deadline: Deadline, spans_dir: Path | None):
    """One pass over the job list; returns per-pass totals and failures."""
    cpu = 0.0
    rss = 0
    results = []
    t0 = time.perf_counter()
    for i, job in enumerate(workload.jobs):
        limit = min(JOB_LIMIT_S, deadline.left())
        if limit <= 0:
            results.append((job, None, "not started: run time limit reached"))
            continue
        if spans_dir is None:
            cmd = [sys.executable, "-m", "heckeseries", *job.argv]
        else:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_dir / f"{i}.spans"), str(i), "--", *job.argv]
        _, c, r, code, out, err = run_child(cmd, limit)
        cpu += c
        rss = max(rss, r)
        results.append((job, (code, out, err), None))
    wall = time.perf_counter() - t0
    failures = []
    for job, got, reason in results:
        if reason is None:
            code, out, err = got
            reason = job.check(code, out)
            if reason and code < 0:
                reason = f"killed after the time limit ({reason})"
            elif reason and err.strip():
                reason += f"; stderr: {err.strip().splitlines()[-1][:160]}"
        if reason:
            failures.append((" ".join(job.argv), reason))
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss / 1024.0}, failures


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass

CALL_METRICS = [
    "rmatrix.symmetric_dims", "rmatrix.exterior_dims", "rmatrix.dim_quotient",
    "rmatrix.dim_intertwiner", "rmatrix.dim_e_component", "rmatrix.validate",
    "linalg.rank", "linalg.row_basis", "linalg.nullspace", "linalg.intersect_bases",
    "linalg.Echelon.add", "linalg.clear_denominators", "linalg.det", "linalg.solve_square",
    "series.schur_minor", "series.diamond", "series.detect_rational",
    "series.birank_certificate", "series.sturm_all_roots_positive", "series.expand_ratio",
    "series.predict_hom_series",
    "symfunc.to_basis", "symfunc.specialize_super", "symfunc.hom_eval",
    "partitions.kostka", "partitions.enumerate_partitions",
]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"cli.self_s": "s", "verify.self_s": "s", "verify.checks": "count",
             "verify.checks_passed": "count"}
    for name in CALL_METRICS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "rmatrix.dims_cache_hit_ratio": "ratio",
        "linalg.elim_cells": "count",
        "linalg.max_int_bits": "bits",
        "symfunc.kostka_build_s": "s",
        "symfunc.transition_misses": "count",
        "symfunc.transition_hits": "count",
        "partitions.kostka.cache_hit_ratio": "ratio",
        "trace.spans": "count",
        "trace.overhead_s": "s",
    })
    return units


def layer_metrics(spans_dir: Path, jobs: int) -> dict[str, float]:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    spans = 0
    for i in range(jobs):
        path = spans_dir / f"{i}.spans"
        if not path.exists():
            continue
        header, name, parent, start, end = tracer.load(path)
        names = header["names"]
        own = tracer.self_times(parent, start, end)
        error = tracer.nesting_error(parent, start, end, own)
        if error:
            raise SystemExit(f"{path}: {error}")
        spans += len(own)
        for k, nid in enumerate(name):
            label = names[nid]
            self_s[label] = self_s.get(label, 0.0) + own[k]
            p = parent[k]
            # a call nested in another call of the same layer (a file load
            # validating through load_and_validate) is one call
            if p < 0 or names[name[p]] != label:
                calls[label] = calls.get(label, 0) + 1
        for key, value in header["counters"].items():
            if key == "linalg.max_int_bits":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value

    def ratio(hits, total):
        return hits / total if total else 0.0

    out = {
        "cli.self_s": self_s.get("cli", 0.0),
        "verify.self_s": self_s.get("verify", 0.0),
        "verify.checks": counters.get("verify.checks", 0),
        "verify.checks_passed": counters.get("verify.checks_passed", 0),
    }
    for label in CALL_METRICS:
        out[f"{label}.calls"] = calls.get(label, 0)
        out[f"{label}.self_s"] = self_s.get(label, 0.0)
    kostka_total = counters.get("partitions.kostka.hits", 0) + counters.get("partitions.kostka.misses", 0)
    out.update({
        "rmatrix.dims_cache_hit_ratio": ratio(counters.get("rmatrix.dims_hits", 0), counters.get("rmatrix.dims_calls", 0)),
        "linalg.elim_cells": counters.get("linalg.elim_cells", 0),
        "linalg.max_int_bits": counters.get("linalg.max_int_bits", 0),
        "symfunc.kostka_build_s": self_s.get("symfunc.transition_build", 0.0),
        "symfunc.transition_misses": calls.get("symfunc.transition_build", 0),
        "symfunc.transition_hits": calls.get("symfunc.transition_hit", 0),
        "partitions.kostka.cache_hit_ratio": ratio(counters.get("partitions.kostka.hits", 0), kostka_total),
        "trace.spans": spans,
    })
    return out


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "heckeseries" / "__init__.py").is_file():
        print(f"error: no src/heckeseries under {ROOT}; run from a checkout root", file=sys.stderr)
        return 2
    deadline = Deadline(RUN_LIMIT_S)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        return measure(args, deadline, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, deadline: Deadline, run_dir: Path) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, root=str(run_dir.relative_to(ROOT)))
    workload.write_inputs(ROOT)
    # the first probe compiles bytecode and checks which package is imported
    setup_probe(workload, deadline, check=True)

    setups, untraced, traced, layers, failures = [], [], [], [], []
    attempted = 0
    t0 = time.perf_counter()
    while True:
        # probes are spread over the run so that set-up time sees the same
        # machine conditions as the passes
        setups.append(setup_probe(workload, deadline))
        totals, failed = run_pass(workload, deadline, None)
        untraced.append(totals)
        failures += failed
        attempted += len(workload.jobs)
        if args.trace:
            spans_dir = run_dir / f"spans{len(traced)}"
            spans_dir.mkdir()
            totals, failed = run_pass(workload, deadline, spans_dir)
            traced.append(totals)
            failures += failed
            attempted += len(workload.jobs)
            layers.append(layer_metrics(spans_dir, len(workload.jobs)))
        if time.perf_counter() - t0 >= args.seconds or deadline.left() <= 0:
            break
    while len(setups) < SETUP_REPEATS and deadline.left() > 0:
        setups.append(setup_probe(workload, deadline))
    setup_s = statistics.median(setups)

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    if args.trace:
        units = per_layer_units()
        values = {k: median(layers, k) for k in units if k != "trace.overhead_s"}
        values["trace.overhead_s"] = median(traced, "wall_s") - median(untraced, "wall_s")
    else:
        units = END_TO_END_UNITS
        values = {k: median(untraced, k) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = setup_s

    passes = len(untraced) + len(traced)
    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"jobs/pass {len(workload.jobs)}  trace {args.trace}")
    print("  pass wall_s: " + " ".join(f"{p['wall_s']:.3f}" for p in untraced + traced))
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:>14.6g} {unit}")
    print(f"  {'jobs_failed_ratio':40s} {len(failures) / attempted:>14.6g} 1")
    for argv, reason in failures[:10]:
        print(f"  FAILED {argv[:100]}: {reason}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
