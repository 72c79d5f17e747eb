"""Traced run of one `heckeseries` command, from outside the package.

    python3 bench/tracer.py SPANS_FILE JOB_ID -- <heckeseries arguments>

Imports the package, replaces each function listed in TRACED by a wrapper
wherever a `heckeseries` module bound it (the modules use `from .x import y`,
so the name is patched in every importer, not only where it is defined),
then runs `heckeseries.cli.main` and exits with its code.  Each call of a
wrapped function is a span (name, start, end, parent) kept in memory; at
exit the spans and the counters below are written to SPANS_FILE, which
`load` reads back.  Stdout is the program's own, so outputs are checked
the same way as untraced runs.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (span name, module, attribute).  Several functions may share a span name:
# the four symmetry constructors are one layer ("rmatrix.validate"), the
# verify entry points are one ("verify").  A function missing from the
# program is skipped and its metrics read 0.
TRACED = [
    ("cli", "cli", "main"),
    ("verify", "verify", "suite_hilbert"),
    ("verify", "verify", "suite_character"),
    ("verify", "verify", "suite_homspace"),
    ("verify", "verify", "suite_positivity"),
    ("verify", "verify", "detected_certificate"),
    ("rmatrix.validate", "rmatrix", "build_standard"),
    ("rmatrix.validate", "rmatrix", "build_super"),
    ("rmatrix.validate", "rmatrix", "load_and_validate"),
    ("rmatrix.validate", "rmatrix", "load_symmetry_file"),
    ("rmatrix.symmetric_dims", "rmatrix", "symmetric_dims"),
    ("rmatrix.exterior_dims", "rmatrix", "exterior_dims"),
    ("rmatrix.dim_quotient", "rmatrix", "dim_quotient"),
    ("rmatrix.dim_intertwiner", "rmatrix", "dim_intertwiner"),
    ("rmatrix.dim_e_component", "rmatrix", "dim_e_component"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.row_basis", "linalg", "row_basis"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.intersect_bases", "linalg", "intersect_bases"),
    ("linalg.Echelon.add", "linalg", "Echelon.add"),
    ("linalg.clear_denominators", "linalg", "clear_denominators"),
    ("linalg.det", "linalg", "det"),
    ("linalg.solve_square", "linalg", "solve_square"),
    ("series.schur_minor", "series", "schur_minor"),
    ("series.diamond", "series", "diamond"),
    ("series.detect_rational", "series", "detect_rational"),
    ("series.birank_certificate", "series", "birank_certificate"),
    ("series.sturm_all_roots_positive", "series", "sturm_all_roots_positive"),
    ("series.expand_ratio", "series", "expand_ratio"),
    ("series.predict_hom_series", "series", "predict_hom_series"),
    ("symfunc.to_basis", "symfunc", "to_basis"),
    ("symfunc.specialize_super", "symfunc", "specialize_super"),
    ("symfunc.hom_eval", "symfunc", "hom_eval"),
    # renamed per call to symfunc.transition_build / symfunc.transition_hit
    ("symfunc.degree_data", "symfunc", "TransitionCache.degree_data"),
    ("partitions.kostka", "partitions", "kostka"),
    ("partitions.enumerate_partitions", "partitions", "enumerate_partitions"),
]

EXTRA_NAMES = ("symfunc.transition_build", "symfunc.transition_hit")

# elimination entry points: cells = rows x columns of the input
ELIMINATIONS = {
    "linalg.rank", "linalg.row_basis", "linalg.nullspace", "linalg.intersect_bases",
    "linalg.Echelon.add", "linalg.solve_square", "linalg.det",
}


def _max_bits(rows) -> int:
    best = 0
    for row in rows:
        if not row:
            continue
        m = max(max(row), -min(row))
        if not isinstance(m, int):
            m = max(abs(m.numerator), m.denominator)
        best = max(best, m.bit_length())
    return best


def _cells(name, args, kwargs) -> int:
    """rows x columns of an elimination entry point's input."""
    if name == "linalg.Echelon.add":
        return getattr(args[0], "ncols", 0)
    if name == "linalg.intersect_bases":
        return (len(args[0]) + len(args[1])) * (args[2] if len(args) > 2 else kwargs["dim"])
    rows = args[0]
    if not rows:
        return 0
    if name == "linalg.solve_square":
        return len(rows) * (len(rows) + 1)
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    return len(rows) * (len(rows[0]) if ncols is None else ncols)


class Tracer:
    """Span store and counters for one process."""

    def __init__(self):
        self.names = list(dict.fromkeys([t[0] for t in TRACED] + list(EXTRA_NAMES)))
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {
            "verify.checks": 0,
            "verify.checks_passed": 0,
            "rmatrix.dims_calls": 0,
            "rmatrix.dims_hits": 0,
            "linalg.elim_cells": 0,
            "linalg.max_int_bits": 0,
            "partitions.kostka.hits": 0,
            "partitions.kostka.misses": 0,
        }
        self.elim_depth = 0
        self.dims_seen = {}
        self.degrees_built = set()
        self.kostka = None
        self.hooks = self._hooks()

    def wrap(self, span, fn):
        sid = self.ids[span]
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        hook = self.hooks.get(span)

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(idx, fn, args, kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # -- counters measured at the layer boundaries ------------------------

    def _hooks(self):
        hooks = {
            "verify": self._verify,
            "rmatrix.symmetric_dims": self._dims("sym"),
            "rmatrix.exterior_dims": self._dims("ext"),
            "symfunc.degree_data": self._degree_data,
        }
        for n in ELIMINATIONS:
            hooks[n] = self._elimination(n)
        return hooks

    def _verify(self, idx, fn, args, kwargs):
        report = fn(*args, **kwargs)
        checks = getattr(report, "checks", None)
        if checks is not None:
            self.counters["verify.checks"] += len(checks)
            self.counters["verify.checks_passed"] += sum(1 for c in checks if c.passed)
        return report

    def _dims(self, kind):
        def hook(idx, fn, args, kwargs):
            sym = args[0]
            n_max = args[1] if len(args) > 1 else kwargs["n_max"]
            key = (kind, id(sym))
            seen = self.dims_seen.get(key)
            self.counters["rmatrix.dims_calls"] += 1
            if seen is not None and seen[1] >= n_max:
                self.counters["rmatrix.dims_hits"] += 1
            else:
                # keep sym alive so its id cannot be reused
                self.dims_seen[key] = (sym, n_max)
            return fn(*args, **kwargs)

        return hook

    def _degree_data(self, idx, fn, args, kwargs):
        # a build is the first call for a cache object and degree; at the
        # seed commit these are exactly the calls that invoke kostka
        key = (id(args[0]), args[1])
        built = key not in self.degrees_built
        self.degrees_built.add(key)
        self.name[idx] = self.ids["symfunc.transition_build" if built else "symfunc.transition_hit"]
        return fn(*args, **kwargs)

    def _elimination(self, span):
        def hook(idx, fn, args, kwargs):
            if span in ("linalg.rank", "linalg.row_basis", "linalg.nullspace") and not isinstance(
                args[0], (list, tuple)
            ):
                args = (list(args[0]),) + args[1:]
            outer = self.elim_depth == 0
            if outer:
                self.counters["linalg.elim_cells"] += _cells(span, args, kwargs)
                old_pivots = list(getattr(args[0], "pivots", ())) if span == "linalg.Echelon.add" else None
            self.elim_depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self.elim_depth -= 1
            if outer:
                if span in ("linalg.row_basis", "linalg.nullspace", "linalg.intersect_bases"):
                    self._bits(out)
                elif span == "linalg.Echelon.add" and out:
                    self._bits([_inserted_row(args[0], old_pivots)])
            return out

        return hook

    def _bits(self, rows):
        b = _max_bits(rows)
        if b > self.counters["linalg.max_int_bits"]:
            self.counters["linalg.max_int_bits"] = b

    # -- output -----------------------------------------------------------

    def dump(self, path: str, job: int):
        if self.kostka is not None and hasattr(self.kostka, "cache_info"):
            info = self.kostka.cache_info()
            self.counters["partitions.kostka.hits"] = info.hits
            self.counters["partitions.kostka.misses"] = info.misses
        header = {"job": job, "names": self.names, "count": len(self.start), "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def _inserted_row(ech, old_pivots):
    """The row Echelon.add just stored: the first position where the sorted
    pivot list differs from its copy taken before the call."""
    pivots = getattr(ech, "pivots", None)
    rows = getattr(ech, "rows", None)
    if pivots is None or rows is None or len(pivots) != len(old_pivots) + 1:
        return []
    lo, hi = 0, len(old_pivots)
    while lo < hi:
        mid = (lo + hi) // 2
        if pivots[mid] == old_pivots[mid]:
            lo = mid + 1
        else:
            hi = mid
    return rows[lo]


def install(tracer: Tracer):
    """Patch every TRACED function in every heckeseries module."""
    for mod_name in {t[1] for t in TRACED}:
        try:
            importlib.import_module(f"heckeseries.{mod_name}")
        except ImportError:
            pass
    modules = [m for n, m in list(sys.modules.items()) if n == "heckeseries" or n.startswith("heckeseries.")]
    for span, mod_name, attr in TRACED:
        mod = sys.modules.get(f"heckeseries.{mod_name}")
        owner = mod
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            continue
        wrapped = tracer.wrap(span, original)
        if span == "partitions.kostka":
            tracer.kostka = original
        if path:
            setattr(owner, leaf, wrapped)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)


def load(path):
    """Read a spans file: (header, name ids, parents, starts, ends)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in ("H", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def self_times(parent, start, end):
    """Per-span self time: duration minus the time its children cover.

    Spans come from one thread, so children of a span never overlap and
    their durations simply add up; `nesting_error` checks that."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def nesting_error(parent, start, end, own) -> str | None:
    """None when every span lies inside its parent's [start, end] and no
    self time is negative (children overlapping each other, or a span
    counted under the wrong parent, would make one negative); else the
    first offending span."""
    for i, p in enumerate(parent):
        if end[i] < start[i]:
            return f"span {i} ends before it starts"
        if p >= 0 and not (start[p] <= start[i] and end[i] <= end[p]):
            return f"span {i} is not inside its parent {p}"
        if own[i] < -1e-9:
            return f"span {i} has negative self time {own[i]:.3g} s"
    return None


def main(argv):
    spans_file, job = argv[0], int(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE JOB_ID -- ARGS...")
    tracer = Tracer()
    install(tracer)
    from heckeseries import cli

    try:
        code = cli.main(argv[3:])
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file, job)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
