"""Run the benchmark over two sets of seeds and summarize it.

    python3 bench/baseline.py --out bench/baseline.json [--label TEXT]

From the root of a checkout: for every workload, runs `bench/run.py`
untraced once per seed of the first set (1-10), then once traced on seed 1;
then the same ten untraced runs on the repeat set (seeds 11-20).  One run
at a time.  Writes, per set, workload and end-to-end metric, the median,
the quartiles (statistics.quantiles, n=4), their spread (q3 - q1) / median
and every value; the repeat set's median over the first set's, against the
metric's bound in BENCHMARK.json; the traced per-layer values; the sample
count, Python version, CPU count and load averages.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = list(range(1, 11))
REPEAT_SEEDS = list(range(11, 21))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    print(proc.stdout, end="", flush=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def measure_set(workloads, seeds, seconds) -> dict:
    record = {
        "seeds": seeds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "loadavg_start": os.getloadavg(),
        "workloads": {},
    }
    for workload in workloads:
        runs = [bench(workload, s, seconds, 0) for s in seeds]
        entry = {
            "samples": len(runs),
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for name in runs[0]["metrics"]:
            entry["end_to_end"][name] = summarize([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name]["unit"] = runs[0]["metrics"][name]["unit"]
        record["workloads"][workload] = entry
    record["loadavg_end"] = os.getloadavg()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    record = {
        "label": args.label,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "first": measure_set(workloads, SEEDS, seconds),
        "per_layer_seed": SEEDS[0],
        "per_layer": {},
    }
    for workload in workloads:
        traced = bench(workload, SEEDS[0], seconds, 1)
        record["first"]["workloads"][workload]["all_correct"] &= traced["correct"]
        record["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    record["repeat"] = measure_set(workloads, REPEAT_SEEDS, seconds)
    record["agreement"] = {}
    for workload in workloads:
        first = record["first"]["workloads"][workload]["end_to_end"]
        repeat = record["repeat"]["workloads"][workload]["end_to_end"]
        record["agreement"][workload] = {
            name: {"change": repeat[name]["median"] / first[name]["median"] - 1, "bound": bounds[name]}
            for name in first
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")

    for label in ("first", "repeat"):
        for workload, entry in record[label]["workloads"].items():
            for name, s in entry["end_to_end"].items():
                print(f"{label:6s} {workload:7s} {name:17s} {s['median']:10.4f} {s['unit']:3s} "
                      f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, spread {s['spread']:.3f})")
            ratio = entry["failed"] / entry["attempted"]
            print(f"{label:6s} {workload:7s} {'jobs_failed_ratio':17s} {ratio:10.4f} 1")
    for workload, metrics in record["agreement"].items():
        for name, a in metrics.items():
            verdict = "within" if a["change"] <= a["bound"] else "OUTSIDE"
            print(f"repeat/first {workload:7s} {name:17s} {a['change']:+.3f} ({verdict} bound {a['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
