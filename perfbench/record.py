#!/usr/bin/env python3
"""Repeat-run statistics, the exact-count check and the baseline record.

    python3 perfbench/record.py                 # every workload, 10 seeds each
    python3 perfbench/record.py --counts-only   # the benchmark's own test

Run from a checkout root.  For each workload of BENCHMARK.json it runs
the benchmark untraced once per seed (seeds 0..9) and prints, per end-to-end
metric, the median and the quartile spread (q3 - q1) / median, next to a
third of the metric's bound from BENCHMARK.json.  It then makes two
traced runs on seed 0 and one on seed 1, and fails unless every exact
work count (tracer.EXACT_COUNTS) repeats between the two seed-0 runs.
The full mode rewrites perfbench/baseline.json: machine, versions, every
metric's seed entry per workload, the exact counts and the tracing
overhead.  --counts-only makes the traced runs alone and also reports
every count that differs from baseline.json, so a later change that
shrinks a problem size shows as a changed count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import END_TO_END  # noqa: E402
from tracer import EXACT_COUNTS, METRICS  # noqa: E402

RUNS = 10


def bench(workload, seed, trace, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("benchmark run failed: %s" % " ".join(cmd))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit("benchmark reported failures: %s" % " ".join(cmd))
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    import scipy

    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def traced_counts(workload, seconds):
    """Two traced runs on seed 0 and one on seed 1; exit if seed 0's counts differ."""
    runs = [bench(workload, seed, 1, seconds)["metrics"] for seed in (0, 0, 1)]
    first, second, held_out = ({k: m[k]["value"] for k in m} for m in runs)
    moved = [k for k in EXACT_COUNTS if first[k] != second[k]]
    if moved:
        raise SystemExit("%s: counts differ between two traced runs: %s" % (workload, moved))
    print("%s: %d exact counts repeat between two traced runs" % (workload, len(EXACT_COUNTS)))
    return first, second, held_out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--counts-only", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != list(METRICS):
        raise SystemExit("BENCHMARK.json per_layer does not match tracer.METRICS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        raise SystemExit("BENCHMARK.json end_to_end does not match run.END_TO_END")
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    base_path = HERE / "baseline.json"

    if args.counts_only:
        with open(base_path) as fh:
            baseline = json.load(fh)
        changed = 0
        for w in names:
            first, _, held_out = traced_counts(w, seconds)
            for seed, got in (("0", first), ("1", held_out)):
                want = baseline["workloads"][w]["exact_counts"][seed]
                for k in EXACT_COUNTS:
                    if got[k] != want[k]:
                        changed += 1
                        print("  seed %s %s: %s -> %s" % (seed, k, want[k], got[k]))
        print("%d counts differ from baseline.json" % changed)
        return 1 if changed else 0

    record = {"machine": machine(), "run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for w in names:
        results = [bench(w, seed, 0, seconds) for seed in range(RUNS)]
        e2e = {}
        print("%s (%d runs)" % (w, RUNS))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            e2e[m["name"]] = {"median": statistics.median(vals), "spread": spread(vals),
                              "unit": m["unit"], "values": vals}
            print("  %-12s median %12.6g  spread %6.2f%%  (a third of the bound: %.2f%%)" % (
                m["name"], e2e[m["name"]]["median"], 100 * e2e[m["name"]]["spread"],
                100 * m["bound"] / 3))
        first, _, held_out = traced_counts(w, seconds)
        record["workloads"][w] = {
            "end_to_end": e2e,
            "fail_ratio": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
            "per_layer_seed0": first,
            "tracing_overhead_s": first["trace.overhead_s"],
            "exact_counts": {"0": {k: first[k] for k in EXACT_COUNTS},
                             "1": {k: held_out[k] for k in EXACT_COUNTS}},
        }
    with open(base_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
