#!/usr/bin/env python3
"""pointspec benchmark: one closed-loop client driving fixed workloads.

    python3 perfbench/run.py --workload fib_bulk --seed 0 --seconds 10 --trace 0

Run from the root of a pointspec checkout; the package is imported from
./src.  A pass runs the workload's tasks in order: `verify` checks in
their --fast sizes, then CLI subcommands on the configs in
perfbench/workloads.json.  A run reports medians over its passes.  A
`periodic_spectral` or `hull_local` pass is short enough that a run holds
several; a `fib_bulk` pass takes about as long as a 20 s run, so its
runs mostly hold one.  The seed picks one of the input variants there
(Poisson seed, translation offsets); problem sizes never depend on it.  After every pass each CLI output directory is
compared byte for byte with perfbench/references.json and the workload's
independent oracles are checked; a task fails if it raises, exits
non-zero, fails its check, or writes other bytes.

--trace 0 repeats passes until --seconds have passed and reports the
end-to-end metrics as medians over passes, plus the median set-up time
of several fresh interpreters.  The host is shared and its speed drifts
by up to 2x over seconds to minutes, so every reported time is
host-speed corrected (see HostSpeed): a helper thread times a fixed
pure-Python loop every SAMPLE_INTERVAL_S while the work runs, and a
task's wall time is scaled by CAL_REF_S times the mean inverse loop time
sampled during it.  A reported second is thus a second at the reference
speed, where the loop takes CAL_REF_S; a change to pointspec moves it as
it moves wall time, while a slow stretch of the host slows the loop too
and cancels out.  --trace 1 makes one untraced pass, one
traced pass that counts exact work (its times are dropped), then timed
traced passes without the counters until --seconds have passed, and
reports the per-layer metrics of perfbench/tracer.py.  The last line of
stdout is the JSON result; a readable table goes to stderr.
"""

from __future__ import annotations

import os

# one BLAS thread: the only parallel task is `freq --threads 2`
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import csv
import hashlib
import json
import math
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_PROBES = 11
FIB_DENSITY = (5 + math.sqrt(5)) / 10  # points per unit length of the Fibonacci chain
# CPU time of the calibration loop on the host at its reference speed
# (2-core Intel Xeon, Python 3.11, no contention); only the ratio matters.
# The loop stays well under the interpreter's 5 ms switch interval.
CAL_REF_S = 0.0006
CAL_ITERATIONS = 10_000
SAMPLE_INTERVAL_S = 0.1
END_TO_END = {"wall_s": "s", "verify_s": "s", "cli_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def load_spec():
    with open(HERE / "workloads.json") as fh:
        return json.load(fh)


def variant_values(spec, seed):
    """Seed -> the seed-dependent config values (one of a fixed set of variants)."""
    n = len(next(iter(spec["variants"].values())))
    return seed % n, {key: vals[seed % n] for key, vals in spec["variants"].items()}


def resolve(doc, values):
    """Replace every "$name" string in a config by the variant's value."""
    if isinstance(doc, dict):
        return {k: resolve(v, values) for k, v in doc.items()}
    if isinstance(doc, list):
        return [resolve(v, values) for v in doc]
    if isinstance(doc, str) and doc.startswith("$"):
        return values[doc[1:]]
    return doc


def import_pointspec():
    src = ROOT / "src"
    if not (src / "pointspec" / "__init__.py").is_file():
        raise BenchError("no pointspec package under %s; run from a checkout root" % src)
    sys.path.insert(0, str(src))
    import pointspec.cli
    import pointspec.verify

    return pointspec


# ---------------------------------------------------------------------------
# tasks


def build_tasks(wl, values, workdir):
    tasks = [{"kind": "verify", "name": name} for name in wl["verify"]]
    for entry in wl["cli"]:
        cfg_path = workdir / "configs" / (entry["name"] + ".json")
        cfg_path.parent.mkdir(parents=True, exist_ok=True)
        with open(cfg_path, "w") as fh:
            json.dump(resolve(entry["config"], values), fh, indent=1, sort_keys=True)
        tasks.append({"kind": "cli", "name": entry["name"], "command": entry["command"],
                      "config": cfg_path, "out": workdir / "out" / entry["name"],
                      "threads": entry.get("threads", 1)})
    return tasks


class HostSpeed:
    """Samples the host's speed on a helper thread while work runs.

    Every SAMPLE_INTERVAL_S the thread times a fixed pure-Python loop,
    independent of pointspec, in its own CPU time, so that waiting for
    the GIL does not count.  It samples once on entry and once on exit,
    so every interval inside the `with` block has samples near it.
    """

    def __init__(self):
        self.samples = []  # (perf_counter at the end, loop CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while True:
            c0 = time.thread_time()
            acc = 0
            for i in range(CAL_ITERATIONS):
                acc += i * i % 7
            self.samples.append((time.perf_counter(), time.thread_time() - c0))
            if self._stop.is_set():
                return
            self._stop.wait(SAMPLE_INTERVAL_S)

    def corrected(self, t0, t1):
        """Seconds at the reference speed for the wall interval [t0, t1]."""
        near = [dt for t, dt in self.samples
                if t0 - SAMPLE_INTERVAL_S <= t <= t1 + SAMPLE_INTERVAL_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - (t0 + t1) / 2))[1]]
        return (t1 - t0) * CAL_REF_S * statistics.mean(1 / dt for dt in near)

    def slowdown(self):
        return statistics.median(dt for _, dt in self.samples) / CAL_REF_S


def run_task(pointspec, task):
    """(start, end, failure reason or None, CheckResult or None)."""
    if task["kind"] == "cli":
        shutil.rmtree(task["out"], ignore_errors=True)
    t0 = time.perf_counter()
    try:
        if task["kind"] == "verify":
            res = pointspec.verify.CHECKS[task["name"]](fast=True)
            return t0, time.perf_counter(), (
                None if res.passed else "check failed: " + res.detail), res
        argv = [task["command"], "--config", str(task["config"]), "--out", str(task["out"]),
                "--threads", str(task["threads"])]
        rc = pointspec.cli.main(argv)
        return t0, time.perf_counter(), (None if rc == 0 else "exit code %s" % rc), None
    except Exception:
        t1 = time.perf_counter()
        traceback.print_exc(file=sys.stderr)
        return t0, t1, "raised " + traceback.format_exc(limit=1).strip().splitlines()[-1], None


def dir_digest(path):
    """sha256 over every file of an output directory, names included."""
    h = hashlib.sha256()
    size = 0
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        data = f.read_bytes()
        size += len(data)
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), size


# ---------------------------------------------------------------------------
# independent oracles, each attached to the task whose output it reads


def _points(out):
    """(points, lo, hi) of a `generate` output."""
    with open(Path(out) / "points.json") as fh:
        doc = json.load(fh)
    return doc["points"], doc["region"]["lo"], doc["region"]["hi"]


def oracle_density(outs):
    points, lo, hi = _points(outs["generate_fib_cp"])
    density = len(points) / (hi - lo)
    if abs(density - FIB_DENSITY) > 1e-3:
        return "Fibonacci density %.6f, want (5+sqrt5)/10 = %.6f" % (density, FIB_DENSITY)
    return None


def oracle_fib_agree(outs):
    tau = (1 + math.sqrt(5)) / 2

    def exact(points, lo, hi):
        return {(a, b, color) for (a, b), color in points
                if lo - 1e-6 <= a + b * tau <= hi + 1e-6}

    sub_points, lo, hi = _points(outs["generate_fib_sub"])
    sub = exact(sub_points, lo, hi)
    cp = exact(_points(outs["generate_fib_cp"])[0], lo, hi)
    if cp != sub:
        return "cut-and-project and substitution differ on [%g, %g]: %d vs %d points, %d shared" % (
            lo, hi, len(cp), len(sub), len(cp & sub))
    return None


def oracle_routes(outs):
    routes = {}
    with open(Path(outs["autocorr_comb"]) / "autocorr.csv") as fh:
        for row in csv.DictReader(fh):
            key = round(float(row["t"]), 6)
            routes.setdefault(row["method"], {})[key] = complex(float(row["re_c"]),
                                                                float(row["im_c"]))
    if sorted(routes) != ["direct", "from-frequencies"]:
        return "autocorr.csv lacks one of the two routes"
    d, f = routes["direct"], routes["from-frequencies"]
    worst = max(abs(d.get(t, 0) - f.get(t, 0)) for t in set(d) | set(f))
    if worst > 2e-3:
        return "autocorrelation routes differ by %.3e > 2e-3" % worst
    return None


ORACLES = {"generate_fib_cp": oracle_density, "generate_fib_sub": oracle_fib_agree,
           "autocorr_comb": oracle_routes}


# ---------------------------------------------------------------------------
# passes


def run_pass(pointspec, tasks, refs, variant, ceilings, traced=False):
    """Run every task once; return timings, failures and output digests.

    Task times are host-speed corrected (see HostSpeed); raw_wall_s is
    the uncorrected sum and slowdown the median loop time over CAL_REF_S.
    """
    with HostSpeed() as speed:
        spans = [(task,) + run_task(pointspec, task) for task in tasks]
    rows = [(task, speed.corrected(t0, t1), reason, res) for task, t0, t1, reason, res in spans]
    outs = {task["name"]: task["out"] for task in tasks if task["kind"] == "cli"}
    failures, ceiling_failures, digests, out_bytes = {}, [], {}, 0
    for task, _dt, reason, res in rows:
        name = task["name"]
        if reason is None and task["kind"] == "cli":
            digest, size = dir_digest(task["out"])
            digests[name] = digest
            out_bytes += size
            ref = refs.get(name)
            want = ref[variant] if isinstance(ref, list) else ref
            if digest != want:
                reason = "output bytes differ from the reference"
            elif name in ORACLES:
                try:
                    reason = ORACLES[name](outs)
                except (OSError, ValueError, KeyError) as e:
                    reason = "oracle could not read the outputs: %r" % e
        if reason is not None and traced and res is not None and name in ceilings \
                and _only_over_ceiling(res, ceilings[name]):
            ceiling_failures.append(name)
            reason = None
        if reason is not None:
            failures[name] = reason
    return {"wall_s": sum(dt for _, dt, _, _ in rows),
            "raw_wall_s": sum(t1 - t0 for _, t0, t1, _, _ in spans),
            "slowdown": speed.slowdown(),
            "verify_s": sum(dt for task, dt, _, _ in rows if task["kind"] == "verify"),
            "cli_s": sum(dt for task, dt, _, _ in rows if task["kind"] == "cli"),
            "failures": failures, "ceiling_failures": ceiling_failures,
            "digests": digests, "output_bytes": out_bytes, "attempted": len(rows),
            "task_s": {task["name"]: dt for task, dt, _, _ in rows}}


def _only_over_ceiling(res, ceiling):
    """A check that failed past its wall-clock ceiling while its numbers pass."""
    m = re.search(ceiling["pattern"], res.detail)
    return (res.seconds >= ceiling["seconds"] and m is not None
            and float(m.group(1)) <= ceiling["limit"])


def measure_setup(args):
    """Median host-speed corrected time of fresh interpreters reaching ready.

    One warm-up start first.  The probes run in a child process while
    this one samples the host's speed.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1", "--trace", "0"]
    spans = []
    with HostSpeed() as speed:
        for _ in range(SETUP_PROBES + 1):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
            spans.append((t0, time.perf_counter()))
            if proc.returncode != 0 or proc.stdout.strip() != b"ready":
                sys.stderr.write(proc.stderr.decode(errors="replace"))
                raise BenchError("set-up probe failed")
    return statistics.median(speed.corrected(t0, t1) for t0, t1 in spans[1:])


def setup_probe(args, spec):
    """Interpreter start to ready: imports, configs parsed, sources built."""
    pointspec = import_pointspec()
    _, values = variant_values(spec, args.seed)
    for entry in spec["workloads"][args.workload]["cli"]:
        cfg = resolve(entry["config"], values)
        pointspec.source_from_config(cfg["source"])
        other = cfg.get("metric", {}).get("other_source")
        if other is not None:
            pointspec.source_from_config(other)
    print("ready")


def summarize(metrics, units, attempted, failed, extra=()):
    lines = ["%-44s %16s  %s" % ("metric", "value", "unit")]
    for name, value in metrics.items():
        lines.append("%-44s %16.10g  %s" % (name, value, units[name]))
    lines.append("%-44s %16.6g  %s" % ("fail_ratio", failed / attempted, "ratio"))
    lines.extend(extra)
    sys.stderr.write("\n".join(lines) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        ap.error("unknown workload %r (have: %s)" % (args.workload, ", ".join(spec["workloads"])))
    try:
        if args.setup_probe:
            setup_probe(args, spec)
            return 0
        result = run(args, spec)
    except BenchError as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def run(args, spec):
    wl = spec["workloads"][args.workload]
    variant, values = variant_values(spec, args.seed)
    with open(HERE / "references.json") as fh:
        refs = json.load(fh)
    pointspec = import_pointspec()
    if args.trace == 0:
        setup_s = measure_setup(args)
    workdir = ROOT / ".perfbench" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        tasks = build_tasks(wl, values, workdir)
        ceilings = spec["ceilings"]
        if args.trace == 0:
            return untraced_run(args, pointspec, tasks, refs, variant, ceilings, setup_s)
        return traced_run(args, pointspec, tasks, refs, variant, ceilings)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def untraced_run(args, pointspec, tasks, refs, variant, ceilings, setup_s):
    t_end = time.perf_counter() + args.seconds
    passes = []
    while not passes or time.perf_counter() < t_end:
        passes.append(run_pass(pointspec, tasks, refs, variant, ceilings))
    metrics = {key: statistics.median(p[key] for p in passes)
               for key in ("wall_s", "verify_s", "cli_s")}
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    notes = ["passes: %d" % len(passes),
             "uncorrected wall_s median %.4f s; host slowdown median %.3f (per pass: %s)" % (
                 statistics.median(p["raw_wall_s"] for p in passes),
                 statistics.median(p["slowdown"] for p in passes),
                 " ".join("%.2f" % p["slowdown"] for p in passes))] + [
        "task %-22s %s" % (name, " ".join("%.3f" % p["task_s"][name] for p in passes))
        for name in passes[0]["task_s"]] + [
        "FAILED %s: %s" % item for p in passes for item in p["failures"].items()]
    summarize(metrics, END_TO_END, attempted, failed, notes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def traced_run(args, pointspec, tasks, refs, variant, ceilings):
    sys.path.insert(0, str(HERE))
    from tracer import EXACT_COUNTS, UNITS, Tracer

    def traced_pass(count_work):
        tracer = Tracer()
        tracer.install(count_work)
        try:
            p = run_pass(pointspec, tasks, refs, variant, ceilings, traced=True)
        finally:
            tracer.uninstall()
        return p, tracer

    t_end = time.perf_counter() + args.seconds
    base = run_pass(pointspec, tasks, refs, variant, ceilings)
    # one pass counts exact work; its times carry the counters' cost and are dropped
    counted, counter = traced_pass(count_work=True)
    timed, per_pass = [], []
    while not timed or time.perf_counter() < t_end:
        p, tracer = traced_pass(count_work=False)
        timed.append(p)
        per_pass.append(tracer.metrics())
    seconds = {name: statistics.median(m[name] for m in per_pass)
               for name, unit in UNITS.items() if unit == "s" and not name.startswith("trace.")}
    metrics = counter.metrics(seconds)
    metrics["cli.output_bytes"] = counted["output_bytes"]
    metrics["trace.untraced_wall_s"] = base["wall_s"]
    metrics["trace.traced_wall_s"] = statistics.median(p["wall_s"] for p in timed)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - base["wall_s"]
    metrics["trace.counting_wall_s"] = counted["wall_s"]
    traced = [counted] + timed
    metrics["trace.ceiling_failures"] = sum(len(p["ceiling_failures"]) for p in traced)
    failed = sum(len(p["failures"]) for p in [base] + traced)
    notes = ["timed traced passes: %d" % len(timed)]
    for p in traced:
        for name, digest in p["digests"].items():
            if base["digests"].get(name) not in (None, digest):
                failed += 1
                notes.append("FAILED %s: traced output bytes differ from untraced" % name)
    calls = [k for k in EXACT_COUNTS if k.endswith(".calls") and k != "coords.sign.calls"]
    if any(m[k] != metrics[k] for m in per_pass for k in calls):
        failed += 1
        notes.append("FAILED: call counts differ between traced passes")
    attempted = sum(p["attempted"] for p in [base] + traced)
    notes += ["FAILED %s: %s" % item for p in [base] + traced for item in p["failures"].items()]
    notes += ["ceiling failure under tracing (not counted): %s" % n
              for p in traced for n in p["ceiling_failures"]]
    summarize(metrics, UNITS, attempted, failed, notes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
