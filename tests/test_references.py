"""Benchmark CLI outputs stay byte-identical to perfbench/references.json.

Runs every CLI task of perfbench/workloads.json at input variant 0, and
each task whose reference pins one digest per variant (generate_poisson,
freq_fib, metric_fib) at every variant, through the benchmark's own
`build_tasks`, `run_task` and `dir_digest`, in a temporary directory;
nothing under perfbench/ is written.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import pointspec.cli  # noqa: F401  (run_task calls pointspec.cli.main)

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


BENCH = _load_bench()
SPEC = BENCH.load_spec()
REFS = json.loads((RUN.parent / "references.json").read_text())
ENTRIES = [e for _, wl in sorted(SPEC["workloads"].items()) for e in wl["cli"]]


def _digests(entry, seed, tmp_path):
    """(digest of the task's outputs at the seed's variant, its reference)."""
    variant, values = BENCH.variant_values(SPEC, seed)
    (task,) = BENCH.build_tasks({"verify": [], "cli": [entry]}, values, tmp_path)
    _, _, reason, _ = BENCH.run_task(pointspec, task)
    assert reason is None
    ref = REFS[entry["name"]]
    return BENCH.dir_digest(task["out"])[0], ref[variant] if isinstance(ref, list) else ref


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_cli_output_matches_reference_digest(entry, tmp_path):
    got, want = _digests(entry, 0, tmp_path)
    assert got == want


POISSON = next(e for e in ENTRIES if e["name"] == "generate_poisson")


@pytest.mark.parametrize("seed", range(len(REFS["generate_poisson"])))
def test_generate_poisson_matches_reference_digest_at_every_variant(seed, tmp_path):
    got, want = _digests(POISSON, seed, tmp_path)
    assert got == want


OFFSET_TASKS = [(e, seed) for e in ENTRIES if e["name"] in ("freq_fib", "metric_fib")
                for seed in range(len(REFS[e["name"]]))]


@pytest.mark.parametrize("entry, seed", OFFSET_TASKS,
                         ids=["%s-%d" % (e["name"], seed) for e, seed in OFFSET_TASKS])
def test_offset_tasks_match_reference_digest_at_every_variant(entry, seed, tmp_path):
    got, want = _digests(entry, seed, tmp_path)
    assert got == want
