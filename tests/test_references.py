"""Benchmark CLI outputs stay byte-identical to perfbench/references.json.

Runs every CLI task of perfbench/workloads.json at input variant 0, and
generate_poisson at every variant, through the benchmark's own
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


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_cli_output_matches_reference_digest(entry, tmp_path):
    variant, values = BENCH.variant_values(SPEC, 0)
    (task,) = BENCH.build_tasks({"verify": [], "cli": [entry]}, values, tmp_path)
    _, _, reason, _ = BENCH.run_task(pointspec, task)
    assert reason is None
    ref = REFS[entry["name"]]
    want = ref[variant] if isinstance(ref, list) else ref
    assert BENCH.dir_digest(task["out"])[0] == want


POISSON = next(e for e in ENTRIES if e["name"] == "generate_poisson")


@pytest.mark.parametrize("seed", range(len(REFS["generate_poisson"])))
def test_generate_poisson_matches_reference_digest_at_every_variant(seed, tmp_path):
    variant, values = BENCH.variant_values(SPEC, seed)
    (task,) = BENCH.build_tasks({"verify": [], "cli": [POISSON]}, values, tmp_path)
    _, _, reason, _ = BENCH.run_task(pointspec, task)
    assert reason is None
    assert BENCH.dir_digest(task["out"])[0] == REFS["generate_poisson"][variant]
