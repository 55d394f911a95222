"""The benchmark's span tracer must still find every entry point it wraps.

`perfbench/tracer.py` wraps pointspec functions and methods by name from
outside the package; a renamed entry point breaks `install()` there.  This
test installs it around three small checks, two CLI subcommands, both
autocorrelation routes and direct cylinder_contains calls, and requires
every original to come back on `uninstall()`.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pointspec
from pointspec import cli, spectra, verify
from pointspec.geometry import Interval, cluster_1d
from pointspec.hull import CylinderSpec
from pointspec.sources import integer_lattice
from pointspec.stats import VanHoveSpec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _snapshot():
    """Every attribute of every loaded pointspec module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "pointspec" or name.startswith("pointspec.")):
            continue
        for key, val in vars(mod).items():
            out[(name, key)] = val
            if isinstance(val, type) and val.__module__ == name:
                out.update({(name, key, k): v for k, v in vars(val).items()})
            elif isinstance(val, dict):
                out.update({(name, key, k): v for k, v in val.items()})
    return out


def test_tracer_wraps_and_restores_traced_entry_points(tmp_path):
    tracer_mod = _load_tracer()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"source": {"type": "fibonacci"}, "generate": {"region": [0, 40]}}))
    metric_cfg = tmp_path / "metric.json"
    metric_cfg.write_text(json.dumps({"source": {"type": "lattice", "basis": [[1.0]]},
                                      "metric": {"other_source": {"type": "lattice", "basis": [[1.0]],
                                                                  "offset": 0.1}, "eps_grid": 0.05}}))
    before = _snapshot()
    tracer = tracer_mod.Tracer()
    tracer.install(count_work=True)
    try:
        assert pointspec.stats._count_in_patch is not before[("pointspec.stats", "_count_in_patch")]
        assert verify.check_cylinder_measure(fast=True).passed
        assert verify.check_product_identity(fast=True).passed
        assert verify.check_metric(fast=True).passed
        # the checks decide orbit samples with orbit_hits; the per-patch entry
        # point is called here directly, a known number of times
        patch = integer_lattice().window(Interval(-5, 5))
        for lo in (-0.2, 0.3, 0.9):
            pointspec.hull.cylinder_contains(patch, CylinderSpec(cluster_1d([0.0]), Interval(lo, lo + 0.2)))
        assert cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert cli.main(["metric", "--config", str(metric_cfg), "--out", str(tmp_path / "metric")]) == 0
        # called through the module, as the tracer replaced them there
        spectra.autocorr_direct(integer_lattice(), [1], 3.0, VanHoveSpec(), 20)
        spectra.autocorr_from_frequencies(integer_lattice(), [1], 3.0, VanHoveSpec(), 20)
    finally:
        tracer.uninstall()
    after = _snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    spans = tracer.self_times()
    for name in ("hull.cylinder_contains", "hull.empirical_cylinder_measure",
                 "geometry.patch_arrays", "sources.window.CutProjectSource"):
        assert spans[name][0] > 0, name
    assert spans["cli.generate"][0] == 1
    assert spans["cli.metric"][0] == 1
    # hull_metric wraps one pair (check_metric's d(Z, Z + 0.1) and the CLI's);
    # check_metric's triangle brackets go to hull_metrics in one batch
    assert spans["hull.hull_metric"][0] == 2
    assert spans["hull.match_predicate"][0] > 0
    bracket = json.loads((tmp_path / "metric" / "metric.json").read_text())
    assert bracket["lower"] <= 0.05 <= bracket["upper"]
    metrics = tracer.metrics()
    assert metrics["hull.cylinder_contains.calls"] == 3  # the direct calls above
    assert metrics["sources.window.CutProjectSource.points"] > 0
    # pair terms counted on the window each route's span captured: Z on [-20, 20], |t| <= 3
    pairs = sum(abs(x - y) <= 3 for x in range(-20, 21) for y in range(-20, 21))
    assert metrics["spectra.autocorr_direct.terms"] == pairs
    assert metrics["spectra.autocorr_from_frequencies.terms"] == pairs
