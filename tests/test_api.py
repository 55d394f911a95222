"""The public API: the names `import pointspec` exports.

A change that adds or removes an export edits PUBLIC_NAMES and records the
change in CHANGES.md.
"""

import ast
import inspect
import os
import subprocess
import sys

import pointspec

PUBLIC_NAMES = {
    # coords
    "GOLDEN", "SILVER", "TOL_EQ", "QuadField", "QuadNum",
    # geometry
    "Ball", "Box", "Cluster", "ClusterClassTable", "DeloneParams", "Interval", "MultiSetPatch",
    "cluster_1d", "cluster_distance", "delone_params", "enumerate_cluster_classes", "match_clusters",
    # sources
    "CutProjectSource", "CutProjectSpec", "LatticeSource", "PointSource", "PoissonSource",
    "SubstitutionRule", "SubstitutionSource", "TranslatedSource", "fibonacci_cut_project",
    "fibonacci_substitution", "integer_lattice", "period_doubling_source", "source_from_config",
    "thue_morse_source",
    # stats
    "FrequencyEstimate", "VanHoveSpec", "default_offsets", "estimate_frequency",
    # hull
    "CylinderSpec", "HullPartition", "MetricBracket", "PartitionParams", "PatchTooSmallError",
    "build_partition_1d", "cylinder_contains", "empirical_cylinder_measure", "hull_metric",
    "hull_metrics", "partition_params",
    # spectra
    "AutocorrelationMeasure", "DiffractionEstimate", "SmoothingKernel", "SpectralCheckReport",
    "autocorr_direct", "autocorr_from_frequencies", "bragg_amplitude", "dworkin_report", "peak_scan",
    "smoothed_autocorr_profile",
}


def test_the_package_exports_exactly_the_pinned_names():
    exported = {name for name, value in vars(pointspec).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC_NAMES
    exec("from pointspec import " + ", ".join(sorted(PUBLIC_NAMES)), {})  # every name resolves


def test_importing_the_package_and_its_entry_points_leaves_scipy_unloaded():
    # scipy serves only the KD-tree lookups; importing it would slow every start-up
    src = os.path.dirname(os.path.dirname(pointspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, pointspec, pointspec.cli, pointspec.verify; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# the functions that may round a float to the TOL_EQ grid: none
GRID_KEY_OWNERS = set()


def grid_key_owners(tree) -> set:
    """The qualified names of the functions in tree that round (rint,
    round, around) an expression holding a division by TOL_EQ."""
    found = set()

    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and name(child.func) in ("rint", "round", "around")
                    and any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div) and name(n.right) == "TOL_EQ"
                            for arg in child.args for n in ast.walk(arg))):
                found.add(".".join(scope))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if inner else scope)

    visit(tree, ())
    return found


def test_no_function_rounds_floats_to_the_tolerance_grid():
    # float values are equal when geometry.run_starts joins them (runs of gaps of at
    # most TOL_EQ); a grid key round(v / TOL_EQ) is a second rule, which splits a
    # value that float error moves across a grid boundary
    for code in ("def f(v):\n    return np.rint(v / TOL_EQ)",
                 "class C:\n    def f(self, c):\n        return round(float(c) / coords.TOL_EQ)",
                 "def f(x):\n    return (np.round(x / TOL_EQ) + 0.0).tobytes()"):
        assert len(grid_key_owners(ast.parse(code))) == 1, code
    assert not grid_key_owners(ast.parse("def f(v):\n    return np.rint(v * TOL_EQ), round(v / 2)"))
    pkg = os.path.dirname(pointspec.__file__)
    found = set()
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
                found |= {(fname, owner) for owner in grid_key_owners(ast.parse(fh.read()))}
    assert found <= GRID_KEY_OWNERS


def assert_lines(tree) -> list:
    """The line numbers of the assert statements in tree."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_the_package_holds_no_assert():
    # python -O drops assert statements, so a check written as one vanishes
    # there: the package raises its errors instead
    assert assert_lines(ast.parse("def f(x):\n    y = x\n    assert y, 'why'")) == [3]
    assert not assert_lines(ast.parse("def f(x):\n    if not x:\n        raise ValueError(x)"))
    pkg = os.path.dirname(pointspec.__file__)
    found = []
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
                found += [(fname, line) for line in assert_lines(ast.parse(fh.read()))]
    assert found == []
