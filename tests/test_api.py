"""The public API: the names `import pointspec` exports.

A change that adds or removes an export edits PUBLIC_NAMES and records the
change in CHANGES.md.
"""

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
    "hull_metrics", "partition_params", "sample_orbit",
    # spectra
    "AutocorrelationMeasure", "DiffractionEstimate", "SmoothingKernel", "SpectralCheckReport",
    "autocorr_direct", "autocorr_from_frequencies", "bragg_amplitude", "dworkin_report", "peak_scan",
    "smoothed_autocorr_profile", "triangle_kernel",
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
