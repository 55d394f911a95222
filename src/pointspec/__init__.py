"""Colored Delone point sets: generators, cluster statistics,
autocorrelation, and diffraction spectra."""

from .coords import GOLDEN, SILVER, TOL_EQ, QuadField, QuadNum
from .geometry import (
    Ball,
    Box,
    Cluster,
    ClusterClassTable,
    DeloneParams,
    Interval,
    MultiSetPatch,
    cluster_1d,
    cluster_distance,
    delone_params,
    enumerate_cluster_classes,
    match_clusters,
)
from .sources import (
    CutProjectSource,
    CutProjectSpec,
    LatticeSource,
    PointSource,
    PoissonSource,
    SubstitutionRule,
    SubstitutionSource,
    TranslatedSource,
    fibonacci_cut_project,
    fibonacci_substitution,
    integer_lattice,
    period_doubling_source,
    source_from_config,
    thue_morse_source,
)
from .stats import (
    FrequencyEstimate,
    VanHoveSpec,
    default_offsets,
    estimate_frequency,
)
from .hull import (
    CylinderSpec,
    HullPartition,
    MetricBracket,
    PartitionParams,
    PatchTooSmallError,
    build_partition_1d,
    cylinder_contains,
    empirical_cylinder_measure,
    hull_metric,
    hull_metrics,
    partition_params,
)
from .spectra import (
    AutocorrelationMeasure,
    DiffractionEstimate,
    SmoothingKernel,
    SpectralCheckReport,
    autocorr_direct,
    autocorr_from_frequencies,
    bragg_amplitude,
    dworkin_report,
    peak_scan,
    smoothed_autocorr_profile,
)

__version__ = "0.1.0"
