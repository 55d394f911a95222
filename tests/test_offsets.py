"""A moved point set is the same point set: the hull X_Λ, its cluster
classes, cylinder partition and autocorrelation depend on Λ alone, not on
where it sits.  At far float offsets h the moved Fibonacci chain -h + Λ
stores floats with the rounding of h; every value below must still be
the one of Λ itself."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointspec.geometry import Interval, enumerate_cluster_classes
from pointspec.hull import build_partition_1d
from pointspec.sources import TranslatedSource, fibonacci_cut_project
from pointspec.spectra import VanHoveSpec, autocorr_direct, autocorr_from_frequencies
from pointspec.stats import _count_in_patch

FIB = fibonacci_cut_project()
N = 4000  # the frequencies of Σ Vol·freq count on the points of Λ in [-N, N]


@lru_cache(maxsize=None)
def invariants(h):
    """(class table, partition, Σ Vol·freq, [direct, from-frequencies]) of -h + Λ."""
    src = TranslatedSource(FIB, h) if h else FIB
    table = enumerate_cluster_classes(src, 3.0, Interval(10, 1010))
    part = build_partition_1d(src, 3.0, 0.2, 1500)
    sub = src.window(Interval(-N, N).translate((-h,)))  # Λ on [-N, N], moved by -h
    total = sum(cell.window.volume() * _count_in_patch(sub, cell.pinned) for cell in part.cells) / (2.0 * N)
    routes = [route(src, [1, 1], 5.0, VanHoveSpec(), 500) for route in (autocorr_direct, autocorr_from_frequencies)]
    return table, part, total, routes


def assert_as_untranslated(h):
    table, part, total, routes = invariants(h)
    table0, part0, total0, routes0 = invariants(0)
    # class tables and cell counts exactly; the representatives one to one
    assert table.n_classes == table0.n_classes == 5
    assert sorted(table0.class_of(rep) for rep in table.representatives) == list(range(5))
    assert part.n_cells == part0.n_cells == 53
    # the same points counted: only the float cell ends may round apart
    assert abs(total - total0) <= 1e-9
    assert abs(total0 - 1.0) <= 1e-3
    # both routes: the same support, coefficients within criterion 2's tolerance
    for got, want in zip(routes, routes0):
        assert len(got.t) == len(want.t) == 13
        assert got.max_difference(want) <= 2e-3


@pytest.mark.parametrize("h", [1e4, 1e6, 1e8, 1e10])
def test_far_offsets_keep_classes_partition_and_autocorrelation(h):
    # with differences of absolute floats, 1e8 and 1e10 gave 15 classes,
    # 208 and 265 cells and 23 support points: the ulp of h is above TOL_EQ
    assert_as_untranslated(h)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(h=st.floats(-1e11, 1e11))
def test_drawn_offsets_keep_classes_partition_and_autocorrelation(h):
    assert_as_untranslated(h)
