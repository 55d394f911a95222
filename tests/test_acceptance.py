"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line per criterion (run with `pytest -s` to see them as they finish).

The same checks back the `pointspec verify` CLI command.
"""

import pytest

from pointspec.verify import CHECKS


def _run(name):
    result = CHECKS[name](fast=False)
    print()
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_01_lattice_frequency():
    # freq({0}) on Z: ratio (2n+1)/(2n) at offset 0, |value-1| <= 5e-4 at
    # n=1000, uniformity gap <= 1e-3 over 50 offsets, under 5 s
    r = _run("lattice_frequency")
    assert r.seconds < 5.0


def test_criterion_02_autocorr_equivalence():
    # direct vs frequency-route autocorrelation on Z, 2Z, Fibonacci, comb:
    # radius 10, n = 1e4, max coefficient difference <= 2e-3, under 60 s
    r = _run("autocorr_equivalence")
    assert r.seconds < 60.0


def test_criterion_03_lattice_peaks():
    # peaks exactly at the 7 integers in [-3, 3], intensity within 2/n of 1,
    # nothing else retained, under 30 s
    r = _run("lattice_peaks")
    assert r.seconds < 30.0


def test_criterion_04_weighted_comb():
    # c(t) = (-1)^t within 1e-3; retained peaks exactly at half-integers
    # with intensity 1 +- 5e-3
    _run("weighted_comb")


def test_criterion_05_cylinder_measure():
    # Z: measure 0.3 +- 1e-3 for V=[0,0.3); Fibonacci: Vol(V) x density +- 2e-3
    _run("cylinder_measure")


def test_criterion_06_partition():
    # every sampled orbit patch in exactly one cell; sum Vol*freq = 1 +- 1e-3
    _run("partition")


def test_criterion_07_dworkin():
    # ergodic-average correlation vs smoothed autocorrelation: rel diff <= 2%
    # at n = 1e4 on Z and Fibonacci, under 2 min
    r = _run("dworkin")
    assert r.seconds < 120.0


def test_criterion_08_product_identity():
    # indicator of X_{P,V} equals the product of single-point indicators
    # for diam(V) < theta: zero violations over 1e3 samples
    _run("product_identity")


def test_criterion_09_metric():
    # triangle inequality on 500 orbit triples (2x grid slack);
    # d(Z, Z+0.1) bracket contains 0.05 with width <= 0.01
    _run("metric")


def test_criterion_10_negative_controls():
    # Thue-Morse +-1 comb: every scanned k != 0 decays (ratio < 0.8 between
    # n = 1e3 and 4e3); Poisson retains only k = 0
    _run("negative_controls")


def test_orbit_checks_keep_their_fast_details():
    # the partition and product identity decide their orbit samples in one
    # pass, and the metric cuts its samples from one window; the answers are
    # the per-patch ones, pinned here at fast size
    assert CHECKS["partition"](fast=True).detail == (
        "sum Vol*freq=0.999202, 200/200 patches in exactly one cell (53 cells)")
    assert CHECKS["product_identity"](fast=True).detail == (
        "0 violations over 200 samples (theta=0.333, 2 cylinder hits)")
    assert CHECKS["metric"](fast=True).detail == (
        "bracket [0.0497, 0.0552] for d(Z, Z+0.1); triangle failures 0/100")
