import math
from fractions import Fraction

import numpy as np
import pytest

from pointspec.coords import TOL_EQ, QuadArray, is_exact_coord
from pointspec.geometry import (
    Ball,
    Box,
    Interval,
    boundary_shell_volume,
    cluster_1d,
    cluster_distance,
    delone_params,
    enumerate_cluster_classes,
    match_clusters,
    translate_cluster,
)
from pointspec.sources import fibonacci_cut_project, integer_lattice, lattice_source


# ---------------------------------------------------------------------------
# regions


def test_interval_basics():
    iv = Interval(0.0, 2.0)
    assert iv.volume() == 2.0
    assert iv.contains_value(0.0) and iv.contains_value(2.0)
    assert not iv.contains_value(2.1)
    assert iv.dilate(1.0).bounds() == ((-1.0, 3.0),)
    assert iv.erode(0.5).volume() == 1.0


def test_half_open_interval():
    iv = Interval(0.0, 1.0, True, False)
    assert iv.contains_value(0.0)
    assert not iv.contains_value(1.0)


def reference_contains(iv, x):
    """The interval contract for one point, spelled out in scalar arithmetic."""
    tol = Fraction(1, 10 ** 9)
    if not is_exact_coord(x):
        lo, hi = float(iv.lo), float(iv.hi)
        ok_lo = x >= lo - TOL_EQ if iv.closed_lo else x > lo + TOL_EQ
        ok_hi = x <= hi + TOL_EQ if iv.closed_hi else x < hi - TOL_EQ
    elif is_exact_coord(iv.lo) and is_exact_coord(iv.hi):
        ok_lo = x >= iv.lo if iv.closed_lo else x > iv.lo
        ok_hi = x <= iv.hi if iv.closed_hi else x < iv.hi
    else:
        lo, hi = (c if is_exact_coord(c) else Fraction(c) for c in (iv.lo, iv.hi))
        ok_lo = x >= lo - tol if iv.closed_lo else x > lo + tol
        ok_hi = x <= hi + tol if iv.closed_hi else x < hi - tol
    return bool(ok_lo and ok_hi)


def test_interval_mask_matches_the_scalar_contract():
    # ends on, 1e-9 off and one ulp past exact Fibonacci points, exact or float
    patch = fibonacci_cut_project().window(Interval(-40, 40))
    exact = QuadArray.concat([patch.exact_positions(i) for i in range(patch.m)])
    xs, values = exact.floats(), [exact.value(k) for k in range(len(exact.a))]
    ends = []
    for v in values[::6]:
        f = float(v)
        ends += [v, v + Fraction(1, 10 ** 9), v - Fraction(1, 10 ** 9), f, f - 1e-9, f + 1e-9,
                 math.nextafter(f - 1e-9, -math.inf), math.nextafter(f + 1e-9, math.inf)]
    rng = np.random.default_rng(5)
    for _ in range(60):
        i, j = sorted(rng.choice(len(ends), 2, replace=False))
        for flags in ((True, True), (True, False), (False, True), (False, False)):
            iv = Interval(ends[i], ends[j], *flags)
            assert iv.mask(xs, exact).tolist() == [reference_contains(iv, v) for v in values]
            assert iv.mask(xs).tolist() == [reference_contains(iv, x) for x in xs.tolist()]
            assert all(iv.contains_value(v) == reference_contains(iv, v) for v in values[::10])


def test_box_and_ball():
    b = Box((0.0, 0.0), (2.0, 3.0))
    assert b.volume() == 6.0
    assert b.contains_point((2.0, 3.0))
    ball = Ball((0.0, 0.0), 2.0)
    assert abs(ball.volume() - np.pi * 4) < 1e-12
    assert ball.contains_point((2.0, 0.0))
    assert not ball.contains_point((2.0, 0.1))


def test_boundary_shell_1d():
    # ((202)-(198))/200 = 0.02 at n=100, r=1
    iv = Interval(-100.0, 100.0)
    assert abs(boundary_shell_volume(iv, 1.0) / iv.volume() - 0.02) < 1e-12


# ---------------------------------------------------------------------------
# cluster operations


def test_translate_examples():
    P = cluster_1d([0.0, 1.0])
    assert [p[0] for p in translate_cluster(P, (2.0,)).parts[0]] == [2.0, 3.0]
    assert translate_cluster(P, (0.0,)) == P
    Q = cluster_1d([0.0], [1.5])
    shifted = translate_cluster(Q, (-1.5,))
    assert [p[0] for p in shifted.parts[0]] == [-1.5]
    assert [p[0] for p in shifted.parts[1]] == [0.0]


def test_match_examples():
    assert match_clusters(cluster_1d([0.0, 1.0]), cluster_1d([5.0, 6.0])) == (5.0,)
    assert match_clusters(cluster_1d([0.0, 1.0]), cluster_1d([0.0, 2.0])) is None
    assert match_clusters(cluster_1d([0.0], []), cluster_1d([], [0.0])) is None


def test_match_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(25):
        pts = sorted(rng.uniform(0, 10, size=4))
        P = cluster_1d(pts[:2], pts[2:])
        x = float(rng.uniform(-5, 5))
        assert match_clusters(P, translate_cluster(P, (x,)))[0] == pytest.approx(x)
        assert match_clusters(translate_cluster(P, (x,)), P)[0] == pytest.approx(-x)


def test_cluster_distance_examples():
    P = cluster_1d([0.0, 1.0])
    assert cluster_distance(P, P) == 0.0
    assert cluster_distance(cluster_1d([0.0], [0.0]), cluster_1d([0.0], [])) == 1.0
    assert cluster_distance(cluster_1d([0.0, 1.0]), cluster_1d([0.1, 1.0])) == pytest.approx(0.1)


def test_cluster_distance_axioms_on_class_table():
    # symmetry + triangle inequality on representatives of one class table
    fib = fibonacci_cut_project()
    table = enumerate_cluster_classes(fib, 3.0, Interval(0.0, 400.0))
    reps = table.representatives
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c = (reps[i] for i in rng.integers(0, len(reps), 3))
        dab = cluster_distance(a, b)
        assert dab == pytest.approx(cluster_distance(b, a))
        assert cluster_distance(a, c) <= dab + cluster_distance(b, c) + 1e-12


# ---------------------------------------------------------------------------
# class enumeration


def test_lattice_classes():
    z = integer_lattice()
    t = enumerate_cluster_classes(z, 0.4, Interval(0.0, 60.0))
    assert t.n_classes == 1
    assert t.representatives[0].total_points == 1
    t = enumerate_cluster_classes(z, 1.0, Interval(0.0, 60.0))
    assert t.n_classes == 1
    assert t.representatives[0].total_points == 3  # {-1, 0, 1} anchored


def test_fibonacci_classes_scan_stability():
    fib = fibonacci_cut_project()
    small = enumerate_cluster_classes(fib, 3.0, Interval(0.0, 2000.0))
    large = enumerate_cluster_classes(fib, 3.0, Interval(0.0, 10000.0))
    assert small.n_classes == large.n_classes


def test_class_monotonicity_in_scan():
    fib = fibonacci_cut_project()
    small = enumerate_cluster_classes(fib, 2.0, Interval(0.0, 150.0))
    large = enumerate_cluster_classes(fib, 2.0, Interval(0.0, 600.0))
    for rep in small.representatives:
        assert large.class_of(rep) is not None


def test_empty_scan_errors():
    z = integer_lattice()
    with pytest.raises(ValueError):
        enumerate_cluster_classes(z, 1.0, Interval(0.2, 0.8))


# ---------------------------------------------------------------------------
# Delone parameters


def test_delone_params_examples():
    assert delone_params(integer_lattice(), Interval(0.0, 200.0)).eta == 1.0
    assert delone_params(integer_lattice(), Interval(0.0, 200.0)).b == 1.0
    d2 = delone_params(integer_lattice(2.0), Interval(0.0, 200.0))
    assert (d2.eta, d2.b) == (2.0, 2.0)
    fib = delone_params(fibonacci_cut_project(), Interval(0.0, 10000.0))
    tau = (1 + 5 ** 0.5) / 2
    assert fib.eta == pytest.approx(1.0, abs=1e-9)
    assert fib.b == pytest.approx(tau, abs=1e-9)


def test_delone_params_2d():
    z2 = lattice_source([[1.0, 0.0], [0.0, 1.0]])
    d = delone_params(z2, Box((0.0, 0.0), (20.0, 20.0)))
    assert d.eta == pytest.approx(1.0)
    assert d.b == pytest.approx(2 ** 0.5, rel=0.1)  # covering diameter of Z^2


def test_delone_needs_two_points():
    z = integer_lattice()
    with pytest.raises(ValueError):
        delone_params(z, Interval(0.1, 0.9))
