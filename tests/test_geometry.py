import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from pointspec.coords import GOLDEN, TOL_EQ, QuadArray, QuadNum, is_exact_coord
from pointspec.geometry import (
    Ball,
    Box,
    Cluster,
    Interval,
    MultiSetPatch,
    cluster_1d,
    cluster_distance,
    complex_keys,
    delone_params,
    enumerate_cluster_classes,
    first_labels,
    match_clusters,
    nearest,
    run_starts,
    tolerant_labels,
    within,
)
from pointspec.sources import (
    LatticeSource,
    PoissonSource,
    TranslatedSource,
    fibonacci_cut_project,
    fibonacci_substitution,
    integer_lattice,
    source_from_config,
)

from oracles import (batched_occurrence_index, boundary_shell_volume, coord_eq, dense_cluster_distance,
                     exact_occurrence_count)


# ---------------------------------------------------------------------------
# regions


def test_interval_basics():
    iv = Interval(0.0, 2.0)
    assert iv.volume() == 2.0
    assert iv.contains_point((0.0,)) and iv.contains_point((2.0,))
    assert not iv.contains_point((2.1,))
    assert iv.dilate(1.0).bounds() == ((-1.0, 3.0),)
    assert iv.erode(0.5).volume() == 1.0


def test_half_open_interval():
    iv = Interval(0.0, 1.0, True, False)
    assert iv.contains_point((0.0,))
    assert not iv.contains_point((1.0,))


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
    exact = patch.all_exact()
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
            assert all(iv.contains_point((v,)) == reference_contains(iv, v) for v in values[::10])
    # float points on each bound end -+ TOL_EQ, TOL_EQ and one ulp off it, on the
    # end, and at +-0.0 and +-inf, against finite, signed-zero and infinite ends
    for lo, hi in ((-1.5, 2.0), (0.0, 3.0), (-2.0, -0.0), (-0.0, 0.0), (-math.inf, 2.0), (1.0, math.inf)):
        pts = [0.0, -0.0, math.inf, -math.inf]
        for end in (lo, hi):
            for b in (end - TOL_EQ, end + TOL_EQ):
                pts += [end, b, b - TOL_EQ, b + TOL_EQ, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)]
        for flags in ((True, True), (True, False), (False, True), (False, False)):
            iv = Interval(lo, hi, *flags)
            assert iv.mask(np.array(pts)).tolist() == [reference_contains(iv, x) for x in pts], (lo, hi, flags)


def test_interval_mask_of_no_points_is_empty_for_every_kind_of_end():
    # float ends, exact ends and mixed ones, with and without exact points
    no_exact = QuadArray([], [], 1, GOLDEN)
    ends = [(0.0, 2.0), (Fraction(1, 3), 2), (QuadNum(-1, 1, GOLDEN), QuadNum(2, 1, GOLDEN)),
            (QuadNum(0, 1, GOLDEN), 3.5)]
    for lo, hi in ends:
        for flags in ((True, True), (True, False), (False, True), (False, False)):
            for x, exact in ((np.empty(0), None), (np.empty(0), no_exact), (np.empty((0, 1)), no_exact)):
                out = Interval(lo, hi, *flags).mask(x, exact)
                assert out.dtype == bool and out.shape == (0,), (lo, hi, flags)


def test_box_and_ball():
    b = Box((0.0, 0.0), (2.0, 3.0))
    assert b.volume() == 6.0
    assert b.contains_point((2.0, 3.0))
    ball = Ball((0.0, 0.0), 2.0)
    assert abs(ball.volume() - np.pi * 4) < 1e-12
    assert ball.contains_point((2.0, 0.0))
    assert not ball.contains_point((2.0, 0.1))
    # pi^(d/2) r^d / Gamma(d/2 + 1): 2r and pi r^2 bit for bit, 4/3 pi r^3 in 3D
    assert (Ball((0.0,), 2.5).volume(), ball.volume()) == (5.0, np.pi * 2.0 ** 2)
    ball3 = Ball((0.0, 0.0, 0.0), 2.0)
    assert abs(ball3.volume() - 4.0 / 3.0 * np.pi * 8.0) < 1e-12
    assert abs(Ball((0.0,) * 4, 2.0).volume() - np.pi ** 2 / 2.0 * 16.0) < 1e-12
    assert ball3.contains_point((0.0, 0.0, 2.0)) and not ball3.contains_point((1.5, 1.5, 0.1))


def test_boundary_shell_1d():
    # ((202)-(198))/200 = 0.02 at n=100, r=1
    iv = Interval(-100.0, 100.0)
    assert abs(boundary_shell_volume(iv, 1.0) / iv.volume() - 0.02) < 1e-12


# ---------------------------------------------------------------------------
# the colour-major patch layout


def assert_same_layout(got, want):
    """Per colour, the same float bits and the same exact (a, b, den)."""
    assert (got.m, got.exact) == (want.m, want.exact)
    for i in range(want.m):
        assert got.positions(i).tobytes() == want.positions(i).tobytes()
        q, r = got.exact_positions(i), want.exact_positions(i)
        if r is not None:
            assert (q.a.tolist(), q.b.tolist(), q.den) == (r.a.tolist(), r.b.tolist(), r.den)


def two_colour_patches():
    """A two-colour exact Fibonacci patch and the same chain shifted to floats."""
    fib = fibonacci_cut_project()
    return fib.window(Interval(-40, 40)), TranslatedSource(fib, 0.37).window(Interval(-40, 40))


@pytest.mark.parametrize("exact", [True, False])
def test_restrict_keeps_exactly_the_points_the_scalar_contract_admits(exact):
    patch = two_colour_patches()[0 if exact else 1]
    x, col = patch.all_positions()
    q = patch.all_exact()
    values = [q.value(k) for k in range(len(x))] if exact else x.tolist()
    lo, hi = patch.parts[1][2][0], patch.parts[0][-3][0]  # each end on a point
    assert (col[values.index(lo)], col[values.index(hi)]) == (1, 0)
    flo, fhi = float(lo), float(hi)
    ends = [(lo, hi), (flo, fhi), (flo - 1e-9, fhi + 1e-9), (flo + 1e-9, fhi - 1e-9)]
    if exact:  # exact ends 1e-9 off the points
        ends.append((lo - Fraction(1, 10 ** 9), hi + Fraction(1, 10 ** 9)))
    for a, b in ends:
        for flags in ((True, True), (True, False), (False, True), (False, False)):
            iv = Interval(a, b, *flags)
            inside = np.array([iv.contains_point((v,)) for v in values])
            want = MultiSetPatch.from_points(iv, 1, 2, x[inside], col[inside],
                                             q[inside] if exact else None)
            assert_same_layout(patch.restrict(iv), want)
            assert patch.restrict(iv).parts == tuple(
                tuple(p for p in part if iv.contains_point(p)) for part in patch.parts)


@pytest.mark.parametrize("exact", [True, False])
def test_translate_and_as_cluster_keep_the_from_points_layout(exact):
    patch = two_colour_patches()[0 if exact else 1]
    x, col = patch.all_positions()
    q = patch.all_exact()
    for v in (0.37, -3) + ((QuadNum(1, -1, GOLDEN),) if exact else ()):
        moved = q.shift(v) if exact and is_exact_coord(v) else None
        want = MultiSetPatch.from_points(patch.region.translate((v,)), 1, 2,
                                         x + float(v) if moved is None else moved.floats(), col, moved)
        assert_same_layout(patch.translate((v,)), want)
        assert_same_layout(patch.translate((v,)).as_cluster(), want)
    assert_same_layout(patch.as_cluster(), MultiSetPatch.from_points(None, 1, 2, x, col, q))


@pytest.mark.parametrize("h", [1e4, 1e8, 1e12])
def test_a_far_float_translate_keeps_its_points_and_counts_as_its_base(h):
    # moved by -h the chain stores fl(x - h), as a float patch always did; it
    # and its restrictions, also after a second move and back, count the
    # occurrences that exact keys count on the window they came from
    fib = fibonacci_cut_project()
    base, P = fib.window(Interval(h - 40, h + 40)), fib.window(Interval(0, 5)).as_cluster()
    moved = base.translate((-h,))
    assert not moved.exact and moved.all_exact() is None
    assert_same_layout(moved, MultiSetPatch.from_points(moved.region, 1, 2, base.all_positions()[0] - h,
                                                        base.all_positions()[1]))
    near, back = base.restrict(Interval(h - 20, h + 20)), moved.translate((0.25,)).translate((-0.25,))
    for patch, window in ((moved, base), (moved.restrict(Interval(-20, 20)), near),
                          (back.restrict(Interval(-20, 20)), near)):
        assert patch.total_points == window.total_points
        assert len(patch.occurrence_index(P)) == exact_occurrence_count(window, P) > 0


# ---------------------------------------------------------------------------
# cluster operations


def test_translate_examples():
    P = cluster_1d([0.0, 1.0])
    assert [p[0] for p in P.translate((2.0,)).parts[0]] == [2.0, 3.0]
    assert P.translate((0.0,)) == P
    Q = cluster_1d([0.0], [1.5])
    shifted = Q.translate((-1.5,))
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
        assert match_clusters(P, P.translate((x,)))[0] == pytest.approx(x)
        assert match_clusters(P.translate((x,)), P)[0] == pytest.approx(-x)


def test_cluster_distance_examples():
    P = cluster_1d([0.0, 1.0])
    assert cluster_distance(P, P) == 0.0
    assert cluster_distance(cluster_1d([0.0], [0.0]), cluster_1d([0.0], [])) == 1.0
    assert cluster_distance(cluster_1d([0.0, 1.0]), cluster_1d([0.1, 1.0])) == pytest.approx(0.1)


def test_cluster_distance_matches_the_dense_formula():
    # the nearest-point distances both ways against every |P| x |Q| distance,
    # in 1D and 2D, with colours empty on one side or both
    rng = np.random.default_rng(12)
    for dim in (1, 2):
        for _ in range(60):
            parts = [[[tuple(p) for p in rng.integers(-6, 7, (rng.integers(0, 5), dim)) * 0.5
                       + rng.normal(0, 0.1, dim)] for _ in range(2)] for _ in range(2)]
            P, Q = (Cluster(part, dim=dim) for part in parts)
            assert cluster_distance(P, Q) == dense_cluster_distance(P, Q), parts


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


def test_square_lattice_classes():
    # every closed ball of Z^2 is one class, anchored at its lexicographically smallest point
    z2 = LatticeSource([[1.0, 0.0], [0.0, 1.0]])
    scan = Box((0.0, 0.0), (5.0, 5.0))
    plus = enumerate_cluster_classes(z2, 1.0, scan)
    assert (plus.n_classes, plus.counts) == (1, [36])
    assert plus.representatives[0].to_json() == [[[0.0, 0.0], [1.0, -1.0], [1.0, 0.0], [1.0, 1.0],
                                                  [2.0, 0.0]]]
    square = enumerate_cluster_classes(z2, 1.5, scan)  # the diagonal neighbours join at sqrt 2
    assert (square.n_classes, square.counts) == (1, [36])
    assert square.representatives[0] == Cluster([[(x, y) for x in range(3) for y in range(3)]])


@pytest.mark.parametrize("shift", [None, (0.37, -0.21)])
def test_square_lattice_balls_keep_the_points_on_their_sphere(shift):
    # (3, 4) and its 11 images lie at distance exactly 5: a closed ball of
    # radius 5 holds them (81 points) until R + TOL_EQ drops below 5 (69)
    z2 = LatticeSource([[1.0, 0.0], [0.0, 1.0]])
    src = z2 if shift is None else TranslatedSource(z2, shift)
    for R, size in ((5.0, 81), (5.0 - TOL_EQ, 81), (5.0 - 2 * TOL_EQ, 69)):
        table = enumerate_cluster_classes(src, R, Box((-2.0, -2.0), (2.0, 2.0)))
        assert (table.n_classes, table.counts) == (1, [25 if shift is None else 16])
        rep = table.representatives[0]
        assert rep.total_points == size
        # the full ball is anchored at (-5, 0), so (3, 4) sits at (8, 4)
        assert size == 69 or [8.0, 4.0] in rep.to_json()[0]


def test_float_key_splits_merge_into_the_exact_classes():
    # shifted by 7.25 the chain is float, and equal balls once rounded to
    # different 1e-9 grid keys (12 classes): grouped in runs of gaps of at
    # most TOL_EQ they fall into the exact classes
    shifted = TranslatedSource(fibonacci_cut_project(), 7.25)
    floats = enumerate_cluster_classes(shifted, 5.5, Interval(0, 3000))
    exact = enumerate_cluster_classes(fibonacci_cut_project(), 5.5, Interval(7.25, 3007.25))
    assert not any(r.exact for r in floats.representatives)
    assert sorted(floats.counts) == sorted(exact.counts) == [121, 195, 196, 392, 632, 634]
    assert sorted(exact.class_of(r) for r in floats.representatives) == list(range(6))
    assert [exact.counts[exact.class_of(r)] for r in floats.representatives] == floats.counts


@pytest.mark.parametrize("R, want", [(3.0, [210, 210, 210, 340, 470]),
                                     (5.5, [80, 130, 130, 260, 420, 420])])
def test_every_description_of_the_chain_has_the_same_classes(R, want):
    # cut and project, exact and float-length substitution, and the chain moved
    # by h (float points): one class table, scanned on [10 + h, 2000 + h]
    fib = fibonacci_cut_project()
    float_lengths = source_from_config({"type": "substitution", "letters": "ab", "expansions": ["ab", "a"],
                                        "lengths": [1.618033988749895, 1.0]})
    cases = [(fib, 0.0), (fibonacci_substitution(), 0.0), (float_lengths, 0.0)]
    cases += [(TranslatedSource(fib, h), h) for h in (0.3, 7.25, 1e4)]
    for src, h in cases:
        assert sorted(enumerate_cluster_classes(src, R, Interval(10 + h, 2000 + h)).counts) == want, h


def test_classes_scan_must_start_R_past_a_left_end():
    # the one-sided substitution chain scanned from its first point sees a
    # sixth class, a ball cut off at 0; from 10 on it has the two-sided classes
    sub, cp = fibonacci_substitution(), fibonacci_cut_project()
    with pytest.raises(ValueError, match="left end"):
        enumerate_cluster_classes(sub, 3.0, Interval(0.0, 2000.0))
    with pytest.raises(ValueError, match="left end"):
        enumerate_cluster_classes(TranslatedSource(sub, 5.0), 3.0, Interval(-3.0, 2000.0))
    assert enumerate_cluster_classes(TranslatedSource(sub, 5.0), 3.0, Interval(-2.0, 2000.0)).n_classes == 5
    got, want = (enumerate_cluster_classes(s, 3.0, Interval(10.0, 2010.0)) for s in (sub, cp))
    assert got.n_classes == want.n_classes == 5
    assert sorted(got.counts) == sorted(want.counts)
    assert sorted(want.class_of(r) for r in got.representatives) == list(range(5))


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
    z2 = LatticeSource([[1.0, 0.0], [0.0, 1.0]])
    d = delone_params(z2, Box((0.0, 0.0), (20.0, 20.0)))
    assert d.eta == pytest.approx(1.0)
    assert d.b == pytest.approx(2 ** 0.5, rel=0.1)  # covering diameter of Z^2


def test_delone_needs_two_points():
    z = integer_lattice()
    with pytest.raises(ValueError):
        delone_params(z, Interval(0.1, 0.9))


# ---------------------------------------------------------------------------
# the tolerant grouping of floats


def test_values_astride_a_grid_boundary_form_one_group():
    # within 1e-13 of (k + 1/2) TOL_EQ, where rounding to the TOL_EQ grid splits them
    for mid in (4236067977.5 * TOL_EQ, -12.5 * TOL_EQ, 0.5 * TOL_EQ):
        v = np.array([mid - 5e-14, mid + 5e-14])
        assert np.rint(v[0] / TOL_EQ) != np.rint(v[1] / TOL_EQ)
        assert first_labels(v)[1].tolist() == [0, 0]
        assert tolerant_labels(v)[0][0] == tolerant_labels(v)[0][1]


def test_values_two_tolerances_apart_form_two_groups():
    v = np.array([3.0, 3.0 + 2 * TOL_EQ, 3.0 + 1e-12])
    first, label = first_labels(v)
    assert first.tolist() == [0, 1] and label.tolist() == [0, 1, 0]
    assert run_starts(np.sort(v)).tolist() == [True, False, True]


def test_groups_are_numbered_by_first_appearance_and_keep_the_first_value():
    v = np.array([5.0, 1.0, 5.0 + 1e-12, 1.0 - 1e-12, -2.0, 5.0 - 1e-12])
    first, label = first_labels(v)
    assert first.tolist() == [0, 1, 4] and label.tolist() == [0, 1, 0, 1, 2, 0]
    rows = np.array([[1, 2], [3, 4], [1, 2], [1, 3]])  # integer rows: equal entry by entry
    assert [x.tolist() for x in first_labels(rows)] == [[0, 1, 3], [0, 1, 0, 2]]
    empty = first_labels(np.empty(0))
    assert len(empty[0]) == len(empty[1]) == 0 and [x.tolist() for x in tolerant_labels(np.empty((0, 2)))] == [[], []]


def test_points_group_per_coordinate():
    v = np.array([[0.0, 5.0], [1e-12, 3.0], [3.0, 5.0 + 1e-12], [3.0 + 1e-12, 1e-12]])
    x, y = tolerant_labels(v)
    assert x[0] == x[1] != x[2] == x[3]
    assert y[0] == y[2] and len({y[0], y[1], y[3]}) == 3


def test_values_near_1e10_group_like_any_others():
    # the grid keys needed |v| below 2**62 TOL_EQ, about 4.6e9
    v = np.array([1e10, np.nextafter(1e10, np.inf), 1e10, -1e10, -1e10 + 1e-12])
    first, label = first_labels(v)
    assert first.tolist() == [0, 1, 3] and label.tolist() == [0, 1, 0, 2, 2]


def test_a_chain_of_near_duplicates_keeps_only_its_first_point():
    # each gap is below TOL_EQ, though the ends are more than TOL_EQ apart
    cl = cluster_1d([0.0, 0.6e-9, 1.2e-9, 1.8e-9, 5.0], [1.2e-9])
    assert cl.to_json() == [[[0.0], [5.0]], [[1.2e-9]]]


def brute_within(keys, lo, hi):
    pairs = [(r, j) for r in range(len(lo)) for j in range(len(keys)) if lo[r] <= keys[j] < hi[r]]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def dense_nearest(pos, targets):
    """(index, distance) from every |pos - t|, the last index among equal distances."""
    diff = pos[None] - targets[:, None]
    d = np.abs(diff) if pos.ndim == 1 else np.sqrt((diff ** 2).sum(axis=2))
    last = d.shape[1] - 1 - np.argmin(d[:, ::-1], axis=1)
    return last, d.min(axis=1)


def test_nearest_matches_a_dense_search():
    rng = np.random.default_rng(21)
    pos = np.sort(rng.uniform(-5, 5, 40))
    targets = np.concatenate([rng.uniform(-6, 6, 200), [-100.0, -5.5, 5.5, 100.0], pos])  # past both ends
    for got, want in zip(nearest(pos, targets), dense_nearest(pos, targets)):
        assert got.tolist() == want.tolist()
    k, dist = nearest(pos, np.float64(pos[3] + 1e-3))  # a scalar target, as coefficient passes
    assert (int(k), float(dist)) == (3, abs(pos[3] - (pos[3] + 1e-3)))
    # ties: a target midway between two points takes the later one
    pos = np.array([0.0, 1.0, 2.0, 4.0])
    assert nearest(pos, np.array([0.5, 1.5, 3.0, -1.0, 9.0]))[0].tolist() == [1, 2, 3, 0, 3]
    # complex keys: exact whenever the nearest point is closer than the next colour
    col, x = rng.integers(0, 3, 60), rng.uniform(-5, 5, 60)
    keys = np.sort(complex_keys(col, x))
    targets = complex_keys(rng.integers(0, 3, 300), rng.uniform(-6, 6, 300))
    (k, dist), (wk, wdist) = nearest(keys, targets), dense_nearest(keys, targets)
    near = wdist < 1
    assert near.sum() > 200 and (dist[~near] >= 1).all()
    assert k[near].tolist() == wk[near].tolist() and dist[near].tolist() == wdist[near].tolist()
    # 2D points by the KD-tree, targets of shape (N, d) and (N, K, d)
    pos = rng.uniform(-5, 5, (50, 2))
    targets = rng.uniform(-6, 6, (120, 2))
    (k, dist), (_, wdist) = nearest(pos, targets), dense_nearest(pos, targets)
    assert dist.tolist() == wdist.tolist()
    assert (np.sqrt(((pos[k] - targets) ** 2).sum(axis=1)) == dist).all()
    assert nearest(pos, targets.reshape(40, 3, 2))[1].tolist() == dist.reshape(40, 3).tolist()


def test_nearest_in_no_points_is_infinitely_far():
    for pos, targets, shape in ((np.empty(0), np.array([1.0, 2.0]), (2,)),
                                (np.empty(0, dtype=complex), complex_keys([0, 1], [1.0, 2.0]), (2,)),
                                (np.empty((0, 2)), np.zeros((3, 4, 2)), (3, 4))):
        k, dist = nearest(pos, targets)
        assert k.shape == dist.shape == shape
        assert (k == 0).all() and (dist == np.inf).all()


def test_within_empty_keys_and_reversed_bounds():
    rows, idx = within(np.empty(0), np.array([0.0, 1.0]), np.array([2.0, 3.0]))
    assert len(rows) == len(idx) == 0
    keys = np.arange(10.0)
    rows, idx = within(keys, np.array([5.0, 2.0]), np.array([3.0, 4.0]))  # lo > hi is empty
    assert rows.tolist() == [1, 1] and idx.tolist() == [2, 3]


def test_within_complex_colour_position_keys():
    keys = complex_keys(np.array([0, 0, 0, 1, 1]), np.array([0.0, 1.0, 2.0, 0.5, 1.5]))
    c = np.array([0, 1])
    rows, idx = within(keys, complex_keys(c, np.array([0.5, 0.0])),
                       complex_keys(c, np.array([2.5, 1.0])))
    assert rows.tolist() == [0, 0, 1] and idx.tolist() == [1, 2, 3]  # colour 1 never reaches 0


def test_within_matches_a_double_loop():
    rng = np.random.default_rng(4)
    keys = np.sort(rng.integers(0, 20, 40).astype(float))  # with repeated keys
    lo = rng.uniform(-2, 22, 30)
    hi = lo + rng.uniform(-3, 6, 30)
    rows, idx = within(keys, lo, hi)
    assert (rows.tolist(), idx.tolist()) == brute_within(keys, lo, hi)


# ---------------------------------------------------------------------------
# the array Cluster against the tuple store it replaced


class TupleCluster:
    """Reference: one sorted tuple of coordinate tuples per colour, as the
    Cluster store kept its points before it held arrays."""

    def __init__(self, parts):
        norm = []
        for part in parts:
            pts = sorted((tuple(p) for p in part), key=lambda p: tuple(map(float, p)))
            dedup = []
            for p in pts:
                if not dedup or not all(coord_eq(a, b) for a, b in zip(dedup[-1], p)):
                    dedup.append(p)
            norm.append(tuple(dedup))
        self.parts = tuple(norm)

    def anchor_point(self):
        pts = sorted((p for part in self.parts for p in part), key=lambda p: tuple(map(float, p)))
        return pts[0] if pts else None

    def anchor_color(self):
        a = self.anchor_point()
        return next(i for i, part in enumerate(self.parts)
                    if part and all(float(x) == float(y) for x, y in zip(part[0], a)))

    def translate(self, vec):
        return TupleCluster([[tuple(c + v for c, v in zip(p, vec)) for p in part]
                             for part in self.parts])

    def signature(self):
        # exact values key exactly, floats on their bits (-0.0 as 0.0)
        return tuple(tuple(tuple(c if is_exact_coord(c) else (float(c) + 0.0).hex() for c in p) for p in part)
                     for part in self.parts)


def tuple_match(P, Q, tol=TOL_EQ):
    if any(len(a) != len(b) for a, b in zip(P.parts, Q.parts)):
        return None
    ap, aq = P.anchor_point(), Q.anchor_point()
    if ap is None:
        return (0.0,) * 1
    x = tuple(cq - cp for cp, cq in zip(ap, aq))
    shifted = Q.translate(tuple(-c for c in x))
    for pa, pb in zip(P.parts, shifted.parts):
        if not all(coord_eq(c, d, tol) for a, b in zip(pa, pb) for c, d in zip(a, b)):
            return None
    return x


def tuple_eq(P, Q):
    return all(len(pa) == len(pb) and all(coord_eq(c, d) for a, b in zip(pa, pb)
                                          for c, d in zip(a, b))
               for pa, pb in zip(P.parts, Q.parts))


def tuple_distance(P, Q):
    worst = 0.0
    for pa, pb in zip(P.parts, Q.parts):
        if not pa and not pb:
            continue
        if not pa or not pb:
            worst = max(worst, 1.0)
            continue
        dist = [[math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(p, q))) for q in pb]
                for p in pa]
        worst = max(worst, max(min(row) for row in dist), max(min(col) for col in zip(*dist)))
    return worst


def cluster_pairs(parts_list):
    return [(Cluster(p, dim=1), TupleCluster(p)) for p in parts_list]


def oracle_clusters():
    """Exact Fibonacci windows (anchored and not) and float lattice clusters."""
    fib = fibonacci_cut_project()
    exact = []
    for lo, w in ((0, 5), (-3, 2), (1.5, 4), (2, 1.7), (7, 6), (-9, 3), (30, 5), (41.2, 3)):
        patch = fib.window(Interval(lo, lo + w))
        exact.append(patch.parts)
        a = patch.as_cluster().anchor_point()[0]
        exact.append([[(p[0] - a,) for p in part] for part in patch.parts])
    rng = np.random.default_rng(8)
    floats = [[[(float(c),) for c in rng.integers(-4, 5, rng.integers(0, 4))] for _ in range(2)]
              for _ in range(30)]
    floats += [[[(0.0,), (1.0 + 1e-10,), (1.0,)], [(2.5,)]], [[(0.0,), (3.0,)], []]]
    return cluster_pairs(exact), cluster_pairs([p for p in floats if any(p)])


def test_occurrence_index_matches_the_batched_rule():
    # 1D tests one cluster point at a time; the index set is the one of
    # testing every point of a colour at once, under translate bounds too
    fib = fibonacci_cut_project()
    sources = [fib, TranslatedSource(fib, 0.37), integer_lattice(1.0, colors=2), PoissonSource(1.0, seed=5)]
    bounds = [(-math.inf, math.inf), (-20.0, 5.0), (3.0, 3.0), (12.5, -4.0)]
    sizes, spans = [], 0
    for src in sources:
        patch = src.window(Interval(-60, 60))
        assert patch.exact == (src is fib)
        clusters = [src.window(Interval(lo, lo + w)).as_cluster() for lo, w in ((0, 4), (-7.3, 6.1), (11.2, 2.5))]
        clusters += [Cluster.from_arrays(1, src.m, [0.0], [c]) for c in range(src.m)]  # single points
        clusters += [Cluster.from_arrays(1, src.m, [0.0, 0.123456], [0, src.m - 1])]  # no occurrence
        for P in clusters:
            spans += P.m == 2 and all(len(P.positions(c)) for c in range(2))
            for lo, hi in bounds:
                got = patch.occurrence_index(P, lo, hi)
                assert got.tolist() == batched_occurrence_index(patch, P, lo, hi).tolist()
                sizes.append(len(got))
    assert spans >= 6 and min(sizes) == 0 and max(sizes) > 50
    # 2D keeps its batched search
    plane = LatticeSource(np.eye(2), colors=2).window(Box((-4.0, -4.0), (4.0, 4.0)))
    # (coordinate-sum parity colours: both clusters occur, the last only in colour 1)
    for parts in ([[(0.0, 0.0), (1.0, 1.0)], [(1.0, 0.0), (0.0, 1.0)]], [[], [(0.0, 0.0)]]):
        P = Cluster(parts, dim=2)
        got = plane.occurrence_index(P)
        assert got.tolist() == batched_occurrence_index(plane, P).tolist() and len(got)


def test_array_cluster_matches_tuple_reference():
    for pairs in oracle_clusters():
        for P, T in pairs:
            assert P.parts == T.parts
            assert P.anchor_point() == T.anchor_point()
            assert P.anchor_color() == T.anchor_color()
            for v in (0.5, -2.0) + ((QuadNum(1, -1, GOLDEN), QuadNum(-3, 2, GOLDEN)) if P.exact else ()):
                assert P.translate((v,)).parts == T.translate((v,)).parts
        for (P, T), (Q, U) in itertools.product(pairs, repeat=2):
            assert (P.signature() == Q.signature()) == (T.signature() == U.signature())
            assert match_clusters(P, Q) == tuple_match(T, U)
            assert cluster_distance(P, Q) == tuple_distance(T, U)
            assert (P == Q) == tuple_eq(T, U)


def test_equal_float_clusters_hash_equal():
    # float equality is within TOL_EQ, so the hash may not read the positions
    P, Q = cluster_1d([0.0, 1.0]), cluster_1d([0.6e-9, 1.0])
    assert P == Q
    assert hash(P) == hash(Q)
    assert len({P, Q}) == 1
    assert len({P, cluster_1d([0.0, 1.1]), cluster_1d([0.0], [1.0])}) == 3


def test_empty_clusters_compare_and_hash():
    for empty in (Cluster([]), cluster_1d([], [])):
        assert empty == Cluster([[] for _ in range(empty.m)])
        assert hash(empty) == hash(Cluster([[] for _ in range(empty.m)]))
        assert empty.is_empty() and empty.anchor_point() is None
