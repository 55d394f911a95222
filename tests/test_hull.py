from fractions import Fraction

import numpy as np
import pytest

from pointspec.coords import GOLDEN, TOL_EQ, QuadArray, QuadNum, is_exact_coord
from pointspec.geometry import Box, Cluster, Interval, MultiSetPatch, cluster_1d
from pointspec.hull import (
    METRIC_CAP,
    CylinderSpec,
    HullPartition,
    IncompletePartitionError,
    PartitionCell,
    PatchTooSmallError,
    _Cylinders,
    build_partition_1d,
    cylinder_contains,
    empirical_cylinder_measure,
    _match_predicate,
    _predicate_sides,
    _cell_keys,
    _scan_pieces,
    hull_metric,
    hull_metrics,
    metric_window,
    partition_params,
)
from pointspec.sources import (
    LatticeSource,
    PointSource,
    PoissonSource,
    TranslatedSource,
    fibonacci_cut_project,
    fibonacci_substitution,
    integer_lattice,
    period_doubling_source,
    source_from_config,
    thue_morse_source,
)
from pointspec.stats import _count_in_patch, halton

from oracles import coord_key, plateau, sequential_hull_metric


# ---------------------------------------------------------------------------
# the metric


def test_metric_identity():
    z = integer_lattice()
    br = hull_metric(z, z, eps_grid=0.01)
    assert br.lower == 0.0
    assert br.upper <= 0.01


def test_metric_refines_with_grid():
    z = integer_lattice()
    coarse = hull_metric(z, z, eps_grid=0.05).upper
    fine = hull_metric(z, z, eps_grid=0.005).upper
    assert fine <= coarse


def test_metric_shifted_lattice():
    z = integer_lattice()
    br = hull_metric(z, TranslatedSource(z, 0.1), eps_grid=0.01)
    assert br.contains(0.05)
    assert br.upper - br.lower <= 0.01


@pytest.mark.parametrize("eps_grid", [0.0, -1.0, float("nan")])
def test_metric_rejects_a_nonpositive_grid(eps_grid):
    z = integer_lattice()
    with pytest.raises(ValueError, match="eps_grid must be positive"):
        hull_metric(z, TranslatedSource(z, 0.1), eps_grid=eps_grid)


class _LatticePlusFarPoint(PointSource):
    """Z with one extra point far from the origin (outside B_100)."""

    dim = 1
    m = 1
    coords = "float"
    id = "Z+far"

    def __init__(self):
        self.base = integer_lattice()

    def _query(self, region):
        x, color = self.base._query(region)
        return np.append(x, 500.25), np.append(color, 0)


def test_metric_far_modification_small():
    z = integer_lattice()
    mod = _LatticePlusFarPoint()
    br = hull_metric(z, mod, eps_grid=0.005)
    assert br.upper <= 0.01  # x = y = 0 matches out to radius 1/eps < 500


def test_metric_symmetry_and_cap():
    z = integer_lattice()
    fib = fibonacci_cut_project()
    a = hull_metric(z, fib, eps_grid=0.02)
    b = hull_metric(fib, z, eps_grid=0.02)
    assert abs(a.upper - b.upper) <= 0.02 + 1e-9
    assert a.upper <= 2 ** -0.5 + 1e-12


def test_metric_triangle_sampled():
    fib = fibonacci_cut_project()
    eps_grid = 0.05
    hs = halton(20) * 40.0
    srcs = [TranslatedSource(fib, float(h)) for h in hs]
    rng = np.random.default_rng(0)
    for _ in range(20):
        i, j, k = rng.integers(0, len(srcs), 3)
        dij = hull_metric(srcs[i], srcs[j], eps_grid=eps_grid).upper
        djk = hull_metric(srcs[j], srcs[k], eps_grid=eps_grid).upper
        dik = hull_metric(srcs[i], srcs[k], eps_grid=eps_grid).lower
        assert dik <= dij + djk + 2 * eps_grid


# ---------------------------------------------------------------------------
# orbit sampling


def scalar_mismatched(a1, a2, tol):
    """Reference symmetric difference of two sorted 1D sets: a tolerant merge."""
    out = []
    i = j = 0
    while i < len(a1) and j < len(a2):
        d = a1[i] - a2[j]
        if abs(d) <= tol:
            i += 1
            j += 1
        elif d < 0:
            out.append(a1[i])
            i += 1
        else:
            out.append(a2[j])
            j += 1
    out.extend(a1[i:])
    out.extend(a2[j:])
    return out


def scalar_match_predicate(s1, s2, eps, tol=TOL_EQ):
    """Reference matching predicate: per-point shift search, per-shift merge.
    Each input is a source (windowed) or a patch (restricted)."""
    L = 1.0 / eps
    near = Interval(-(L + 4 * eps), L + 4 * eps)
    wins = [s.restrict(near) if isinstance(s, MultiSetPatch) else s.window(near) for s in (s1, s2)]
    pos1, pos2 = ([w.positions(i) for i in range(w.m)] for w in wins)
    m = max(len(pos1), len(pos2))

    def slab(pos, lo, hi):
        return pos[np.searchsorted(pos, lo - tol):np.searchsorted(pos, hi + tol)]

    def part(pos, i):
        return pos[i] if i < len(pos) else np.empty(0)

    any1 = any(len(slab(p, -L - eps, L + eps)) for p in pos1)
    any2 = any(len(slab(p, -L - eps, L + eps)) for p in pos2)
    if not any1 and not any2:
        return True
    if not any1 or not any2:
        return False
    deltas = []
    for i in range(m):
        p2 = part(pos2, i)
        for p in slab(part(pos1, i), -L - eps, L + eps):
            a = np.searchsorted(p2, p - 2 * eps - tol)
            b = np.searchsorted(p2, p + 2 * eps + tol)
            deltas.extend(p - q for q in p2[a:b])
    if not deltas:
        return False
    deltas = np.array(sorted(deltas))
    deltas = deltas[np.concatenate([[True], np.diff(deltas) > tol])]
    for delta in deltas:
        x_lo, x_hi = max(-eps, delta - eps), min(eps, delta + eps)
        if x_lo > x_hi + tol:
            continue
        blockers = []
        for i in range(m):
            a1 = slab(part(pos1, i), -L - eps, L + eps)
            a2 = slab(part(pos2, i) + delta, -L - eps, L + eps)
            blockers.extend(scalar_mismatched(a1, a2, tol))
        cur, feasible = x_lo, False
        for a, b in sorted((d - L - tol, d + L + tol) for d in blockers):
            if a > cur and cur < x_hi:
                feasible = True
                break
            cur = max(cur, b)
            if cur > x_hi:
                break
        if feasible or cur < x_hi:
            return True
    return False


def test_match_predicate_matches_scalar_reference():
    # one batched call decides every (pair, eps) query
    z, fib = integer_lattice(), fibonacci_cut_project()
    tm, comb = thue_morse_source(), integer_lattice(1.0, colors=2)
    pairs = [(z, TranslatedSource(z, 0.1)), (integer_lattice(2.0), TranslatedSource(z, 0.3)),
             (comb, TranslatedSource(comb, 2.04)), (fib, TranslatedSource(fib, 0.05)),
             (fib, TranslatedSource(fib, (1 + 5 ** 0.5) / 2 + 0.02)), (fib, z),
             (tm, TranslatedSource(tm, 4.03)),
             (PoissonSource(1.0, seed=7), TranslatedSource(PoissonSource(1.0, seed=7), 0.01)),
             (z.window(Interval(-120, 120)), TranslatedSource(z, 0.07).window(Interval(-120, 120)))]
    ladder = [METRIC_CAP, 0.5, 0.3, 0.2, 0.12, 0.07, 0.04, 0.025, 0.011]
    reach = 1.0 / ladder[-1] + 4 * METRIC_CAP
    p1, p2 = zip(*([s if isinstance(s, MultiSetPatch) else s.window(Interval(-reach, reach)) for s in pair]
                   for pair in pairs))
    queries = [(i, eps) for i in range(len(pairs)) for eps in ladder]
    sides = _predicate_sides(p1, p2)
    got = _match_predicate(sides, [i for i, _ in queries], [eps for _, eps in queries])
    assert got.dtype == bool and got.shape == (len(queries),)
    want = [scalar_match_predicate(*pairs[i], eps) for i, eps in queries]
    assert got.tolist() == want
    assert set(want) == {True, False}
    # the same decisions one query at a time, and in another order
    for k in (0, 13, len(queries) - 1):
        i, eps = queries[k]
        assert _match_predicate(sides, [i], [eps]).tolist() == [want[k]]
    assert _match_predicate(sides, [i for i, _ in queries[::-1]],
                            [eps for _, eps in queries[::-1]]).tolist() == want[::-1]


def test_match_predicate_degenerate_shift_stays_infeasible():
    # the only candidate shift, delta = -0.5 - 5e-10, leaves x in [-0.25, -0.25 - 5e-10]:
    # empty, so no x fits, and a mismatched point at L + eps = 4.25 cannot change that
    eps, region = 0.25, Interval(-5, 5)
    other = MultiSetPatch.from_points(region, 1, 1, [0.5 + 5e-10], [0])
    ps = [MultiSetPatch.from_points(region, 1, 1, pts, [0] * len(pts)) for pts in ([0.0], [0.0, 4.25])]
    assert _match_predicate(_predicate_sides(ps, [other, other]), [0, 1], [eps, eps]).tolist() == [False, False]
    for p in ps:
        assert not scalar_match_predicate(p, other, eps)


def test_match_predicate_tie_conventions():
    # set 1 = {0, d}, set 2 = {-delta}: the one candidate shift is delta, so
    # x lies in [x_lo, x_hi] = [max(-eps, delta - eps), min(eps, delta + eps)],
    # and d is the one mismatched point.  It forbids the x within L + TOL_EQ
    # of it: x >= top = d - L - TOL_EQ for d >= 0, x <= bottom = d + L + TOL_EQ
    # for d < 0.  A shift fits when max(x_lo, bottom) < min(x_hi, top), so a
    # point exactly at x_hi + L + TOL_EQ or x_lo - L - TOL_EQ leaves the shift
    # feasible, and one exactly at x_lo + L + TOL_EQ or x_hi - L - TOL_EQ
    # closes it.  delta is chosen so that each tie holds in floats.
    eps, L, region = 0.25, 4.0, Interval(-5, 5)
    below, above = 0.125 - TOL_EQ, 0.125 + TOL_EQ
    cases = [  # (delta, d, the end d touches, feasible)
        (below - eps, 4.125, "x_hi", True),  # d = x_hi + L + TOL_EQ
        (eps - below, -4.125, "x_lo", True),  # d = x_lo - L - TOL_EQ
        (eps - above, 3.875, "x_lo", False),  # d = x_lo + L + TOL_EQ
        (above - eps, -3.875, "x_hi", False),  # d = x_hi - L - TOL_EQ
    ]
    p1, p2 = [], []
    for delta, d, end, feasible in cases:
        x_lo, x_hi = max(-eps, delta - eps), min(eps, delta + eps)
        tie = d - L - TOL_EQ if d >= 0 else d + L + TOL_EQ
        assert tie == (x_lo if end == "x_lo" else x_hi) and x_lo < x_hi
        p1.append(MultiSetPatch.from_points(region, 1, 1, sorted([0.0, d]), [0, 0]))
        p2.append(MultiSetPatch.from_points(region, 1, 1, [-delta], [0]))
        assert scalar_match_predicate(p1[-1], p2[-1], eps) == feasible, (delta, d)
    want = [feasible for *_, feasible in cases]
    assert _match_predicate(_predicate_sides(p1, p2), range(len(cases)), [eps] * len(cases)).tolist() == want


@pytest.mark.parametrize("eps", [0.0, -0.1, 0.75, 2.0, float("nan")])
def test_match_predicate_rejects_eps_outside_the_cap(eps):
    # each shift is bounded by one mismatched point per side only while eps < 1/eps
    p = MultiSetPatch.from_points(Interval(-50, 50), 1, 1, [0.0, 1.0], [0, 0])
    with pytest.raises(ValueError, match="eps must lie in"):
        _match_predicate(_predicate_sides([p], [p]), [0], [eps])
    with pytest.raises(ValueError, match="eps must lie in"):  # one bad query spoils the batch
        _match_predicate(_predicate_sides([p], [p]), [0, 0], [0.5, eps])


def test_every_predicate_call_of_the_metric_matches_scalar_reference(monkeypatch):
    # every (pair, eps) query hull_metrics makes, including slabs empty on
    # both sides (True) or on one side (False), and one batch mixing m = 1
    # and m = 2 pairs, which packs (pair, colour) into the keys
    import pointspec.hull as hull

    calls, built = [], {}  # built: id of each sides array set -> (patches1, patches2, it)
    real_sides, real_predicate = hull._predicate_sides, hull._match_predicate

    def sides(p1, p2):
        out = real_sides(p1, p2)
        built[id(out)] = (p1, p2, out)  # out kept alive, so no later set reuses its id
        return out

    def record(arrays, pair, eps):
        p1, p2, _ = built[id(arrays)]
        calls.append((p1, p2, list(pair), list(eps), real_predicate(arrays, pair, eps).tolist()))
        return np.array(calls[-1][-1])

    monkeypatch.setattr(hull, "_predicate_sides", sides)
    monkeypatch.setattr(hull, "_match_predicate", record)
    z, fib, sparse, pz = integer_lattice(), fibonacci_cut_project(), integer_lattice(10.0), PoissonSource(1.0, seed=3)
    comb = integer_lattice(1.0, colors=2)
    pairs = [(fib, TranslatedSource(fib, h)) for h in (halton(6) * 40.0).tolist()] + [
        (z, TranslatedSource(z, 0.1)), (fib, z), (sparse, TranslatedSource(sparse, 5.0)),
        (TranslatedSource(sparse, 5.0), TranslatedSource(sparse, 5.5)), (pz, TranslatedSource(pz, 0.02))]
    mixed = [(comb, TranslatedSource(comb, 1.02)), (sparse, TranslatedSource(sparse, 5.0)), (z, comb),
             (TranslatedSource(sparse, 5.0), TranslatedSource(sparse, 5.5)), (comb, TranslatedSource(z, 0.04))]
    for grid in (0.05, 0.01):
        hull_metrics(pairs, eps_grid=grid)
    hull_metrics(mixed, eps_grid=0.05)
    assert {p.m for p in calls[-1][0] + calls[-1][1]} == {1, 2}
    results = [r for *_, out in calls for r in out]
    assert set(results) == {True, False}
    for p1, p2, pair, eps, out in calls:
        for i, e, r in zip(pair, eps, out):
            assert r == scalar_match_predicate(p1[i], p2[i], e), (i, e)


def translated_windows(source, offsets, region):
    """The samples -h + source on region, one per offset h: the windows
    TranslatedSource opens."""
    return [TranslatedSource(source, h).window(region) for h in offsets]


def test_metric_brackets_do_not_depend_on_how_far_a_sample_reaches():
    # the predicate reads only points near the origin: translates of one wide
    # window and the translated windows on metric_window give the same brackets
    fib = fibonacci_cut_project()
    for eps_grid, n in ((0.05, 100), (0.01, 40)):
        master = fib.window(Interval(0.0, 50.0).dilate(metric_window(eps_grid).hi))
        offsets = [(halton(n, b) * 50.0).tolist() for b in (2, 3)]
        wide = [[master.translate((-h,)) for h in hs] for hs in offsets]
        cut = [translated_windows(fib, hs, metric_window(eps_grid)) for hs in offsets]
        assert all(p.total_points > q.total_points for p, q in zip(wide[0], cut[0]))
        brackets = [[(br.lower, br.upper) for br in hull_metrics(list(zip(*s)), eps_grid=eps_grid)]
                    for s in (wide, cut)]
        assert brackets[0] == brackets[1]
        assert len(set(brackets[0])) > 2


def test_metrics_match_the_sequential_search_pair_by_pair():
    # more pairs than one slice, at two grids: each slice holds brackets at
    # METRIC_CAP, with lower 0.0 and bisected ones, and pairs failing at the
    # cap and holding down the whole ladder alternate across the slice
    # boundary; the fine grids need more bisection steps than one call decides
    import pointspec.hull as hull

    fib, z, sparse, b = fibonacci_cut_project(), integer_lattice(), integer_lattice(10.0), hull._METRIC_SLICE
    n = b + 20
    h1, h2 = (halton(n, base) * 40.0 for base in (2, 3))
    fails, holds = (sparse, TranslatedSource(sparse, 5.0)), (fib, fib)
    for grid in (0.05, 0.01):
        near = metric_window(grid)
        pairs = list(zip(translated_windows(fib, h1.tolist(), near), translated_windows(fib, h2.tolist(), near)))
        pairs[b - 3:b + 3] = [fails, holds, fails, holds, fails, holds]
        pairs[b + 5] = (z, TranslatedSource(z, 0.1))
        got = hull_metrics(pairs, eps_grid=grid)
        assert len(got) == n and all(br.eps_grid == grid for br in got)
        got = [(br.lower, br.upper) for br in got]
        assert got == [sequential_hull_metric(s1, s2, grid) for s1, s2 in pairs]
        floor = got[b - 2][1]
        for part in (got[:b], got[b:]):
            assert (METRIC_CAP, METRIC_CAP) in part and (0.0, floor) in part
            assert any(0.0 < lo < METRIC_CAP for lo, _ in part)
    few = [(fib, TranslatedSource(fib, h)) for h in (1.3, 7.7, 0.02)] + [(z, TranslatedSource(z, 0.3)), (z, z)]
    for grid in (1e-3, 0.3, 2.0):
        want = [sequential_hull_metric(s1, s2, grid) for s1, s2 in few]
        assert [(br.lower, br.upper) for br in hull_metrics(few, eps_grid=grid)] == want
    assert hull_metrics([], eps_grid=0.05) == []


def test_metrics_need_patches_covering_every_descent_epsilon():
    # the sequential search stops at its first failure (eps = 0.044 here) and
    # reads only [-23, 23]; the batch decides the whole descent, down to
    # eps = 0.0055, so a patch must cover metric_window(eps_grid)
    z = integer_lattice()
    short = [s.window(Interval(-30, 30)) for s in (z, TranslatedSource(z, 0.1))]
    lo, hi = sequential_hull_metric(*short, 0.01)
    assert lo <= 0.05 <= hi
    with pytest.raises(ValueError, match="does not cover"):
        hull_metrics([tuple(short)], eps_grid=0.01)
    with pytest.raises(ValueError, match="does not cover"):
        hull_metric(*short, eps_grid=0.01)
    full = [s.window(metric_window(0.01)) for s in (z, TranslatedSource(z, 0.1))]
    br = hull_metric(*full, eps_grid=0.01)
    assert (br.lower, br.upper) == (lo, hi)
    # also when every pair of the batch fails at METRIC_CAP
    sparse = integer_lattice(10.0)
    apart = tuple(s.window(Interval(-30, 30)) for s in (sparse, TranslatedSource(sparse, 5.0)))
    assert sequential_hull_metric(*apart, 0.01) == (METRIC_CAP, METRIC_CAP)
    with pytest.raises(ValueError, match="does not cover"):
        hull_metrics([apart] * 3, eps_grid=0.01)


class _CountingSource:
    """A source that counts its window queries and keeps their regions."""

    def __init__(self, base):
        self.base, self.dim, self.m, self.calls, self.regions = base, base.dim, base.m, 0, []

    def window(self, region):
        self.calls += 1
        self.regions.append(region)
        return self.base.window(region)


def test_metric_windows_each_source_once():
    z, fib = integer_lattice(), fibonacci_cut_project()
    for s1, s2, grid in [(z, TranslatedSource(z, 0.1), 0.01), (z, TranslatedSource(z, 0.1), 2.0),
                         (fib, TranslatedSource(fib, 3.3), 0.05), (z, z, 0.005)]:
        c1, c2 = _CountingSource(s1), _CountingSource(s2)
        assert hull_metric(c1, c2, eps_grid=grid) == hull_metric(s1, s2, eps_grid=grid)
        assert (c1.calls, c2.calls) == (1, 1)


# ---------------------------------------------------------------------------
# cylinders


def test_cylinder_examples():
    z = integer_lattice()
    patch = z.window(Interval(-5, 5))
    assert cylinder_contains(patch, CylinderSpec(cluster_1d([0.0]), Interval(-0.2, 0.2)))
    assert not cylinder_contains(patch, CylinderSpec(cluster_1d([0.0]), Interval(0.3, 0.4)))
    shifted = TranslatedSource(z, -0.35).window(Interval(-5, 5))
    assert not cylinder_contains(shifted, CylinderSpec(cluster_1d([0.0]), Interval(0.3, 0.4)))


def test_cylinder_patch_too_small_is_an_error():
    z = integer_lattice()
    patch = z.window(Interval(-1, 1))
    with pytest.raises(PatchTooSmallError):
        cylinder_contains(patch, CylinderSpec(cluster_1d([0.0, 1.0, 2.0]), Interval(-3.0, 3.0)))


def test_cylinder_decision_rejects_other_shapes_before_any_search(monkeypatch):
    # a cluster with another colour count than the patch, and a 2D patch
    def searched(*args):
        raise AssertionError("an occurrence search ran")

    monkeypatch.setattr(MultiSetPatch, "occurrence_index", searched)
    one_colour = build_partition_1d(integer_lattice(), 1.0, 0.6, scan_length=200)
    two_colours = integer_lattice(colors=2).window(Interval(-8, 8))
    with pytest.raises(ValueError, match="cluster shape"):
        cylinder_contains(two_colours, one_colour.cells[0].cylinder())
    with pytest.raises(ValueError, match="cluster shape"):
        one_colour.locate(two_colours)
    P = Cluster([[(0.0, 0.0), (1.0, 0.0)]], dim=2)
    part = HullPartition(cells=[PartitionCell(P, P, Interval(-0.2, 0.2), 0)], radius=1.0, delta=0.5,
                         representatives=[P])
    plane = LatticeSource(np.eye(2)).window(Box((-3.0, -3.0), (3.0, 3.0)))
    with pytest.raises(NotImplementedError):
        cylinder_contains(plane, part.cells[0].cylinder())
    with pytest.raises(NotImplementedError):
        part.locate(plane)


def _has_point(patch, color, x, tol=TOL_EQ):
    """Tolerant membership by a linear scan (no sorted search)."""
    return bool(np.any(np.abs(patch.positions(color) - x) <= tol))


def scalar_occurrences(patch, P, lo=-np.inf, hi=np.inf, tol=TOL_EQ):
    """Reference L_P, tried one anchor-colour point q_j at a time: the
    translates pos[j] - anchor, and q_j - anchor in scalar exact arithmetic
    (None unless the patch and P are both exact)."""
    color = P.anchor_color()
    av = float(P.anchor_point()[0])
    pos = patch.positions(color)
    js = [j for j in range(np.searchsorted(pos, lo + av - tol),
                           np.searchsorted(pos, hi + av + tol))
          if all(_has_point(patch, i, pos[j] - av + float(p[0]), tol)
                 for i, part in enumerate(P.parts) for p in part)]
    exact = None
    if patch.exact and P.exact:
        exact = [patch.parts[color][j][0] - P.anchor_point()[0] for j in js]
    return [pos[j] - av for j in js], exact


def assert_occurrences_match(patch, P, lo=-np.inf, hi=np.inf):
    """occurrences against the scalar search; returns the translates."""
    v, exact = patch.occurrences(P, lo, hi)
    want, want_exact = scalar_occurrences(patch, P, lo, hi)
    assert v.tolist() == want
    assert (None if exact is None else [exact.value(k) for k in range(len(v))]) == want_exact
    return want


def scalar_cylinder_contains(patch, cyl, tol=TOL_EQ):
    """Reference cylinder decision: the per-candidate loop, g tested against V
    first (exactly for exact inputs), then every point of -g + P looked up."""
    P, V = cyl.cluster, cyl.window
    anchor, color = P.anchor_point(), P.anchor_color()
    av = float(anchor[0])
    pos = patch.positions(color)
    exactish = patch.exact and all(is_exact_coord(p[0]) for part in P.parts for p in part)
    for j in range(np.searchsorted(pos, av - float(V.hi) - tol),
                   np.searchsorted(pos, av - float(V.lo) + tol)):
        if exactish:
            g = anchor[0] - patch.parts[color][j][0]
            if not V.contains_point((g,)):
                continue
        else:
            g = av - pos[j]
            if not V.contains_point((g,)):
                continue
        if all(_has_point(patch, i, float(p[0] - g) if exactish else float(p[0]) - g, tol)
               for i, part in enumerate(P.parts) for p in part):
            return True
    return False


def assert_kernel_matches_oracle(patch, cyl):
    P = cyl.cluster
    want = scalar_cylinder_contains(patch, cyl)
    assert cylinder_contains(patch, cyl) == want
    occ = assert_occurrences_match(patch, P)
    assert _count_in_patch(patch, P) == len(occ)
    return want


def test_occurrences_match_the_scalar_search_under_bounds():
    # clusters anchored in either colour, some with no points of a colour,
    # each within its own translate bounds
    fib = fibonacci_cut_project()
    patch = fib.window(Interval(-40, 40))
    clusters = [fib.window(Interval(lo, lo + w)).as_cluster() for lo, w in ((0, 3), (2.5, 1.2), (-7, 4.4))]
    clusters += [cluster_1d([0.0], []), cluster_1d([], [0.0]), cluster_1d([0.0, 2.618033988749895], []),
                 cluster_1d([], [0.0, 3.618033988749895]), cluster_1d([0.0], [1.618033988749895])]
    bounds = [(-np.inf, np.inf), (-20.0, 5.0), (-3.5, 30.0), (0.0, 0.0)]
    found = 0
    for c, P in enumerate(clusters):
        lo, hi = bounds[c % len(bounds)]
        found += bool(assert_occurrences_match(patch, P, lo, hi))
    assert found > 3


def test_cylinder_kernel_matches_scalar_oracle_exact_fibonacci():
    fib = fibonacci_cut_project()
    clusters = [fib.window(Interval(lo, lo + w)).as_cluster()
                for lo, w in ((0, 5), (-3, 2), (1.5, 4), (2, 1.7))]
    clusters.append(cluster_1d([QuadNum(0, 0, GOLDEN)], []))
    shifts = [QuadNum(a, b, GOLDEN) for a, b in ((0, 0), (1, 0), (-2, 1), (3, -2), (-1, 1))]
    hits = 0
    for s in shifts:
        patch = TranslatedSource(fib, s).window(Interval(-16, 16))
        assert patch.exact
        for P in clusters:
            # -s + P lies in the patch, so g = s whenever P occurs at 0 in fib;
            # the last two windows put g 1e-10 outside an end, where only the
            # exact test of g against V decides
            for dlo, dhi, clo, chi in (("-0.1", "0.1", True, True), ("0", "0.2", True, False),
                                       ("0", "0.2", False, True), ("-0.2", "0", True, False),
                                       ("-0.2", "0", False, True), ("0.05", "0.15", True, True),
                                       ("1e-10", "0.2", True, True), ("-1e-10", "0.2", False, True)):
                V = Interval(s + Fraction(dlo), s + Fraction(dhi), clo, chi)
                hits += assert_kernel_matches_oracle(patch, CylinderSpec(P, V))
    assert 0 < hits


def test_cylinder_kernel_matches_scalar_oracle_float_lattice():
    shifts = [0.0, 0.3, -0.25, 0.1 + 0.2] + list(halton(12) * 3.0 - 1.5)
    clusters = [cluster_1d([0.0]), cluster_1d([0.0, 1.0]), cluster_1d([0.0, 2.0, 3.0]),
                cluster_1d([0.0, 0.5]), cluster_1d([-1.0, 0.0, 1.0])]
    windows = [Interval(0.0, 0.3, True, False), Interval(0.3, 0.4), Interval(-0.2, 0.2, False, True),
               Interval(-0.3, 0.25, False, False), Interval(0.25, 0.5, True, False)]
    hits = 0
    for src in (integer_lattice(), integer_lattice(colors=2)):
        for h in shifts:
            patch = TranslatedSource(src, h).window(Interval(-8, 8))
            for P in clusters:
                if src.m == 2:
                    P = cluster_1d(*[[p[0] for p in P.parts[0]][k::2] for k in (0, 1)])
                for V in windows:
                    hits += assert_kernel_matches_oracle(patch, CylinderSpec(P, V))
    assert 0 < hits


def test_cylinder_kernel_matches_scalar_oracle_on_partition_cell_ends():
    fib = fibonacci_cut_project()
    part = build_partition_1d(fib, 3.0, 0.2)
    master = fib.window(Interval(-60, 60))
    points = [{p[0] for p in part_i} for part_i in master.parts]  # exact values, equal exactly
    shifts = []
    for cell in part.cells:
        P = cell.pinned
        a = P.anchor_point()[0]
        # an exact occurrence v of the pinned cluster in the Fibonacci set
        v = next(q[0] - a for q in master.parts[P.anchor_color()]
                 if all(q[0] - a + p[0] in points[i]
                        for i, pts in enumerate(P.parts) for p in pts))
        # in -s + fib the cluster sits at v - s, i.e. g = s - v lands on a cell end
        for end in (cell.window.lo, cell.window.hi):
            shifts.append(v + end)
    for s in dict.fromkeys(shifts):  # each exact shift once
        patch = TranslatedSource(fib, s).window(Interval(-16, 16))
        assert patch.exact
        hits = [k for k, cell in enumerate(part.cells)
                if assert_kernel_matches_oracle(patch, cell.cylinder())]
        assert len(hits) == 1
        assert part.locate(patch) == hits


def test_grouped_locate_matches_per_cell_oracle_on_float_patches():
    # one search per pinned cluster decides all its cells: compare with the
    # per-cell scalar oracle on float patches, at random offsets and with
    # the offset g on a cell end (as floats)
    fib = fibonacci_cut_project()
    part = build_partition_1d(fib, 3.0, 0.2)
    master = fib.window(Interval(-60, 60))
    offsets = (halton(40) * 300.0).tolist()
    for cell in part.cells[::3]:
        v = master.occurrences(cell.pinned)[0][0]
        offsets += [v + float(cell.window.lo), v + float(cell.window.hi)]
    cases = [(part, [TranslatedSource(fib, h).window(Interval(-16, 16)) for h in offsets])]
    for z, R, delta in ((integer_lattice(), 1.0, 0.3), (integer_lattice(2.0), 1.5, 0.7),
                        (integer_lattice(1.0, colors=2), 1.0, 0.3)):
        lat = build_partition_1d(z, R, delta, scan_length=200)
        ends = [float(e) for c in lat.cells for e in (c.window.lo, c.window.hi)]
        cases.append((lat, [TranslatedSource(z, h).window(Interval(-8, 8))
                            for h in ends + (halton(20) * 3.0).tolist()]))
    hits = 0
    for p, patches in cases:
        for patch in patches:
            want = [k for k, cell in enumerate(p.cells)
                    if scalar_cylinder_contains(patch, cell.cylinder())]
            assert p.locate(patch) == want
            hits += len(want)
    assert hits > 0


def assert_orbit_hits_match(cylinders, source, offsets, region):
    """orbit_hits against cylinder_contains and the scalar oracle on every
    translated window; returns the number of hits."""
    got = _Cylinders(cylinders).orbit_hits(source, offsets, region)
    patches = translated_windows(source, offsets, region)
    assert got.tolist() == [[cylinder_contains(p, c) for c in cylinders] for p in patches]
    assert got.tolist() == [[scalar_cylinder_contains(p, c) for c in cylinders] for p in patches]
    return int(got.sum())


def _cell_end_offsets(part, master):
    """Per cell, the exact offsets s = v + end that put g = s - v on each end
    of its window, v an exact occurrence of its pinned cluster in master."""
    return [master.occurrences(cell.pinned)[1].value(0) + end
            for cell in part.cells for end in (cell.window.lo, cell.window.hi)]


def test_orbit_hits_match_locate_on_every_sample():
    # float offsets, the cell ends as exact offsets (g on a closed lo and an
    # open hi end, and 1e-10 either side of a lo end, decided exactly) and
    # as float ones, all in one call
    fib = fibonacci_cut_project()
    part = build_partition_1d(fib, 3.0, 0.2)
    exact = _cell_end_offsets(part, fib.window(Interval(-60, 60)))
    assert all(is_exact_coord(s) for s in exact)
    near = [s + d for s in exact[0::2] for d in (Fraction(1, 10**10), -Fraction(1, 10**10))]
    offsets = (halton(120) * 500.0).tolist() + exact + near + [float(s) for s in exact + near]
    region = Interval(-16, 16)
    got = part._cylinders.orbit_hits(fib, offsets, region)
    patches = translated_windows(fib, offsets, region)
    assert [np.flatnonzero(row).tolist() for row in got] == [part.locate(p) for p in patches]
    assert got.tolist() == [[scalar_cylinder_contains(p, cell.cylinder()) for cell in part.cells]
                            for p in patches]
    assert (got.sum(axis=1) == 1).all()
    # an exact g on a cell's closed lo end lies in that cell, on its open hi end in the next
    ends = got[120:120 + len(exact)].argmax(axis=1)
    assert ends[0::2].tolist() == list(range(part.n_cells))
    assert all(k != c for c, k in enumerate(ends[1::2].tolist()))


def test_orbit_hits_match_cylinder_contains_on_window_ends():
    # translates on closed and open ends of V, in float and exact arithmetic
    z, comb, fib = integer_lattice(), integer_lattice(colors=2), fibonacci_cut_project()
    windows = [Interval(0.0, 0.3, True, False), Interval(0.3, 0.4), Interval(-0.2, 0.2, False, True),
               Interval(-0.3, 0.25, False, False), Interval(0.25, 0.5, True, False)]
    lattice_offsets = [0.0, 0.3, -0.2, 0.2, 0.25, 0.5, -0.3, 0.4] + (halton(40) * 30.0 - 15.0).tolist()
    hits = sum(assert_orbit_hits_match([CylinderSpec(P, V) for P in clusters for V in windows],
                                       src, lattice_offsets, Interval(-8, 8))
               for src, clusters in ((z, [cluster_1d([0.0]), cluster_1d([0.0, 1.0]), cluster_1d([-1.0, 0.0, 2.0])]),
                                     (comb, [cluster_1d([0.0], [1.0]), cluster_1d([0.0, 2.0], [])])))
    P = fib.window(Interval(0, 5)).as_cluster()
    cyls = [CylinderSpec(P, Interval(lo, hi, clo, chi))
            for lo, hi, clo, chi in ((0, Fraction(1, 5), True, False), (-Fraction(1, 5), 0, True, False),
                                     (-Fraction(1, 5), 0, True, True), (0, Fraction(1, 5), False, True),
                                     (Fraction(1, 10**10), Fraction(1, 5), True, True),
                                     (-0.1, 0.1, True, True), (0.0, 0.2, False, True))]
    # P occurs at 0 in fib, so offset s puts g = s: on an end for s = 0 and +-1/5
    fib_offsets = [0, Fraction(1, 5), -Fraction(1, 5), QuadNum(1, 0, GOLDEN), 0.0, 0.2, -0.2,
                   Fraction(1, 10**10), 1e-10] + (halton(40) * 200.0).tolist()
    hits += assert_orbit_hits_match(cyls, fib, fib_offsets, Interval(-16, 16))
    assert hits > 20


def test_orbit_hits_try_the_candidates_hits_tries():
    # h = 0.1 - TOL_EQ puts the translate -h of 0 exactly on the bound
    # hi + anchor + TOL_EQ, which hits never tries, while g = h passes the
    # slack of the closed end 0.1; the float neighbours of h either side too
    cyl = CylinderSpec(cluster_1d([0.0]), Interval(0.1, 0.4, True, False))
    at = 0.1 - TOL_EQ
    offsets = [at, np.nextafter(at, 1.0), np.nextafter(at, 0.0), 0.1, 0.4 - TOL_EQ, 0.4]
    got = _Cylinders([cyl]).orbit_hits(integer_lattice(), offsets, Interval(-3, 3))
    assert got[:, 0].tolist() == [False, True, False, True, False, False]
    assert assert_orbit_hits_match([cyl], integer_lattice(), offsets, Interval(-3, 3)) == 2


def test_orbit_hits_match_hits_on_the_translated_windows():
    # each row is hits on the window TranslatedSource opens, on a half-open
    # region, for float and exact offsets and for two colours alike
    fib, comb = fibonacci_cut_project(), integer_lattice(colors=2)
    region = Interval(-16, 16, True, False)
    comb_cyls = _Cylinders([CylinderSpec(cluster_1d([0.0], [1.0]), Interval(-0.3, 0.3, True, False)),
                            CylinderSpec(cluster_1d([0.0, 2.0], []), Interval(0.2, 0.7))])
    for src, cyls, offsets in (
            (fib, build_partition_1d(fib, 3.0, 0.2)._cylinders,
             (halton(60) * 500.0).tolist() + [QuadNum(3, -1, GOLDEN), QuadNum(-5, 4, GOLDEN)]),
            (comb, comb_cyls, (halton(30) * 7.0).tolist())):
        got = cyls.orbit_hits(src, offsets, region)
        assert got.tolist() == [cyls.hits(p).tolist() for p in translated_windows(src, offsets, region)]
        assert got.any()


def test_orbit_hits_open_one_window_per_run():
    # offsets farther apart than the region take windows of their own, float
    # and exact ones alike, and no window spans the gap between two runs
    z, fib = integer_lattice(), fibonacci_cut_project()
    far = [QuadNum(0, 0, GOLDEN), QuadNum(10**5, 1, GOLDEN), QuadNum(3, 1, GOLDEN),
           QuadNum(-6 * 10**4, 0, GOLDEN), QuadNum(10**5 + 5, -2, GOLDEN)]
    region = Interval(-16, 16)
    for base, offsets, runs in ((z, [0.0, 1e6, 5.0, -3e5, 1e6 + 40.3], 3),
                                (fib, [0.0, 1e5, 3.3, 1e5 + 0.7], 2), (fib, far, 3)):
        src = _CountingSource(base)
        P = base.window(Interval(0, 3)).as_cluster()
        cyls = _Cylinders([CylinderSpec(P, Interval(-0.5, 0.5)), CylinderSpec(P, Interval(0.6, 0.9, True, False))])
        got = cyls.orbit_hits(src, offsets, region)
        assert src.calls == runs
        assert sum(r.volume() for r in src.regions) <= 2 * region.volume() * len(offsets)
        assert got.tolist() == [cyls.hits(p).tolist() for p in translated_windows(base, offsets, region)]
        assert got[0, 0]


def test_sample_orbit_opens_no_window_over_a_gap():
    # offsets far apart, up to 1e12 and in any order, are cut from windows of
    # their own, and each row is the one the offset gets when decided alone
    region = Interval(-16, 16)
    for base, offsets, runs in ((integer_lattice(), [0.0, 1e6, 5.0, -3e5, 1e6 + 40.0], 3),
                                (fibonacci_cut_project(), [0.0, 1e12], 2),
                                (fibonacci_cut_project(), [1e12 + 20.0, 0.0, 1e12, 33.0], 2)):
        src = _CountingSource(base)
        P = base.window(Interval(0, 3)).as_cluster()
        cyls = _Cylinders([CylinderSpec(P, Interval(-0.5, 0.5)), CylinderSpec(P, Interval(0.6, 0.9, True, False))])
        got = cyls.orbit_hits(src, offsets, region)
        assert src.calls == runs
        assert sum(r.volume() for r in src.regions) <= 2 * region.volume() * len(offsets)
        assert got.tolist() == [cyls.orbit_hits(base, [h], region)[0].tolist() for h in offsets]
        assert got[offsets.index(0.0), 0]


def test_orbit_hits_on_a_region_just_covering_the_reach():
    # a region within 2 TOL_EQ of the reach (and of the rounding of its
    # translates) makes each sample a run of its own, windowed on its moved
    # region; a smaller one raises PatchTooSmallError, as the per-patch path
    # does, at any offset
    z = integer_lattice()
    cyls = [CylinderSpec(cluster_1d([0.0, 1.0]), Interval(-0.25, 0.25)),
            CylinderSpec(cluster_1d([0.0]), Interval(0.5, 1.0, False, True))]
    reach = _Cylinders(cyls).reach
    assert (float(reach.lo), float(reach.hi)) == (-1.0, 1.25)
    near = [0.0, 0.25, -0.25, 0.5, 1.0, 0.75] + (halton(20) * 4.0).tolist()
    tight, small = Interval(float(reach.lo) + 0.9e-9, float(reach.hi) - 0.9e-9), Interval(-1.0, 1.2)
    for far in (0.0, 1e8, 1e10, 1e12):
        offsets = [far + h for h in near]
        assert assert_orbit_hits_match(cyls, z, offsets, reach) > 0
        src = _CountingSource(z)
        _Cylinders(cyls).orbit_hits(src, offsets, reach)
        assert src.regions == [reach.translate((h,)) for h in sorted(offsets)]  # a run of one each
        assert assert_orbit_hits_match(cyls, z, offsets, tight) > 0
        with pytest.raises(PatchTooSmallError):
            _Cylinders(cyls).orbit_hits(z, offsets, small)
        with pytest.raises(PatchTooSmallError):
            _Cylinders(cyls).hits(TranslatedSource(z, offsets[0]).window(small))
    # inside 1e-9 of the reach: at h = -(0.25 + 0.95e-9), g = h lies in [-0.25, 0.25] with
    # its slack, but the point 1 - h of the occurrence at -h falls outside the sample
    at = -(0.25 + 0.95e-9)
    assert _Cylinders(cyls).orbit_hits(z, [at, 0.0], tight)[:, 0].tolist() == [False, True]
    assert assert_orbit_hits_match(cyls, z, near + [at, -at], tight) > 0


@pytest.mark.parametrize("e", range(6, 13))
def test_orbit_hits_at_far_offsets_are_the_exact_rows(e):
    # offsets 10^e + k: orbit_hits, hits on the windows moved by the float
    # offsets and hits on those moved by the exact integer offsets agree
    fib = fibonacci_cut_project()
    P = fib.window(Interval(0, 3)).as_cluster()
    cyls = _Cylinders([CylinderSpec(P, Interval(-0.5, 0.5)), CylinderSpec(P, Interval(0.6, 0.9, True, False))])
    region, offsets = Interval(-16, 16), [10 ** e + k for k in range(40)]
    got = cyls.orbit_hits(fib, [float(h) for h in offsets], region)
    for hs in ([float(h) for h in offsets], offsets):
        assert got.tolist() == [cyls.hits(p).tolist() for p in translated_windows(fib, hs, region)]
    assert got[:, 0].sum() > 5
    # exact offsets that put g on a closed end of exact windows, decided exactly
    cyls = _Cylinders([CylinderSpec(P, Interval(-Fraction(1, 2), Fraction(1, 2))),
                       CylinderSpec(P, Interval(Fraction(3, 5), Fraction(9, 10)))])
    v = fib.window(Interval(10 ** e - 8, 10 ** e + 8)).occurrences(P)[1]
    ties = [v.value(k) + end for k in range(len(v.a)) for end in (-Fraction(1, 2), Fraction(9, 10))]
    got = cyls.orbit_hits(fib, ties, region)
    assert got.tolist() == [cyls.hits(p).tolist() for p in translated_windows(fib, ties, region)]
    assert got[0::2, 0].all() and got[1::2, 1].all() and len(ties) >= 4


# ---------------------------------------------------------------------------
# partition


def test_partition_without_cells_locates_nothing():
    empty = HullPartition(cells=[], radius=1.0, delta=0.5, representatives=[])
    assert empty.locate(integer_lattice().window(Interval(-3, 3))) == []
    assert empty._cylinders.orbit_hits(integer_lattice(), [0.0, 0.5, 1e6], Interval(-3, 3)).shape == (3, 0)


def test_partition_lattice_cells():
    part = build_partition_1d(integer_lattice(), 1.0, 0.6, scan_length=200)
    assert len(part.representatives) == 1
    assert part.n_cells == 2
    assert sum(c.window.volume() for c in part.cells) == pytest.approx(1.0)
    for cell in part.cells:
        assert cell.window.volume() < 0.6
        assert not cell.window.closed_hi  # half-open grid cells


def test_partition_2z_cells():
    part = build_partition_1d(integer_lattice(2.0), 1.5, 0.7, scan_length=300)
    assert len(part.representatives) == 2
    assert part.n_cells == 4  # two length-1 windows, two cells each
    assert sum(c.window.volume() for c in part.cells) == pytest.approx(2.0)


@pytest.mark.parametrize("scan_length", [-5.0, 0.0])
def test_partition_rejects_nonpositive_scan_length(scan_length):
    with pytest.raises(ValueError, match="scan_length must be positive"):
        build_partition_1d(fibonacci_cut_project(), 3.0, 0.2, scan_length=scan_length)


def test_partition_rejects_bad_parameters():
    z = integer_lattice()
    with pytest.raises(ValueError):
        build_partition_1d(z, 0.3, 0.5, scan_length=100)  # R < b/2
    with pytest.raises(ValueError):
        build_partition_1d(z, 1.0, 1.5, scan_length=100)  # delta >= eta


def test_partition_scan_stability_guard():
    fib = fibonacci_cut_project()
    with pytest.raises(IncompletePartitionError):
        build_partition_1d(fib, 3.0, 0.2, scan_length=16.0)
    # too short to close a piece (once n_cells 0), or to see every piece; a
    # config error, as the scan length is a value the caller chose
    for length in (1.0, 5.0):
        with pytest.raises(IncompletePartitionError, match="still growing"):
            build_partition_1d(fib, 3.0, 0.2, scan_length=length)
    assert issubclass(IncompletePartitionError, ValueError)


def end_keys(w) -> list:
    """Each window end's value: exact, as (a, b) over the denominator, or as a float."""
    return list(zip(w.a.tolist(), w.b.tolist(), [w.den] * len(w.a))) if isinstance(w, QuadArray) else w.tolist()


def piece_identities(pieces) -> set:
    """Each piece's identity: its clusters' signatures and its window ends' keys."""
    reps, pinned, w_lo, w_hi, _ = pieces
    return set(zip([r.signature() for r in reps], [p.signature() for p in pinned], end_keys(w_lo), end_keys(w_hi)))


def two_scans_agree(source, R, scan_length):
    """The two-scan completeness test: a scan to 0.6 scan_length finds
    every piece a scan to scan_length finds, and that scan finds one."""
    full = piece_identities(_scan_pieces(source, R, 0.0, scan_length))
    return bool(full) and piece_identities(_scan_pieces(source, R, 0.0, scan_length * 0.6)) == full


def test_one_scan_completeness_decision_matches_two_scans():
    fib, z, z2 = fibonacci_cut_project(), integer_lattice(), integer_lattice(2.0)
    cases = [(fib, 3.0, 0.2, L) for L in list(range(16, 33)) + list(range(40, 601, 40))]
    # lattice scans whose 0.6 L falls on an event (0.6 L = 1, 2, 3) or between two
    cases += [(z, 1.0, 0.6, L) for L in (0.5, 1.0, 1.5, 5 / 3, 2.0, 10 / 3, 5.0, 200.0)]
    cases += [(z2, 1.5, 0.7, L) for L in (1.0, 2.0, 5 / 3, 4.0, 5.0, 10.0, 300.0)]
    seen = set()
    for source, R, delta, L in cases:
        try:
            build_partition_1d(source, R, delta, scan_length=L)
            complete = True
        except IncompletePartitionError:
            complete = False
        assert complete == two_scans_agree(source, R, L), (R, L)
        seen.add((source, complete))
    assert len(seen) == 6  # each source scanned both too short and long enough


def former_sort_key(cl):
    """The cell order of the scalar view: per colour, each point's coord_keys."""
    return tuple(tuple(tuple(coord_key(c) for c in p) for p in part) for part in cl.parts)


FLOAT_FIBONACCI = {"type": "substitution", "letters": "ab", "expansions": ["ab", "a"],
                   "lengths": [1.618033988749895, 1.0]}


@pytest.mark.parametrize("source, exact", [
    (fibonacci_cut_project(), True), (thue_morse_source(), True),
    (TranslatedSource(fibonacci_cut_project(), Fraction(1, 3)), True),
    (TranslatedSource(fibonacci_cut_project(), 0.37), False),
    (fibonacci_substitution(), True), (period_doubling_source(), True),
    (TranslatedSource(fibonacci_cut_project(), 1e4), False),
    (TranslatedSource(fibonacci_cut_project(), 1e8), False),
    (source_from_config(FLOAT_FIBONACCI), False),
    (TranslatedSource(thue_morse_source(), 0.3), False),
    (TranslatedSource(period_doubling_source(), 0.3), False),
    (integer_lattice(), False), (TranslatedSource(integer_lattice(), 0.1), False),
    (integer_lattice(2.0), False), (integer_lattice(1.0, colors=2), False)])
def test_cell_order_on_arrays_is_the_scalar_views_order(source, exact):
    # exact values order by their (a, b) numerators, floats by value with each
    # run_starts run as one value: the former coord_key order, ties included
    reps, pinned, w_lo, w_hi, _ = _scan_pieces(source, 3.0, 0.0, 600.0)
    assert all(cl.exact == exact for cl in reps + pinned)
    ends = [w_hi.value(i) if exact else float(w_hi[i]) for i in range(len(reps))]
    former = [(former_sort_key(r), coord_key(e), p.total_points) for r, e, p in zip(reps, ends, pinned)]

    def ranks(keys):  # each piece's place among the distinct keys: the order and its ties
        order = sorted(set(keys))
        return [order.index(k) for k in keys]

    assert ranks(_cell_keys(reps, pinned, w_hi)) == ranks(former)
    assert len(set(former)) >= min(len(reps), 11)  # the lattices have one or two pieces
    if isinstance(source, TranslatedSource) and source.shift == (Fraction(1, 3),):
        assert reps[0].exact_positions(0).den == 3


def test_partition_fibonacci_disjoint_cover():
    fib = fibonacci_cut_project()
    part = build_partition_1d(fib, 3.0, 0.2, scan_length=1500)
    for h in halton(150) * 300.0:
        patch = TranslatedSource(fib, float(h)).window(Interval(-16, 16))
        assert len(part.locate(patch)) == 1


def test_partition_of_the_one_sided_chain_is_the_two_sided_one():
    # scanned from 0, windows reaching past the left end added 9 cells, and
    # 111 of 400 orbit samples lay in more than one cell
    sub = fibonacci_substitution()
    part = build_partition_1d(sub, 3.0, 0.2, scan_length=1500)
    assert (part.n_cells, len(part.representatives)) == (53, 11)
    hits = part._cylinders.orbit_hits(sub, (20.0 + halton(400) * 3000.0).tolist(), Interval(-16, 16))
    assert (hits.sum(axis=1) == 1).all()
    assert build_partition_1d(TranslatedSource(sub, 2.0), 3.0, 0.2, scan_length=1500).n_cells == 53


def test_partition_of_the_chain_moved_by_1e4_is_the_exact_one():
    # far from the origin the differences carry float error, and one of
    # tau^3 = 4.236... sits 2e-13 from a 1e-9 grid boundary: grid keys split
    # every pattern holding it (106 cells, 21 patterns, sum Vol*freq 1.998)
    src = TranslatedSource(fibonacci_cut_project(), 1e4)
    part = build_partition_1d(src, 3.0, 0.2, scan_length=1500)
    assert (part.n_cells, len(part.representatives)) == (53, 11)
    n = 4000
    sub = src.window(Interval(-n, n))
    total = sum(cell.window.volume() * _count_in_patch(sub, cell.pinned) / (2.0 * n) for cell in part.cells)
    assert abs(total - 1.0) <= 1e-3
    hits = part._cylinders.orbit_hits(src, (halton(200) * 500.0).tolist(), Interval(-16, 16))
    assert (hits.sum(axis=1) == 1).all()


@pytest.mark.parametrize("source, R, n_cells", [
    (fibonacci_cut_project(), 3.7, 61), (fibonacci_cut_project(), 2.2, 47),
    (TranslatedSource(fibonacci_cut_project(), 0.37), 3.7, 61),
    (thue_morse_source(), 3.7, 138), (thue_morse_source(), 2.2, 100)])
def test_exact_partition_takes_a_float_radius_at_its_decimal_value(source, R, n_cells):
    # Fraction(3.7) has denominator 2^51, and the exact events p -+ R over it
    # passed the int64 range; 37/10 keeps them small
    assert build_partition_1d(source, R, 0.2, scan_length=600).n_cells == n_cells


PARTITION_OVERLAP = pytest.mark.xfail(strict=True, reason=(
    "a piece whose delimiting events are points of its own window pattern pins "
    "just that pattern, and a second environment contains it too"))


@pytest.mark.parametrize("R", [2.5, 3.0, 3.25, 3.75, 4.5]
                         + [pytest.param(R, marks=PARTITION_OVERLAP) for R in (2.0, 3.5, 4.0)])
def test_partition_cells_are_disjoint_and_cover_the_hull(R):
    # sum Vol(V) freq = 1 and every orbit sample lies in exactly one cell; at
    # R = 2, 3.5 and 4 the sum is 1.146, 1.105 and 1.120, and 42, 34 and 38 of
    # the samples lie in two cells
    fib, n = fibonacci_cut_project(), 4000
    part = build_partition_1d(fib, R, 0.2, scan_length=1500)
    sub = fib.window(Interval(-n, n))
    total = sum(cell.window.volume() * _count_in_patch(sub, cell.pinned) / (2.0 * n) for cell in part.cells)
    hits = part._cylinders.orbit_hits(fib, (halton(300) * 500.0 + 50.0).tolist(), Interval(-25, 25))
    assert abs(total - 1.0) <= 2e-3 and (hits.sum(axis=1) == 1).all()


# ---------------------------------------------------------------------------
# empirical cylinder measure


def test_cylinder_measure_lattice():
    z = integer_lattice()
    m, _, _ = empirical_cylinder_measure(
        z, CylinderSpec(cluster_1d([0.0]), Interval(0.0, 0.3, True, False)), 1000)
    assert m == pytest.approx(0.3, abs=1e-3)
    m2, _, _ = empirical_cylinder_measure(
        z, CylinderSpec(cluster_1d([0.0, 1.0]), Interval(0.0, 0.5, True, False)), 1000)
    assert m2 == pytest.approx(0.5, abs=1e-3)


def test_cylinder_measure_requires_small_window():
    z = integer_lattice()
    with pytest.raises(ValueError):
        empirical_cylinder_measure(
            z, CylinderSpec(cluster_1d([0.0]), Interval(0.0, 1.5)), 100)


@pytest.mark.parametrize("n", [0, -1, float("nan")])
def test_cylinder_measure_rejects_a_nonpositive_n(n):
    # n = 0 once raised ZeroDivisionError, and n = -1 gave (-0.0, 0.0, -2.0)
    with pytest.raises(ValueError, match="n must be positive"):
        empirical_cylinder_measure(integer_lattice(), CylinderSpec(cluster_1d([0.0]), Interval(0.0, 0.3)), n)


# ---------------------------------------------------------------------------
# theta and the smoothed-indicator bound


def test_partition_params_bounds():
    fib = fibonacci_cut_project()
    pp = partition_params(fib, 1 / 3.0, scan=Interval(0.0, 300.0))
    assert 0 < pp.theta <= pp.eta
    assert pp.zeta < pp.theta / 2
    assert pp.theta <= pp.epsilon


def test_partition_params_default_scan_starts_past_a_left_end():
    # [t0, t0 + max(200, 40/eps)], t0 = max(0, left end + 1/eps): moved on a
    # one-sided source, where a scan from 0 would raise, and kept on a two-sided one
    sub, fib = fibonacci_substitution(), fibonacci_cut_project()
    assert partition_params(sub, 1 / 3.0) == partition_params(sub, 1 / 3.0, scan=Interval(3.0, 3.0 + 200.0))
    assert partition_params(fib, 1 / 3.0) == partition_params(fib, 1 / 3.0, scan=Interval(0.0, 200.0))


def test_smoothed_indicator_l2_bound():
    # orbit-average of |f_omega - indicator|^2 against freq * Vol((dV)^{+zeta})
    fib = fibonacci_cut_project()
    pp = partition_params(fib, 1 / 3.0, scan=Interval(0.0, 300.0))
    v_lo, v_hi = 0.1, 0.1 + min(pp.theta, pp.eta) * 0.6
    zeta = (v_hi - v_lo) / 4
    assert zeta < pp.theta / 2
    kern = plateau(v_lo, v_hi, zeta)
    color = 0
    n = 4000
    patch = fib.window(Interval(-n, n))
    freq = len(patch.parts[color]) / (2.0 * n)
    region = Interval(-2.0, 2.0)
    sq_sum = 0.0
    count = 0
    for h in halton(1500) * 700.0:
        p = TranslatedSource(fib, float(h)).window(region)
        pos = p.positions(color)
        f_val = float(np.sum(kern(-pos)))
        chi = 1.0 if np.any((-pos >= v_lo - 1e-12) & (-pos <= v_hi + 1e-12)) else 0.0
        # indicator of the single-point cylinder: some point of color i in -V
        sq_sum += abs(f_val - chi) ** 2
        count += 1
    mean = sq_sum / count
    bound = freq * 4 * zeta + 1e-3
    assert mean <= bound


def test_metric_accepts_patches():
    z = integer_lattice()
    p1 = z.window(Interval(-300, 300))
    p2 = TranslatedSource(z, 0.1).window(Interval(-300, 300))
    br = hull_metric(p1, p2, eps_grid=0.01)
    assert br.contains(0.05)
    tiny = z.window(Interval(-1.5, 1.5))
    with pytest.raises(ValueError):
        hull_metric(tiny, p2, eps_grid=0.01)
