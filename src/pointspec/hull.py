"""Hull-side machinery: the local-matching metric, cylinder sets, and the
disjoint cylinder partition with its empirical invariant measure.

Everything quantitative here is 1D: the window algebra of the partition
and of the cylinder integrals is interval arithmetic, and the metric's
matching predicate is decided exactly by interval complements.

The metric between two point sets is reported as a certified bracket
[lower, upper], never a point value: the defining infimum ranges over a
continuum of (epsilon, x, y) and is not exactly computable; bisection on
the monotone matching predicate brackets it to any requested width.
hull_metrics decides the predicate for many pairs and epsilons at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice

import numpy as np

from .coords import FLOAT_ERR, TOL_EQ, QuadArray, decimal, float_error, is_exact_coord
from .geometry import (
    Cluster,
    Interval,
    MultiSetPatch,
    cluster_distance,
    complex_keys,
    delone_params,
    distinct_windows,
    enumerate_cluster_classes,
    in_sorted,
    ranges,
    run_starts,
    scan_start,
    tolerant_labels,
    within,
)

METRIC_CAP = 2.0 ** -0.5


# ---------------------------------------------------------------------------
# the metric


@dataclass
class MetricBracket:
    lower: float
    upper: float
    eps_grid: float

    def contains(self, v: float) -> bool:
        return self.lower <= v <= self.upper

    def to_json(self):
        return {"lower": self.lower, "upper": self.upper, "eps_grid": self.eps_grid}


def _predicate_sides(patches1, patches2):
    """What every predicate call on the pairs (patches1[k], patches2[k]) reads,
    built once: the colour count m and, per side, each patch's region bounds
    (plo, phi), the patches' points x with their colours c, concatenated
    colour-major, and their keys (pair, colour, position), sorted."""
    m = max(p.m for p in (*patches1, *patches2))
    sides = []
    for patches in (patches1, patches2):
        plo, phi = np.array([p.region.bounds()[0] for p in patches]).T
        x, cell = MultiSetPatch.stacked_colour_major(patches, m)  # cell: pair * m + colour
        sides.append((plo, phi, x, cell % m, complex_keys(cell, x)))
    return m, sides


def _match_predicate(sides, pair, eps) -> np.ndarray:
    """For each query k, whether some shifts x, y in the closed eps[k]-ball
    align the patches of pair pair[k] (of _predicate_sides(patches1, patches2))
    on the closed window of radius 1/eps[k].

    It needs each eps in (0, METRIC_CAP], so eps < 1/eps, and patch regions
    that cover [-(1/eps + 4 eps), 1/eps + 4 eps] (ValueError otherwise).  1D
    decision: every candidate relative shift delta = x - y comes from a
    matched pair of near-origin points (or the empty-window case); for a
    fixed delta the feasible x form [x_lo, x_hi] minus the closed L-balls
    around mismatched points.  As |x| <= eps < L, a mismatched d >= 0 only
    forbids x >= d - L and a d < 0 only x <= d + L, so the nearest one on
    each side bounds the gap.  All queries and all their deltas are decided
    together on arrays, each in the float expressions of a query alone.
    """
    pair, eps = np.asarray(pair, dtype=np.intp), np.asarray(eps, dtype=float)
    if not ((eps > 0) & (eps <= METRIC_CAP)).all():
        raise ValueError("every eps must lie in (0, 2^-1/2], not %s" % eps)
    m, sides = sides
    L = 1.0 / eps
    reach, lo, hi = L + 4 * eps, -L - eps - TOL_EQ, L + eps + TOL_EQ  # the slab: lo <= x < hi
    for plo, phi, *_ in sides:
        short = eps[(plo[pair] > -reach + TOL_EQ) | (phi[pair] < reach - TOL_EQ)]
        if len(short):
            raise ValueError("a patch does not cover +-(1/eps + 4 eps) at eps = %r" % float(short.min()))
    (_, _, x1, c1, k1), (_, _, x2, _, k2) = sides
    cell = (pair[:, None] * m + np.arange(m)).ravel()  # per query and colour: pair * m + colour

    def find(keys, at):  # per query and colour, the first key at or past position at
        return np.searchsorted(keys, complex_keys(cell, np.repeat(at, m)))

    a1, b1, a2, b2 = find(k1, lo), find(k1, hi), find(k2, lo), find(k2, hi)
    any1, any2 = ((b - a).reshape(-1, m).sum(1) > 0 for a, b in ((a1, b1), (a2, b2)))
    # windows can never be empty when the sets are relatively dense with
    # b < 2L; guard for degenerate inputs anyway
    out = ~any1 & ~any2
    rows, idx = ranges(a1, np.where(np.repeat(any1 & any2, m), b1, a1))
    t, ct, tq = x1[idx], c1[idx], rows // m  # slab points of set 1, by query
    tstart = np.searchsorted(tq, np.arange(len(eps) + 1))

    # candidate shifts: same-colour pairs (t, u), u in [t - 2 eps - TOL_EQ, t + 2 eps + TOL_EQ)
    te, tc = eps[tq], pair[tq] * m + ct
    r, u = within(k2, complex_keys(tc, t - 2 * te - TOL_EQ), complex_keys(tc, t + 2 * te + TOL_EQ))
    shifts = np.sort(complex_keys(tq[r], t[r] - x2[u]))  # by query, then delta
    shifts = shifts[run_starts(shifts)]  # per query, the first delta of each run
    q, deltas = shifts.real.astype(np.intp), shifts.imag
    x_lo, x_hi = np.maximum(-eps[q], deltas - eps[q]), np.minimum(eps[q], deltas + eps[q])
    ok = x_lo < x_hi
    q, deltas, x_lo, x_hi = q[ok], deltas[ok], x_lo[ok], x_hi[ok]

    # per shift row: the slab points of set 1 and of set 2 moved by its delta,
    # keyed (row, colour, position): sorted, as the arrays are colour-major
    row1, i1 = ranges(tstart[q], tstart[q + 1])
    keys1 = complex_keys(row1 * m + ct[i1], t[i1])
    # (set 2 within the slab widened past every |delta| <= 2 eps + TOL_EQ: all that can move in)
    qc = (q[:, None] * m + np.arange(m)).ravel()
    cr, i2 = ranges(find(k2, lo - 4 * eps - 2 * TOL_EQ)[qc], find(k2, hi + 4 * eps + 2 * TOL_EQ)[qc])
    row2 = cr // m  # cr: row * m + colour
    moved = deltas[row2] + x2[i2]
    in2 = (moved >= lo[q[row2]]) & (moved < hi[q[row2]])
    keys2 = complex_keys(cr[in2], moved[in2])
    # mismatched points: slab points with no partner in the other slab
    miss = np.concatenate([keys1[~in_sorted(keys2, keys1)], keys2[~in_sorted(keys1, keys2)]])
    rows, d = (miss.real // m).astype(np.intp), miss.imag
    up, Lr = d >= 0, L[q[rows]]
    top, bottom = np.full(len(deltas), np.inf), np.full(len(deltas), -np.inf)
    np.minimum.at(top, rows[up], d[up] - Lr[up] - TOL_EQ)
    np.maximum.at(bottom, rows[~up], d[~up] + Lr[~up] + TOL_EQ)
    out[q[np.maximum(x_lo, bottom) < np.minimum(x_hi, top)]] = True
    return out


def metric_window(eps_grid: float) -> Interval:
    """The window hull_metrics takes of a source: around the origin, wide enough
    for every epsilon it tries (METRIC_CAP, or above max(eps_grid/2, 1e-4))."""
    reach = 1.0 / min(max(eps_grid / 2.0, 1e-4), METRIC_CAP) + 4 * METRIC_CAP
    return Interval(-reach, reach)


_METRIC_SLICE = 100  # pairs decided together: keeps the predicate's arrays near 1 MB
_TREE_DEPTH = 6  # bisection steps decided per predicate call


def _bisection_mids(lo, hi, grid, depth):
    """Every midpoint the bisection of (lo, hi) to width grid can try in its next depth steps."""
    if depth == 0 or not hi - lo > grid:
        return []
    mid = 0.5 * (lo + hi)
    return [mid, *_bisection_mids(lo, mid, grid, depth - 1), *_bisection_mids(mid, hi, grid, depth - 1)]


def hull_metrics(pairs, eps_grid: float = 0.01) -> list:
    """Certified brackets for the local-matching distance, one MetricBracket
    per pair (source1, source2) of 1D sources in the list pairs.

    Each descends the epsilon grid METRIC_CAP / 2^k (above max(eps_grid/2,
    1e-4)) while the matching predicate holds, then bisects the first failing
    bracket down to width eps_grid.  Per slice of pairs, one predicate call
    decides every descent, one more every midpoint their bisections can
    reach; every call reads the arrays _predicate_sides builds once.
    Each input is a source, windowed once on metric_window(eps_grid), or a
    patch used as given, which must cover every epsilon of the descent.
    """
    if any(s.dim != 1 for pair in pairs for s in pair):
        raise NotImplementedError("hull metric is implemented in 1D only")
    if not eps_grid > 0:
        raise ValueError("eps_grid must be positive")
    near, ladder = metric_window(eps_grid), [METRIC_CAP]
    while (eps := ladder[-1] / 2.0) > max(eps_grid / 2.0, 1e-4):
        ladder.append(eps)
    brackets, bisect, known = [(0.0, ladder[-1])] * len(pairs), {}, {}  # bisect: the open brackets
    for s in range(0, len(pairs), _METRIC_SLICE):
        p1, p2 = zip(*([p if isinstance(p, MultiSetPatch) else p.window(near) for p in pair]
                       for pair in pairs[s:s + _METRIC_SLICE]))
        sides = _predicate_sides(p1, p2)
        holds = _match_predicate(sides, np.repeat(np.arange(len(p1)), len(ladder)), ladder * len(p1))
        for i, row in enumerate(holds.reshape(len(p1), -1).tolist(), s):
            j = (row + [False]).index(False)  # the first failing epsilon
            if j == 0:
                brackets[i] = (METRIC_CAP, METRIC_CAP)
            elif j < len(ladder):
                brackets[i] = bisect[i] = (ladder[j], ladder[j - 1])  # known false, known true
        while bisect := {i: (lo, hi) for i, (lo, hi) in bisect.items() if hi - lo > eps_grid}:
            queries = [(i, mid) for i, (lo, hi) in bisect.items()
                       for mid in _bisection_mids(lo, hi, eps_grid, _TREE_DEPTH)]
            holds = _match_predicate(sides, [i - s for i, _ in queries], [mid for _, mid in queries])
            known.update(zip(queries, holds.tolist()))
            for i, (lo, hi) in bisect.items():  # the sequential walks, as far as they are decided
                while hi - lo > eps_grid and (i, mid := 0.5 * (lo + hi)) in known:
                    lo, hi = (lo, mid) if known[i, mid] else (mid, hi)
                bisect[i] = brackets[i] = (lo, hi)
    return [MetricBracket(lower=lo, upper=hi, eps_grid=eps_grid) for lo, hi in brackets]


def hull_metric(source1, source2, eps_grid: float = 0.01) -> MetricBracket:
    """The bracket of one pair: hull_metrics([(source1, source2)], eps_grid)[0]."""
    return hull_metrics([(source1, source2)], eps_grid)[0]


# ---------------------------------------------------------------------------
# cylinder sets


class PatchTooSmallError(ValueError):
    """The patch region cannot decide the cylinder membership."""


@dataclass(frozen=True)
class CylinderSpec:
    """X_{P,V}: hull elements containing -g + P for some g in V."""

    cluster: Cluster
    window: Interval


def cylinder_contains(patch: MultiSetPatch, cyl: CylinderSpec) -> bool:
    """Decide whether the patch's point set lies in the cylinder X_{P,V}.

    Requires the patch region to cover supp(P) - V; raises
    PatchTooSmallError otherwise (undecidable is an error, not False).
    """
    return bool(_Cylinders([cyl]).hits(patch)[0])


class _Cylinders:
    """Cylinders X_{P,V} decided together (1D) by one routine, _decide.

    Cylinders with the same cluster P form one group.  Per group, one
    occurrences search finds, for every sample -h + master at once, the
    translates v with h - v near any of its windows; Interval.mask decides
    each window V on g = h - v, exactly when h, the master and P are exact.
    """

    def __init__(self, cylinders):
        self.cylinders = list(cylinders)
        if any(cyl.cluster.is_empty() for cyl in self.cylinders):
            raise ValueError("cylinder cluster must be nonempty")
        self.vlo = np.array([float(cyl.window.lo) for cyl in self.cylinders])
        self.vhi = np.array([float(cyl.window.hi) for cyl in self.cylinders])
        sup = [cyl.cluster.colour_major()[0] for cyl in self.cylinders]
        self.reach = Interval(float(np.min([p.min() for p in sup] - self.vhi, initial=np.inf)),
                              float(np.max([p.max() for p in sup] - self.vlo, initial=-np.inf)))
        self.shapes = {(cyl.cluster.dim, cyl.cluster.m) for cyl in self.cylinders}
        groups = {}  # equal signatures (exact values, or float bits): one search serves all
        for c, cyl in enumerate(self.cylinders):
            groups.setdefault(cyl.cluster.signature(), (cyl.cluster, []))[1].append(c)
        # per group: its cluster, its cylinders, and the translate bounds of their windows
        self.groups = [(P, c, -self.vhi[c].max(), -self.vlo[c].min()) for P, c in groups.values()]

    def hits(self, patch: MultiSetPatch) -> np.ndarray:
        """For each cylinder, whether the patch lies in it: _decide(patch, [0])."""
        if self.shapes - {(patch.dim, patch.m)}:
            raise ValueError("cluster shape does not match the patch")
        if patch.dim != 1:
            raise NotImplementedError("cylinder decision is 1D in this build")
        if not patch.region.covers(self.reach):
            raise PatchTooSmallError("patch region %s cannot decide cylinder with reach %s"
                                     % (patch.region, self.reach))
        return self._decide(patch, [0])[0]

    def orbit_hits(self, source, offsets, region) -> np.ndarray:
        """hits(p) of each sample p = -h + source on region, h in offsets (the
        window TranslatedSource(source, h) opens), as the rows of one
        (samples, cylinders) bool array.  The regions moved by h are sorted,
        and each run of them within one region width of each other takes one
        window of source and one _decide, so no window spans a gap; a run of
        one takes its own moved region, the window hits decides.  A region
        within 2 TOL_EQ (and the rounding of its translates) of the reach,
        where an occurrence may stick out of a sample, makes every sample a
        run of one; one that misses the reach raises PatchTooSmallError.
        """
        if source.dim != 1:
            raise NotImplementedError("cylinder decision is 1D in this build")
        if not region.covers(self.reach):
            raise PatchTooSmallError("region %s cannot decide cylinder with reach %s" % (region, self.reach))
        moved = [region.translate((h,)) for h in offsets]
        err = FLOAT_ERR * (np.abs(region.bounds()[0]).max() + max((abs(float(h)) for h in offsets), default=0.0))
        near = not region.covers(self.reach.dilate(2 * TOL_EQ + err))
        out = np.zeros((len(moved), len(self.cylinders)), dtype=bool)
        if not moved:
            return out
        lo, hi = np.array([r.bounds()[0] for r in moved]).T
        order = np.argsort(lo, kind="stable")
        gap = near | (lo[order][1:] > np.maximum.accumulate(hi[order])[:-1] + region.volume())
        for run in np.split(order, np.flatnonzero(gap) + 1):
            window = moved[run[0]] if len(run) == 1 else Interval(lo[run].min(), hi[run].max())
            out[run] = self._decide(source.window(window), [offsets[k] for k in run.tolist()])
        return out

    def _decide(self, master: MultiSetPatch, h) -> np.ndarray:
        """Whether each sample -h[k] + master lies in each cylinder, as a
        (len(h), cylinders) bool array.  The caller makes sure that master
        holds every occurrence that can decide a sample.

        A sample's candidates are the anchor-colour points q with fl(q - h)
        in [lo + anchor - TOL_EQ, hi + anchor + TOL_EQ), at h = 0 those of
        occurrences(P, lo, hi); g = -(fl(q - h) - anchor), and for an exact h
        on an exact master and cluster exactly h - q + anchor.  The searches
        allow for rounding at the scale of h, and exact candidates for their
        float error (mask decides them), so no offset loses a candidate.
        """
        neg = -np.array([float(c) for c in h])  # the float shift of each sample
        ex = np.array([is_exact_coord(c) for c in h]) & master.exact
        H = QuadArray.of([c if e else 0 for c, e in zip(h, ex)]) if ex.any() else None
        out = np.zeros((len(h), len(self.cylinders)), dtype=bool)
        for P, members, lo, hi in self.groups:
            color, anchor = P.anchor_color(), P.positions(P.anchor_color())[0]
            pad = TOL_EQ + FLOAT_ERR * (np.abs(neg).max() + abs(lo) + abs(hi) + abs(anchor))
            if P.exact and ex.any():  # the float error of an exact h and of the points
                pad += max(map(float_error, h)) + master.exact_positions(color).float_error()
            idx = master.occurrence_index(P, lo - neg.max() - pad, hi - neg.min() + pad)
            q = master.positions(color)[idx]
            a, b = lo + anchor - TOL_EQ, hi + anchor + TOL_EQ  # the candidate bounds on fl(q - h)
            rows, i = within(q, a - neg - pad, b - neg + pad)
            pos, exact = q[i] + neg[rows], ex[rows] & P.exact
            keep = (pos >= a - pad * exact) & (pos < b + pad * exact)
            rows, i, g, exact = rows[keep], i[keep], -(pos[keep] - anchor), exact[keep]
            if not len(g):
                continue
            if exact.any():  # g = h - v, v = q - anchor, exactly
                v = master.exact_positions(color)[idx[i[exact]]] - P.exact_positions(color)[:1]
                G = H[rows[exact]] - v
                gG = G.floats()
            for c in members:
                hit = self.cylinders[c].window.mask(g)
                if exact.any():
                    hit[exact] = self.cylinders[c].window.mask(gG, G)
                out[rows[hit], c] = True
        return out


# ---------------------------------------------------------------------------
# theta and partition parameters


@dataclass
class PartitionParams:
    epsilon: float
    theta1: float
    eta: float
    theta: float
    zeta: float


def partition_params(source, epsilon: float, scan=None) -> PartitionParams:
    """theta(eps) = min(eps, theta1, eta), eta observed on the scan, theta1 from
    the class table at radius 1/eps: half the minimum distance between
    distinct class representatives, falling back to eta/2 when degenerate.
    The default scan is [t0, t0 + max(200, 40/eps)], t0 = max(0, left end +
    1/eps), so no ball reaches past a one-sided source's left end.
    """
    R = 1.0 / epsilon
    if scan is None:
        t0 = scan_start(source, R)
        scan = Interval(t0, t0 + max(200.0, 40.0 * R))
    eta = delone_params(source, scan).eta
    reps = enumerate_cluster_classes(source, R, scan).representatives
    best = min((cluster_distance(a, b) for i, a in enumerate(reps) for b in reps[i + 1:]), default=math.inf)
    if not math.isfinite(best) or best <= 10 * TOL_EQ:
        theta1 = eta / 2.0
    else:
        theta1 = min(best / 2.0, 1.0 - 1e-9)
    theta = min(epsilon, theta1, eta)
    return PartitionParams(epsilon=epsilon, theta1=theta1, eta=eta,
                           theta=theta, zeta=theta / 4.0)


# ---------------------------------------------------------------------------
# the 1D partition


@dataclass
class PartitionCell:
    cluster: Cluster       # window pattern P_j (anchored)
    pinned: Cluster        # P_j plus its bounding neighbor points (extension)
    window: Interval
    class_index: int

    def cylinder(self) -> CylinderSpec:
        return CylinderSpec(self.pinned, self.window)


@dataclass
class HullPartition:
    cells: list
    radius: float
    delta: float
    representatives: list   # window-pattern class representatives

    @property
    def n_cells(self):
        return len(self.cells)

    @cached_property
    def _cylinders(self):
        return _Cylinders([cell.cylinder() for cell in self.cells])

    def locate(self, patch: MultiSetPatch):
        """Indices of cells whose cylinder contains the patch, decided by
        one search per distinct pinned cluster."""
        return np.flatnonzero(self._cylinders.hits(patch)).tolist()

    def to_json(self):
        return [{"class": cell.class_index, "cluster": cell.cluster.to_json(), "pinned": cell.pinned.to_json(),
                 "interval": [float(cell.window.lo), float(cell.window.hi)]} for cell in self.cells]


class IncompletePartitionError(RuntimeError):
    """The scan did not stabilize the class/window enumeration."""


def build_partition_1d(source, R: float, delta: float, scan_length: float = None) -> HullPartition:
    """Disjoint cylinder cover from the sliding-window scan (1D).

    As the window center t slides, the observed cluster changes only at
    event offsets p +- R (p a support point); each maximal event interval
    contributes one half-open offset window for its anchored window
    cluster.  Distinct bounding-neighbor environments of the same window
    pattern stay separate pieces, and each cell's cylinder is taken over
    the pattern together with those neighbors: a window pattern can recur
    as a strict subset of a richer window, so the bare pattern would not
    pin the window contents, while the pinned cluster does (an extra
    point inside its span would violate the packing gap when b < 2 eta).
    This keeps the cells pairwise disjoint as cylinder sets and makes
    sum Vol(V) freq exact.  Pieces are split into grid cells of length
    < delta, listed by window pattern, window end and pinned size
    (_cell_keys).  Measure-zero event classes (a point exactly on the
    window boundary, realized at isolated offsets) are dropped.

    The scan covers [t0, t0 + scan_length], t0 = max(0, left end + R), so no
    window reaches past a one-sided source's left end.  Raises
    IncompletePartitionError when a longer scan would still be discovering
    new (pattern, window) pieces: when the scan first meets some piece past
    t0 + 0.6 scan_length.
    """
    if source.dim != 1:
        raise NotImplementedError("partition is 1D only")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if scan_length is None:
        scan_length = max(400.0 * R, 1200.0)
    elif not scan_length > 0:
        raise ValueError("scan_length must be positive")
    t0 = scan_start(source, R)
    dp = delone_params(source, Interval(t0, t0 + max(scan_length, 200.0)))
    if not (R >= dp.b / 2.0 - TOL_EQ):
        raise ValueError("R must be at least b/2 = %.6g so clusters are nonempty" % (dp.b / 2.0))
    if not (delta < dp.eta):
        raise ValueError("delta must be smaller than eta = %.6g" % dp.eta)
    if not (dp.b < 2.0 * dp.eta):
        raise ValueError("pinning requires b < 2 eta (observed b=%.6g, eta=%.6g)"
                         % (dp.b, dp.eta))

    reps, pins, w_lo, w_hi, end = _scan_pieces(source, R, t0, t0 + scan_length)
    # a scan over [t0, t0 + 0.6 scan_length] sees exactly the pieces that close by its end
    if (end > t0 + scan_length * 0.6 + TOL_EQ).any():
        raise IncompletePartitionError(
            "piece enumeration still growing at scan length %g" % scan_length)

    # window-pattern classes for reporting; pieces stay extension-refined
    classes, rep_index, cells = [], {}, []
    keys = _cell_keys(reps, pins, w_hi)
    for i in sorted(range(len(keys)), key=keys.__getitem__):  # ties keep scan order
        rep = reps[i]
        idx = rep_index.setdefault(rep, len(classes))  # Cluster ==, the tolerant compare
        if idx == len(classes):
            classes.append(rep)
        lo, hi = (w.value(i) if isinstance(w, QuadArray) else float(w[i]) for w in (w_lo, w_hi))
        width = float(hi) - float(lo)
        k = max(1, math.ceil(width / delta))
        if width / k >= delta:  # guard against exact division
            k += 1
        for j in range(k):
            clo, chi = lo + (hi - lo) * Fraction(j, k), lo + (hi - lo) * Fraction(j + 1, k)
            cells.append(PartitionCell(rep, pins[i], Interval(clo, chi, True, False), idx))
    return HullPartition(cells=cells, radius=R, delta=delta, representatives=classes)


def _order_keys(parts, exact: bool) -> list:
    """Per array of parts, its entries' sort keys as a tuple: the (a, b)
    numerators of exact values (QuadArrays over one denominator), or each
    float's place among the distinct values of all parts, a run_starts run
    being one value."""
    if exact:
        return [tuple(zip(p.a.tolist(), p.b.tolist())) for p in parts]
    v = np.concatenate([np.empty(0), *parts])
    order = np.argsort(v, kind="stable")
    rank = np.empty(len(v), dtype=np.int64)
    rank[order] = np.cumsum(run_starts(v[order]))
    return [tuple(r.tolist()) for r in np.split(rank, np.cumsum([len(p) for p in parts])[:-1])]


def _cell_keys(reps, pinned, w_hi) -> list:
    """Each piece's sort key in cell order: its window pattern, per colour
    (the _order_keys of its points), then its w_hi, then its pinned size."""
    exact = isinstance(w_hi, QuadArray)
    points = iter(_order_keys([(c.exact_positions if exact else c.positions)(i)
                               for c in reps for i in range(c.m)], exact))
    (ends,) = _order_keys([w_hi], exact)
    return [(tuple(islice(points, c.m)), e, p.total_points) for c, e, p in zip(reps, ends, pinned)]


def _scan_pieces(source, R: float, t0: float, t1: float):
    """The distinct (window pattern, pinned cluster, offset window) pieces
    of the sliding window B_R(t), t in [t0, t1], in scan order, as columns
    (patterns, pinned, w_lo, w_hi, end): the window ends are a QuadArray
    for an exact patch, else floats, and end holds each piece's float
    closing event, so a scan stopped at any t sees the pieces whose end is
    at most t + TOL_EQ.

    The pinned cluster is the patch over the closed hull of window
    positions of the piece, [e_i - R, e_{i+1} + R]: the window pattern
    plus the two points whose entry/exit delimits the piece.  Event
    intervals are grouped once, on arrays, by distinct_windows (contents
    and window ends), one piece per group.  Events are absolute floats;
    keys, float clusters and window ends read local coordinates, and an
    exact patch's window ends are exact.
    """
    patch = source.window(Interval(t0 - R - 2.0, t1 + R + 2.0))
    vals, cols = patch.all_positions()
    q, loc = patch.all_exact(), patch.local()
    # event 2j is p_j - R and event 2j + 1 is p_j + R: float(p -+ R) in ev, and
    # in events on local coordinates, exact where p_j is
    j, side = np.repeat(np.arange(len(vals)), 2), np.tile([-1, 1], len(vals))
    base = loc if q is None else q
    if q is None:
        ev, events = vals[j] + side * R, loc[j] + side * R
    else:
        Rex = decimal(R)  # 3.7 as 37/10: its binary value would pass EXACT_MAX
        events = q[j] - QuadArray(-side * Rex.numerator, np.zeros_like(side), Rex.denominator)
        ev = events.floats()
    order = np.argsort(ev, kind="stable")
    order = order[(ev[order] >= t0 - TOL_EQ) & (ev[order] <= t1 + TOL_EQ)]
    evs = order[run_starts(ev[order])]
    ka, kb = evs[:-1], evs[1:]
    af, bf = ev[ka], ev[kb]
    mid = 0.5 * (af + bf)
    lo = np.searchsorted(vals, mid - R - TOL_EQ)
    hi = np.searchsorted(vals, mid + R + TOL_EQ)
    # pinned cluster: everything the window ever sees across the piece,
    # closed ends, so the delimiting neighbor points are included
    plo = np.searchsorted(vals, af - R - TOL_EQ)
    phi = np.searchsorted(vals, bf + R + TOL_EQ)
    live = hi > lo  # an empty window cannot happen for R >= b/2
    ka, kb, lo, hi, plo, phi = (v[live] for v in (ka, kb, lo, hi, plo, phi))
    rows, idx = ranges(plo, phi)
    at = lo[rows]  # each piece's anchor: the first point of its window
    ends = events[ka] - base[lo], events[kb] - base[lo]  # each piece's offset window
    labels = tolerant_labels if q is None else (lambda v: [v.a, v.b])  # int64 columns, equal where v is
    firsts, _ = distinct_windows(rows, [cols[idx], *labels(base[idx] - base[at])], len(lo),
                                 extra=(lo - plo, hi - lo, *labels(ends[0]), *labels(ends[1])))

    def cluster(i0, i1, anchor):
        d = base[i0:i1] - base[anchor]
        return Cluster.from_arrays(1, patch.m, d if q is None else d.floats(), cols[i0:i1], None if q is None else d)

    f = firsts.tolist()
    reps = [cluster(lo[r], hi[r], lo[r]) for r in f]
    pinned = [cluster(plo[r], phi[r], lo[r]) for r in f]
    return reps, pinned, ends[0][firsts], ends[1][firsts], ev[kb[firsts]]


# ---------------------------------------------------------------------------
# empirical invariant measure of a cylinder


def empirical_cylinder_measure(source, cyl: CylinderSpec, n: float, offset: float = 0.0):
    """(1/Vol F_n) Vol{x in offset + F_n : -x + Lambda in X_{P,V}}.

    Computed exactly (1D) as the length of the union of translates
    (x_nu + V) ∩ (offset + F_n) over the occurrence positions x_nu of P.
    Requires diam(V) < eta, eta observed on [0, 400], so the translates
    are disjoint.  Returns (measure, J_n, vol).
    """
    if source.dim != 1:
        raise NotImplementedError("cylinder measure is 1D only")
    V = cyl.window
    vlen = V.volume()
    eta = delone_params(source, Interval(0.0, 400.0)).eta
    if not (vlen < eta):
        raise ValueError("diam(V) = %.6g must be < eta = %.6g" % (vlen, eta))
    P = cyl.cluster
    reach = float(np.abs(P.colour_major()[0]).max()) + max(abs(float(V.lo)), abs(float(V.hi)))
    lo, hi = offset - n, offset + n
    patch = source.window(Interval(lo - reach - 1.0, hi + reach + 1.0))
    v = patch.occurrences(P)[0]  # the translates x_nu + V are [v + lo(V), v + hi(V)]
    J = float(np.clip(np.minimum(v + float(V.hi), hi) - np.maximum(v + float(V.lo), lo), 0.0, None).sum())
    return J / (2.0 * n), J, 2.0 * n
