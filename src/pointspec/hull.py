"""Hull-side machinery: the local-matching metric, cylinder sets, and the
disjoint cylinder partition with its empirical invariant measure.

Everything quantitative here is 1D: the window algebra of the partition
and of the cylinder integrals is interval arithmetic, and the metric's
matching predicate is decided exactly by interval complements.

The metric between two point sets is reported as a certified bracket
[lower, upper], never a point value: the defining infimum ranges over a
continuum of (epsilon, x, y) and is not exactly computable; bisection on
the monotone matching predicate brackets it to any requested width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coords import TOL_EQ, as_float, coord_key, is_exact_coord
from .geometry import (
    Cluster,
    Interval,
    MultiSetPatch,
    enumerate_cluster_classes,
    cluster_distance,
    delone_params,
    in_sorted,
    ranges,
)
from .sources import TranslatedSource

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


def _match_predicate(patch1, patch2, eps: float, tol: float = TOL_EQ) -> bool:
    """Whether some shifts x, y in the closed eps-ball align the two sets
    on the closed window of radius 1/eps.

    The patches must cover [-(1/eps + 4 eps), 1/eps + 4 eps]; restricting
    them there raises otherwise.  1D decision: every candidate relative
    shift delta = x - y comes from a matched pair of near-origin points
    (or the empty-window case); for a fixed delta the feasible x form an
    interval minus the closed L-balls around mismatched points, which is
    checked by interval coverage.
    """
    L = 1.0 / eps
    reach = L + 4 * eps
    near = Interval(-reach, reach)
    pos1, pos2 = ([w.positions(i) for i in range(w.m)] for w in (patch1.restrict(near),
                                                                  patch2.restrict(near)))
    m = max(len(pos1), len(pos2))
    pos1 += [np.empty(0)] * (m - len(pos1))
    pos2 += [np.empty(0)] * (m - len(pos2))

    def slab(pos, lo, hi):
        a = np.searchsorted(pos, lo - tol)
        b = np.searchsorted(pos, hi + tol)
        return pos[a:b]

    # windows can never be empty when the sets are relatively dense with
    # b < 2L; guard for degenerate inputs anyway
    slabs1 = [slab(p, -L - eps, L + eps) for p in pos1]
    any1 = any(len(p) for p in slabs1)
    any2 = any(len(slab(p, -L - eps, L + eps)) for p in pos2)
    if not any1 and not any2:
        return True
    if not any1 or not any2:
        return False

    deltas = []
    for p1, p2 in zip(slabs1, pos2):
        a, b = ranges(np.searchsorted(p2, p1 - 2 * eps - tol),
                      np.searchsorted(p2, p1 + 2 * eps + tol))
        deltas.append(p1[a] - p2[b])
    deltas = np.sort(np.concatenate(deltas))
    if not len(deltas):
        return False
    keep = np.concatenate([[True], np.diff(deltas) > tol])
    deltas = deltas[keep]

    for delta in deltas:
        x_lo = max(-eps, delta - eps)
        x_hi = min(eps, delta + eps)
        if x_lo > x_hi + tol:
            continue
        blockers = []
        for a1, p2 in zip(slabs1, pos2):
            a2 = slab(p2 + delta, -L - eps, L + eps)
            blockers.extend(a1[~in_sorted(a2, a1, tol)])
            blockers.extend(a2[~in_sorted(a1, a2, tol)])
        # feasible x in [x_lo, x_hi] avoiding the closed interval [d-L, d+L]
        # around every mismatched point d; sweep for an uncovered gap
        intervals = sorted((d - L - tol, d + L + tol) for d in blockers)
        cur = x_lo
        feasible = False
        for a, b in intervals:
            if a > cur:
                feasible = True
                break
            cur = max(cur, b)
            if cur > x_hi:
                break
        if not feasible and cur < x_hi:
            feasible = True
        if feasible:
            return True
    return False


def hull_metric(source1, source2, eps_grid: float = 0.01, cap: float = METRIC_CAP) -> MetricBracket:
    """Certified bracket for the local-matching distance (1D sources).

    Descends a geometric epsilon grid while the matching predicate holds,
    then bisects the first failing bracket down to width eps_grid.  Both
    bounds are capped at 2^(-1/2).  Each input is a source, windowed once
    around the origin wide enough for every epsilon tried, or a patch,
    used as given: one too small for some epsilon raises ValueError.
    """
    if source1.dim != 1 or source2.dim != 1:
        raise NotImplementedError("hull metric is implemented in 1D only")
    floor = max(eps_grid / 2.0, 1e-4)
    reach = 1.0 / min(floor, cap) + 4 * cap  # every eps tried is cap or above floor
    near = Interval(-reach, reach)
    p1, p2 = (s if isinstance(s, MultiSetPatch) else s.window(near) for s in (source1, source2))
    if not _match_predicate(p1, p2, cap):
        return MetricBracket(lower=cap, upper=cap, eps_grid=eps_grid)
    hi = cap  # known true
    lo = None  # known false, > all true
    eps = cap / 2.0
    while eps > floor:
        if _match_predicate(p1, p2, eps):
            hi = eps
            eps /= 2.0
        else:
            lo = eps
            break
    if lo is None:
        return MetricBracket(lower=0.0, upper=hi, eps_grid=eps_grid)
    while hi - lo > eps_grid:
        mid = 0.5 * (lo + hi)
        if _match_predicate(p1, p2, mid):
            hi = mid
        else:
            lo = mid
    return MetricBracket(lower=lo, upper=hi, eps_grid=eps_grid)


def sample_orbit(source, offsets, region):
    """Window the translates -h + Lambda over the given offsets."""
    out = []
    for h in offsets:
        out.append(TranslatedSource(source, h).window(region))
    return out


# ---------------------------------------------------------------------------
# cylinder sets


class PatchTooSmallError(ValueError):
    """The patch region cannot decide the cylinder membership."""


@dataclass(frozen=True)
class CylinderSpec:
    """X_{P,V}: hull elements containing -g + P for some g in V."""

    cluster: Cluster
    window: Interval


def cylinder_contains(patch: MultiSetPatch, cyl: CylinderSpec, tol: float = TOL_EQ) -> bool:
    """Decide whether the patch's point set lies in the cylinder X_{P,V}.

    Requires the patch region to cover supp(P) - V; raises
    PatchTooSmallError otherwise (undecidable is an error, not False).
    """
    P = cyl.cluster
    V = cyl.window
    if P.is_empty():
        raise ValueError("cylinder cluster must be nonempty")
    if P.dim != patch.dim or P.m != patch.m:
        raise ValueError("cluster shape does not match the patch")
    sup = P.support()
    vlo, vhi = as_float(V.lo), as_float(V.hi)
    if patch.dim == 1:
        need = Interval(as_float(sup[0][0]) - vhi, as_float(sup[-1][0]) - vlo)
        if not patch.region.covers(need, tol):
            raise PatchTooSmallError(
                "patch region %s cannot decide cylinder with reach %s" % (patch.region, need))
    else:
        raise NotImplementedError("cylinder decision is 1D in this build")

    # g = anchor - q_j over the occurrences v_j = q_j - anchor with -v_j near V
    anchor = sup[0][0]
    color = P.anchor_color()
    j = patch.occurrences(P, -vhi, -vlo, tol)
    if not len(j):
        return False
    if patch.exact and all(is_exact_coord(c) for p in sup for c in p):
        g = (-patch.exact_positions(color)[j]).shift(anchor)
        return bool(V.mask(g.floats(), g, tol).any())
    return bool(V.mask(as_float(anchor) - patch.positions(color)[j], tol=tol).any())


# ---------------------------------------------------------------------------
# theta and partition parameters


@dataclass
class PartitionParams:
    epsilon: float
    theta1: float
    eta: float
    theta: float
    zeta: float


def partition_params(source, epsilon: float, scan=None, eta: float = None) -> PartitionParams:
    """theta(eps) = min(eps, theta1, eta) with theta1 estimated from the
    class table at radius 1/eps: half the minimum distance between
    distinct class representatives, falling back to eta/2 when degenerate.
    """
    R = 1.0 / epsilon
    if scan is None:
        scan = Interval(0.0, max(200.0, 40.0 * R))
    if eta is None:
        eta = delone_params(source, scan).eta
    table = enumerate_cluster_classes(source, R, scan)
    reps = table.representatives
    best = math.inf
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            best = min(best, cluster_distance(reps[i], reps[j]))
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

    def total_window_length(self) -> float:
        return sum(c.window.volume() for c in self.cells)

    def locate(self, patch: MultiSetPatch):
        """Indices of cells whose cylinder contains the patch."""
        hits = []
        for idx, cell in enumerate(self.cells):
            if cylinder_contains(patch, cell.cylinder()):
                hits.append(idx)
        return hits

    def to_json(self):
        out = []
        for cell in self.cells:
            out.append({
                "class": cell.class_index,
                "cluster": _cluster_json(cell.cluster),
                "pinned": _cluster_json(cell.pinned),
                "interval": [as_float(cell.window.lo), as_float(cell.window.hi)],
            })
        return out


def _cluster_json(cl: Cluster):
    return [[[as_float(c) for c in p] for p in part] for part in cl.parts]


class IncompletePartitionError(RuntimeError):
    """The scan did not stabilize the class/window enumeration."""


def build_partition_1d(source, R: float, delta: float, scan_length: float = None,
                       eta: float = None) -> HullPartition:
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
    < delta.  Measure-zero event classes (a point exactly on the window
    boundary, realized at isolated offsets) are dropped.

    Raises IncompletePartitionError when a longer scan would still be
    discovering new (pattern, window) pieces.
    """
    if source.dim != 1:
        raise NotImplementedError("partition is 1D only")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if scan_length is None:
        scan_length = max(400.0 * R, 1200.0)
    dp = delone_params(source, Interval(0.0, max(scan_length, 200.0)))
    if eta is None:
        eta = dp.eta
    if not (R >= dp.b / 2.0 - TOL_EQ):
        raise ValueError("R must be at least b/2 = %.6g so clusters are nonempty" % (dp.b / 2.0))
    if not (delta < eta):
        raise ValueError("delta must be smaller than eta = %.6g" % eta)
    if not (dp.b < 2.0 * eta):
        raise ValueError("pinning requires b < 2 eta (observed b=%.6g, eta=%.6g)"
                         % (dp.b, eta))

    pieces_half = _scan_pieces(source, R, 0.0, scan_length * 0.6)
    pieces_full = _scan_pieces(source, R, 0.0, scan_length)
    if set(pieces_half) != set(pieces_full):
        raise IncompletePartitionError(
            "piece enumeration still growing at scan length %g" % scan_length)

    # window-pattern classes for reporting; pieces stay extension-refined
    reps = []
    rep_index = {}
    cells = []
    for key in sorted(pieces_full, key=lambda k: (k[0], k[3], k[4])):
        rep, pinned, w_lo, w_hi = pieces_full[key]
        sig = rep.signature()
        idx = rep_index.get(sig)
        if idx is None:
            idx = len(reps)
            rep_index[sig] = idx
            reps.append(rep)
        width = as_float(w_hi) - as_float(w_lo)
        k = max(1, math.ceil(width / delta))
        if width / k >= delta:  # guard against exact division
            k += 1
        for j in range(k):
            clo = w_lo + (w_hi - w_lo) * Fraction(j, k)
            chi = w_lo + (w_hi - w_lo) * Fraction(j + 1, k)
            cells.append(PartitionCell(
                cluster=rep,
                pinned=pinned,
                window=Interval(clo, chi, True, False),
                class_index=idx,
            ))
    return HullPartition(cells=cells, radius=R, delta=delta, representatives=reps)


def _scan_pieces(source, R: float, t0: float, t1: float):
    """Distinct (window pattern, pinned cluster, offset window) pieces for
    the sliding window B_R(t), t in [t0, t1].

    The pinned cluster is the patch over the closed hull of window
    positions of the piece, [e_i - R, e_{i+1} + R]: the window pattern
    plus the two points whose entry/exit delimits the piece.
    """
    patch = source.window(Interval(t0 - R - 2.0, t1 + R + 2.0))
    vals, cols = patch.all_positions()
    cols, coords = cols.tolist(), [p[0] for p in patch.all_points()]

    def cluster(i0, i1, anchor):
        parts = [[] for _ in range(patch.m)]
        for j in range(i0, i1):
            parts[cols[j]].append((coords[j] - anchor,))
        return Cluster(parts, dim=1)

    Rex = _exactify(R)
    events = []  # event offsets, exact where coords are exact
    for p in coords:
        events.append(p - Rex)
        events.append(p + Rex)
    events_sorted = sorted(range(len(events)), key=lambda k: as_float(events[k]))
    evs = []
    for k in events_sorted:
        e = events[k]
        ef = as_float(e)
        if t0 - TOL_EQ <= ef <= t1 + TOL_EQ:
            if not evs or as_float(evs[-1]) < ef - TOL_EQ:
                evs.append(e)

    pieces = {}
    for a, b in zip(evs[:-1], evs[1:]):
        af, bf = as_float(a), as_float(b)
        mid = 0.5 * (af + bf)
        lo_idx = int(np.searchsorted(vals, mid - R - TOL_EQ))
        hi_idx = int(np.searchsorted(vals, mid + R + TOL_EQ))
        if hi_idx <= lo_idx:
            continue  # empty window (cannot happen for R >= b/2)
        anchor = coords[lo_idx]
        rep = cluster(lo_idx, hi_idx, anchor)
        # pinned cluster: everything the window ever sees across the piece,
        # closed ends, so the delimiting neighbor points are included
        plo = int(np.searchsorted(vals, af - R - TOL_EQ))
        phi = int(np.searchsorted(vals, bf + R + TOL_EQ))
        pinned = cluster(plo, phi, anchor)
        w_lo = a - anchor
        w_hi = b - anchor
        key = (rep.signature(), pinned.signature(), coord_key(w_lo), coord_key(w_hi),
               len(pinned.support()))
        if key not in pieces:
            pieces[key] = (rep, pinned, w_lo, w_hi)
    return pieces


def _exactify(x: float):
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


# ---------------------------------------------------------------------------
# empirical invariant measure of a cylinder


def empirical_cylinder_measure(source, cyl: CylinderSpec, n: float, offset: float = 0.0,
                               eta: float = None):
    """(1/Vol F_n) Vol{x in offset + F_n : -x + Lambda in X_{P,V}}.

    Computed exactly (1D) as the length of the union of translates
    (x_nu + V) ∩ (offset + F_n) over the occurrence positions x_nu of P.
    Requires diam(V) < eta so the translates are disjoint.
    Returns (measure, J_n, vol).
    """
    if source.dim != 1:
        raise NotImplementedError("cylinder measure is 1D only")
    V = cyl.window
    vlen = V.volume()
    if eta is None:
        eta = delone_params(source, Interval(0.0, 400.0)).eta
    if not (vlen < eta):
        raise ValueError("diam(V) = %.6g must be < eta = %.6g" % (vlen, eta))
    P = cyl.cluster
    sup = P.support()
    reach = max(abs(as_float(p[0])) for p in sup) + max(abs(as_float(V.lo)), abs(as_float(V.hi)))
    lo, hi = offset - n, offset + n
    patch = source.window(Interval(lo - reach - 1.0, hi + reach + 1.0))
    positions = patch.positions(P.anchor_color())[patch.occurrences(P)] - as_float(sup[0][0])
    vlo, vhi = as_float(V.lo), as_float(V.hi)
    starts = positions + vlo
    stops = positions + vhi
    lengths = np.clip(np.minimum(stops, hi) - np.maximum(starts, lo), 0.0, None)
    J = float(lengths.sum())
    vol = 2.0 * n
    return J / vol, J, vol
