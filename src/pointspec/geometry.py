"""Colored point configurations and the regions they are observed through.

Points are d-tuples of coordinates (d in {1, 2}).  A Cluster is one finite
colored configuration: m parts, each a sorted tuple of points.  A
MultiSetPatch is the restriction of a point set to a bounded region, i.e.
exactly what a window query returns.  Regions are closed by default (an
Interval may be half-open); ties at float boundaries are resolved with
TOL_EQ slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coords import TOL_EQ, QuadNum, as_float, coord_eq, coord_key, is_exact_coord


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class Interval:
    """1D interval; closed endpoints by default, half-open where flagged.

    Endpoints may be floats or exact coordinates (QuadNum / Fraction / int).
    """

    lo: object
    hi: object
    closed_lo: bool = True
    closed_hi: bool = True

    @property
    def dim(self):
        return 1

    def volume(self) -> float:
        return max(0.0, as_float(self.hi) - as_float(self.lo))

    def contains_value(self, x, tol: float = TOL_EQ) -> bool:
        lo, hi = self.lo, self.hi
        if is_exact_coord(x) and is_exact_coord(lo) and is_exact_coord(hi):
            ok_lo = (x >= lo) if self.closed_lo else (x > lo)
            ok_hi = (x <= hi) if self.closed_hi else (x < hi)
            return bool(ok_lo and ok_hi)
        xf, lof, hif = as_float(x), as_float(lo), as_float(hi)
        ok_lo = xf >= lof - tol if self.closed_lo else xf > lof + tol
        ok_hi = xf <= hif + tol if self.closed_hi else xf < hif - tol
        return ok_lo and ok_hi

    def contains_point(self, pt, tol: float = TOL_EQ) -> bool:
        return self.contains_value(pt[0], tol)

    def dilate(self, r: float) -> "Interval":
        return Interval(as_float(self.lo) - r, as_float(self.hi) + r)

    def erode(self, r: float) -> "Interval":
        return Interval(as_float(self.lo) + r, as_float(self.hi) - r)

    def translate(self, vec) -> "Interval":
        (v,) = vec
        return Interval(self.lo + v, self.hi + v, self.closed_lo, self.closed_hi)

    def bounds(self):
        return ((as_float(self.lo), as_float(self.hi)),)

    def covers(self, other, tol: float = TOL_EQ) -> bool:
        (olo, ohi), = other.bounds()
        (lo, hi), = self.bounds()
        return lo <= olo + tol and hi >= ohi - tol


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box in d dimensions."""

    lo: tuple
    hi: tuple

    @property
    def dim(self):
        return len(self.lo)

    def volume(self) -> float:
        v = 1.0
        for a, b in zip(self.lo, self.hi):
            v *= max(0.0, as_float(b) - as_float(a))
        return v

    def contains_point(self, pt, tol: float = TOL_EQ) -> bool:
        return all(
            as_float(a) - tol <= as_float(x) <= as_float(b) + tol
            for x, a, b in zip(pt, self.lo, self.hi)
        )

    def dilate(self, r: float) -> "Box":
        return Box(tuple(as_float(a) - r for a in self.lo), tuple(as_float(b) + r for b in self.hi))

    def erode(self, r: float) -> "Box":
        return Box(tuple(as_float(a) + r for a in self.lo), tuple(as_float(b) - r for b in self.hi))

    def translate(self, vec) -> "Box":
        return Box(tuple(a + v for a, v in zip(self.lo, vec)),
                   tuple(b + v for b, v in zip(self.hi, vec)))

    def bounds(self):
        return tuple((as_float(a), as_float(b)) for a, b in zip(self.lo, self.hi))

    def covers(self, other, tol: float = TOL_EQ) -> bool:
        return all(lo <= olo + tol and hi >= ohi - tol
                   for (lo, hi), (olo, ohi) in zip(self.bounds(), other.bounds()))


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball."""

    center: tuple
    radius: float

    @property
    def dim(self):
        return len(self.center)

    def volume(self) -> float:
        if self.dim == 1:
            return 2.0 * self.radius
        return math.pi * self.radius ** 2

    def contains_point(self, pt, tol: float = TOL_EQ) -> bool:
        d2 = sum((as_float(x) - as_float(c)) ** 2 for x, c in zip(pt, self.center))
        return d2 <= (self.radius + tol) ** 2

    def dilate(self, r: float) -> "Ball":
        return Ball(self.center, self.radius + r)

    def erode(self, r: float) -> "Ball":
        return Ball(self.center, self.radius - r)

    def translate(self, vec) -> "Ball":
        return Ball(tuple(c + v for c, v in zip(self.center, vec)), self.radius)

    def bounds(self):
        return tuple((as_float(c) - self.radius, as_float(c) + self.radius) for c in self.center)

    def covers(self, other, tol: float = TOL_EQ) -> bool:
        # conservative: cover via bounding boxes for balls
        return all(lo <= olo + tol and hi >= ohi - tol
                   for (lo, hi), (olo, ohi) in zip(self.bounds(), other.bounds()))


def interval(lo, hi, closed_lo=True, closed_hi=True) -> Interval:
    return Interval(lo, hi, closed_lo, closed_hi)


def boundary_shell_volume(region, r: float) -> float:
    """Vol((boundary F)^{+r}) for intervals/boxes/balls, in closed form."""
    outer = region.dilate(r).volume()
    inner = region.erode(r).volume()
    return outer - inner


# ---------------------------------------------------------------------------
# points and clusters


def in_sorted(pos: np.ndarray, targets: np.ndarray, tol: float = TOL_EQ) -> np.ndarray:
    """Boolean membership, within tol, of targets in a sorted 1D position array."""
    if len(pos) == 0:
        return np.zeros(len(targets), dtype=bool)
    idx = np.searchsorted(pos, targets)
    ok = np.zeros(len(targets), dtype=bool)
    for shift in (-1, 0):
        j = np.clip(idx + shift, 0, len(pos) - 1)
        ok |= np.abs(pos[j] - targets) <= tol
    return ok


def point_value(pt) -> tuple:
    return tuple(as_float(c) for c in pt)


def as_point(p, dim: int):
    """Accept a scalar (1D convenience) or a length-d sequence."""
    if isinstance(p, (tuple, list)):
        if len(p) != dim:
            raise ValueError("point %r has wrong dimension (want %d)" % (p, dim))
        return tuple(p)
    if dim != 1:
        raise ValueError("scalar point in dimension %d" % dim)
    return (p,)


def points_eq(p1, p2, tol: float = TOL_EQ) -> bool:
    return all(coord_eq(a, b, tol) for a, b in zip(p1, p2))


def _point_sort_key(pt):
    return tuple(as_float(c) for c in pt)


class Cluster:
    """Finite colored configuration P = (P_1, ..., P_m).

    Parts are kept sorted lexicographically (by coordinate value) and
    duplicate-free.  Immutable once built.
    """

    __slots__ = ("parts", "dim", "_sig", "_sup")

    def __init__(self, parts, dim=None):
        norm = []
        d = dim
        for part in parts:
            pts = []
            for p in part:
                if d is None:
                    d = len(p) if isinstance(p, (tuple, list)) else 1
                pts.append(as_point(p, d))
            pts.sort(key=_point_sort_key)
            dedup = []
            for p in pts:
                if not dedup or not points_eq(dedup[-1], p):
                    dedup.append(p)
            norm.append(tuple(dedup))
        if d is None:
            d = 1
        self.parts = tuple(norm)
        self.dim = d
        self._sig = None
        self._sup = None

    @property
    def m(self) -> int:
        return len(self.parts)

    @property
    def total_points(self) -> int:
        return sum(len(p) for p in self.parts)

    def is_empty(self) -> bool:
        return self.total_points == 0

    def support(self) -> tuple:
        if self._sup is None:
            pts = [p for part in self.parts for p in part]
            pts.sort(key=_point_sort_key)
            self._sup = tuple(pts)
        return self._sup

    def translate(self, vec) -> "Cluster":
        vec = as_point(vec, self.dim)
        return Cluster(
            [tuple(tuple(c + v for c, v in zip(p, vec)) for p in part) for part in self.parts],
            dim=self.dim,
        )

    def anchor_point(self):
        """Lexicographically smallest support point (None if empty)."""
        sup = self.support()
        return sup[0] if sup else None

    def anchor_color(self) -> int:
        """Index of the first part holding the anchor point."""
        a = self.anchor_point()
        return next(i for i, part in enumerate(self.parts)
                    if part and all(as_float(x) == as_float(y) for x, y in zip(part[0], a)))

    def anchored(self):
        """(representative with anchor at origin, anchor point)."""
        a = self.anchor_point()
        if a is None:
            return self, None
        return self.translate(tuple(-c for c in a)), a

    def signature(self):
        """Hashable identity key; exact for exact coordinates."""
        if self._sig is None:
            self._sig = tuple(
                tuple(tuple(coord_key(c) for c in p) for p in part) for part in self.parts
            )
        return self._sig

    def __eq__(self, other):
        if not isinstance(other, Cluster):
            return NotImplemented
        if self.m != other.m or self.dim != other.dim:
            return False
        for pa, pb in zip(self.parts, other.parts):
            if len(pa) != len(pb):
                return False
            if not all(points_eq(a, b) for a, b in zip(pa, pb)):
                return False
        return True

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return "Cluster(%s)" % (", ".join(
            "{" + ", ".join(str(point_value(p) if self.dim > 1 else point_value(p)[0]) for p in part) + "}"
            for part in self.parts
        ))


def cluster_1d(*parts) -> Cluster:
    """Convenience: build a 1D cluster from per-color coordinate lists."""
    return Cluster([[(c,) for c in part] for part in parts], dim=1)


def translate_cluster(P: Cluster, vec) -> Cluster:
    """x + P, per-part shift with sorting restored."""
    return P.translate(vec)


def match_clusters(P: Cluster, Q: Cluster, tol: float = TOL_EQ):
    """The unique x with P = -x + Q, or None if not translation-equivalent."""
    if P.m != Q.m or P.dim != Q.dim:
        raise ValueError("cluster shapes differ (m or dimension)")
    if any(len(a) != len(b) for a, b in zip(P.parts, Q.parts)):
        return None
    ap, aq = P.anchor_point(), Q.anchor_point()
    if ap is None and aq is None:
        return tuple(0.0 for _ in range(P.dim))
    if ap is None or aq is None:
        return None
    x = tuple(cq - cp for cp, cq in zip(ap, aq))
    shifted = Q.translate(tuple(-c for c in x))
    for pa, pb in zip(P.parts, shifted.parts):
        if not all(points_eq(a, b, tol) for a, b in zip(pa, pb)):
            return None
    return x


def _dist(p, q) -> float:
    return math.sqrt(sum((as_float(a) - as_float(b)) ** 2 for a, b in zip(p, q)))


def cluster_distance(P: Cluster, Q: Cluster) -> float:
    """Per-color symmetric point-set distance, maximized over colors.

    A color empty on one side only contributes 1; empty on both sides
    contributes 0.
    """
    if P.m != Q.m or P.dim != Q.dim:
        raise ValueError("cluster shapes differ (m or dimension)")
    worst = 0.0
    for pa, pb in zip(P.parts, Q.parts):
        if not pa and not pb:
            continue
        if not pa or not pb:
            worst = max(worst, 1.0)
            continue
        d = 0.0
        for p in pa:
            d = max(d, min(_dist(p, q) for q in pb))
        for q in pb:
            d = max(d, min(_dist(q, p) for p in pa))
        worst = max(worst, d)
    return worst


# ---------------------------------------------------------------------------
# patches


class MultiSetPatch:
    """A window query result: region plus the m sorted point lists inside it."""

    __slots__ = ("region", "dim", "m", "parts", "exact", "_pos", "_all")

    def __init__(self, region, parts, dim: int, exact: bool, presorted: bool = False):
        self.region = region
        self.dim = dim
        self.m = len(parts)
        if presorted:
            self.parts = tuple(tuple(part) for part in parts)
        else:
            self.parts = tuple(tuple(sorted(part, key=_point_sort_key)) for part in parts)
        self.exact = exact
        self._pos = [None] * self.m
        self._all = None

    @property
    def total_points(self) -> int:
        return sum(len(p) for p in self.parts)

    def positions(self, color: int) -> np.ndarray:
        """Float positions of one color: shape (N,) in 1D, (N, d) otherwise."""
        if self._pos[color] is None:
            pts = self.parts[color]
            if self.dim == 1:
                arr = np.array([as_float(p[0]) for p in pts], dtype=float)
            else:
                arr = np.array([[as_float(c) for c in p] for p in pts], dtype=float)
                arr = arr.reshape(len(pts), self.dim)
            self._pos[color] = arr
        return self._pos[color]

    def all_positions(self):
        """(positions, colors) over the support, sorted by position."""
        if self._all is None:
            chunks, cols = [], []
            for i in range(self.m):
                pos = self.positions(i)
                chunks.append(pos)
                cols.append(np.full(len(pos), i, dtype=int))
            pos = np.concatenate(chunks) if chunks else np.empty(0)
            col = np.concatenate(cols) if cols else np.empty(0, dtype=int)
            if self.dim == 1:
                order = np.argsort(pos, kind="stable")
            else:
                order = np.lexsort(tuple(pos[:, k] for k in reversed(range(self.dim))))
            self._all = (pos[order], col[order])
        return self._all

    def as_cluster(self) -> Cluster:
        return Cluster(self.parts, dim=self.dim)

    def translate(self, vec) -> "MultiSetPatch":
        vec = as_point(vec, self.dim)
        parts = [
            tuple(tuple(c + v for c, v in zip(p, vec)) for p in part) for part in self.parts
        ]
        exact = self.exact and all(is_exact_coord(v) for v in vec)
        return MultiSetPatch(self.region.translate(vec), parts, self.dim, exact)

    def restrict(self, region) -> "MultiSetPatch":
        if not self.region.covers(region):
            raise ValueError("restriction region exceeds the patch region")
        if self.dim == 1 and isinstance(region, Interval) and region.closed_lo and region.closed_hi:
            (lo, hi), = region.bounds()
            parts = []
            for i in range(self.m):
                pos = self.positions(i)
                a = int(np.searchsorted(pos, lo - TOL_EQ))
                b = int(np.searchsorted(pos, hi + TOL_EQ))
                parts.append(self.parts[i][a:b])
            return MultiSetPatch(region, parts, self.dim, self.exact, presorted=True)
        parts = [
            tuple(p for p in part if region.contains_point(p)) for part in self.parts
        ]
        return MultiSetPatch(region, parts, self.dim, self.exact)

    def occurrences(self, P: Cluster, lo: float = -math.inf, hi: float = math.inf,
                    tol: float = TOL_EQ) -> np.ndarray:
        """L_P over the patch: indices j into positions(P.anchor_color()) with
        v_j + P inside the patch's point set, v_j = position_j - anchor.

        In 1D only translates v_j in [lo - tol, hi + tol] are tried; in 2D
        every anchor-colour point is a candidate.  Membership is tolerant:
        sorted search in 1D, a KD-tree in 2D.
        """
        if P.is_empty():
            raise ValueError("cannot count the empty cluster")
        if P.m != self.m or P.dim != self.dim:
            raise ValueError("cluster shape does not match the point set")
        color = P.anchor_color()
        anchor = np.array(point_value(P.parts[color][0]))
        base = self.positions(color)
        if self.dim == 1:
            a, b = np.searchsorted(base, [lo + anchor[0] - tol, hi + anchor[0] + tol])
        elif (lo, hi) != (-math.inf, math.inf):
            raise NotImplementedError("translate bounds are 1D only")
        else:
            from scipy.spatial import cKDTree

            a, b = 0, len(base)
        idx = np.arange(a, b)
        cand = base[a:b] - anchor
        mask = np.ones(len(idx), dtype=bool)
        for i, part in enumerate(P.parts):
            pos, tree = self.positions(i), None
            for k, p in enumerate(part):
                if not mask.any():
                    return idx[:0]
                if i == color and k == 0:
                    continue  # the anchor itself
                targets = cand + np.array(point_value(p))
                if self.dim == 1:
                    mask &= in_sorted(pos, targets, tol)
                elif len(pos) == 0:
                    return idx[:0]
                else:
                    tree = tree if tree is not None else cKDTree(pos)
                    mask &= tree.query(targets, k=1)[0] <= tol
        return idx[mask]


# ---------------------------------------------------------------------------
# FLC class enumeration and Delone parameters


@dataclass
class ClusterClassTable:
    """Translational classes of B_R(x)-clusters, x over scanned support."""

    radius: float
    representatives: list
    counts: list
    scan: object

    @property
    def n_classes(self) -> int:
        return len(self.representatives)

    def class_of(self, cluster: Cluster, tol: float = TOL_EQ):
        for j, rep in enumerate(self.representatives):
            if len(rep.support()) != len(cluster.support()):
                continue
            if match_clusters(rep, cluster, tol) is not None:
                return j
        return None


def enumerate_cluster_classes(source, R: float, scan) -> ClusterClassTable:
    """Classes of B_R(x) ∩ Λ over anchors x in supp(Λ) ∩ scan.

    Representatives are anchored (lex-smallest support point at the
    origin) and deduplicated by exact matching in exact mode.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    patch = source.window(scan.dilate(R + TOL_EQ))
    anchors = []
    for i in range(patch.m):
        for p in patch.parts[i]:
            if scan.contains_point(p):
                anchors.append(p)
    if not anchors:
        raise ValueError("scan region contains no anchor points")
    anchors.sort(key=_point_sort_key)

    table = {}
    reps = []
    counts = []
    for x in anchors:
        cl = _ball_cluster(patch, x, R)
        rep, _ = cl.anchored()
        key = rep.signature()
        j = table.get(key)
        if j is None:
            # guard against float-key splits: fall back to matching scan
            j = _find_equivalent(reps, rep)
            if j is None:
                table[key] = len(reps)
                reps.append(rep)
                counts.append(1)
                continue
            table[key] = j
        counts[j] += 1
    return ClusterClassTable(radius=R, representatives=reps, counts=counts, scan=scan)


def _find_equivalent(reps, rep):
    for j, r in enumerate(reps):
        if r.total_points != rep.total_points:
            continue
        if match_clusters(r, rep) is not None:
            return j
    return None


def _ball_cluster(patch: MultiSetPatch, x, R: float) -> Cluster:
    """B_R(x) ∩ patch, translated by -x (closed ball, tol slack)."""
    xf = point_value(x)
    parts = []
    for i in range(patch.m):
        pts = patch.parts[i]
        pos = patch.positions(i)
        if patch.dim == 1:
            lo = np.searchsorted(pos, xf[0] - R - TOL_EQ)
            hi = np.searchsorted(pos, xf[0] + R + TOL_EQ)
            sel = [pts[j] for j in range(lo, hi)]
        else:
            if len(pos) == 0:
                sel = []
            else:
                d2 = np.sum((pos - np.array(xf)) ** 2, axis=1)
                sel = [pts[j] for j in np.nonzero(d2 <= (R + TOL_EQ) ** 2)[0]]
        parts.append([tuple(c - xc for c, xc in zip(p, x)) for p in sel])
    return Cluster(parts, dim=patch.dim)


@dataclass
class DeloneParams:
    eta: float
    b: float
    scan: object


def delone_params(source, scan) -> DeloneParams:
    """Observed packing gap eta and covering diameter b on a scan region.

    1D: eta = min nearest-neighbor spacing, b = max gap between
    consecutive support points.  2D: eta from nearest neighbors, b as
    twice the max covering radius sampled on a fine grid.
    """
    patch = source.window(scan)
    pos, _ = patch.all_positions()
    if len(pos) < 2:
        raise ValueError("scan region contains fewer than 2 points")
    if patch.dim == 1:
        diffs = np.diff(pos)
        eta = float(diffs.min())
        b = float(diffs.max())
    else:
        from scipy.spatial import cKDTree

        tree = cKDTree(pos)
        d, _ = tree.query(pos, k=2)
        eta = float(d[:, 1].min())
        (x0, x1), (y0, y1) = scan.bounds()
        step = max(eta / 2.0, min(x1 - x0, y1 - y0) / 400.0)
        gx = np.arange(x0, x1 + step / 2, step)
        gy = np.arange(y0, y1 + step / 2, step)
        grid = np.stack(np.meshgrid(gx, gy), axis=-1).reshape(-1, 2)
        dg, _ = tree.query(grid, k=1)
        b = 2.0 * float(dg.max())
    if eta <= 0:
        raise ValueError("observed eta is not positive (coincident points?)")
    return DeloneParams(eta=eta, b=b, scan=scan)
