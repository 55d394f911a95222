"""Colored point configurations and the regions they are observed through.

A MultiSetPatch is the restriction of a point set to a bounded region, i.e.
exactly what a window query returns.  It stores each colour's points as one
float array sorted by position, shape (N,) in 1D and (N, d) in 2D (d in
{1, 2}), and an exact patch (1D) also as an aligned QuadArray; `.parts` is a
read-only scalar view of the same points.  A Cluster is one finite colored
configuration, kept as m sorted tuples of d-tuples of coordinates.

Regions are closed by default (an Interval may be half-open).  Every region
has one membership test, `mask`, over arrays of points: float ties at an end
are resolved with TOL_EQ slack, and exact points are compared exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coords import (TOL_EQ, QuadArray, as_float, coord_eq, coord_key, exact_sign,
                     is_exact_coord)

_GUARD = 2.0 ** -46  # float tie band at a region end, relative to the magnitudes involved


# ---------------------------------------------------------------------------
# regions


class _Region:
    """What Interval, Box and Ball share; each defines bounds() and mask()."""

    def contains_point(self, pt, tol: float = TOL_EQ) -> bool:
        """mask() for one point, a d-tuple of coordinates."""
        exact = QuadArray.of(pt) if self.dim == 1 and is_exact_coord(pt[0]) else None
        return bool(self.mask([[as_float(c) for c in pt]], exact, tol)[0])

    def covers(self, other, tol: float = TOL_EQ) -> bool:
        """Whether other's bounding box lies in this one's (tol slack)."""
        return all(lo <= olo + tol and hi >= ohi - tol
                   for (lo, hi), (olo, ohi) in zip(self.bounds(), other.bounds()))


@dataclass(frozen=True)
class Interval(_Region):
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

    def mask(self, x, exact: QuadArray = None, tol: float = TOL_EQ) -> np.ndarray:
        """Which points lie in the interval, as a boolean array.

        x holds the float positions (shape (N,) or (N, 1)); exact, when given,
        the same points as a QuadArray.  Float points get tol slack at each
        end, outward at a closed end and inward at an open one.  Exact points
        compare exactly: with no slack when both ends are exact, otherwise
        against end -+ tol taken at its decimal value (10**-9 for TOL_EQ).
        An exact comparison is decided by the float gap outside a guard band
        of rounding error around the end and by the exact sign inside it.
        """
        x = np.asarray(x, dtype=float).reshape(-1)
        ok = np.ones(len(x), dtype=bool)
        exact_ends = exact is not None and is_exact_coord(self.lo) and is_exact_coord(self.hi)
        scale = exact.magnitude() + 1.0 if exact is not None else 0.0
        for end, sense, closed in ((self.lo, 1, self.closed_lo), (self.hi, -1, self.closed_hi)):
            step = 0 if exact_ends else (-sense if closed else sense)
            bound = as_float(end) + step * tol
            gap = sense * (x - bound)
            if exact is None:
                ok &= (gap >= 0) if closed else (gap > 0)
                continue
            guard = _GUARD * (scale + abs(bound))
            inside = gap > guard
            ties = np.flatnonzero(ok & (np.abs(gap) <= guard))
            if len(ties):
                xend = (end if is_exact_coord(end) else Fraction(end)) + step * Fraction(repr(tol))
                for k in ties:
                    sign = sense * exact_sign(exact.value(k) - xend)
                    inside[k] = sign > 0 or (sign == 0 and closed)
            ok &= inside
        return ok

    def contains_value(self, x, tol: float = TOL_EQ) -> bool:
        return self.contains_point((x,), tol)

    def dilate(self, r: float) -> "Interval":
        return Interval(as_float(self.lo) - r, as_float(self.hi) + r)

    def erode(self, r: float) -> "Interval":
        return Interval(as_float(self.lo) + r, as_float(self.hi) - r)

    def translate(self, vec) -> "Interval":
        (v,) = vec
        return Interval(self.lo + v, self.hi + v, self.closed_lo, self.closed_hi)

    def bounds(self):
        return ((as_float(self.lo), as_float(self.hi)),)


@dataclass(frozen=True)
class Box(_Region):
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

    def mask(self, x, exact=None, tol: float = TOL_EQ) -> np.ndarray:
        """Which float points x, shape (N, d), lie in the box (tol slack); exact is unused."""
        x = np.asarray(x, dtype=float).reshape(len(x), self.dim)
        lo = np.array([as_float(a) - tol for a in self.lo])
        hi = np.array([as_float(b) + tol for b in self.hi])
        return np.all((x >= lo) & (x <= hi), axis=1)

    def dilate(self, r: float) -> "Box":
        return Box(tuple(as_float(a) - r for a in self.lo), tuple(as_float(b) + r for b in self.hi))

    def erode(self, r: float) -> "Box":
        return Box(tuple(as_float(a) + r for a in self.lo), tuple(as_float(b) - r for b in self.hi))

    def translate(self, vec) -> "Box":
        return Box(tuple(a + v for a, v in zip(self.lo, vec)),
                   tuple(b + v for b, v in zip(self.hi, vec)))

    def bounds(self):
        return tuple((as_float(a), as_float(b)) for a, b in zip(self.lo, self.hi))


@dataclass(frozen=True)
class Ball(_Region):
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

    def mask(self, x, exact=None, tol: float = TOL_EQ) -> np.ndarray:
        """Which float points x, shape (N, d), lie in the ball (tol slack); exact is unused."""
        x = np.asarray(x, dtype=float).reshape(len(x), self.dim)
        d2 = sum((x[:, k] - as_float(c)) ** 2 for k, c in enumerate(self.center))
        return d2 <= (self.radius + tol) ** 2

    def dilate(self, r: float) -> "Ball":
        return Ball(self.center, self.radius + r)

    def erode(self, r: float) -> "Ball":
        return Ball(self.center, self.radius - r)

    def translate(self, vec) -> "Ball":
        return Ball(tuple(c + v for c, v in zip(self.center, vec)), self.radius)

    def bounds(self):
        return tuple((as_float(c) - self.radius, as_float(c) + self.radius) for c in self.center)


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


def ranges(starts, stops):
    """Flatten the index ranges [starts[r], stops[r]) into (row, index) arrays,
    row by row and ascending within a row; a range with stop <= start is empty."""
    starts = np.asarray(starts).astype(np.int64)
    counts = np.maximum(np.asarray(stops).astype(np.int64) - starts, 0)
    rows = np.repeat(np.arange(len(starts)), counts)
    idx = np.arange(int(counts.sum()), dtype=np.int64)
    idx += np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return rows, idx


def sorted_slice(pos: np.ndarray, region) -> slice:
    """The slice of a sorted 1D float array that can hold points of the
    region: its float bounds, widened past every slack its mask allows."""
    (lo, hi), = region.bounds()
    pad = 2 * TOL_EQ + _GUARD * (abs(lo) + abs(hi) + 1.0)
    a, b = np.searchsorted(pos, [lo - pad, hi + pad])
    return slice(int(a), int(b))


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
            pts.sort(key=point_value)
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
            pts.sort(key=point_value)
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
    """A window query result: the region and, per colour, the points inside it.

    Colour i is one float array sorted by position, positions(i), and in an
    exact patch (1D only) also a QuadArray aligned with it,
    exact_positions(i).  `.parts` is a read-only view of the same points for
    scalar code: per colour, a tuple of point tuples of QuadNum, int or
    Fraction coordinates (exact) or floats.
    """

    __slots__ = ("region", "dim", "m", "_pos", "_exact", "_parts", "_all", "_points")

    def __init__(self, region, dim: int, pos, exact=None):
        """pos: per colour, a sorted float array; exact: per colour, the
        aligned QuadArray, or None for a float patch."""
        self.region = region
        self.dim = dim
        self.m = len(pos)
        self._pos = list(pos)
        self._exact = None if exact is None else list(exact)
        self._parts = self._all = self._points = None

    @classmethod
    def from_points(cls, region, dim: int, m: int, x, color, exact: QuadArray = None):
        """Patch of the points x (float, (N,) in 1D, (N, d) otherwise) with
        colours in range(m), sorted once: by colour, then stably by position."""
        x = np.asarray(x, dtype=float)
        keys = (x,) if dim == 1 else tuple(x[:, k] for k in reversed(range(dim)))
        order = np.lexsort(keys + (color,))
        ends = np.searchsorted(np.asarray(color)[order], np.arange(m + 1))
        pieces = list(zip(ends[:-1], ends[1:]))
        x, exact = x[order], None if exact is None else exact[order]
        return cls(region, dim, [x[a:b] for a, b in pieces],
                   None if exact is None else [exact[a:b] for a, b in pieces])

    @property
    def exact(self) -> bool:
        return self._exact is not None

    @property
    def total_points(self) -> int:
        return sum(len(p) for p in self._pos)

    def positions(self, color: int) -> np.ndarray:
        """Float positions of one color: shape (N,) in 1D, (N, d) otherwise."""
        return self._pos[color]

    def exact_positions(self, color: int):
        """The QuadArray aligned with positions(color), or None in a float patch."""
        return None if self._exact is None else self._exact[color]

    @property
    def parts(self) -> tuple:
        """Per colour, the points as tuples of scalars; built on first use."""
        if self._parts is None:
            if self._exact is not None:
                self._parts = tuple(tuple((q.value(k),) for k in range(len(q.a)))
                                    for q in self._exact)
            else:
                self._parts = tuple(tuple(map(tuple, p.reshape(len(p), self.dim).tolist()))
                                    for p in self._pos)
        return self._parts

    def all_positions(self):
        """(positions, colors) over the support, sorted by position."""
        return self._support()[:2]

    def all_exact(self):
        """The QuadArray aligned with all_positions(), or None in a float patch."""
        return None if self._exact is None else QuadArray.concat(self._exact)[self._support()[2]]

    def all_points(self) -> list:
        """The support's point tuples (as in .parts), in the order of all_positions."""
        if self._points is None:
            flat = [p for part in self.parts for p in part]
            self._points = [flat[k] for k in self._support()[2]]
        return self._points

    def _support(self):
        if self._all is None:
            pos = np.concatenate(self._pos)
            col = np.repeat(np.arange(self.m), [len(p) for p in self._pos])
            if self.dim == 1:
                order = np.argsort(pos, kind="stable")
            else:
                order = np.lexsort(tuple(pos[:, k] for k in reversed(range(self.dim))))
            self._all = (pos[order], col[order], order)
        return self._all

    def as_cluster(self) -> Cluster:
        return Cluster(self.parts, dim=self.dim)

    def translate(self, vec) -> "MultiSetPatch":
        vec = as_point(vec, self.dim)
        region = self.region.translate(vec)
        col = np.repeat(np.arange(self.m), [len(p) for p in self._pos])
        if self.exact and all(is_exact_coord(v) for v in vec):
            q = QuadArray.concat(self._exact).shift(vec[0])
            return MultiSetPatch.from_points(region, 1, self.m, q.floats(), col, q)
        shift = np.array([as_float(v) for v in vec])
        x = np.concatenate(self._pos) + (shift[0] if self.dim == 1 else shift)
        return MultiSetPatch.from_points(region, self.dim, self.m, x, col)

    def restrict(self, region) -> "MultiSetPatch":
        if not self.region.covers(region):
            raise ValueError("restriction region exceeds the patch region")
        pos, exact = [], []
        for i, p in enumerate(self._pos):
            cut = sorted_slice(p, region) if self.dim == 1 else slice(None)
            q = self.exact_positions(i)
            q = None if q is None else q[cut]
            keep = region.mask(p[cut], q)
            pos.append(p[cut][keep])
            exact.append(None if q is None else q[keep])
        return MultiSetPatch(region, self.dim, pos, exact if self.exact else None)

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
    anchors = patch.restrict(scan).all_points()
    if not anchors:
        raise ValueError("scan region contains no anchor points")

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
    xf = np.array(point_value(x))
    parts = []
    for i in range(patch.m):
        pos = patch.positions(i)
        if patch.dim == 1:
            sel = range(*np.searchsorted(pos, [xf[0] - R - TOL_EQ, xf[0] + R + TOL_EQ]))
        else:
            sel = np.flatnonzero(np.sum((pos - xf) ** 2, axis=1) <= (R + TOL_EQ) ** 2).tolist()
        parts.append([tuple(c - xc for c, xc in zip(patch.parts[i][j], x)) for j in sel])
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
