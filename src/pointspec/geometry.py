"""Colored point configurations and the regions they are observed through.

A MultiSetPatch is the restriction of a point set to a bounded region, i.e.
exactly what a window query returns.  It stores its points as one float
array, colour by colour, each colour sorted by position, shape (N,) in 1D
and (N, d) in 2D, with the m + 1 colour offsets, and an exact patch (1D) as
one aligned QuadArray too; `.parts`, a read-only scalar view of them, is
for tests and perfbench/tracer.py, and nothing in the package reads it.  A
Cluster, one finite colored configuration, is stored the same way: a patch
without a region.  Its signature is array bytes, the exact values or the
float bits; float values are equal by one rule only, run_starts, and no
key rounds them to a TOL_EQ grid.  occurrences finds a cluster's
translates in a patch for all candidate translates at once.  Differences
of two points read local coordinates (MultiSetPatch.local), at any offset.

Regions are closed by default (an Interval may be half-open).  Every region
has one membership test, `mask`, over arrays of points: float ties at an end
are resolved with TOL_EQ slack, and exact points are compared exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .coords import FLOAT_ERR, TOL_EQ, QuadArray, decimal, float_error, is_exact_coord

TOL_EXACT = decimal(TOL_EQ)  # TOL_EQ at its decimal value, 10**-9


# ---------------------------------------------------------------------------
# regions


class _Region:
    """What Interval, Box and Ball share; each defines bounds() and mask()."""

    def contains_point(self, pt) -> bool:
        """mask() for one point, a d-tuple of coordinates."""
        exact = QuadArray.of(pt) if self.dim == 1 and is_exact_coord(pt[0]) else None
        return bool(self.mask([[float(c) for c in pt]], exact)[0])

    def covers(self, other) -> bool:
        """Whether other's bounding box lies in this one's (TOL_EQ slack)."""
        return all(lo <= olo + TOL_EQ and hi >= ohi - TOL_EQ
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
        return max(0.0, float(self.hi) - float(self.lo))

    def mask(self, x, exact: QuadArray = None) -> np.ndarray:
        """Which points lie in the interval, as a boolean array.

        x holds the float positions (shape (N,) or (N, 1)); exact, when given,
        the same points as a QuadArray.  Float points get TOL_EQ slack at each
        end, outward at a closed end and inward at an open one.  Exact points
        compare exactly: with no slack when both ends are exact, otherwise
        against end -+ TOL_EXACT, TOL_EQ at its decimal value (10**-9).
        An exact comparison is decided by the float gap outside a guard band
        around the end, the rounding bound of the floats involved
        (QuadArray.float_error, coords.float_error), and inside it by one
        exact call per end (QuadArray.compare) for all the points there.
        """
        x = np.asarray(x, dtype=float).reshape(-1)
        ok = np.ones(len(x), dtype=bool)
        if not len(x):  # nothing to compare, whatever the ends
            return ok
        exact_ends = exact is not None and is_exact_coord(self.lo) and is_exact_coord(self.hi)
        if exact is not None:  # the points' largest float error, and the rounding of the gap
            err = exact.float_error() + FLOAT_ERR * (float(np.abs(x).max(initial=0.0)) + TOL_EQ)
        for (end, fend, ferr), sense, closed in zip(self._ends, (1, -1), (self.closed_lo, self.closed_hi)):
            step = 0 if exact_ends else (-sense if closed else sense)
            bound = fend + step * TOL_EQ
            if exact is None:  # x against the bound itself: >= or > at lo, <= or < at hi
                a, b = (x, bound)[::sense]
                ok &= (a >= b) if closed else (a > b)
                continue
            gap = sense * (x - bound)
            guard = err + ferr + FLOAT_ERR * abs(bound)
            inside = gap > guard
            ties = np.flatnonzero(ok & (np.abs(gap) <= guard))
            if len(ties):
                xend = (end if is_exact_coord(end) else Fraction(end)) + step * TOL_EXACT
                sign = sense * exact[ties].compare(xend)
                inside[ties] = (sign > 0) | ((sign == 0) & closed)
            ok &= inside
        return ok

    @cached_property
    def _ends(self):
        """(end, float(end), float_error(end)) of lo and hi, computed once."""
        return tuple((end, float(end), float_error(end)) for end in (self.lo, self.hi))

    def dilate(self, r: float) -> "Interval":
        return Interval(float(self.lo) - r, float(self.hi) + r)

    def erode(self, r: float) -> "Interval":
        return Interval(float(self.lo) + r, float(self.hi) - r)

    def translate(self, vec) -> "Interval":
        (v,) = vec
        return Interval(self.lo + v, self.hi + v, self.closed_lo, self.closed_hi)

    def bounds(self):
        return ((float(self.lo), float(self.hi)),)


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
            v *= max(0.0, float(b) - float(a))
        return v

    def mask(self, x, exact=None) -> np.ndarray:
        """Which float points x, shape (N, d), lie in the box (TOL_EQ slack); exact is unused."""
        x = np.asarray(x, dtype=float).reshape(len(x), self.dim)
        lo = np.array([float(a) - TOL_EQ for a in self.lo])
        hi = np.array([float(b) + TOL_EQ for b in self.hi])
        return np.all((x >= lo) & (x <= hi), axis=1)

    def dilate(self, r: float) -> "Box":
        return Box(tuple(float(a) - r for a in self.lo), tuple(float(b) + r for b in self.hi))

    def erode(self, r: float) -> "Box":
        return Box(tuple(float(a) + r for a in self.lo), tuple(float(b) - r for b in self.hi))

    def translate(self, vec) -> "Box":
        return Box(tuple(a + v for a, v in zip(self.lo, vec)),
                   tuple(b + v for b, v in zip(self.hi, vec)))

    def bounds(self):
        return tuple((float(a), float(b)) for a, b in zip(self.lo, self.hi))


@dataclass(frozen=True)
class Ball(_Region):
    """Closed Euclidean ball."""

    center: tuple
    radius: float

    @property
    def dim(self):
        return len(self.center)

    def volume(self) -> float:
        """2r in 1D, otherwise pi^(d/2) r^d / Gamma(d/2 + 1): pi r^2 in 2D."""
        d = self.dim
        return 2.0 * self.radius if d == 1 else math.pi ** (d / 2) / math.gamma(d / 2 + 1) * self.radius ** d

    def mask(self, x, exact=None) -> np.ndarray:
        """Which float points x, shape (N, d), lie in the ball (TOL_EQ slack); exact is unused."""
        x = np.asarray(x, dtype=float).reshape(len(x), self.dim)
        d2 = sum((x[:, k] - float(c)) ** 2 for k, c in enumerate(self.center))
        return d2 <= (self.radius + TOL_EQ) ** 2

    def dilate(self, r: float) -> "Ball":
        return Ball(self.center, self.radius + r)

    def erode(self, r: float) -> "Ball":
        return Ball(self.center, self.radius - r)

    def translate(self, vec) -> "Ball":
        return Ball(tuple(c + v for c, v in zip(self.center, vec)), self.radius)

    def bounds(self):
        return tuple((float(c) - self.radius, float(c) + self.radius) for c in self.center)


# ---------------------------------------------------------------------------
# points and clusters


def nearest(pos: np.ndarray, targets):
    """(index, distance) of the point of pos nearest to each target.  Sorted 1D
    floats or complex_keys (exact up to distance 1, the colour gap) take the
    nearer of the two points around the target's sorted position, the later on
    a tie; (N, d) points a KD-tree, with targets (..., d).  Empty pos: 0, inf."""
    targets = np.asarray(targets)
    if not len(pos):
        shape = targets.shape if pos.ndim == 1 else targets.shape[:-1]
        return np.zeros(shape, dtype=np.intp), np.full(shape, np.inf)
    if pos.ndim == 1:
        hi = np.minimum(np.searchsorted(pos, targets), len(pos) - 1)
        lo = np.maximum(hi - 1, 0)
        dlo, dhi = np.abs(pos[lo] - targets), np.abs(pos[hi] - targets)
        return np.where(dlo < dhi, lo, hi), np.minimum(dlo, dhi)
    from scipy.spatial import cKDTree  # imported here, not at start-up: few runs need it

    dist, idx = cKDTree(pos).query(targets, k=1)
    return idx, dist


def in_sorted(pos: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Boolean membership, within TOL_EQ, of targets in pos, as nearest reads them."""
    return nearest(pos, targets)[1] <= TOL_EQ


def ranges(starts, stops):
    """Flatten the index ranges [starts[r], stops[r]) into (row, index) arrays,
    row by row and ascending within a row; a range with stop <= start is empty."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.maximum(np.asarray(stops, dtype=np.int64) - starts, 0)
    ends = np.cumsum(counts)
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(ends[-1] if len(ends) else 0) + (starts - ends + counts)[rows]


def within(keys, lo, hi):
    """(row, index) pairs with lo[row] <= keys[index] < hi[row], for sorted
    keys (complex keys sort lexicographically): the ranges of a sorted search."""
    return ranges(np.searchsorted(keys, lo), np.searchsorted(keys, hi))


def sorted_slice(pos: np.ndarray, region, err: float) -> slice:
    """The slice of a sorted 1D float array that can hold points of the
    region: its float bounds, widened past every slack its mask allows.
    err bounds the float error of the positions (0 for float points)."""
    (lo, hi), = region.bounds()
    ends = (region.lo, region.hi) if isinstance(region, Interval) else ()
    pad = (2 * TOL_EQ + err + sum(map(float_error, ends))
           + FLOAT_ERR * (abs(lo) + abs(hi) + 1.0))
    a, b = np.searchsorted(pos, [lo - pad, hi + pad])
    return slice(int(a), int(b))


def as_point(p, dim: int):
    """Accept a scalar (1D convenience) or a length-d sequence."""
    if isinstance(p, (tuple, list)):
        if len(p) != dim:
            raise ValueError("point %r has wrong dimension (want %d)" % (p, dim))
        return tuple(p)
    if dim != 1:
        raise ValueError("scalar point in dimension %d" % dim)
    return (p,)


def _lex_keys(x, dim: int) -> tuple:
    """np.lexsort keys ordering points by position, lexicographically in 2D."""
    return (x,) if dim == 1 else tuple(x[:, k] for k in reversed(range(dim)))


def complex_keys(color, x) -> np.ndarray:
    """color + 1j * x (1D positions x): as complex numbers the keys sort
    lexicographically, so one sorted search finds a (colour, position)."""
    keys = np.empty(len(x), dtype=complex)
    keys.real, keys.imag = color, x
    return keys


# ---------------------------------------------------------------------------
# patches and clusters


class MultiSetPatch:
    """A window query result: the region and, colour by colour, the points inside it.

    Every point sits in one float array x, colour by colour, each colour
    sorted by position (lexicographically in 2D): shape (N,) in 1D and
    (N, d) otherwise.  Colour i is x[ends[i]:ends[i + 1]], positions(i).
    An exact patch (1D only) also holds a QuadArray aligned with x, whose
    slices are exact_positions(i).  `.parts` is a read-only view of the
    same points for scalar code outside the package (tests, and
    perfbench/tracer.py): per colour, a tuple of point tuples of QuadNum,
    int or Fraction coordinates (exact) or floats.  A float
    translate stores fl(x + h) and the local floats it was moved from.
    Every difference of two points reads those (local()), so it holds at
    any offset; absolute floats only meet regions, events and output.
    """

    __slots__ = ("region", "dim", "m", "_x", "_ends", "_q", "_parts", "_all", "_rel")

    def __init__(self, region, dim: int, x, ends, exact=None, local=None):
        """x: every point, colour-major, each colour sorted; ends: the m + 1
        colour offsets into x; exact: the QuadArray aligned with x, or None
        for a float patch; local: _local(), when the points were moved."""
        self.region = region
        self.dim = dim
        self.m = len(ends) - 1
        self._x, self._ends, self._q, self._rel = x, tuple(ends), exact, local
        self._parts = self._all = None

    @staticmethod
    def from_points(region, dim: int, m: int, x, color, exact: QuadArray = None):
        """Patch of the points x (float, (N,) in 1D, (N, d) otherwise) with
        colours in range(m), sorted once: by colour, then stably by position."""
        x = np.asarray(x, dtype=float)
        order = np.lexsort(_lex_keys(x, dim) + (color,))
        ends = np.searchsorted(np.asarray(color)[order], np.arange(m + 1)).tolist()
        return MultiSetPatch(region, dim, x[order], ends, None if exact is None else exact[order])

    @property
    def exact(self) -> bool:
        return self._q is not None

    @property
    def total_points(self) -> int:
        return len(self._x)

    def positions(self, color: int) -> np.ndarray:
        """Float positions of one color: shape (N,) in 1D, (N, d) otherwise."""
        return self._x[self._ends[color]:self._ends[color + 1]]

    def exact_positions(self, color: int):
        """The QuadArray aligned with positions(color), or None in a float patch."""
        return None if self._q is None else self._q[self._ends[color]:self._ends[color + 1]]

    @property
    def parts(self) -> tuple:
        """Per colour, the points as tuples of scalars; built on first use."""
        if self._parts is None:
            pts = ([(v,) for v in map(self._q.value, range(len(self._x)))] if self._q is not None
                   else list(map(tuple, self._x.reshape(len(self._x), self.dim).tolist())))
            self._parts = tuple(tuple(pts[a:b]) for a, b in zip(self._ends, self._ends[1:]))
        return self._parts

    def all_positions(self):
        """(positions, colors) over the support, sorted by position."""
        return self._support()[:2]

    def all_exact(self):
        """The QuadArray aligned with all_positions(), or None in a float patch."""
        return None if self._q is None else self._q[self._support()[2]]

    def colour_major(self):
        """(positions, colors) of every point, colour by colour: the stored array."""
        return self._x, np.repeat(np.arange(self.m), np.diff(self._ends))

    @staticmethod
    def stacked_colour_major(patches, m: int):
        """(x, cell) over the points of patches, patch after patch and each
        colour-major, cell being k * m + colour for a point of patches[k]: so
        with m at least every patch's m, complex_keys(cell, x) is sorted (1D).
        One np.repeat for all patches, not one colour_major each."""
        x = np.concatenate([p._x for p in patches])
        cells = [k * m + i for k, p in enumerate(patches) for i in range(p.m)]
        return x, np.repeat(cells, [b - a for p in patches for a, b in zip(p._ends, p._ends[1:])])

    def _support(self):
        if self._all is None:
            pos, col = self.colour_major()
            order = np.lexsort(_lex_keys(pos, self.dim))  # stable: colour order among ties
            self._all = (pos[order], col[order], order)
        return self._all

    def as_cluster(self) -> "Cluster":
        return Cluster._of(self.dim, self._x, self._ends, self._q)

    def _moved(self, vec):
        """(x, ends, exact) of the points moved by vec, exactly when the points
        and vec are exact; a translation keeps their order."""
        vec = as_point(vec, self.dim)
        if self._q is not None and all(is_exact_coord(v) for v in vec):
            exact = self._q.shift(vec[0])
            return exact.floats(), self._ends, exact
        shift = np.array([float(v) for v in vec])
        return self._x + (shift[0] if self.dim == 1 else shift), self._ends, None

    def translate(self, vec) -> "MultiSetPatch":
        """The patch moved by vec, with the local coordinates it was moved from."""
        vec = as_point(vec, self.dim)
        return MultiSetPatch(self.region.translate(vec), self.dim, *self._moved(vec), self._local())

    def restrict(self, region) -> "MultiSetPatch":
        """The patch of the points in region, which this patch's region must
        cover: one region.mask over every point, exact where the points are;
        the kept points keep their local coordinates."""
        if not self.region.covers(region):
            raise ValueError("restriction region exceeds the patch region")
        idx = np.flatnonzero(region.mask(self._x, self._q))
        return MultiSetPatch(region, self.dim, self._x[idx], np.searchsorted(idx, self._ends).tolist(),
                             None if self._q is None else self._q[idx], self._local()[idx])

    def _local(self) -> np.ndarray:
        """The points aligned with x as differences read them, precise at any offset:
        the floats a float patch was moved from (its own, if never moved), or an
        exact patch's differences from its first point."""
        if self._rel is None:
            self._rel = self._x if self._q is None else (self._q - self._q[:1]).floats()
        return self._rel

    def local(self, color: int = None) -> np.ndarray:
        """The local coordinates every difference of two points reads: colour
        color's, aligned with positions(color), or with no colour all of them,
        aligned with all_positions()."""
        if color is None:
            return self._local()[self._support()[2]]
        return self._local()[self._ends[color]:self._ends[color + 1]]

    def occurrences(self, P: "Cluster", lo: float = -math.inf, hi: float = math.inf):
        """L_P over the patch, as (v, exact v): v = q - anchor over the points q
        of occurrence_index(P, lo, hi), shape (N,) in 1D and (N, d) in 2D, and
        exact v their QuadArray when the patch and P are both exact (else None)."""
        idx, color = self.occurrence_index(P, lo, hi), P.anchor_color()
        exact = None
        if self.exact and P.exact:
            exact = self.exact_positions(color)[idx] - P.exact_positions(color)[:1]
        return self.positions(color)[idx] - P.positions(color)[0], exact

    def occurrence_index(self, P: "Cluster", lo: float = -math.inf, hi: float = math.inf):
        """The ascending indices into positions(P.anchor_color()) of the points q
        whose translate v = q - anchor carries P into the patch's point set.

        In 1D only translates in [lo - TOL_EQ, hi + TOL_EQ] are tried; in 2D
        every anchor-colour point is a candidate.  Membership is within
        TOL_EQ, by in_sorted on local(colour): in 1D one point of P at a
        time, for the candidates every earlier point kept; in 2D every point
        of a colour at once: one point at a time, even on one KD-tree per
        colour per call, measured no faster on 3- to 13-point clusters.
        """
        if P.is_empty():
            raise ValueError("cannot count the empty cluster")
        if P.m != self.m or P.dim != self.dim:
            raise ValueError("cluster shape does not match the point set")
        color = P.anchor_color()
        anchor, pos = P.positions(color)[0], self.positions(color)
        if self.dim == 1:
            a, b = np.searchsorted(pos, [lo + anchor - TOL_EQ, hi + anchor + TOL_EQ])
        elif (lo, hi) != (-math.inf, math.inf):
            raise NotImplementedError("translate bounds are 1D only")
        else:
            a, b = 0, len(pos)
        idx, x = np.arange(a, b), self._local()
        base = x[self._ends[color]:self._ends[color + 1]]
        for i, (s, t, u, w) in enumerate(zip(self._ends, self._ends[1:], P._ends, P._ends[1:])):
            others = P._x[u + (i == color):w]  # every point of P but the anchor
            if self.dim == 1:  # one point at a time, against the candidates left
                for o in others.tolist():
                    if not len(idx):
                        break
                    idx = idx[in_sorted(x[s:t], (base[idx] - anchor) + o)]
            elif len(idx) and len(others):  # targets: (candidate, point, axis)
                idx = idx[in_sorted(x[s:t], (base[idx] - anchor)[:, None] + others).all(axis=1)]
        return idx


class Cluster(MultiSetPatch):
    """Finite colored configuration P = (P_1, ..., P_m): a patch without a
    region, each colour duplicate-free (exactly, or within TOL_EQ for float
    points).  An exact cluster is 1D with every coordinate exact.  Its anchor
    is its smallest point (lexicographically), of the first colour holding
    it: the first point in support order.  Immutable once built.
    """

    __slots__ = ("_sig",)

    def __init__(self, parts, dim=None):
        """parts: per colour, points as d-tuples (scalars in 1D) of floats or
        exact coordinates."""
        parts = [list(part) for part in parts]
        pts = [p for part in parts for p in part]
        if dim is None:
            dim = len(pts[0]) if pts and isinstance(pts[0], (tuple, list)) else 1
        coords = [c for p in pts for c in as_point(p, dim)]
        exact = dim == 1 and coords and all(map(is_exact_coord, coords))
        q = QuadArray.of(coords) if exact else None
        x = np.array([float(c) for c in coords], dtype=float) if q is None else q.floats()
        color = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
        p = MultiSetPatch.from_points(None, dim, len(parts), x if dim == 1 else x.reshape(-1, dim),
                                      color, q)
        self._set(dim, p._x, p._ends, p._q)

    @staticmethod
    def from_arrays(dim: int, m: int, x, color, exact: QuadArray = None) -> "Cluster":
        """Cluster of the float points x ((N,) in 1D, (N, d) otherwise) with
        colours in range(m), in 1D optionally also given exactly."""
        return MultiSetPatch.from_points(None, dim, m, x, color, exact).as_cluster()

    @classmethod
    def _of(cls, dim, x, ends, exact):
        cl = cls.__new__(cls)
        cl._set(dim, x, ends, exact)
        return cl

    def _set(self, dim, x, ends, exact):
        keep = _distinct(x, ends, exact)
        x = x[keep]
        exact = exact[keep] if exact is not None and len(x) else None
        kept = np.concatenate([[0], np.cumsum(keep)])
        MultiSetPatch.__init__(self, None, dim, x, kept[list(ends)].tolist(), exact)
        self._sig = None

    def is_empty(self) -> bool:
        return not len(self._x)

    def to_json(self) -> list:
        """Per colour, the points as lists of float coordinates."""
        return [self.positions(i).reshape(-1, self.dim).tolist() for i in range(self.m)]

    def translate(self, vec) -> "Cluster":
        return Cluster._of(self.dim, *self._moved(vec))

    def anchor_point(self):
        """Lexicographically smallest support point (None if empty)."""
        if self.is_empty():
            return None
        first = int(self._support()[2][0])
        return (self._q.value(first),) if self.exact else tuple(np.atleast_1d(self._x[first]).tolist())

    def anchor_color(self) -> int:
        """Index of the first colour holding the anchor point."""
        return None if self.is_empty() else int(self._support()[1][0])

    def signature(self):
        """Hashable identity key: the exact values, or the float bits (-0.0 as 0.0)."""
        if self._sig is None:
            values = self._q.key() if self.exact else (self._x + 0.0).tobytes()
            self._sig = (self.dim, self._ends, self.exact, values)
        return self._sig

    def __eq__(self, other):
        if not isinstance(other, Cluster):
            return NotImplemented
        if (self.dim, self._ends) != (other.dim, other._ends):
            return False
        if self.exact and other.exact:
            return self.signature() == other.signature()
        return bool(np.all(np.abs(self._x - other._x) <= TOL_EQ))

    def __hash__(self):
        # only what equal clusters share: float equality is within TOL_EQ
        return hash((self.dim, self._ends))

    def __repr__(self):
        return "Cluster(%s)" % ", ".join(
            "{" + ", ".join(str(c if self.dim == 1 else tuple(c)) for c in p.tolist()) + "}"
            for p in map(self.positions, range(self.m)))


def _distinct(x, ends, q) -> np.ndarray:
    """Which points of the colour-major sorted x to keep: each colour's
    first point, and each point that differs from its predecessor, exactly
    (q given) or as run_starts reads floats, so a chain of near-duplicates
    less than TOL_EQ apart keeps only its first point."""
    keep = np.zeros(len(x) + 1, dtype=bool)
    keep[list(ends)] = True  # each colour's first point, if any, starts afresh
    keep = keep[:-1]
    if q is None:
        return keep | run_starts(x)
    keep[1:] |= (q.a[1:] != q.a[:-1]) | (q.b[1:] != q.b[:-1])
    return keep


def cluster_1d(*parts) -> Cluster:
    """Convenience: build a 1D cluster from per-color coordinate lists."""
    return Cluster([[(c,) for c in part] for part in parts], dim=1)


def match_clusters(P: Cluster, Q: Cluster):
    """The unique x with P = -x + Q, or None if not translation-equivalent:
    x is the anchors' difference, checked by Cluster equality."""
    if P.m != Q.m or P.dim != Q.dim:
        raise ValueError("cluster shapes differ (m or dimension)")
    if P._ends != Q._ends:
        return None
    if P.is_empty():
        return tuple(0.0 for _ in range(P.dim))
    x = tuple(cq - cp for cp, cq in zip(P.anchor_point(), Q.anchor_point()))
    return x if Q.translate(tuple(-c for c in x)) == P else None


def cluster_distance(P: Cluster, Q: Cluster) -> float:
    """Per-color symmetric point-set distance, maximized over colors.

    A color empty on one side only contributes 1; empty on both sides
    contributes 0.
    """
    if P.m != Q.m or P.dim != Q.dim:
        raise ValueError("cluster shapes differ (m or dimension)")
    worst = 0.0
    for pa, pb in zip(map(P.positions, range(P.m)), map(Q.positions, range(Q.m))):
        if len(pa) and len(pb):
            worst = max(worst, float(nearest(pb, pa)[1].max()), float(nearest(pa, pb)[1].max()))
        elif len(pa) or len(pb):
            worst = max(worst, 1.0)
    return worst


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

    def class_of(self, cluster: Cluster):
        """Index of the first representative that cluster matches by a translation, or None."""
        return next((j for j, r in enumerate(self.representatives)
                     if match_clusters(r, cluster) is not None), None)


def run_starts(v) -> np.ndarray:
    """Whether each of the sorted values v starts a run: the first value,
    and each more than TOL_EQ from its predecessor (in some coordinate, for
    (N, d) points in lexicographic order; by modulus, for complex keys).
    This is the one rule by which float values are distinct: a run of gaps
    of at most TOL_EQ is one value."""
    head = np.ones(len(v), dtype=bool)
    gap = np.abs(np.diff(v, axis=0))
    head[1:] = (gap if gap.ndim == 1 else gap.max(axis=1, initial=0.0)) > TOL_EQ
    return head


def first_labels(keys) -> tuple:
    """Label equal keys in order of first appearance: (each label's first
    index, ascending; each key's label).  Keys are the rows of a 2D integer
    table, equal entry by entry, or 1D floats, equal in the runs of their
    sorted order that run_starts marks: one sort, then the runs' heads."""
    if keys.ndim == 1:
        order = np.argsort(keys)
        head = run_starts(keys[order])
    else:
        order = np.lexsort(keys.T[::-1])
        rows = keys[order]
        head = np.ones(len(order), dtype=bool)  # the first of each run of equal rows
        head[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    first = np.minimum.reduceat(order, np.flatnonzero(head))  # each run's first index
    label = np.empty(len(order), dtype=np.int64)
    label[order] = np.argsort(np.argsort(first))[np.cumsum(head) - 1]
    return np.sort(first), label


def tolerant_labels(v) -> list:
    """Per coordinate of the float values v, (N,) or (N, d), the labels
    first_labels gives that coordinate's values."""
    return [first_labels(c)[1] for c in ([v] if v.ndim == 1 else v.T)]


def distinct_windows(rows, columns, n: int, extra=()):
    """first_labels of n windows by content.  Window r holds the pairs
    where rows == r (rows ascending); two windows get one label when their
    lengths, their per-pair int64 columns entry by entry, and their
    per-window extra columns agree."""
    counts = np.bincount(rows, minlength=n)
    width = int(counts.max(initial=0))
    slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    table = np.zeros((n, 1 + len(extra) + width * len(columns)), dtype=np.int64)
    table[:, 0] = counts
    for c, values in enumerate(extra):
        table[:, 1 + c] = values
    for c, values in enumerate(columns):
        table[rows, 1 + len(extra) + c * width + slot] = values
    return first_labels(table)


def scan_start(source, R: float) -> float:
    """Where a 1D scan of B_R balls starts by default: max(0, left end + R),
    the first anchor enumerate_cluster_classes accepts on a one-sided source."""
    return max(0.0, source.left_end + R)


def enumerate_cluster_classes(source, R: float, scan) -> ClusterClassTable:
    """Classes of B_R(x) ∩ Λ over anchors x in supp(Λ) ∩ scan.

    Representatives are anchored (lex-smallest support point at the
    origin).  Balls (a KD-tree's in 2D) and their contents read local(), and
    are grouped on arrays by their anchored contents, exactly in exact mode
    and by tolerant_labels otherwise, and one Cluster is built per group,
    from its first ball.  A 1D scan must start at least R past the source's
    left end: a ball reaching past it holds no hull pattern.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    if scan.dim == 1 and float(scan.lo) < source.left_end + R:
        raise ValueError("scan starts at %g, less than R = %g past the source's left end %g"
                         % (float(scan.lo), R, source.left_end))
    patch = source.window(scan.dilate(R + TOL_EQ))
    x, col = patch.all_positions()
    q = patch.all_exact()
    anchors = np.flatnonzero(scan.mask(x, q))
    if not len(anchors):
        raise ValueError("scan region contains no anchor points")
    # the closed ball B_R(x) around each anchor, as (ball, support index) pairs
    loc = patch.local()
    if patch.dim == 1:
        rows, idx = within(loc, loc[anchors] - R - TOL_EQ, loc[anchors] + R + TOL_EQ)
    else:
        from scipy.spatial import cKDTree

        balls = cKDTree(loc).query_ball_point(loc[anchors], R + TOL_EQ, return_sorted=True)
        rows, idx = np.repeat(np.arange(len(anchors)), list(map(len, balls))), np.concatenate(balls)
    start = np.searchsorted(rows, np.arange(len(anchors) + 1))
    first = idx[start[:-1]][rows]  # each ball's lex-smallest point
    if q is not None:
        exact = q[idx] - q[first]
        vals, keys = exact.floats(), [exact.a, exact.b]
    else:  # translated by -x, then anchored, as Cluster.translate rounds
        at = loc[anchors][rows]
        vals = (loc[idx] - at) + -(loc[first] - at)
        keys = tolerant_labels(vals)
    firsts, label = distinct_windows(rows, [col[idx]] + keys, len(anchors))
    reps = [Cluster.from_arrays(patch.dim, patch.m, vals[s], col[idx[s]], None if q is None else exact[s])
            for s in (slice(start[r], start[r + 1]) for r in firsts.tolist())]
    counts = np.bincount(label, minlength=len(reps)).tolist()
    return ClusterClassTable(radius=R, representatives=reps, counts=counts, scan=scan)


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
