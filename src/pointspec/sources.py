"""Deterministic point-set generators served through window queries.

Every source is an infinite colored point set Lambda = (Lambda_i)_{i<=m}
exposed only through `window(region) -> MultiSetPatch`.  Queries are
deterministic and consistent across nested regions; no source ever holds
an infinite set in memory.

Bundled test beds:

* LatticeSource          periodic control (pure point, trivially)
* CutProjectSource       model sets; exact quadratic coordinates
* SubstitutionSource     one-sided fixed-point tilings (supp in [0, inf))
* PoissonSource          disordered negative control (not Delone)

The Fibonacci chain is available both ways (substitution and
cut-and-project) and the two constructions agree point-for-point with
colors on the positive axis, which the test suite checks exactly.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coords import (
    EXACT_MAX,
    GOLDEN,
    TOL_EQ,
    QuadArray,
    QuadField,
    QuadNum,
    field_by_name,
    is_exact_coord,
)
from .geometry import Ball, Box, Interval, MultiSetPatch, ranges, sorted_slice


class SourceError(ValueError):
    pass


def _whole(name, value) -> int:
    """value as an int: SourceError for a boolean or a value that is not a
    whole number, which int() would truncate or accept in silence."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or isinstance(value, float) and value.is_integer()):
        raise SourceError("%s must be an integer, not %r" % (name, value))
    return int(value)


class PointSource:
    """Base class: deterministic window-query interface.  left_end bounds the
    support's first coordinate from below: -inf unless the source is one-sided."""

    dim = 1
    m = 1
    field = None
    left_end = -math.inf

    def window(self, region) -> MultiSetPatch:
        if not all(math.isfinite(lo) and math.isfinite(hi) for lo, hi in region.bounds()):
            raise SourceError("window region must be bounded")
        if region.dim != self.dim:
            raise SourceError("region dimension %d != source dimension %d"
                              % (region.dim, self.dim))
        x, color, exact = self._query(region)
        keep = region.mask(x, exact)
        return MultiSetPatch.from_points(region, self.dim, self.m, x[keep], color[keep],
                                         None if exact is None else exact[keep])

    def _query(self, region):
        """Candidates for a region, a superset of the points inside it: float
        positions ((N,) in 1D, (N, d) otherwise), colours, and the same points
        as a QuadArray (None for a float source)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# lattices


class LatticeSource(PointSource):
    """Points {B k : k in Z^d}, colored by (sum of integer coords) mod m."""

    def __init__(self, basis, colors: int = 1):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim == 1:
            basis = basis.reshape(1, 1)
        if basis.shape[0] != basis.shape[1]:
            raise SourceError("basis must be square")
        if abs(np.linalg.det(basis)) < 1e-12:
            raise SourceError("basis is singular")
        self.basis = basis
        self.inv = np.linalg.inv(basis)
        self.dim = basis.shape[0]
        self.m = _whole("colors", colors)
        if self.m < 1:
            raise SourceError("colors must be >= 1")

    def _query(self, region):
        bounds = region.bounds()
        corners = np.array(np.meshgrid(*[(lo, hi) for lo, hi in bounds])).T.reshape(-1, self.dim)
        pre = corners @ self.inv.T
        klo = np.floor(pre.min(axis=0)).astype(int) - 1
        khi = np.ceil(pre.max(axis=0)).astype(int) + 1
        grids = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(klo, khi)], indexing="ij")
        ks = np.stack([g.ravel() for g in grids], axis=1)
        x = ks @ self.basis.T
        return (x[:, 0] if self.dim == 1 else x), ks.sum(axis=1) % self.m, None


def integer_lattice(spacing: float = 1.0, colors: int = 1) -> LatticeSource:
    return LatticeSource([[spacing]], colors=colors)


# ---------------------------------------------------------------------------
# cut and project


@dataclass(frozen=True)
class CutProjectSpec:
    """Acceptance windows in internal space, one half-open interval per color.

    Points are x = a + b*tau (a, b integers); x is accepted with color i
    when its Galois conjugate x* lies in windows[i].  Windows must be
    pairwise disjoint.
    """

    field: QuadField
    windows: tuple  # tuple of Interval with exact endpoints

    def __post_init__(self):
        if not self.windows:
            raise SourceError("need at least one acceptance window")
        for w in self.windows:
            if not (is_exact_coord(w.lo) and is_exact_coord(w.hi)):
                raise SourceError("acceptance window endpoints must be exact")
            if w.volume() <= 0:
                raise SourceError("empty acceptance window")


# Cut-and-project window regions must lie in |x| <= COORD_MAX: the float
# candidate bracket has a margin of 1 in a, and its rounding error stays far
# below that while |x| <= 2**50 (it reaches 1 near |x| ~ 1e16); the integer
# pairs (a, b) then stay below QuadArray's 2**53.
COORD_MAX = 2.0 ** 50
_BLOCK_ROWS = 512      # b values per block of candidates (bounds temporaries)


class CutProjectSource(PointSource):
    def __init__(self, spec: CutProjectSpec):
        self.spec = spec
        self.field = spec.field
        self.dim = 1
        self.m = len(spec.windows)
        self._star_lo = min(float(w.lo) for w in spec.windows)
        self._star_hi = max(float(w.hi) for w in spec.windows)
        self._tau = self.field.tau
        self._tauc = self.field.tau_conj

    def _query(self, region):
        (lo, hi), = region.bounds()
        if max(abs(lo), abs(hi)) > COORD_MAX:
            raise SourceError("window region beyond |x| <= %g, where the "
                              "cut-and-project window is exact" % COORD_MAX)
        lo_x, hi_x = lo - TOL_EQ, hi + TOL_EQ
        # x = a + b*tau in [lo, hi] and x* = a + b*tau' in the window band:
        # b = (x - x*) / (tau - tau'), then a is pinned by both constraints.
        span = self._tau - self._tauc
        b_lo = math.floor(min((lo_x - self._star_hi), (lo_x - self._star_lo)) / span) - 1
        b_hi = math.ceil(max((hi_x - self._star_lo), (hi_x - self._star_hi)) / span) + 1
        blocks = []
        for b0 in range(b_lo, b_hi + 1, _BLOCK_ROWS):
            a, b = self._candidates(b0, min(b0 + _BLOCK_ROWS, b_hi + 1), lo_x, hi_x)
            color = self._colors(a, b)
            keep = color >= 0
            blocks.append((a[keep], b[keep], color[keep]))
        a, b, color = (np.concatenate(cols) for cols in zip(*blocks))
        exact = QuadArray(a, b, 1, self.field)
        return exact.floats(), color, exact

    def _candidates(self, b0: int, b1: int, lo_x: float, hi_x: float):
        """All (a, b) with b0 <= b < b1 in the float bracket, b-major, a ascending."""
        rows = np.arange(b0, b1, dtype=np.int64)
        bf = rows.astype(float)
        a_min = np.floor(np.maximum(lo_x - bf * self._tau, self._star_lo - bf * self._tauc)) - 1
        a_max = np.ceil(np.minimum(hi_x - bf * self._tau, self._star_hi - bf * self._tauc)) + 1
        row, a = ranges(a_min, a_max + 1)
        return a, rows[row]

    def _colors(self, a, b):
        """Index of the first acceptance window holding x* = a + b*tau', or -1."""
        star = QuadArray(a, b, 1, self.field).conj()
        floats = star.floats()
        color = np.full(len(a), -1, dtype=np.int64)
        for i, w in enumerate(self.spec.windows):
            color[w.mask(floats, star) & (color < 0)] = i
        return color


def fibonacci_cut_project(colors: int = 2) -> CutProjectSource:
    """The Fibonacci chain as a model set, exact golden-ratio coordinates.

    Acceptance windows (internal space): color 0 ('a', tile length tau)
    on [tau-2, tau-1), color 1 ('b', tile length 1) on [-1, tau-2).  With
    a single color the union window [-1, tau-1) is used.
    """
    colors, f = _whole("colors", colors), GOLDEN
    w_a = Interval(QuadNum(-2, 1, f), QuadNum(-1, 1, f), True, False)
    w_b = Interval(QuadNum(-1, 0, f), QuadNum(-2, 1, f), True, False)
    if colors == 2:
        spec = CutProjectSpec(field=f, windows=(w_a, w_b))
    elif colors == 1:
        spec = CutProjectSpec(field=f, windows=(Interval(QuadNum(-1, 0, f), QuadNum(-1, 1, f), True, False),))
    else:
        raise SourceError("fibonacci supports 1 or 2 colors")
    return CutProjectSource(spec)


# ---------------------------------------------------------------------------
# substitutions


@dataclass(frozen=True)
class SubstitutionRule:
    """Inflation rule on letters with per-letter tile lengths.

    lengths must satisfy the Perron eigenvector equation exactly in exact
    mode: inflation * length(letter) = sum of lengths over the expansion
    word, with one common inflation factor.
    """

    letters: str
    expansions: tuple          # expansion word per letter, e.g. ("ab", "a")
    lengths: tuple             # QuadNum / int / float per letter
    color_of: tuple            # letter index -> color index
    field: QuadField = None

    def __post_init__(self):
        k = len(self.letters)
        if len(self.expansions) != k or len(self.lengths) != k or len(self.color_of) != k:
            raise SourceError("rule arrays must all have one entry per letter")
        for w in self.expansions:
            if not w or any(ch not in self.letters for ch in w):
                raise SourceError("expansion words must be nonempty over the alphabet")
        for L in self.lengths:
            if float(L) <= 0:
                raise SourceError("tile lengths must be positive")
        if not self._primitive():
            raise SourceError("substitution matrix is not primitive")

    @property
    def n_colors(self) -> int:
        return max(self.color_of) + 1

    def matrix(self) -> np.ndarray:
        k = len(self.letters)
        M = np.zeros((k, k), dtype=np.int64)
        idx = {ch: i for i, ch in enumerate(self.letters)}
        for j, w in enumerate(self.expansions):
            for ch in w:
                M[idx[ch], j] += 1
        return M

    def _primitive(self) -> bool:
        M = self.matrix()
        P = np.eye(len(self.letters), dtype=np.int64)
        for _ in range((len(self.letters) - 1) ** 2 + 1):
            P = np.minimum(P @ M, 1)
            if P.min() > 0:
                return True
        return False

    def inflation(self):
        """The common inflation factor lam of L^T M = lam L^T, L the tile
        lengths and M the substitution matrix: a QuadNum or Fraction for
        exact lengths, else a float checked within 1e-9."""
        M = self.matrix()
        if all(is_exact_coord(L) for L in self.lengths):
            try:
                L = QuadArray.of(self.lengths)
                LM = QuadArray(L.a @ M, L.b @ M, L.den, L.field)  # column j: word j's length
                top, bottom = LM.value(0), L.value(0)
                lam = Fraction(top, bottom) if L.field is None else top / bottom
                off = (LM - QuadArray.of([lam * L.value(j) for j in range(len(M))])).compare(0)
            except ValueError as e:
                raise SourceError(str(e))
        else:
            L = np.array([float(L) for L in self.lengths])
            ratios = (L @ M) / L
            lam, off = float(ratios[0]), np.abs(ratios - ratios[0]) > 1e-9
        if off.any():
            raise SourceError("tile lengths are not a Perron eigenvector")
        return lam


class SubstitutionSource(PointSource):
    """Left tile endpoints of the one-sided fixed-point tiling from a seed letter.

    The support lies in [0, inf); window queries clip accordingly.
    """

    left_end = 0.0

    def __init__(self, rule: SubstitutionRule, seed_letter: str):
        if seed_letter not in rule.letters:
            raise SourceError("unknown seed letter %r" % seed_letter)
        if rule.expansions[rule.letters.index(seed_letter)][0] != seed_letter:
            raise SourceError("seed letter must begin its own expansion (legal fixed point)")
        rule.inflation()  # validates the eigenvector equation
        self.rule = rule
        self.seed_letter = seed_letter
        self.dim = 1
        self.m = rule.n_colors
        exact = all(is_exact_coord(L) for L in rule.lengths)
        self.field = rule.field
        exp = [[rule.letters.index(ch) for ch in w] for w in rule.expansions]
        width = max(map(len, exp))
        self._table = np.array([e + [0] * (width - len(e)) for e in exp])
        self._sizes = np.array([len(e) for e in exp])
        self._color = np.array(rule.color_of)
        self._longest = max(float(L) for L in rule.lengths)
        # the word's tile endpoints, left ends then its right end: floats, and
        # for an exact rule the same points as a QuadArray
        self._word = np.array([rule.letters.index(seed_letter)])
        self._ends, self._exact, self._err = np.zeros(1), None, 0.0  # _err: the ends' float error
        if exact:
            try:
                self._lengths = QuadArray.of(rule.lengths, rule.field)
            except ValueError as e:
                raise SourceError(str(e))
            self._exact = QuadArray([0], [0], self._lengths.den, self._lengths.field)
        else:
            self._lengths = np.array([float(L) for L in rule.lengths])
        self._add_ends(0)

    def _extend_to(self, length_needed: float):
        """Inflate the word until its tiles reach length_needed.

        The seed letter begins its own expansion, so each inflated word
        extends the last and only the new tiles get endpoints.
        """
        while self._ends[-1] < length_needed:
            word = self._word
            width = np.arange(self._table.shape[1])
            self._word = self._table[word][width < self._sizes[word][:, None]]
            self._add_ends(len(word))

    def _add_ends(self, n: int):
        """Append the right ends of tiles n, n+1, ... of the word."""
        new = self._word[n:]
        q, L = self._exact, self._lengths
        if q is None:
            tail = np.cumsum(np.concatenate([self._ends[-1:], L[new]]))[1:]
        else:
            top = max(abs(int(q.a[-1])) + len(new) * int(np.abs(L.a).max()),
                      abs(int(q.b[-1])) + len(new) * int(np.abs(L.b).max()))
            if top >= EXACT_MAX:
                raise SourceError("substitution positions beyond the exact int64 range")
            self._exact = QuadArray(np.concatenate([q.a, q.a[-1] + np.cumsum(L.a[new])]),
                                    np.concatenate([q.b, q.b[-1] + np.cumsum(L.b[new])]),
                                    q.den, q.field)
            tail = self._exact[n + 1:].floats()
            self._err = self._exact.float_error()
        self._ends = np.concatenate([self._ends, tail])

    def _query(self, region):
        (_, hi), = region.bounds()
        self._extend_to(hi + self._longest + 1.0)
        cut = sorted_slice(self._ends[:-1], region, self._err)
        exact = None if self._exact is None else self._exact[cut]
        return self._ends[cut], self._color[self._word[cut]], exact


def fibonacci_substitution() -> SubstitutionSource:
    """a -> ab, b -> a with exact lengths (tau, 1); colors: a=0, b=1."""
    f = GOLDEN
    rule = SubstitutionRule(
        letters="ab",
        expansions=("ab", "a"),
        lengths=(QuadNum(0, 1, f), QuadNum(1, 0, f)),
        color_of=(0, 1),
        field=f,
    )
    return SubstitutionSource(rule, "a")


def thue_morse_source() -> SubstitutionSource:
    """a -> ab, b -> ba, unit tiles; colors: a=0, b=1."""
    rule = SubstitutionRule(
        letters="ab", expansions=("ab", "ba"), lengths=(1, 1), color_of=(0, 1),
    )
    return SubstitutionSource(rule, "a")


def period_doubling_source() -> SubstitutionSource:
    """a -> ab, b -> aa, unit tiles; colors: a=0, b=1."""
    rule = SubstitutionRule(
        letters="ab", expansions=("ab", "aa"), lengths=(1, 1), color_of=(0, 1),
    )
    return SubstitutionSource(rule, "a")


# ---------------------------------------------------------------------------
# Poisson


# numpy.random.SeedSequence's hash constants, and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, 2 ** 128 - 1


def _hasher(h, mult):
    """SeedSequence's hashmix on uint32 arrays; its constant steps on every call."""
    def hash_(v):
        nonlocal h
        x, h = h, h * mult & 0xFFFFFFFF
        v = (v ^ np.uint32(x)) * np.uint32(h)
        return v ^ (v >> 16)
    return hash_


def _cell_seeds(seed: int, cells) -> list:
    """PCG64's (state, inc) as default_rng((seed, *(c + 2**32))) sets them, for
    each row c of cells: SeedSequence's entropy words, mix_entropy and
    generate_state(4, uint64) on wrapping uint32 arrays, then pcg64_set_seed."""
    # the words, low first: c + 2**32 is one word when c < 0 and two,
    # [c mod 2**32, 1 + c // 2**32], when c >= 0; one pass per word layout
    seed_words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    shifted, layout = cells + 2 ** 32, (cells >= 0) @ (1 << np.arange(cells.shape[1]))
    seeds = [None] * len(cells)
    for code in np.unique(layout).tolist():
        idx = np.flatnonzero(layout == code)
        words = [np.full(len(idx), w) for w in seed_words]
        for k in range(cells.shape[1]):
            words += [shifted[idx, k] & 0xFFFFFFFF] + ([shifted[idx, k] >> 32] if code >> k & 1 else [])
        words = [w.astype(np.uint32) for w in words]
        hash_ = _hasher(_INIT_A, _MULT_A)
        pool = [hash_(words[i] if i < len(words) else np.zeros(len(idx), np.uint32)) for i in range(4)]
        # mix every pool word into every other one, then each word past the pool into all four
        for s, d in itertools.chain(itertools.permutations(range(4), 2),
                                    itertools.product(range(4, len(words)), range(4))):
            r = (np.uint32(0xCA01F9DD) * pool[d]
                 - np.uint32(0x4973F715) * hash_(pool[s] if s < 4 else words[s]))
            pool[d] = r ^ (r >> 16)
        hash_ = _hasher(_INIT_B, _MULT_B)
        out = [hash_(pool[k % 4]).astype(np.uint64) for k in range(8)]
        s0, s1, q0, q1 = ((out[2 * k] | out[2 * k + 1] << np.uint64(32)).tolist() for k in range(4))
        for j, a, b, c, e in zip(idx.tolist(), s0, s1, q0, q1):  # initstate a:b, initseq c:e
            inc = ((c << 64 | e) << 1 | 1) & _MASK128
            seeds[j] = ((((a << 64 | b) + inc) * _PCG_MULT + inc) & _MASK128, inc)
    return seeds


class PoissonSource(PointSource):
    """Homogeneous Poisson points, reproducible and window-consistent.

    Each unit cell c of Z^d draws its count with poisson(intensity), then
    its offsets in [0, 1)^d, from default_rng((seed, *(c + 2**32))), so
    nested queries always agree.  A query seeds all its cells at once and
    draws them with one generator of its own.  Not a Delone set: used only
    as the disordered contrast in diffraction runs.
    """

    def __init__(self, intensity: float, seed: int = 0, dim: int = 1):
        if isinstance(intensity, bool) or not 0 < intensity < math.inf:
            raise SourceError("intensity must be positive and finite, not %r" % (intensity,))
        self.intensity = float(intensity)
        self.seed = _whole("seed", seed)
        if self.seed < 0:
            raise SourceError("seed must be >= 0")
        self.dim = _whole("dim", dim)
        if self.dim not in (1, 2):
            raise SourceError("dim must be 1 or 2")
        self.m = 1

    def _query(self, region):
        axes = [np.arange(math.floor(lo), math.ceil(hi) + 1) for lo, hi in region.bounds()]
        cells = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)
        if cells.size and cells.min() < -2 ** 32:
            raise SourceError("Poisson cells must lie at x >= -2**32")
        gen = np.random.default_rng(0)
        counts, draws = [], [np.empty((0, self.dim))]
        for state, inc in _cell_seeds(self.seed, cells):  # its arrays die before the draws
            gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                       "state": {"state": state, "inc": inc}}
            counts.append(gen.poisson(self.intensity))
            if counts[-1]:
                draws.append(gen.random((counts[-1], self.dim)))
        x = np.repeat(cells.astype(float), counts, axis=0) + np.concatenate(draws)
        return (x[:, 0] if self.dim == 1 else x), np.zeros(len(x), dtype=np.int64), None


# ---------------------------------------------------------------------------
# derived sources


class TranslatedSource(PointSource):
    """-h + Lambda for a base source and shift h."""

    def __init__(self, base: PointSource, shift):
        if not isinstance(shift, (tuple, list)):
            shift = (shift,)
        if len(shift) != base.dim:
            raise SourceError("shift dimension mismatch")
        if any(isinstance(s, bool) for s in shift):
            raise SourceError("shift must be numbers, not %r" % (shift,))
        self.base = base
        self.shift = tuple(shift)
        self.dim = base.dim
        self.m = base.m
        self.field = base.field
        self.left_end = base.left_end - float(self.shift[0])

    def window(self, region) -> MultiSetPatch:
        moved = region.translate(self.shift)
        patch = self.base.window(moved)
        return patch.translate(tuple(-s for s in self.shift))


# ---------------------------------------------------------------------------
# configuration and serialization


def _require_keys(doc, *keys):
    """SourceError for the first of keys that doc lacks."""
    for key in keys:
        if key not in doc:
            raise SourceError("missing %r in source config" % key)


def source_from_config(cfg: dict, seed=None) -> PointSource:
    """Build a source from a config dict ({"type": ..., ...params})."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise SourceError("source config must be an object with a 'type' key")
    cfg = dict(cfg)
    typ = cfg.pop("type")
    offset = cfg.pop("offset", None)
    if typ == "lattice":
        basis = cfg.pop("basis", [[1.0]])
        colors = cfg.pop("colors", 1)
        src = LatticeSource(basis, colors=colors)
    elif typ == "fibonacci":
        src = fibonacci_cut_project(colors=cfg.pop("colors", 2))
    elif typ == "thue_morse":
        src = thue_morse_source()
    elif typ == "period_doubling":
        src = period_doubling_source()
    elif typ == "cut_project":
        f = field_by_name(cfg.pop("field", "golden"))
        windows = []
        _require_keys(cfg, "windows")
        for w in cfg.pop("windows"):
            _require_keys(w, "lo", "hi")
            lo, hi = (QuadNum(int(w[end][0]), int(w[end][1]), f) for end in ("lo", "hi"))
            windows.append(Interval(lo, hi, True, False))
        src = CutProjectSource(CutProjectSpec(field=f, windows=tuple(windows)))
    elif typ == "substitution":
        fname = cfg.pop("field", None)
        f = field_by_name(fname) if fname else None
        _require_keys(cfg, "letters", "expansions", "lengths")
        letters = cfg.pop("letters")
        expansions = tuple(cfg.pop("expansions"))
        raw_lengths = cfg.pop("lengths")
        lengths = []
        for L in raw_lengths:
            if isinstance(L, (list, tuple)):
                if f is None:
                    raise SourceError("exact lengths require a 'field'")
                lengths.append(QuadNum(int(L[0]), int(L[1]), f))
            elif isinstance(L, int) or (isinstance(L, float) and L.is_integer()):
                lengths.append(int(L))
            else:
                lengths.append(float(L))
        color_of = tuple(cfg.pop("color_of", range(len(letters))))
        rule = SubstitutionRule(letters=letters, expansions=expansions,
                                lengths=tuple(lengths), color_of=color_of, field=f)
        src = SubstitutionSource(rule, cfg.pop("seed_letter", letters[0]))
    elif typ == "poisson":
        src = PoissonSource(
            cfg.pop("intensity", 1.0),
            seed=cfg.pop("seed", seed if seed is not None else 0),
            dim=cfg.pop("dim", 1),
        )
    else:
        raise SourceError("unknown source type %r" % typ)
    cfg.pop("seed", None)
    if cfg:
        raise SourceError("unknown source parameters: %s" % sorted(cfg))
    if offset is not None:
        src = TranslatedSource(src, offset)
    return src


def region_to_json(region) -> dict:
    if isinstance(region, Interval):
        return {"kind": "interval", "lo": float(region.lo), "hi": float(region.hi),
                "closed": [region.closed_lo, region.closed_hi]}
    if isinstance(region, Box):
        return {"kind": "box", "lo": [float(c) for c in region.lo],
                "hi": [float(c) for c in region.hi]}
    if isinstance(region, Ball):
        return {"kind": "ball", "center": [float(c) for c in region.center],
                "radius": region.radius}
    raise ValueError("unknown region type")
