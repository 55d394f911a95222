"""Window-query rules that every source type must follow.

Over a lattice, the cut-and-project and substitution Fibonacci chains and a
Poisson process: nested windows agree, TranslatedSource is covariant, the
closed/half-open flags drop exactly the points at an open end, and exact and
float coordinates give the same points.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pointspec.coords import GOLDEN, TOL_EQ, QuadNum
from pointspec.geometry import Interval
from pointspec.sources import (
    PoissonSource,
    SubstitutionRule,
    SubstitutionSource,
    TranslatedSource,
    fibonacci_cut_project,
    fibonacci_substitution,
    integer_lattice,
)

SOURCES = {
    "lattice": integer_lattice(colors=2),
    "cut_project": fibonacci_cut_project(),
    "substitution": fibonacci_substitution(),
    "poisson": PoissonSource(1.5, seed=11),
}
NAMES = sorted(SOURCES)
PROPS = settings(max_examples=60, deadline=None, derandomize=True)


def _end(x: float, exact: bool):
    return Fraction(x) if exact else x


@PROPS
@given(name=st.sampled_from(NAMES), lo=st.floats(-100, 200), width=st.floats(0, 60),
       cut=st.tuples(st.floats(0, 1), st.floats(0, 1)), exact_ends=st.booleans(),
       closed_lo=st.booleans(), closed_hi=st.booleans())
def test_nested_windows_agree(name, lo, width, cut, exact_ends, closed_lo, closed_hi):
    src = SOURCES[name]
    a, b = sorted(cut)
    small = Interval(_end(lo + a * width, exact_ends), _end(lo + b * width, exact_ends),
                     closed_lo, closed_hi)
    nested = src.window(Interval(lo, lo + width)).restrict(small)
    direct = src.window(small)
    assert nested.exact == direct.exact
    assert nested.parts == direct.parts
    for i in range(src.m):
        assert nested.positions(i).tobytes() == direct.positions(i).tobytes()


def _shift(name, k, j):
    """An exact shift that keeps the source's kind of coordinates."""
    return QuadNum(k, j, GOLDEN) if name in ("cut_project", "substitution") else k


@PROPS
@given(name=st.sampled_from(NAMES), lo=st.floats(-100, 200), width=st.floats(0, 40),
       k=st.integers(-40, 40), j=st.integers(-40, 40), split=st.integers(-5, 5))
def test_translation_covariance(name, lo, width, k, j, split):
    src = SOURCES[name]
    h = _shift(name, k, j)
    region = Interval(Fraction(lo), Fraction(lo) + Fraction(width))
    moved = TranslatedSource(src, h).window(region)
    base = src.window(region.translate((h,)))
    # -h + (Lambda within region + h), shifted point by point in scalar arithmetic
    assert moved.parts == tuple(tuple((x - h,) for (x,) in part) for part in base.parts)
    assert moved.exact == base.exact
    # two translations compose into one (up to rounding for float points)
    twice = TranslatedSource(TranslatedSource(src, split), h - split).window(region)
    if moved.exact:
        assert twice.parts == moved.parts
    for i in range(src.m):
        a, b = twice.positions(i), moved.positions(i)
        assert len(a) == len(b) and np.all(np.abs(a - b) <= 1e-12)


@PROPS
@given(name=st.sampled_from(NAMES), idx=st.integers(0, 30), span=st.integers(1, 8),
       exact_ends=st.booleans(), closed_lo=st.booleans(), closed_hi=st.booleans())
def test_open_ends_drop_exactly_the_points_there(name, idx, span, exact_ends, closed_lo,
                                                 closed_hi):
    src = SOURCES[name]
    patch = src.window(Interval(0, 60))
    x, q = patch.all_positions()[0], patch.all_exact()
    pts = x.tolist() if q is None else [q.value(k) for k in range(len(x))]
    lo, hi = pts[idx], pts[idx + span]
    if not (exact_ends and patch.exact):
        lo, hi = float(lo), float(hi)
    closed = src.window(Interval(lo, hi))
    half = src.window(Interval(lo, hi, closed_lo, closed_hi))
    for i in range(src.m):
        pos = closed.positions(i)
        drop = np.zeros(len(pos), dtype=bool)
        if not closed_lo:
            drop |= np.abs(pos - float(lo)) <= TOL_EQ
        if not closed_hi:
            drop |= np.abs(pos - float(hi)) <= TOL_EQ
        assert half.positions(i).tolist() == pos[~drop].tolist()
    assert closed.total_points - half.total_points == (not closed_lo) + (not closed_hi)


FLOAT_FIB = SubstitutionSource(
    SubstitutionRule(letters="ab", expansions=("ab", "a"),
                     lengths=(float(QuadNum(0, 1, GOLDEN)), 1.0), color_of=(0, 1)), "a")


@PROPS
@given(lo=st.floats(-10, 3000), width=st.floats(0, 100), closed_lo=st.booleans(),
       closed_hi=st.booleans())
def test_exact_and_float_coordinates_agree(lo, width, closed_lo, closed_hi):
    # the same chain from exact tile lengths and from float ones
    region = Interval(lo, lo + width, closed_lo, closed_hi)
    exact, flt = SOURCES["substitution"].window(region), FLOAT_FIB.window(region)
    assert exact.exact and not flt.exact
    for i in range(2):
        a, b = exact.positions(i), flt.positions(i)
        assert len(a) == len(b)
        assert np.all(np.abs(a - b) <= 1e-9)
