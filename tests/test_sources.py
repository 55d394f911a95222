import json
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointspec.coords import GOLDEN, TOL_EQ, QuadArray, QuadNum
from pointspec.geometry import Ball, Box, Interval, MultiSetPatch
from pointspec.output import write_json, write_points
from pointspec.sources import (
    COORD_MAX,
    CutProjectSource,
    CutProjectSpec,
    LatticeSource,
    PoissonSource,
    SourceError,
    SubstitutionRule,
    SubstitutionSource,
    TranslatedSource,
    fibonacci_cut_project,
    fibonacci_substitution,
    integer_lattice,
    period_doubling_source,
    region_to_json,
    source_from_config,
    thue_morse_source,
)

from oracles import patch_to_json, poisson_window_points

TAU = (1 + 5 ** 0.5) / 2


def exact_pairs(patch, color):
    out = set()
    for p in patch.parts[color]:
        c = p[0]
        out.add((c.a, c.b) if isinstance(c, QuadNum) else (c, 0))
    return out


# ---------------------------------------------------------------------------
# lattices


def test_integer_lattice_windows():
    z = integer_lattice()
    assert [p[0] for p in z.window(Interval(0, 5)).parts[0]] == [0, 1, 2, 3, 4, 5]
    assert z.window(Interval(0.1, 0.9)).total_points == 0


def test_two_color_lattice_alternates():
    src = LatticeSource([[2.0]], colors=2)  # 2Z colored by residue mod 4
    patch = src.window(Interval(0, 10))
    assert [p[0] for p in patch.parts[0]] == [0.0, 4.0, 8.0]
    assert [p[0] for p in patch.parts[1]] == [2.0, 6.0, 10.0]


def test_square_lattice_window():
    z2 = LatticeSource([[1.0, 0.0], [0.0, 1.0]])
    patch = z2.window(Box((0.0, 0.0), (2.0, 2.0)))
    assert patch.total_points == 9


def test_singular_basis_rejected():
    with pytest.raises(SourceError):
        LatticeSource([[1.0, 1.0], [1.0, 1.0]])


# ---------------------------------------------------------------------------
# cut and project vs substitution (exact cross-oracle)


def test_fibonacci_cross_oracle_exact():
    cp = fibonacci_cut_project()
    sub = fibonacci_substitution()
    a = cp.window(Interval(0, 1000))
    b = sub.window(Interval(0, 1000))
    assert exact_pairs(a, 0) == exact_pairs(b, 0)
    assert exact_pairs(a, 1) == exact_pairs(b, 1)
    assert a.total_points == b.total_points > 700


def test_fibonacci_density():
    cp = fibonacci_cut_project()
    n = cp.window(Interval(0, 5000)).total_points
    assert n / 5000 == pytest.approx((5 + 5 ** 0.5) / 10, abs=1e-3)


def test_window_shrink_monotone():
    f = GOLDEN
    full = fibonacci_cut_project(colors=1)
    # half-length acceptance window strictly thins the point set
    half = CutProjectSource(CutProjectSpec(
        field=f, windows=(Interval(QuadNum(-1, 0, f), QuadNum(0, 0, f), True, False),)))
    n_full = full.window(Interval(0, 100)).total_points
    n_half = half.window(Interval(0, 100)).total_points
    assert 0 < n_half < n_full


def test_offset_by_module_element_translates():
    f = GOLDEN
    base = fibonacci_cut_project(colors=1)
    t = QuadNum(1, 1, f)          # 1 + tau
    ts = t.conj()                  # its internal image
    w = base.spec.windows[0]
    shifted = CutProjectSource(CutProjectSpec(
        field=f, windows=(Interval(w.lo + ts, w.hi + ts, True, False),)))
    a = exact_pairs(base.window(Interval(0, 200)), 0)
    region = Interval(float(t), 200 + float(t))
    b = exact_pairs(shifted.window(region), 0)
    assert b == {(x + 1, y + 1) for x, y in a}
    assert window_triples(shifted, region) == scalar_window(shifted, region)


# ---------------------------------------------------------------------------
# array cut-and-project window vs the scalar QuadNum loop it replaced


def scalar_window(src, region):
    """Reference (a, b, color) triples: one exact QuadNum compare per candidate.

    The candidate bracket is the window's own float bracket.  Region ends carry
    10**-9 slack, outward at closed ends and inward at open ones.
    """
    (lo, hi), = region.bounds()
    f = src.field
    tau, tauc = f.tau, f.tau_conj
    star_lo = min(float(w.lo) for w in src.spec.windows)
    star_hi = max(float(w.hi) for w in src.spec.windows)
    lo_x, hi_x = lo - TOL_EQ, hi + TOL_EQ
    span = tau - tauc
    b_lo = math.floor(min(lo_x - star_hi, lo_x - star_lo) / span) - 1
    b_hi = math.ceil(max(hi_x - star_lo, hi_x - star_hi) / span) + 1
    slack = Fraction(1, 10 ** 9)
    band = Interval(Fraction(lo) - slack if region.closed_lo else Fraction(lo) + slack,
                    Fraction(hi) + slack if region.closed_hi else Fraction(hi) - slack,
                    region.closed_lo, region.closed_hi)
    out = []
    for b in range(b_lo, b_hi + 1):
        a_min = math.floor(max(lo_x - b * tau, star_lo - b * tauc)) - 1
        a_max = math.ceil(min(hi_x - b * tau, star_hi - b * tauc)) + 1
        for a in range(a_min, a_max + 1):
            x = QuadNum(a, b, f)
            if not band.contains_point((x,)):
                continue
            for i, w in enumerate(src.spec.windows):
                if w.contains_point((x.conj(),)):
                    out.append((a, b, i))
                    break
    return sorted(out)


def window_triples(src, region):
    patch = src.window(region)
    return sorted((p[0].a, p[0].b, i) for i in range(patch.m) for p in patch.parts[i])


FIB = {1: fibonacci_cut_project(colors=1), 2: fibonacci_cut_project(colors=2)}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(colors=st.sampled_from([1, 2]), lo=st.floats(-3000, 3000), width=st.floats(0, 300),
       closed_lo=st.booleans(), closed_hi=st.booleans())
def test_window_matches_scalar_oracle(colors, lo, width, closed_lo, closed_hi):
    region = Interval(lo, lo + width, closed_lo, closed_hi)
    assert window_triples(FIB[colors], region) == scalar_window(FIB[colors], region)


def test_window_ends_at_points_match_scalar_oracle():
    # ends at float(x) and float(x) +- 1e-9 (and one ulp past) for true points
    # x, where the float test leaves the decision to the exact tie-break
    src = FIB[2]
    pts = [p[0] for part in src.window(Interval(-300, 300)).parts for p in part]
    sample = [QuadNum(0, 0, GOLDEN), QuadNum(-1, 0, GOLDEN)] + pts[::40]
    for x in sample:
        fx = float(x)
        for e in (fx, fx - 1e-9, fx + 1e-9, math.nextafter(fx - 1e-9, -math.inf),
                  math.nextafter(fx + 1e-9, math.inf)):
            for closed_lo in (True, False):
                for closed_hi in (True, False):
                    for region in (Interval(e, e + 3, closed_lo, closed_hi),
                                   Interval(e - 3, e, closed_lo, closed_hi)):
                        assert window_triples(src, region) == scalar_window(src, region)


def test_silver_window_matches_scalar_oracle():
    src = source_from_config({"type": "cut_project", "field": "silver",
                              "windows": [{"lo": [-1, 0], "hi": [0, 0]},
                                          {"lo": [0, 0], "hi": [-2, 1]}]})
    rng = np.random.default_rng(3)
    for _ in range(20):
        lo = float(rng.uniform(-1000, 1000))
        region = Interval(lo, lo + float(rng.uniform(0, 100)))
        assert window_triples(src, region) == scalar_window(src, region)


def test_fraction_window_ends_match_scalar_oracle():
    # one end with Fraction coefficients; x* = 0 sits on two open ends and
    # x* = 1 on a closed one, so the acceptance-window flags decide x = 0, 1
    f = GOLDEN
    src = CutProjectSource(CutProjectSpec(field=f, windows=(
        Interval(QuadNum(Fraction(-1, 2), Fraction(-1, 3), f), QuadNum(0, 0, f), True, False),
        Interval(Fraction(0), 1, False, True),
    )))
    got = window_triples(src, Interval(-3, 3))
    assert got == scalar_window(src, Interval(-3, 3))
    assert (1, 0, 1) in got and not any(t[:2] == (0, 0) for t in got)
    rng = np.random.default_rng(4)
    for _ in range(20):
        lo = float(rng.uniform(-1000, 1000))
        region = Interval(lo, lo + float(rng.uniform(0, 100)))
        assert window_triples(src, region) == scalar_window(src, region)


@pytest.mark.parametrize("lo, hi", [(COORD_MAX - 40, COORD_MAX), (-COORD_MAX, -COORD_MAX + 40)])
def test_window_exact_just_inside_coordinate_bound(lo, hi):
    src = FIB[2]
    region = Interval(lo, hi)
    got = window_triples(src, region)
    assert got == scalar_window(src, region)
    # complete: consecutive points are one tile (1 or tau) apart
    xs = sorted((QuadNum(a, b, GOLDEN) for a, b, _ in got), key=float)
    assert len(xs) > 20
    for x, y in zip(xs, xs[1:]):
        d = y - x
        assert (d.a, d.b) in ((1, 0), (0, 1))


def fraction_window(src, region):
    """Reference (a, b, color) triples decided by exact comparisons alone:
    x = a + b*tau against the closed region's ends as Fractions, 10**-9
    outward, and x* against each acceptance window's ends."""
    (lo, hi), = region.bounds()
    f, slack = src.field, Fraction(1, 10 ** 9)
    span = f.tau - f.tau_conj  # x - x* = b * span, and x* lies in [-1, 1)
    out = []
    for b in range(math.floor((lo - 2) / span), math.ceil((hi + 2) / span) + 1):
        a0 = math.floor(-b * f.tau_conj)
        for a in range(a0 - 4, a0 + 5):
            x = QuadNum(a, b, f)
            if Fraction(lo) - slack <= x <= Fraction(hi) + slack:
                out += [(a, b, i) for i, w in enumerate(src.spec.windows)
                        if w.lo <= x.conj() < w.hi][:1]
    return sorted(out)


def former_band_ties(iv, x, exact, tol=TOL_EQ):
    """The scalar tie-breaks Interval.mask made with its former guard band,
    2**-46 times (largest magnitude + 1 + |end|), each end deciding the
    points still inside exactly."""
    tau = 0.0 if exact.field is None else exact.field.tau
    scale = (np.abs(exact.a).max(initial=0) + tau * np.abs(exact.b).max(initial=0)) / exact.den + 1
    exact_ends = all(isinstance(c, (int, Fraction, QuadNum)) for c in (iv.lo, iv.hi))
    inside, n = np.ones(len(x), dtype=bool), 0
    for end, sense, closed in ((iv.lo, 1, iv.closed_lo), (iv.hi, -1, iv.closed_hi)):
        step = 0 if exact_ends else (-sense if closed else sense)
        bound = float(end) + step * tol
        guard = 2.0 ** -46 * (scale + abs(bound))
        n += int((inside & (np.abs(sense * (x - bound)) <= guard)).sum())
        xend = (end if exact_ends else Fraction(end)) + step * Fraction(repr(tol))
        for k in np.flatnonzero(inside):
            v = exact.value(k)
            inside[k] = (v >= xend if closed else v > xend) if sense > 0 else (v <= xend if closed else v < xend)
    return n


def test_far_windows_match_a_fraction_oracle_with_fewer_ties(monkeypatch):
    rows, calls = [], []
    real_compare, real_mask = QuadArray.compare, Interval.mask

    def mask(iv, x):
        if isinstance(x, QuadArray):
            calls.append(former_band_ties(iv, x.floats(), x))
        return real_mask(iv, x)

    # the tie rows decided exactly, against the former band's scalar decisions
    monkeypatch.setattr(QuadArray, "compare", lambda q, c: rows.append(len(q.a)) or real_compare(q, c))
    monkeypatch.setattr(Interval, "mask", mask)
    for lo in (1e12, -1e12 - 40, 1e15, -1e15 - 40):
        region = Interval(lo, lo + 40)
        got = window_triples(FIB[2], region)
        assert len(got) > 20 and got == fraction_window(FIB[2], region)
    assert sum(rows) < sum(calls)


@pytest.mark.parametrize("lo, hi", [(COORD_MAX - 40, math.nextafter(COORD_MAX, math.inf)),
                                    (-math.nextafter(COORD_MAX, math.inf), -COORD_MAX + 40)])
def test_window_beyond_coordinate_bound_raises(lo, hi):
    with pytest.raises(SourceError):
        FIB[2].window(Interval(lo, hi))


@pytest.mark.parametrize("make, has_origin", [
    (integer_lattice, True),
    (fibonacci_cut_project, True),
    (fibonacci_substitution, True),
    (lambda: PoissonSource(1.0, seed=9), False),
])
def test_half_open_regions_exclude_open_end(make, has_origin):
    src = make()
    for region in (Interval(0, 10, False, True), Interval(-10, 0, True, False)):
        closed = src.window(Interval(region.lo, region.hi))
        half = src.window(region)
        at_origin = 0
        for i in range(src.m):
            pos = closed.positions(i)
            at_origin += int(np.sum(np.abs(pos) <= TOL_EQ))
            assert list(half.positions(i)) == [x for x in pos if abs(x) > TOL_EQ]
        assert at_origin == int(has_origin)


@pytest.mark.parametrize("region, want", [
    # tau lies 5.4e-10 past the closed exact upper end, so only 0 is inside
    (Interval(0, Fraction(46368, 28657)), [(0, 0, 0)]),
    # the mirror image: tau lies 2.1e-10 below the closed exact lower end
    (Interval(Fraction(75025, 46368), 5), [(1, 1, 0), (1, 2, 0)]),
])
def test_exact_region_ends_agree_across_fibonacci_constructions(region, want):
    def triples(src):
        patch = src.window(region)
        return sorted((int(p[0].a), int(p[0].b), i)
                      for i in range(patch.m) for p in patch.parts[i])

    assert triples(fibonacci_cut_project()) == want
    assert triples(fibonacci_substitution()) == want


# ---------------------------------------------------------------------------
# substitutions


def test_fibonacci_five_fold_expansion_word():
    # pure string-substitution oracle
    word = "a"
    for _ in range(5):
        word = "".join("ab" if ch == "a" else "a" for ch in word)
    assert word == "abaababaabaab"
    lengths = {"a": TAU, "b": 1.0}
    pos, cur = [], 0.0
    for ch in word:
        pos.append((cur, 0 if ch == "a" else 1))
        cur += lengths[ch]
    sub = fibonacci_substitution()
    patch = sub.window(Interval(0, TAU ** 5))
    got = sorted((float(p[0]), i) for i in range(2) for p in patch.parts[i])
    want = sorted((x, c) for x, c in pos if x <= TAU ** 5 + 1e-9)
    assert len(got) == len(want)
    for (x, c), (y, d) in zip(got, want):
        assert c == d and abs(x - y) < 1e-9


def _word_positions(rule, seed, upto):
    """String-substitution oracle: exact left endpoints of the fixed point's tiles."""
    word = seed
    while len(word) < upto:
        word = "".join(rule.expansions[rule.letters.index(ch)] for ch in word)
    pos, cur = [], 0
    for ch in word[:upto]:
        pos.append(cur)
        cur = cur + rule.lengths[rule.letters.index(ch)]
    return pos


def test_sources_sharing_a_rule_keep_their_own_exact_positions():
    tau = QuadNum(0, 1, GOLDEN)
    rule = SubstitutionRule(letters="ab", expansions=("aab", "ba"), lengths=(tau, 1),
                            color_of=(0, 0), field=GOLDEN)

    def check(src):
        got = [p[0] for p in src.window(Interval(0, 30)).parts[0]]
        assert got == _word_positions(rule, src.seed_letter, len(got))
        return got

    for _ in range(10):
        a = SubstitutionSource(rule, "a")
        a.window(Interval(0, 30))
        del a  # a later source may reuse the dropped word's memory
        b = SubstitutionSource(rule, "b")
        assert check(b)[1] == 1  # b -> ba: the unit tile comes first
    both = [SubstitutionSource(rule, "a"), SubstitutionSource(rule, "b")]
    for src in both + both:
        check(src)


def test_short_window_after_long_one_keeps_the_endpoints():
    tm = thue_morse_source()
    tm.window(Interval(0, 2e4))
    ends = tm._ends
    for lo in range(0, 3000, 100):
        tm.window(Interval(lo, lo + 10))
    assert tm._ends is ends


def test_float_endpoints_are_one_running_sum():
    # float tile lengths: positions are the one-pass running sum of the tile
    # lengths along the word, however many steps the word took to grow
    rule = SubstitutionRule(letters="ab", expansions=("ab", "a"), lengths=(TAU, 1.0),
                            color_of=(0, 1))
    src = SubstitutionSource(rule, "a")
    for hi in (3, 30, 300, 3000):
        patch = src.window(Interval(0, hi))
    word = "a"
    while len(word) < 3000:
        word = "".join("ab" if ch == "a" else "a" for ch in word)
    ends = np.concatenate([[0.0], np.cumsum([TAU if ch == "a" else 1.0 for ch in word])])
    got = np.sort(np.concatenate([patch.positions(0), patch.positions(1)]))
    assert len(got) > 1500
    assert got.tobytes() == ends[:len(got)].tobytes()


def test_period_doubling_support_is_nonnegative_integers():
    pd = period_doubling_source()
    patch = pd.window(Interval(-5, 12))
    pos = sorted(float(p[0]) for part in patch.parts for p in part)
    assert pos == [float(k) for k in range(13)]


def test_thue_morse_letters_match_bit_parity():
    tm = thue_morse_source()
    patch = tm.window(Interval(0, 63))
    for i in range(2):
        for p in patch.parts[i]:
            n = int(round(float(p[0])))
            assert bin(n).count("1") % 2 == i


def test_non_primitive_rule_rejected():
    with pytest.raises(SourceError):
        SubstitutionRule(letters="ab", expansions=("aa", "bb"), lengths=(1, 1),
                         color_of=(0, 1))


def test_illegal_seed_rejected():
    rule = SubstitutionRule(letters="ab", expansions=("ab", "a"),
                            lengths=(QuadNum(0, 1, GOLDEN), QuadNum(1, 0, GOLDEN)),
                            color_of=(0, 1), field=GOLDEN)
    with pytest.raises(SourceError):
        SubstitutionSource(rule, "b")  # expansion of b starts with a


def test_eigenvector_equation_validated():
    rule = SubstitutionRule(letters="ab", expansions=("ab", "a"),
                            lengths=(QuadNum(0, 1, GOLDEN), QuadNum(1, 0, GOLDEN)),
                            color_of=(0, 1), field=GOLDEN)
    lam = rule.inflation()
    assert isinstance(lam, QuadNum) and lam == QuadNum(0, 1, GOLDEN)  # inflation factor is tau, exactly
    for source in (thue_morse_source(), period_doubling_source()):
        lam = source.rule.inflation()
        assert type(lam) is Fraction and lam == 2
    tau = GOLDEN.tau
    lam = SubstitutionRule(letters="ab", expansions=("ab", "a"), lengths=(tau, 1.0), color_of=(0, 1)).inflation()
    assert type(lam) is float and abs(lam - tau) <= 1e-12
    for lengths in ((2, 1), (tau + 1e-6, 1.0), (QuadNum(1, 1, GOLDEN), 1)):
        bad = SubstitutionRule(letters="ab", expansions=("ab", "a"), lengths=lengths, color_of=(0, 1))
        with pytest.raises(SourceError, match="Perron eigenvector"):
            bad.inflation()


# ---------------------------------------------------------------------------
# Poisson


def test_poisson_deterministic():
    a = PoissonSource(1.0, seed=5).window(Interval(0, 2000))
    b = PoissonSource(1.0, seed=5).window(Interval(0, 2000))
    assert np.array_equal(a.positions(0), b.positions(0))
    c = PoissonSource(1.0, seed=6).window(Interval(0, 2000))
    assert not np.array_equal(a.positions(0), c.positions(0))


def test_poisson_rejects_a_negative_seed_at_construction():
    with pytest.raises(SourceError, match="seed must be >= 0"):
        source_from_config({"type": "poisson", "seed": -1})


@pytest.mark.parametrize("cfg, message", [
    ({"type": "poisson", "seed": 1.5}, "seed must be an integer"),
    ({"type": "poisson", "seed": True}, "seed must be an integer"),
    ({"type": "poisson", "dim": 1.5}, "dim must be an integer"),
    ({"type": "poisson", "dim": True}, "dim must be an integer"),
    ({"type": "lattice", "colors": 2.5}, "colors must be an integer"),
    ({"type": "lattice", "colors": True}, "colors must be an integer"),
    ({"type": "fibonacci", "colors": True}, "colors must be an integer"),
    ({"type": "fibonacci", "colors": 1.5}, "colors must be an integer"),
    ({"type": "poisson", "intensity": float("nan")}, "intensity must be positive and finite"),
    ({"type": "poisson", "intensity": float("inf")}, "intensity must be positive and finite"),
    ({"type": "poisson", "intensity": 0.0}, "intensity must be positive and finite"),
    ({"type": "poisson", "intensity": True}, "intensity must be positive and finite"),
    ({"type": "lattice", "basis": [[2.0]], "offset": True}, "shift must be numbers"),
    ({"type": "lattice", "basis": [[1.0, 0.0], [0.0, 1.0]], "offset": [0.5, False]}, "shift must be numbers"),
])
def test_source_config_rejects_what_int_would_truncate(cfg, message):
    with pytest.raises(SourceError, match=message):
        source_from_config(cfg)


def test_source_config_accepts_integral_floats():
    assert source_from_config({"type": "lattice", "colors": 2.0}).m == 2
    assert source_from_config({"type": "fibonacci", "colors": 1.0}).m == 1
    assert source_from_config({"type": "poisson", "dim": 2.0}).dim == 2
    a, b = (source_from_config({"type": "poisson", "seed": v}).window(Interval(0, 50)) for v in (3, 3.0))
    assert a.positions(0).tobytes() == b.positions(0).tobytes()


def test_poisson_2d_window_is_the_restriction_of_a_larger_one():
    src = PoissonSource(2.0, seed=3, dim=2)
    big = src.window(Box((-4.0, -4.0), (4.0, 4.0)))
    box = Box((-1.5, 0.0), (2.0, 3.5))
    small = src.window(box)
    pos = big.positions(0)
    assert big.dim == 2 and pos.shape == (big.total_points, 2)
    assert abs(big.total_points - 128) <= 5 * 128 ** 0.5
    assert np.all((pos >= -4.0) & (pos <= 4.0))
    assert np.array_equal(small.positions(0), big.restrict(box).positions(0))
    inside = (pos[:, 0] >= -1.5) & (pos[:, 0] <= 2.0) & (pos[:, 1] >= 0.0) & (pos[:, 1] <= 3.5)
    assert small.total_points == int(inside.sum()) > 0


def test_poisson_count_within_5_sigma():
    lam, L = 1.0, 10000
    n = PoissonSource(lam, seed=5).window(Interval(0, L)).total_points
    assert abs(n - lam * L) <= 5 * (lam * L) ** 0.5


def test_poisson_cell_counts_look_independent():
    # dispersion index of per-cell counts near 1, chi-square sanity
    from scipy import stats

    src = PoissonSource(1.0, seed=5)
    pos = src.window(Interval(0, 2000)).positions(0)
    counts = np.bincount(np.floor(pos).astype(int), minlength=2000)[:2000]
    disp = counts.var() / counts.mean()
    assert 0.85 <= disp <= 1.15
    # bin the count distribution against its Poisson pmf
    kmax = 6
    obs = np.bincount(np.clip(counts, 0, kmax), minlength=kmax + 1)
    pmf = np.array([stats.poisson.pmf(k, 1.0) for k in range(kmax)]
                   + [1 - stats.poisson.cdf(kmax - 1, 1.0)])
    chi2 = (((obs - 2000 * pmf) ** 2) / (2000 * pmf)).sum()
    assert stats.chi2.sf(chi2, df=kmax) > 0.01


# 1D windows straddling 0, and 2D boxes in each quadrant and across the axes
POISSON_REGIONS = [
    Interval(-7.5, 6.2), Interval(-3, 0), Interval(-0.4, 0.4),
    Box((1.0, 0.5), (4.0, 3.0)), Box((-4.0, 1.0), (-1.0, 3.5)),
    Box((-4.0, -4.0), (-1.0, -2.0)), Box((0.5, -3.0), (3.0, -0.5)),
    Box((-3.5, -2.2), (2.5, 3.1)),
]


@pytest.mark.parametrize("seed", [0, 5, 101, 808, 2 ** 32 + 7, 2 ** 64 + 3])
@pytest.mark.parametrize("intensity", [0.3, 1.0, 12.5])
def test_poisson_window_is_byte_equal_to_one_generator_per_cell(seed, intensity):
    for region in POISSON_REGIONS:
        src = PoissonSource(intensity, seed=seed, dim=region.dim)
        want = poisson_window_points(src, region)
        want = MultiSetPatch.from_points(region, src.dim, 1, want, np.zeros(len(want), dtype=int))
        got = src.window(region).positions(0)
        assert got.shape == want.positions(0).shape
        assert got.tobytes() == want.positions(0).tobytes()


def test_poisson_rejects_cells_below_the_seeding_range():
    with pytest.raises(SourceError, match="x >= -2\\*\\*32"):
        PoissonSource(1.0).window(Interval(-2.0 ** 32 - 3, -2.0 ** 32 + 3))


def test_poisson_queries_from_several_threads_equal_serial_ones():
    src = PoissonSource(1.0, seed=808)
    regions = [Interval(-50.0 + 7 * k, 20.0 + 7 * k) for k in range(8)]
    serial = [src.window(r).positions(0).tobytes() for r in regions]
    with ThreadPoolExecutor(4) as pool:
        threaded = list(pool.map(lambda r: src.window(r).positions(0).tobytes(), regions * 4))
    assert threaded == serial * 4


# ---------------------------------------------------------------------------
# window consistency across all generators


@pytest.mark.parametrize("make", [
    integer_lattice,
    lambda: LatticeSource([[2.0]], colors=2),
    fibonacci_cut_project,
    fibonacci_substitution,
    thue_morse_source,
    lambda: PoissonSource(1.0, seed=9),
])
def test_window_consistency_nested(make):
    src = make()
    rng = np.random.default_rng(17)
    for _ in range(100):
        lo = float(rng.uniform(-40, 40))
        width = float(rng.uniform(2, 30))
        outer = Interval(lo, lo + width)
        inner_lo = float(rng.uniform(lo, lo + width / 2))
        inner = Interval(inner_lo, inner_lo + float(rng.uniform(0.5, width / 2)))
        big = src.window(outer)
        small = src.window(inner)
        for i in range(src.m):
            a = big.restrict(inner).positions(i)
            b = small.positions(i)
            assert len(a) == len(b)
            if len(a):
                assert np.allclose(a, b, atol=1e-9)


def test_delone_witness_on_generators():
    scan = Interval(0, 10000)
    for make in (integer_lattice, fibonacci_cut_project, fibonacci_substitution,
                 thue_morse_source):
        from pointspec.geometry import delone_params

        d = delone_params(make(), scan)
        assert d.eta > 0 and np.isfinite(d.b)


# ---------------------------------------------------------------------------
# config and serialization


def test_source_from_config_variants():
    assert source_from_config({"type": "lattice", "basis": [[1.0]]}).m == 1
    assert source_from_config({"type": "fibonacci"}).m == 2
    assert source_from_config({"type": "poisson", "intensity": 2.0, "seed": 3}).intensity == 2.0
    sub = source_from_config({
        "type": "substitution", "letters": "ab", "expansions": ["ab", "ba"],
        "lengths": [1, 1], "seed_letter": "a",
    })
    assert sub.m == 2
    off = source_from_config({"type": "lattice", "basis": [[1.0]], "offset": 0.25})
    assert off.window(Interval(0, 2)).positions(0)[0] == pytest.approx(-0.25 + 1)


def test_source_from_config_rejects_unknown():
    with pytest.raises(SourceError):
        source_from_config({"type": "martian"})
    with pytest.raises(SourceError):
        source_from_config({"type": "lattice", "bogus": 1})


@pytest.mark.parametrize("cfg, key", [
    ({"type": "cut_project"}, "windows"),
    ({"type": "cut_project", "windows": [{"hi": [1, 0]}]}, "lo"),
    ({"type": "cut_project", "windows": [{"lo": [0, 0]}]}, "hi"),
    ({"type": "substitution", "expansions": ["ab", "a"], "lengths": [1, 1]}, "letters"),
    ({"type": "substitution", "letters": "ab", "lengths": [1, 1]}, "expansions"),
    ({"type": "substitution", "letters": "ab", "expansions": ["ab", "a"]}, "lengths"),
])
def test_source_config_names_a_missing_key(cfg, key):
    with pytest.raises(SourceError, match="missing '%s' in source config" % key):
        source_from_config(cfg)


def test_point_set_json_exact_pairs(tmp_path):
    fib = fibonacci_cut_project()
    write_points(tmp_path / "points.json", fib.window(Interval(0, 30)), field=GOLDEN)
    doc = json.loads((tmp_path / "points.json").read_text())
    assert doc["coords"] == "exact"
    assert doc["field"] == {"tau": "golden"}
    assert len(doc["points"]) > 0
    for row in doc["points"]:
        (pair, color) = row[0], row[-1]
        assert isinstance(pair, list) and len(pair) == 2
        assert color in (0, 1)


@pytest.mark.parametrize("src, region", [
    (fibonacci_cut_project(), Interval(-40, 40)),
    (thue_morse_source(), Interval(0, 300)),
    (TranslatedSource(fibonacci_cut_project(), Fraction(1, 2)), Interval(-20, 20)),
    (PoissonSource(1.0, seed=5), Interval(-30, 30)),
    (PoissonSource(2.0, seed=5, dim=2), Box((-3, -3), (4, 2))),
    (LatticeSource([[1.0, 0.5], [0.0, 1.0]], colors=3), Box((-2, -2), (3, 3))),
    (integer_lattice(10.0), Interval(1, 2)),
], ids=["fibonacci", "thue-morse", "fibonacci-half", "poisson-1d", "poisson-2d",
        "lattice-2d", "empty"])
def test_points_json_is_byte_equal_to_json_dump(src, region, tmp_path):
    patch = src.window(region)
    write_points(tmp_path / "points.json", patch, src.field)
    write_json(tmp_path / "want.json", patch_to_json(patch, src.field))
    text = (tmp_path / "points.json").read_text()
    assert text == (tmp_path / "want.json").read_text()
    if isinstance(src, TranslatedSource):  # denominator 2: "p/q" strings appear
        assert '/2"' in text


def test_region_json_of_a_box_and_a_ball(tmp_path):
    assert region_to_json(Box((0, -1.5), (2, 3))) == {"kind": "box", "lo": [0.0, -1.5],
                                                      "hi": [2.0, 3.0]}
    assert region_to_json(Ball((1, QuadNum(0, 1, GOLDEN)), 0.5)) == {
        "kind": "ball", "center": [1.0, GOLDEN.tau], "radius": 0.5}
    write_points(tmp_path / "points.json",
                 LatticeSource([[1.0, 0.0], [0.0, 1.0]]).window(Box((0.0, 0.0), (1.0, 2.0))))
    doc = json.loads((tmp_path / "points.json").read_text())
    assert doc["region"] == {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 2.0]}
    assert len(doc["points"]) == 6
    with pytest.raises(ValueError, match="unknown region type"):
        region_to_json((0.0, 1.0))
