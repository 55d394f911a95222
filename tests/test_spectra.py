import threading
import tracemalloc

import numpy as np
import pytest

from pointspec import spectra, verify
from pointspec.coords import TOL_EQ
from pointspec.geometry import Interval, in_sorted, within
from pointspec.sources import (
    LatticeSource,
    PoissonSource,
    fibonacci_cut_project,
    fibonacci_substitution,
    integer_lattice,
    period_doubling_source,
    source_from_config,
    thue_morse_source,
)
from pointspec.stats import VanHoveSpec
from pointspec.spectra import (
    SmoothingKernel,
    autocorr_direct,
    autocorr_from_frequencies,
    bragg_amplitude,
    dworkin_report,
    module_seed_candidates,
    peak_scan,
    smoothed_autocorr_profile,
    smoothed_density,
    validate_weights,
)

from oracles import (
    fibonacci_bragg_amplitudes,
    hermitian_defect,
    l2_norm_sq,
    quadrature_autocorr,
    shifted_density_lhs,
)

SPEC = VanHoveSpec()
TAU = (1 + 5 ** 0.5) / 2


def test_validate_weights():
    with pytest.raises(ValueError):
        validate_weights([0, 0], 2)
    with pytest.raises(ValueError):
        validate_weights([1], 2)
    assert validate_weights([1, -1], 2).dtype == complex


# ---------------------------------------------------------------------------
# autocorrelation


def test_lattice_autocorr_coefficients():
    z = integer_lattice()
    meas = autocorr_from_frequencies(z, [1], 5.0, SPEC, 1000)
    for t in range(-5, 6):
        expected = (2000 + 1 - abs(t)) / 2000
        assert meas.coefficient(float(t)).real == pytest.approx(expected)
    assert meas.coefficient(0.5) == 0


def test_comb_autocorr_alternates():
    comb = integer_lattice(1.0, colors=2)
    meas = autocorr_direct(comb, [1, -1], 3.0, SPEC, 1000)
    for t in range(-3, 4):
        assert meas.coefficient(float(t)).real == pytest.approx((-1.0) ** t, abs=2e-3)


def test_autocorr_routes_agree_exactly_on_lattice():
    z = integer_lattice(2.0)
    d = autocorr_direct(z, [1], 10.0, SPEC, 1000)
    f = autocorr_from_frequencies(z, [1], 10.0, SPEC, 1000)
    assert d.max_difference(f) < 1e-12


FLOAT_CHAINS = [  # the Fibonacci chain given by floats, and the n of each run
    ({"type": "substitution", "letters": "ab", "expansions": ["ab", "a"],
      "lengths": [1.618033988749895, 1.0]}, 1e4),
    ({"type": "fibonacci", "offset": 10000.0}, 2000),
]


@pytest.mark.parametrize("cfg, n", FLOAT_CHAINS, ids=["float-lengths", "offset-1e4"])
def test_autocorr_routes_agree_on_float_descriptions_of_the_chain(cfg, n):
    # a difference of tau^3 = 4.2360679774997... lies 2e-13 from a 1e-9 grid
    # boundary: grid keys split it (17 support points, routes 0.19 and 0.38
    # apart), runs of gaps of at most TOL_EQ keep the exact chain's 13
    src = source_from_config(cfg)
    d = autocorr_direct(src, [1, 1], 5.0, SPEC, n)
    f = autocorr_from_frequencies(src, [1, 1], 5.0, SPEC, n)
    exact = autocorr_direct(fibonacci_substitution(), [1, 1], 5.0, SPEC, 1000)
    assert len(d.t) == len(f.t) == len(exact.t) == 13
    assert np.abs(d.t - exact.t).max() < 1e-9 and np.abs(f.t - exact.t).max() < 1e-9
    assert d.max_difference(f) <= 2e-3


# ---------------------------------------------------------------------------
# the pair-range kernels vs the scalar loops they replaced


def group_keys(ts, exact):
    """A grouping key per coordinate: exact values key as themselves; floats
    are sorted and scanned, and a gap of more than TOL_EQ to the previous
    value starts a new group (written apart from geometry.run_starts)."""
    if exact:
        return list(ts)
    keys, group, prev = [0] * len(ts), -1, None
    for i in sorted(range(len(ts)), key=lambda i: ts[i]):
        if prev is None or ts[i] - prev > TOL_EQ:
            group += 1
        keys[i], prev = group, ts[i]
    return keys


def grouped_sums(terms, exact):
    """The (float t, sum of c) of each group of the (t, c) terms, t the group's
    first and c summed in order, sorted by t."""
    agg = {}
    for key, (t, c) in zip(group_keys([t for t, _ in terms], exact), terms):
        cur = agg.get(key)
        if cur is None:
            agg[key] = [t, c]
        else:
            cur[1] = cur[1] + c
    return sorted(((float(t), c) for t, c in agg.values()), key=lambda tc: tc[0])


def scalar_autocorr_direct(source, w, radius, spec, n):
    """Reference direct route: one sorted search per point of the patch's
    local coordinates, the pairs' terms summed by group_keys in pair order;
    the (float t, c) pairs sorted by t."""
    w = validate_weights(w, source.m)
    patch = source.window(spec.region(n))
    vol = spec.region(n).volume()
    vals, cols = patch.local(), patch.all_positions()[1]
    q = patch.all_exact()
    xs = None if q is None else [q.value(k) for k in range(len(vals))]
    terms = []
    for a_idx in range(len(vals)):
        lo = np.searchsorted(vals, vals[a_idx] - radius - TOL_EQ)
        hi = np.searchsorted(vals, vals[a_idx] + radius + TOL_EQ)
        for b_idx in range(lo, hi):
            t = xs[a_idx] - xs[b_idx] if patch.exact else vals[a_idx] - vals[b_idx]
            terms.append((t, w[cols[a_idx]] * np.conj(w[cols[b_idx]])))
    return [(t, c / vol) for t, c in grouped_sums(terms, patch.exact)]


def scalar_autocorr_from_frequencies(source, w, radius, spec, n):
    """Reference frequency route: differences found pair by pair over .parts
    (exact) or the local coordinates (float) and grouped by group_keys per
    (i, j), one count per (t, i, j) on the local coordinates, the terms
    summed by group_keys in (i, j) order; the (float t, c) pairs sorted by t."""
    w = validate_weights(w, source.m)
    patch = source.window(spec.region(n))
    vol = spec.region(n).volume()
    positions = [patch.local(i) for i in range(patch.m)]
    terms = []
    for i in range(patch.m):
        for j in range(patch.m):
            pts_i, pts_j = patch.parts[i], patch.parts[j]
            block = []
            for a_idx in range(len(pts_i)):
                lo = np.searchsorted(positions[j], positions[i][a_idx] - radius - TOL_EQ)
                hi = np.searchsorted(positions[j], positions[i][a_idx] + radius + TOL_EQ)
                for b_idx in range(lo, hi):
                    block.append((pts_i[a_idx][0] - pts_j[b_idx][0]) if patch.exact
                                 else positions[i][a_idx] - positions[j][b_idx])
            firsts = {}
            for key, t in zip(group_keys(block, patch.exact), block):
                firsts.setdefault(key, t)
            for t in firsts.values():
                tf = float(t)
                if abs(tf) <= TOL_EQ and i == j:
                    count = len(positions[i])
                else:
                    count = int(in_sorted(positions[j], positions[i] - tf).sum())
                terms.append((t, w[i] * np.conj(w[j]) * (count / vol)))
    return grouped_sums(terms, patch.exact)


def scalar_smoothed_density(source, w, kernel, grid):
    """Reference rho_omega: one slice update per point, colour by colour."""
    w = validate_weights(w, source.m)
    hw = kernel.s
    patch = source.window(Interval(float(grid[0]) - hw - 1.0, float(grid[-1]) + hw + 1.0))
    step = grid[1] - grid[0]
    rho = np.zeros(len(grid), dtype=complex)
    for i in range(patch.m):
        for p in patch.positions(i):
            a = int(np.searchsorted(grid, p - kernel.s - step))
            b = int(np.searchsorted(grid, p + kernel.s + step))
            if b > a:
                rho[a:b] += w[i] * kernel(grid[a:b] - p)
    return rho


SOURCES = [
    ("Z", integer_lattice(), [1]),
    ("2Z", integer_lattice(2.0), [1]),
    ("comb", integer_lattice(1.0, colors=2), [1, -1]),
    ("fibonacci", fibonacci_cut_project(), [1, 1]),
    ("fibonacci-complex", fibonacci_cut_project(), [1, 0.3 + 0.7j]),
    ("fibonacci-signed", fibonacci_cut_project(), [1, -1]),
    ("thue-morse", thue_morse_source(), [1, -1]),
    ("poisson", PoissonSource(1.0, seed=7), [1]),
]


def _bits(c):
    c = complex(c)
    return c.real.hex(), c.imag.hex()


def assert_same_measure(got, want):
    """The reference's (t, c) pairs in order: equal t, bit-equal c."""
    assert [t.hex() for t in got.t.tolist()] == [t.hex() for t, _ in want]
    assert [_bits(c) for c in got.c] == [_bits(c) for _, c in want]


@pytest.mark.parametrize("name, src, w", SOURCES, ids=[s[0] for s in SOURCES])
def test_autocorr_routes_match_scalar_references(name, src, w):
    for n, radius in ((150, 6.0), (40, 0.7)):
        assert_same_measure(autocorr_direct(src, w, radius, SPEC, n),
                            scalar_autocorr_direct(src, w, radius, SPEC, n))
        assert_same_measure(autocorr_from_frequencies(src, w, radius, SPEC, n),
                            scalar_autocorr_from_frequencies(src, w, radius, SPEC, n))


def test_scalar_references_match_on_a_difference_near_a_grid_boundary():
    # the offset chain's tau^3 lies 2e-13 from a 1e-9 grid boundary, where
    # grid keys split it (17 support points); the sorted scan keeps 13.  On
    # local coordinates the first t is -(2 + sqrt 5) correctly rounded
    src = source_from_config({"type": "fibonacci", "offset": 10000.0})
    direct = scalar_autocorr_direct(src, [1, 1], 5.0, SPEC, 2000)
    freq = scalar_autocorr_from_frequencies(src, [1, 1], 5.0, SPEC, 2000)
    assert len(direct) == len(freq) == 13
    assert direct[0][0].hex() == freq[0][0].hex() == "-0x1.0f1bbcdcbfa54p+2"
    assert_same_measure(autocorr_direct(src, [1, 1], 5.0, SPEC, 2000), direct)
    assert_same_measure(autocorr_from_frequencies(src, [1, 1], 5.0, SPEC, 2000), freq)


@pytest.mark.parametrize("name, src, w", SOURCES, ids=[s[0] for s in SOURCES])
def test_smoothed_density_matches_scalar_reference(name, src, w):
    # on the wide grid, tiles of points meet where each grid point takes several terms
    narrow, wide = np.arange(-40 + 0.01, 40, 0.02), np.arange(-300 + 0.01, 300, 0.02)
    for grid, kern in [(narrow, SmoothingKernel(s)) for s in (0.4, 0.7, 0.15)] + [(wide, SmoothingKernel(2.5))]:
        got = smoothed_density(src, w, kern, grid)
        assert got.tobytes() == scalar_smoothed_density(src, w, kern, grid).tobytes()


def test_routes_disagree_when_the_pair_kernel_drops_a_pair(monkeypatch):
    # both routes discover pairs through one helper; the cross-check must
    # still catch a fault in it, since only the direct route sums pairs
    z = integer_lattice()
    args = ([1], 5.0, SPEC, 500)
    assert autocorr_direct(z, *args).max_difference(autocorr_from_frequencies(z, *args)) < 1e-12

    def drop_first(keys, lo, hi):
        rows, idx = within(keys, lo, hi)
        return rows[1:], idx[1:]

    monkeypatch.setattr(spectra, "within", drop_first)
    assert autocorr_direct(z, *args).max_difference(autocorr_from_frequencies(z, *args)) > 1e-6


def test_poisson_c0_is_intensity():
    pz = PoissonSource(1.0, seed=3)
    meas = autocorr_direct(pz, [1], 1.0, SPEC, 10000)
    assert meas.coefficient(0.0).real == pytest.approx(1.0, abs=0.05)


def test_hermitian_symmetry():
    fib = fibonacci_cut_project()
    meas = autocorr_direct(fib, [1, 1j], 8.0, SPEC, 2000)
    assert hermitian_defect(meas) == 0.0  # exact keys in exact mode
    comb = integer_lattice(1.0, colors=2)
    m2 = autocorr_direct(comb, [1, 0.3 + 0.4j], 8.0, SPEC, 2000)
    assert hermitian_defect(m2) <= 1e-12


def test_positive_definiteness_spot_check():
    fib = fibonacci_cut_project()
    meas = autocorr_direct(fib, [1, 1], 10.0, SPEC, 4000)
    ts = np.array([t for t, _ in meas.items() if abs(t) <= 5.0])
    rng = np.random.default_rng(1)
    for _ in range(20):
        sel = rng.choice(len(ts), size=min(6, len(ts)), replace=False)
        pts = ts[sel]
        z = rng.normal(size=len(pts)) + 1j * rng.normal(size=len(pts))
        form = 0.0
        for p in range(len(pts)):
            for q in range(len(pts)):
                form += (z[p] * np.conj(z[q]) * meas.coefficient(pts[p] - pts[q])).real
        assert form >= -1e-9


def test_weight_bilinearity():
    z = integer_lattice()
    base = autocorr_direct(z, [1], 5.0, SPEC, 500)
    scaled = autocorr_direct(z, [2], 5.0, SPEC, 500)
    for t, c in base.items():
        assert scaled.coefficient(t) == pytest.approx(4.0 * c)


# ---------------------------------------------------------------------------
# kernels


@pytest.mark.parametrize("kern", [
    SmoothingKernel(0.4),
    SmoothingKernel(0.35),
    SmoothingKernel(1.2),
])
def test_kernel_fourier_matches_quadrature(kern):
    lo, hi = -kern.s, kern.s
    step = (hi - lo) / 200000
    grid = np.arange(lo + step / 2, hi, step)
    vals = kern(grid)
    for k in (0.0, 0.35, 1.0, 1.25, 2.5):
        quad = np.sum(vals * np.exp(-2j * np.pi * k * grid)) * step
        assert abs(kern.fourier(k) - quad) < 1e-9


@pytest.mark.parametrize("s", [0.0, -0.4, float("nan"), float("inf"), float("-inf")])
def test_kernel_rejects_a_radius_that_is_not_positive_and_finite(s):
    with pytest.raises(ValueError, match="positive and finite"):
        SmoothingKernel(s)


@pytest.mark.parametrize("s", [0.4, 0.35, 1 / 3, 1.2])
def test_kernel_values_are_the_triangle_formula_bit_for_bit(s):
    rng = np.random.default_rng(8)
    x = np.concatenate([[s, -s, 0.0, -0.0, np.nextafter(s, 0), np.nextafter(-s, 0), 2 * s],
                        rng.uniform(-2 * s, 2 * s, 500)])
    keep = x.copy()
    got = SmoothingKernel(s)(x)
    assert got.tobytes() == np.clip(1.0 - np.abs(x) / s, 0.0, None).tobytes()  # +0.0 at |x| = s
    assert x.tobytes() == keep.tobytes()  # the caller's array is not written
    grid = x[:6].reshape(2, 3)
    assert SmoothingKernel(s)(grid).tobytes() == np.clip(1.0 - np.abs(grid) / s, 0.0, None).tobytes()
    assert SmoothingKernel(s)(-s) == 0.0 and SmoothingKernel(s)(0.25 * s) == 0.75


def test_triangle_fourier_at_zero_is_support_radius():
    assert SmoothingKernel(0.4).fourier(0.0) == pytest.approx(0.4)


def test_kernel_autocorr_at_zero_is_l2():
    for kern in (SmoothingKernel(0.4), SmoothingKernel(0.3), SmoothingKernel(0.1)):
        assert kern.autocorr([0.0])[0] == pytest.approx(l2_norm_sq(kern), rel=1e-4)


@pytest.mark.parametrize("s", [0.05, 0.4, 1.0, 3.0])
def test_kernel_autocorr_matches_the_closed_form(s):
    # the piecewise cubic against the 1000-step quadrature, inside, on and
    # past each end of both pieces
    us = np.array([0.0, 0.3, -0.3, 1.0, -1.0, 1.7, -1.7, 2.0, -2.0, 2.5, -2.5]) * s
    kern = SmoothingKernel(s)
    assert np.abs(kern.autocorr(us) - quadrature_autocorr(kern, us)).max() <= 1e-6 * s


# ---------------------------------------------------------------------------
# exponential sums


def test_bragg_amplitude_examples():
    z = integer_lattice()
    n = 1000
    assert bragg_amplitude(z, [1], 0.0, SPEC, n).real == pytest.approx((2 * n + 1) / (2 * n))
    assert abs(bragg_amplitude(z, [1], 0.5, SPEC, n)) <= 1 / (2 * n) + 1e-12
    comb = integer_lattice(1.0, colors=2)
    a1 = bragg_amplitude(comb, [1, -1], 0.5, SPEC, n)
    a2 = bragg_amplitude(comb, [1, -1], 0.5, SPEC, 2 * n)
    assert a1.real == pytest.approx(1.0, abs=1e-3)
    assert abs(a1 - a2) < 1e-3  # Cauchy check across n


def test_bragg_amplitude_one_k_or_many():
    z = integer_lattice()
    one = bragg_amplitude(z, [1], 0.25, SPEC, 100)
    many = bragg_amplitude(z, [1], np.array([0.0, 0.25]), SPEC, 100)
    assert type(one) is complex and many.shape == (2,)
    assert many[1] == pytest.approx(one)
    z2 = LatticeSource([[1.0, 0.0], [0.0, 1.0]])
    spec2 = VanHoveSpec(n0=20, dim=2)
    n = 20
    origin = bragg_amplitude(z2, [1], (0.0, 0.0), spec2, n)
    assert type(origin) is complex
    assert origin == pytest.approx(((2 * n + 1) / (2 * n)) ** 2)
    grid = bragg_amplitude(z2, [1], np.array([[0.0, 0.0], [1.0, -1.0], [0.5, 0.0]]), spec2, n)
    assert grid.shape == (3,)
    assert grid[0] == pytest.approx(origin)
    assert grid[1] == pytest.approx(origin)  # a dual-lattice vector
    assert grid[2] == pytest.approx((2 * n + 1) / (2 * n) ** 2)  # alternating rows cancel


@pytest.mark.parametrize("name", ["fibonacci", "comb"])
def test_peak_scan_amplitudes_are_bragg_amplitudes(name):
    src, w = {"fibonacci": (fibonacci_cut_project(), [1, 1]),
              "comb": (integer_lattice(1.0, colors=2), [1, -1])}[name]
    schedule = [500, 1000]
    est = peak_scan(src, w, (-1.6, 1.6), 0.01, schedule)
    assert est.entries
    amps = bragg_amplitude(src, w, np.array([e.k for e in est.entries]), SPEC, schedule[-1])
    assert [e.amplitude for e in est.entries] == list(amps)  # bit for bit


def test_peak_scan_lattice_integers():
    est = peak_scan(integer_lattice(), [1], (-3, 3), 0.01, [500, 1000])
    ks = sorted(e.k for e in est.retained())
    assert [round(k) for k in ks] == list(range(-3, 4))
    assert all(abs(k - round(k)) < 1e-6 for k in ks)


def test_peak_scan_fibonacci_module_peak():
    fib = fibonacci_cut_project()
    est = peak_scan(fib, [1, 1], (0.8, 1.5), 0.01, [1000, 3000])
    ks = [e.k for e in est.retained()]
    strong = TAU ** 2 / 5 ** 0.5  # (1 + tau)/sqrt(5), a strong Bragg position
    assert any(abs(k - strong) < 1e-4 for k in ks)


@pytest.mark.parametrize("w", [[1, 1], [1, 0.3 + 0.7j]])
def test_retained_fibonacci_peaks_carry_the_model_set_intensity(w):
    # diffract_fib's settings; measured: every k within 6.8e-5 of a module
    # point, |I - I_th| at most 4.0e-4 ([1, 1]) and 5.2e-4 ([1, 0.3+0.7j])
    schedule = [500, 2000]
    k_mod, amp = fibonacci_bragg_amplitudes(w)
    retained = peak_scan(fibonacci_cut_project(), w, (-3, 3), 0.01, schedule).retained()
    assert len(retained) > 100
    for e in retained:
        j = np.argmin(np.abs(k_mod - e.k))
        assert abs(k_mod[j] - e.k) < 1e-4, e.k
        assert abs(e.intensity - abs(amp[j]) ** 2) < 2 / schedule[-1], e.k


def test_peak_scan_generic_k_decays():
    fib = fibonacci_cut_project()
    spec = VanHoveSpec()
    a1 = bragg_amplitude(fib, [1, 1], 0.9837, spec, 1000)
    a2 = bragg_amplitude(fib, [1, 1], 0.9837, spec, 4000)
    assert abs(a2) ** 2 < 0.8 * abs(a1) ** 2


def test_peak_scan_validates_schedule():
    with pytest.raises(ValueError):
        peak_scan(integer_lattice(), [1], (-1, 1), 0.01, [1000])
    with pytest.raises(ValueError):
        peak_scan(integer_lattice(), [1], (-1, 1), 0.01, [1000, 500])
    for schedule in ([0, 200], [-100, 200]):  # once a ZeroDivisionError or NaN intensities
        with pytest.raises(ValueError, match="n_schedule entries must be positive"):
            peak_scan(integer_lattice(), [1], (-1, 1), 0.01, schedule)


@pytest.mark.parametrize("n", [0, -5, float("nan")])
def test_bragg_amplitude_rejects_a_nonpositive_n(n):
    # n = 0 once gave inf + nanj and n = -5 a NaN
    with pytest.raises(ValueError, match="n must be positive"):
        bragg_amplitude(integer_lattice(), [1], 0.5, VanHoveSpec(), n)


def test_peak_scan_needs_a_1d_source():
    with pytest.raises(ValueError, match="1D source"):
        peak_scan(LatticeSource([[1.0, 0.0], [0.0, 1.0]]), [1], (-1, 1), 0.01, [10, 20])


@pytest.mark.parametrize("k_range, resolution", [((-1, 1), 0), ((-1, 1), -0.1),
                                                  ((-1, 1), float("nan")), ((1, -1), 0.01),
                                                  ((1, 1), 0.01)])
def test_peak_scan_rejects_an_empty_or_stepless_grid(k_range, resolution):
    with pytest.raises(ValueError, match="resolution > 0 and k_min < k_max"):
        peak_scan(integer_lattice(), [1], k_range, resolution, [10, 20])


@pytest.mark.parametrize("route", [autocorr_direct, autocorr_from_frequencies])
@pytest.mark.parametrize("radius, n", [(2.0, 0), (2.0, -5), (0.0, 20), (-1.0, 20)])
def test_autocorr_routes_reject_nonpositive_radius_or_n(route, radius, n):
    with pytest.raises(ValueError, match="radius and n must be positive"):
        route(integer_lattice(), [1], radius, VanHoveSpec(), n)


def test_module_seeds_come_only_from_a_field():
    # peak_scan seeds from the Fourier module of every source; field-less ones,
    # the Poisson control among them, get no seeds, so no seeding switch is needed
    for src in (PoissonSource(1.0, seed=7), integer_lattice(), thue_morse_source(),
                period_doubling_source()):
        assert module_seed_candidates(src, -3, 3) == []
    for src in (fibonacci_cut_project(), fibonacci_substitution()):
        assert module_seed_candidates(src, -3, 3)


def complex_exp_grid(pos, wvals, ks, vol):
    """The amplitude kernel as it was written before phases were built in place."""
    out = np.empty(len(ks), dtype=complex)
    chunk = max(1, int(4e6 // max(len(pos), 1)))
    for s in range(0, len(ks), chunk):
        kk = ks[s: s + chunk]
        ph = np.exp(-2j * np.pi * (np.outer(kk, pos) if pos.ndim == 1 else kk @ pos.T))
        out[s: s + chunk] = ph @ wvals
    return out / vol


def test_amplitude_kernel_matches_the_complex_exp_formula():
    rng = np.random.default_rng(3)
    pos = np.concatenate([[0.0], np.sort(rng.uniform(-500, 500, 1000))])  # a point at 0
    wvals = rng.normal(size=len(pos)) + 1j * rng.normal(size=len(pos))
    ks = np.concatenate([[0.0, -0.0, 0.5], rng.uniform(-3, 3, 4500)])  # two chunks
    got = spectra._amplitudes_grid(pos, wvals, ks, 1000.0)
    assert got.tobytes() == complex_exp_grid(pos, wvals, ks, 1000.0).tobytes()
    phases = np.exp(-2j * np.pi * np.outer(ks[:40], pos))
    assert spectra._phases(ks[:40], pos).tobytes() == phases.tobytes()  # signed zeros too
    pos2 = np.concatenate([[[0.0, 0.0]], rng.uniform(-20, 20, (400, 2))])
    ks2 = np.concatenate([[[0.0, 0.0], [-0.0, 1.0]], rng.uniform(-3, 3, (60, 2))])
    got2 = spectra._amplitudes_grid(pos2, wvals[:401], ks2, 1600.0)
    assert got2.tobytes() == complex_exp_grid(pos2, wvals[:401], ks2, 1600.0).tobytes()


def golden_refine_loop(fn, lo, hi, iters=60):
    """The golden-section loop, kept as the reference run on the exact kernel."""
    invphi = (5 ** 0.5 - 1) / 2
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        swap = fc < fd
        a = np.where(swap, c, a)
        b = np.where(~swap, d, b)
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = fn(c), fn(d)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


GOLDEN_CASES = {
    "fibonacci": (fibonacci_cut_project(), [1, 1]),
    "period-doubling": (period_doubling_source(), [1, -1]),
    "poisson": (PoissonSource(1.0, seed=7), [1]),
    "Z": (integer_lattice(), [1]),
}


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_golden_phase_reuse_is_bit_exact(name, monkeypatch):
    src, w = GOLDEN_CASES[name]
    n1 = 300
    patch = src.window(SPEC.region(n1))
    pos, col = patch.all_positions()
    wvals, vol = np.asarray(w, dtype=complex)[col], SPEC.region(n1).volume()
    k0 = np.concatenate([np.linspace(-3, 3, 37), [1 / TAU, TAU ** 2 / 5 ** 0.5, 0.5]])
    step = 0.25 / (2.0 * n1)

    def exact(kk):
        return np.abs(spectra._amplitudes_grid(pos, wvals, np.asarray(kk, dtype=float), vol)) ** 2
    want = golden_refine_loop(exact, k0 - step, k0 + step)
    rows = []
    phases = spectra._phases
    monkeypatch.setattr(spectra, "_phases", lambda ks, p, out=None: rows.append(len(ks)) or phases(ks, p, out))
    fn = spectra._reusing_intensity(pos, wvals, vol, len(k0))
    got = spectra._golden_refine(fn, k0 - step, k0 + step)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    assert sum(rows) < 0.8 * 123 * len(k0)  # reuse happened
    many = np.linspace(-3, 3, int(4e6 // len(pos)) + 1)  # many tiles
    assert spectra._reusing_intensity(pos, wvals, vol, len(many))(many).tobytes() == \
        exact(many).tobytes()


def test_value_reuse_over_several_chunks_is_bit_exact(monkeypatch):
    patch = fibonacci_cut_project().window(SPEC.region(300))
    pos, col = patch.all_positions()
    wvals, vol = np.array([1, 0.3 + 0.7j])[col], SPEC.region(300).volume()
    chunk = int(4e6 // len(pos))
    rows = 2 * chunk + 500  # three chunks, the last one short
    rng = np.random.default_rng(9)
    k1 = rng.uniform(-3, 3, rows)
    k2 = np.where(rng.random(rows) < 0.5, k1, rng.uniform(-3, 3, rows))
    k2[:chunk] = k1[:chunk]  # a chunk of repeated rows only
    k3 = np.where(rng.random(rows) < 0.5, k1, k2)  # rows of both earlier calls
    k3[chunk - 50: chunk + 50] = rng.uniform(-3, 3, 100)  # fresh rows across a chunk end
    computed = []
    phases = spectra._phases
    monkeypatch.setattr(spectra, "_phases",
                        lambda ks, p, out=None: computed.append(len(ks)) or phases(ks, p, out))
    fn = spectra._reusing_intensity(pos, wvals, vol, rows)
    got = [fn(k) for k in (k1, k2, k3)]
    monkeypatch.undo()
    assert sum(computed) == rows + (k2 != k1).sum() + ((k3 != k1) & (k3 != k2)).sum()
    for k, values in zip((k1, k2, k3), got):
        assert values.tobytes() == (np.abs(spectra._amplitudes_grid(pos, wvals, k, vol)) ** 2).tobytes()


def test_amplitude_row_bits_ignore_the_other_rows_of_its_block():
    rng = np.random.default_rng(4)
    pos = np.sort(rng.uniform(-300, 300, 611))
    wvals = rng.normal(size=611) + 1j * rng.normal(size=611)
    for rows in (1, 2, 3, 4, 5, 7, 8, 13, 40):
        block = spectra._phases(rng.uniform(-3, 3, rows), pos)
        want = block @ wvals
        for other in (np.zeros_like(block), spectra._phases(rng.uniform(-3, 3, rows), pos)):
            for i in range(rows):
                mixed = other.copy()
                mixed[i] = block[i]
                assert (mixed @ wvals)[i].tobytes() == want[i].tobytes()


def peak_bytes(task):
    tracemalloc.start()
    try:
        task()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fibonacci_peak_scan_peaks_under_20_mb():
    assert peak_bytes(lambda: peak_scan(fibonacci_cut_project(), [1, 1], (-3, 3), 0.01, [500, 2000])) < 20e6


def tile_rows(n_points):
    return max(3, 2 ** 15 // n_points)


@pytest.mark.parametrize("n_points", [501, 723, 2501])
def test_amplitude_bits_match_the_complex_exp_formula_at_every_tile_edge(n_points):
    rng = np.random.default_rng(n_points)
    pos = np.sort(rng.uniform(-n_points, n_points, n_points))
    wvals = rng.normal(size=n_points) + 1j * rng.normal(size=n_points)
    t = tile_rows(n_points)
    for rows in (1, 2, 3, t - 1, t, t + 1, 2 * t + 1, 601):
        ks = rng.uniform(-3, 3, rows)
        got = spectra._amplitudes_grid(pos, wvals, ks, 1000.0)
        assert got.tobytes() == complex_exp_grid(pos, wvals, ks, 1000.0).tobytes(), rows


def test_phase_tiles_hold_two_to_t_rows(monkeypatch):
    rng = np.random.default_rng(6)
    pos = np.sort(rng.uniform(-700, 700, 723))
    wvals = rng.normal(size=723) + 0j
    t = tile_rows(723)
    tiles = []
    phases = spectra._phases
    monkeypatch.setattr(spectra, "_phases",
                        lambda ks, p, out=None: tiles.append(len(ks)) or phases(ks, p, out))
    for rows in (1, 2, 3, t - 1, t, t + 1, 2 * t + 1, 3 * t, 601):
        tiles.clear()
        spectra._amplitudes_grid(pos, wvals, rng.uniform(-3, 3, rows), 1.0)
        assert sum(tiles) == rows and max(tiles) <= t, rows
        assert rows == 1 or min(tiles) >= 2, (rows, tiles)


def test_golden_call_with_one_fresh_row_keeps_the_one_call_bits(monkeypatch):
    patch = fibonacci_cut_project().window(SPEC.region(300))
    pos, col = patch.all_positions()
    wvals, vol = np.array([1, 0.3 + 0.7j])[col], SPEC.region(300).volume()
    k1 = np.linspace(-2.5, 2.5, 9)
    computed = []
    phases = spectra._phases
    monkeypatch.setattr(spectra, "_phases",
                        lambda ks, p, out=None: computed.append(len(ks)) or phases(ks, p, out))
    for fresh in (0, 4, 8):
        fn = spectra._reusing_intensity(pos, wvals, vol, len(k1))
        fn(k1)
        k2 = k1.copy()
        k2[fresh] += 1e-3
        computed.clear()
        got = fn(k2)
        assert computed == [2]  # the fresh row and one other, never a one-row tile
        assert got.tobytes() == (np.abs(spectra._amplitudes_grid(pos, wvals, k2, vol)) ** 2).tobytes()
    one = spectra._reusing_intensity(pos, wvals, vol, 1)
    assert one(k1[:1]).tobytes() == (np.abs(spectra._amplitudes_grid(pos, wvals, k1[:1], vol)) ** 2).tobytes()


def refinement_spies(monkeypatch, cpus):
    """Make _usable_cpus report cpus; return the row counts of every
    _golden_refine call, from whichever thread made it."""
    rows = []
    golden = spectra._golden_refine
    monkeypatch.setattr(spectra, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(spectra, "_golden_refine", lambda fn, lo, hi: rows.append(len(lo)) or golden(fn, lo, hi))
    return rows


def entry_bits(est):
    return [(np.array([e.k, e.intensity, e.n]).tobytes(), np.complex128(e.amplitude).tobytes(), e.retained)
            for e in est.entries]


@pytest.mark.parametrize("name, src, w", [
    ("fibonacci", fibonacci_cut_project(), [1, 1]),
    ("period-doubling", period_doubling_source(), [1, -1]),
    ("poisson", PoissonSource(1.0, seed=101), [1]),
])
def test_peak_scan_bits_do_not_depend_on_the_refinement_split(name, src, w, monkeypatch):
    got = {}
    for cpus in (1, 2):
        rows = refinement_spies(monkeypatch, cpus)
        got[cpus] = entry_bits(peak_scan(src, w, (-3, 3), 0.01, [100, 200]))
        assert len(rows) == cpus and min(rows) >= 2, rows
    assert got[1] == got[2]


@pytest.mark.parametrize("rows, halves", [(1, [1]), (2, [2]), (3, [3]), (4, [2, 2]), (5, [2, 3])])
def test_refinement_splits_from_four_rows_and_keeps_every_bit(rows, halves, monkeypatch):
    n1 = 300
    patch = fibonacci_cut_project().window(SPEC.region(n1))
    pos, col = patch.all_positions()
    wvals, vol = np.array([1, 0.3 + 0.7j])[col], SPEC.region(n1).volume()
    step = 0.25 / (2.0 * n1)
    k0 = np.array([1 / TAU, TAU ** 2 / 5 ** 0.5, 0.5, -1.3, 2.2])[:rows]
    got = {}
    for cpus in (1, 2):
        seen = refinement_spies(monkeypatch, cpus)
        got[cpus] = [x.tobytes() for x in spectra._refine_rows(pos, wvals, vol, k0 - step, k0 + step)]
        assert sorted(seen) == ([rows] if cpus == 1 else halves)
    assert got[1] == got[2]


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_failing_refinement_half_raises_itself_after_the_join(failing, monkeypatch):
    class Boom(Exception):
        pass
    golden = spectra._golden_refine
    main = threading.main_thread()

    def refine(fn, lo, hi):
        if (threading.current_thread() is main) == (failing == "caller"):
            raise Boom(failing)
        return golden(fn, lo, hi)
    monkeypatch.setattr(spectra, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(spectra, "_golden_refine", refine)
    before = threading.active_count()
    with pytest.raises(Boom, match=failing):
        peak_scan(fibonacci_cut_project(), [1, 1], (-3, 3), 0.01, [100, 200])
    assert threading.active_count() == before


def test_usable_cpus_reads_the_affinity_mask_or_the_cpu_count(monkeypatch):
    if hasattr(spectra.os, "sched_getaffinity"):
        monkeypatch.setattr(spectra.os, "sched_getaffinity", lambda pid: {3})
        assert spectra._usable_cpus() == 1
        monkeypatch.delattr(spectra.os, "sched_getaffinity")
    monkeypatch.setattr(spectra.os, "cpu_count", lambda: 6)
    assert spectra._usable_cpus() == 6
    monkeypatch.setattr(spectra.os, "cpu_count", lambda: None)
    assert spectra._usable_cpus() == 1


@pytest.mark.parametrize("name, task, bound", [
    # measured 3.2 and 4.1 MB in phase tiles; whole phase matrices for the
    # coarse grid and the schedule take 24.3 and 14.5 MB
    ("comb peak_scan", lambda: peak_scan(LatticeSource([[1.0]], colors=2), [1, -1], (-3, 3), 0.01,
                                         [1250, 2500]), 6e6),
    ("negative_controls", lambda: verify.check_negative_controls(fast=True), 8e6),
])
def test_fast_spectral_tasks_peak_under_their_bounds(name, task, bound):
    assert peak_bytes(task) < bound


def capture_fine_grids(monkeypatch, scans):
    """(approx, bound, exact table, certified argmax) of every fine grid the scans run."""
    seen = []
    certified = spectra._certified_argmax

    def spy(approx, bound, exact_rows):
        best = certified(approx, bound, exact_rows)
        seen.append((approx, bound, exact_rows(np.arange(len(approx))), best))
        return best
    monkeypatch.setattr(spectra, "_certified_argmax", spy)
    for src, w, schedule in scans:
        peak_scan(src, w, (-2, 2), 0.01, schedule)
    monkeypatch.undo()
    return seen


def test_fine_grid_bound_holds_and_noise_inside_it_changes_no_argmax(monkeypatch):
    seen = capture_fine_grids(monkeypatch, [
        (fibonacci_cut_project(), [1, 0.3 + 0.7j], [300, 600]),
        (PoissonSource(1.0, seed=7), [1], [300, 600]),
        (period_doubling_source(), [1, -1], [300, 600]),
    ])
    rng = np.random.default_rng(5)
    for approx, bound, exact, best in seen:
        assert 0 < bound < 1e-9
        assert np.abs(approx - exact).max() <= bound
        assert list(best) == list(np.argmax(exact, axis=1))
        for noise in (bound, -bound, rng.uniform(-bound, bound, approx.shape)):
            got = spectra._certified_argmax(approx + noise, bound, lambda rows: exact[rows])
            assert list(got) == list(best)


def test_fallback_rows_get_the_one_call_bits(monkeypatch):
    n1 = 300
    patch = fibonacci_cut_project().window(SPEC.region(n1))
    pos, col = patch.all_positions()
    wvals, vol = np.array([1, 0.3 + 0.7j])[col], SPEC.region(n1).volume()
    step = 0.25 / (2.0 * n1)
    cand, offs = np.linspace(-2.5, 2.5, 250), np.arange(-0.01, 0.01 + step / 2, step)
    one_call = np.abs(spectra._amplitudes_grid(pos, wvals, (cand[:, None] + offs).ravel(), vol))
    one_call = (one_call ** 2).reshape(len(cand), len(offs))
    assert len(one_call.ravel()) > 4e6 // len(pos)  # more than one chunk
    tables = []
    certified = spectra._certified_argmax

    def spy(approx, bound, exact_rows):
        tables.append((exact_rows(np.arange(len(cand))), exact_rows(np.array([187, 0, 249]))))
        return certified(approx, np.inf, exact_rows)
    monkeypatch.setattr(spectra, "_certified_argmax", spy)
    best = spectra._fine_argmax(pos, wvals, vol, cand, offs)
    (every, some), = tables
    assert every.tobytes() == one_call.tobytes()
    assert some.tobytes() == one_call[[187, 0, 249]].tobytes()
    assert list(best) == list(np.argmax(one_call, axis=1))


def test_near_tie_row_takes_the_exact_fallback():
    bound = 1e-12
    approx = np.array([[0.5, 0.5 + 1.5 * bound, 0.1],    # margin under 2B
                       [0.5, 0.5 + 3.0 * bound, 0.1]])   # margin past 2B
    asked = []

    def exact_rows(rows):
        asked.extend(rows)
        return np.array([[0.5 + 2 * bound, 0.5, 0.1]])
    assert list(spectra._certified_argmax(approx, bound, exact_rows)) == [0, 1]
    assert asked == [0]


def test_unbounded_error_sends_every_row_to_the_exact_chunks(monkeypatch, tmp_path):
    from pointspec.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"source": {"type": "fibonacci"}, "diffract": '
                   '{"k_min": -1, "k_max": 1, "resolution": 0.01, "n_schedule": [200, 400]}}')
    assert main(["diffract", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    fell_back = []
    certified = spectra._certified_argmax

    def spy(approx, bound, exact_rows):  # the bound forced to +inf
        return certified(approx, np.inf, lambda rows: fell_back.append(len(rows) == len(approx))
                         or exact_rows(rows))
    monkeypatch.setattr(spectra, "_certified_argmax", spy)
    assert main(["diffract", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert fell_back == [True]
    assert (tmp_path / "a" / "diffract.csv").read_bytes() == \
        (tmp_path / "b" / "diffract.csv").read_bytes()


# ---------------------------------------------------------------------------
# smoothing and the Dworkin identity


def test_smoothed_profile_lattice_value():
    z = integer_lattice()
    meas = autocorr_from_frequencies(z, [1], 5.0, SPEC, 1000)
    kern = SmoothingKernel(0.4)  # s < 0.5: only the t = x term overlaps
    val = smoothed_autocorr_profile(meas, kern, [1.0])[0]
    assert val.real == pytest.approx(l2_norm_sq(kern), rel=2e-3)


def test_smoothed_profile_matches_per_x_loop():
    fib = fibonacci_cut_project()
    meas = autocorr_from_frequencies(fib, [1, 1j], 6.0, SPEC, 500)
    kern = SmoothingKernel(0.7)
    xs = np.linspace(-4.0, 4.0, 37)
    items = meas.items()
    ts = np.array([t for t, _ in items])
    cs = np.array([c for _, c in items])
    want = []
    for x in xs:
        mask = np.abs(x - ts) < 2 * kern.s
        want.append(np.dot(cs[mask], kern.autocorr(x - ts[mask])) if mask.any() else 0j)
    got = smoothed_autocorr_profile(meas, kern, xs)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_smoothed_profile_radius_guard():
    z = integer_lattice()
    meas = autocorr_from_frequencies(z, [1], 2.0, SPEC, 200)
    with pytest.raises(ValueError):
        smoothed_autocorr_profile(meas, SmoothingKernel(0.4), [1.5])


def test_smoothing_consistency_with_peaks():
    # discrete transform of the real-space profile vs |omega-hat|^2 I at peaks
    kern = SmoothingKernel(0.4)
    for src, w, peaks in [
        (integer_lattice(), [1], [0.0, 1.0, 2.0]),
        (integer_lattice(1.0, colors=2), [1, -1], [0.5, 1.5]),
    ]:
        meas = autocorr_from_frequencies(src, w, 12.0, SPEC, 4000)
        X = 8.0  # multiple of the period so the window transform is clean
        step = 0.02
        xs = np.arange(-X + step / 2, X, step)
        prof = smoothed_autocorr_profile(meas, kern, xs)
        for k in peaks:
            dft = np.sum(prof * np.exp(-2j * np.pi * k * xs)) * step / (2 * X)
            target = abs(kern.fourier(k)) ** 2 * 1.0  # unit peak intensity
            assert abs(dft - target) <= 0.05 * target


def test_dworkin_lattice():
    z = integer_lattice()
    kern = SmoothingKernel(0.4)
    row0 = dworkin_report(z, [1], kern, [0.0], SPEC, 1000).rows[0]
    assert row0.rel_diff <= 0.01
    assert row0.rhs == pytest.approx(l2_norm_sq(kern), rel=1e-3)
    row1 = dworkin_report(z, [1], kern, [1.0], SPEC, 1000).rows[0]
    assert row1.lhs == pytest.approx(row0.lhs, rel=1e-3)  # 1-periodicity


def test_dworkin_fibonacci():
    fib = fibonacci_cut_project()
    kern = SmoothingKernel(0.4)
    row = dworkin_report(fib, [1, 1], kern, [TAU], SPEC, 4000).rows[0]
    assert row.rel_diff <= 0.02


def test_dworkin_report_windows_each_source_once(monkeypatch):
    fib, kern, xs = fibonacci_cut_project(), SmoothingKernel(0.4), [-1.3, 0.2, 2.9]
    windows, densities = [], []
    fib_window, density = fib.window, spectra.smoothed_density
    monkeypatch.setattr(fib, "window", lambda region: windows.append(region) or fib_window(region))
    monkeypatch.setattr(spectra, "smoothed_density",
                        lambda *args: densities.append(args) or density(*args))
    spectra.dworkin_report(fib, [1, 1], kern, xs, SPEC, 300)
    assert len(windows) == 2  # the autocorrelation measure and the density patch
    assert len(densities) == 1  # one density, no shifted one per x


DWORKIN_CASES = [("Z", integer_lattice(), [1]),
                 ("fibonacci", fibonacci_cut_project(), [1, 1]),
                 ("fibonacci-complex", fibonacci_cut_project(), [1, 0.3 + 0.7j])]


@pytest.mark.parametrize("n", [300, 2000])
@pytest.mark.parametrize("name, src, w", DWORKIN_CASES, ids=[c[0] for c in DWORKIN_CASES])
def test_dworkin_lhs_matches_the_shifted_density_quadrature(name, src, w, n):
    # the same kernel values summed in another order: equal to rounding only
    kern, xs = SmoothingKernel(0.4), [-2.9, -1.3, 0.0, 0.2, 1.5, 2.9]
    report = dworkin_report(src, w, kern, xs, SPEC, n)
    for row, want in zip(report.rows, shifted_density_lhs(src, w, kern, xs, n)):
        assert abs(row.lhs - want.real) <= 1e-12 * abs(want)


def test_dworkin_report_max_rel_diff():
    z = integer_lattice()
    report = dworkin_report(z, [1], SmoothingKernel(0.4), [0.0, 0.5, 1.0], SPEC, 500)
    assert report.max_rel_diff() <= 0.02
