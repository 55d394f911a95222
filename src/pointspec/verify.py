"""Built-in verification suites: analytically forced targets on canonical
examples, each with its stated tolerance.

Every check returns a CheckResult; the CLI `verify` command prints one
pass/fail line per check and exits nonzero on any failure.  `fast` mode
shrinks averaging volumes and sample counts for smoke runs; the stated
tolerances apply to the full-size runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .geometry import Interval, cluster_1d
from .hull import (
    CylinderSpec,
    _Cylinders,
    build_partition_1d,
    empirical_cylinder_measure,
    hull_metric,
    hull_metrics,
    metric_window,
    partition_params,
)
from .sources import (
    PoissonSource,
    TranslatedSource,
    fibonacci_cut_project,
    integer_lattice,
    thue_morse_source,
)
from .stats import VanHoveSpec, _count_in_patch, estimate_frequency, halton
from .spectra import (
    autocorr_direct,
    autocorr_from_frequencies,
    bragg_amplitude,
    dworkin_report,
    peak_scan,
    triangle_kernel,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        return "[%s] %-22s %6.1fs  %s" % ("PASS" if self.passed else "FAIL",
                                          self.name, self.seconds, self.detail)


def _result(name, t0, ok, detail):
    return CheckResult(name=name, passed=bool(ok), detail=detail,
                       seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 1. lattice frequency


def check_lattice_frequency(fast=False) -> CheckResult:
    t0 = time.perf_counter()
    n_max = 1000
    spec = VanHoveSpec(n0=125, doublings=3)
    offsets = [(0.0,)] + [(float(x),) for x in halton(49) * 10.0]
    est = estimate_frequency(integer_lattice(), cluster_1d([0.0]), spec, offsets)
    ratio0 = next(r for off, r in est.per_offset if off == (0.0,))
    expected0 = (2 * n_max + 1) / (2 * n_max)
    ok = (abs(ratio0 - expected0) < 1e-12
          and abs(est.value - 1.0) <= 5e-4
          and est.uniformity_gap <= 1e-3
          and time.perf_counter() - t0 < 5.0)
    return _result("lattice_frequency", t0, ok,
                   "ratio(0)=%.6f value=%.6f unif_gap=%.2e" %
                   (ratio0, est.value, est.uniformity_gap))


# ---------------------------------------------------------------------------
# 2. autocorrelation oracle equivalence


def check_autocorr_equivalence(fast=False) -> CheckResult:
    t0 = time.perf_counter()
    n = 2000 if fast else 10000
    spec = VanHoveSpec()
    cases = [
        ("Z", integer_lattice(), [1]),
        ("2Z", integer_lattice(2.0), [1]),
        ("fibonacci", fibonacci_cut_project(), [1, 1]),
        ("comb", integer_lattice(1.0, colors=2), [1, -1]),
    ]
    worst = 0.0
    worst_name = ""
    for name, src, w in cases:
        d = autocorr_direct(src, w, 10.0, spec, n)
        f = autocorr_from_frequencies(src, w, 10.0, spec, n)
        diff = d.max_difference(f)
        if diff > worst:
            worst, worst_name = diff, name
    elapsed_ok = time.perf_counter() - t0 < 60.0
    ok = worst <= 2e-3 and elapsed_ok
    return _result("autocorr_equivalence", t0, ok,
                   "max|dc|=%.2e (worst: %s, n=%d)" % (worst, worst_name, n))


# ---------------------------------------------------------------------------
# 3. Poisson-summation check on the integer lattice


def check_lattice_peaks(fast=False) -> CheckResult:
    t0 = time.perf_counter()
    schedule = [500, 1000] if fast else [1000, 2000]
    est = peak_scan(integer_lattice(), [1], (-3, 3), 0.01, schedule)
    ret = est.retained()
    ks = sorted(e.k for e in ret)
    n = schedule[-1]
    ok = (len(ret) == 7
          and all(abs(k - round(k)) <= 1e-6 for k in ks)
          and sorted(round(k) for k in ks) == list(range(-3, 4))
          and all(abs(e.intensity - 1.0) <= 2.0 / n for e in ret)
          and time.perf_counter() - t0 < 30.0)
    return _result("lattice_peaks", t0, ok,
                   "%d peaks at %s, |I-1|max=%.2e" %
                   (len(ret), [round(k) for k in ks],
                    max((abs(e.intensity - 1) for e in ret), default=float("nan"))))


# ---------------------------------------------------------------------------
# 4. weighted comb: alternating autocorrelation and half-integer peaks


def check_weighted_comb(fast=False) -> CheckResult:
    t0 = time.perf_counter()
    comb = integer_lattice(1.0, colors=2)
    # boundary deficit is |t|/(2n); the smoke run shrinks the radius with n
    n, radius = (4000, 5) if fast else (10000, 10)
    spec = VanHoveSpec()
    meas = autocorr_direct(comb, [1, -1], float(radius), spec, n)
    worst_c = max(abs(meas.coefficient(float(t)) - (-1.0) ** t)
                  for t in range(-radius, radius + 1))
    schedule = [1250, 2500] if fast else [2500, 5000]
    est = peak_scan(comb, [1, -1], (-3, 3), 0.01, schedule)
    ret = est.retained()
    ks = sorted(e.k for e in ret)
    half_ints = [k + 0.5 for k in range(-3, 3)]
    peaks_ok = (len(ks) == 6
                and all(abs(k - h) <= 1e-6 for k, h in zip(ks, half_ints))
                and all(abs(e.intensity - 1.0) <= 5e-3 for e in ret))
    ok = worst_c <= 1e-3 and peaks_ok
    return _result("weighted_comb", t0, ok,
                   "max|c(t)-(-1)^t|=%.2e, %d half-integer peaks, |I-1|max=%.2e" %
                   (worst_c, len(ks),
                    max((abs(e.intensity - 1) for e in ret), default=float("nan"))))


# ---------------------------------------------------------------------------
# 5. cylinder measure = Vol(V) * frequency


def check_cylinder_measure(fast=False) -> CheckResult:
    t0 = time.perf_counter()
    n = 1000
    m, _, _ = empirical_cylinder_measure(
        integer_lattice(), CylinderSpec(cluster_1d([0.0]), Interval(0.0, 0.3, True, False)), n)
    ok_z = abs(m - 0.3) <= 1e-3

    fib = fibonacci_cut_project()
    mf, _, _ = empirical_cylinder_measure(
        fib, CylinderSpec(cluster_1d([0.0], []), Interval(0.0, 0.1, True, False)), n)
    # independent point-count oracle for the color-0 density
    patch = fib.window(Interval(-n, n))
    density = len(patch.positions(0)) / (2.0 * n)
    ok_f = abs(mf - 0.1 * density) <= 2e-3
    return _result("cylinder_measure", t0, ok_z and ok_f,
                   "Z: %.5f (want 0.3), fib: %.6f vs 0.1*density=%.6f" %
                   (m, mf, 0.1 * density))


# ---------------------------------------------------------------------------
# 6. the disjoint partition and its measure identity


def check_partition(fast=False) -> CheckResult:
    t0 = time.perf_counter()
    fib = fibonacci_cut_project()
    part = build_partition_1d(fib, 3.0, 0.2, scan_length=600 if fast else 1500)
    n = 4000 if fast else 10000
    sub = fib.window(Interval(-n, n))
    freq_cache = {}
    total = 0.0
    for cell in part.cells:
        key = cell.pinned.signature()
        if key not in freq_cache:
            freq_cache[key] = _count_in_patch(sub, cell.pinned) / (2.0 * n)
        total += cell.window.volume() * freq_cache[key]
    n_samples = 200 if fast else 1000
    offsets = (halton(n_samples) * 500.0).tolist()
    misses = int((part._cylinders.orbit_hits(fib, offsets, Interval(-16, 16)).sum(axis=1) != 1).sum())
    ok = abs(total - 1.0) <= 1e-3 and misses == 0
    return _result("partition", t0, ok,
                   "sum Vol*freq=%.6f, %d/%d patches in exactly one cell (%d cells)" %
                   (total, n_samples - misses, n_samples, part.n_cells))


# ---------------------------------------------------------------------------
# 7. the Dworkin identity, numerically


def check_dworkin(fast=False) -> CheckResult:
    t0 = time.perf_counter()
    n = 2000 if fast else 10000
    spec = VanHoveSpec()
    kernel = triangle_kernel(0.4)
    worst = 0.0
    worst_at = ""
    for name, src, w in [("Z", integer_lattice(), [1]),
                         ("fibonacci", fibonacci_cut_project(), [1, 1])]:
        xs = halton(10) * 3.0
        report = dworkin_report(src, w, kernel, xs, spec, n)
        if report.max_rel_diff() > worst:
            worst = report.max_rel_diff()
            row = max(report.rows, key=lambda r: r.rel_diff)
            worst_at = "%s x=%.3f" % (name, row.x)
    ok = worst <= 0.02 and time.perf_counter() - t0 < 120.0
    return _result("dworkin", t0, ok, "max rel diff %.3f%% at %s" % (100 * worst, worst_at))


# ---------------------------------------------------------------------------
# 8. product identity for cylinder indicators


def check_product_identity(fast=False) -> CheckResult:
    t0 = time.perf_counter()
    fib = fibonacci_cut_project()
    eps = 1.0 / 3.0
    pp = partition_params(fib, eps, scan=Interval(0.0, 300.0))
    vlen = min(pp.theta, pp.eta) / 4.0
    V = Interval(0.05, 0.05 + vlen, True, False)
    base = fib.window(Interval(-1.0 / eps, 1.0 / eps)).as_cluster()
    whole = CylinderSpec(base, V)
    singles = [CylinderSpec(cluster_1d(*[[q.value(k)] if j == i else [] for j in range(base.m)]), V)
               for i, q in enumerate(map(base.exact_positions, range(base.m))) for k in range(len(q.a))]
    n_samples = 200 if fast else 1000
    offsets = (halton(n_samples) * 400.0).tolist()
    hits = _Cylinders([whole, *singles]).orbit_hits(fib, offsets, Interval(-12, 12))
    lhs, rhs = hits[:, 0], hits[:, 1:].all(axis=1)
    violations, hits = int((lhs != rhs).sum()), int(lhs.sum())
    ok = violations == 0
    return _result("product_identity", t0, ok,
                   "%d violations over %d samples (theta=%.3f, %d cylinder hits)" %
                   (violations, n_samples, pp.theta, hits))


# ---------------------------------------------------------------------------
# 9. metric bracket and triangle inequality


def check_metric(fast=False) -> CheckResult:
    t0 = time.perf_counter()
    z = integer_lattice()
    br = hull_metric(z, TranslatedSource(z, 0.1), eps_grid=0.01)
    pair_ok = br.contains(0.05) and (br.upper - br.lower) <= 0.01

    fib = fibonacci_cut_project()
    eps_grid = 0.05
    n_triples = 100 if fast else 500
    master = fib.window(Interval(0.0, 50.0).dilate(metric_window(eps_grid).hi))  # holds every sample's slabs
    sa, sb, sc = ([master.translate((-h,)) for h in (halton(n_triples, b) * 50.0).tolist()] for b in (2, 3, 5))
    brackets = hull_metrics([*zip(sa, sb), *zip(sb, sc), *zip(sa, sc)], eps_grid=eps_grid)
    ab, bc, ac = (brackets[k * n_triples:(k + 1) * n_triples] for k in range(3))
    bad = sum(dac.lower > dab.upper + dbc.upper + 2 * eps_grid for dab, dbc, dac in zip(ab, bc, ac))
    ok = pair_ok and bad == 0
    return _result("metric", t0, ok,
                   "bracket [%.4f, %.4f] for d(Z, Z+0.1); triangle failures %d/%d" %
                   (br.lower, br.upper, bad, n_triples))


# ---------------------------------------------------------------------------
# 10. negative controls: no stable peaks for Thue-Morse / Poisson


def check_negative_controls(fast=False) -> CheckResult:
    t0 = time.perf_counter()
    spec = VanHoveSpec()
    tm = thue_morse_source()
    n1, n2 = (500, 2000) if fast else (1000, 4000)
    ks = np.linspace(-3, 3, 241)
    ks = ks[np.abs(ks) > 1e-9]
    i1 = np.abs(bragg_amplitude(tm, [1, -1], ks, spec, n1)) ** 2
    i2 = np.abs(bragg_amplitude(tm, [1, -1], ks, spec, n2)) ** 2
    ratios = i2 / np.maximum(i1, 1e-300)
    tm_ok = bool(np.max(ratios) < 0.8)

    pz = PoissonSource(1.0, seed=7)
    est = peak_scan(pz, [1], (-3, 3), 0.01, [n1, n2], spec)
    ret = est.retained()
    poisson_ok = len(ret) == 1 and abs(ret[0].k) <= 1e-6
    ok = tm_ok and poisson_ok
    return _result("negative_controls", t0, ok,
                   "TM max ratio %.3f (<0.8); poisson retains %s" %
                   (float(np.max(ratios)), [round(e.k, 6) for e in ret]))


# ---------------------------------------------------------------------------
# suites


CHECKS = {
    "lattice_frequency": check_lattice_frequency,
    "autocorr_equivalence": check_autocorr_equivalence,
    "lattice_peaks": check_lattice_peaks,
    "weighted_comb": check_weighted_comb,
    "cylinder_measure": check_cylinder_measure,
    "partition": check_partition,
    "dworkin": check_dworkin,
    "product_identity": check_product_identity,
    "metric": check_metric,
    "negative_controls": check_negative_controls,
}

SUITES = {
    "lattice": ["lattice_frequency", "lattice_peaks", "cylinder_measure"],
    "fibonacci": ["autocorr_equivalence", "partition", "dworkin", "product_identity"],
    "comb": ["weighted_comb"],
    "metric": ["metric"],
    "negative": ["negative_controls"],
    "all": list(CHECKS),
}


def run_suite(suite: str, fast: bool = False):
    if suite not in SUITES:
        raise ValueError("unknown suite %r; available: %s" % (suite, ", ".join(sorted(SUITES))))
    return [CHECKS[name](fast=fast) for name in SUITES[suite]]
