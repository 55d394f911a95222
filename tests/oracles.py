"""Reference helpers shared by the test oracles: scalar comparisons, the
closed forms of the van Hove boundary ratios, of the triangle kernel's L2
norm and self-correlation and of an autocorrelation's Hermitian defect, the
plateau function of the smoothed-indicator bound, and the slow direct forms
of the Poisson window, of the points.json document, of the hull-metric
bracket search, of the cluster distance, of the Dworkin left side and of
the occurrence search, batched and on exact keys, the closed-form Bragg
amplitudes of the Fibonacci model set, and the exact sign of a + b*tau one
scalar at a time."""

import itertools
import math
from fractions import Fraction

import numpy as np

from pointspec import hull
from pointspec.coords import TOL_EQ, is_exact_coord
from pointspec.geometry import MultiSetPatch, in_sorted
from pointspec.sources import region_to_json
from pointspec.spectra import smoothed_density


def coord_eq(c1, c2, tol: float = TOL_EQ) -> bool:
    """Equality: exact when both coordinates are exact, |.| <= tol otherwise."""
    if is_exact_coord(c1) and is_exact_coord(c2):
        return c1 == c2
    return abs(float(c1) - float(c2)) <= tol


def boundary_shell_volume(region, r: float) -> float:
    """Vol((boundary F)^{+r}) for intervals/boxes/balls, in closed form."""
    return region.dilate(r).volume() - region.erode(r).volume()


def van_hove_region(spec, n: float, rs=(1.0, 10.0)):
    """The cube F_n of a VanHoveSpec plus the boundary ratios
    Vol((dF_n)^{+r})/Vol(F_n), and the difference-set constant K."""
    region = spec.region(n)
    vol = region.volume()
    ratios = {float(r): boundary_shell_volume(region, float(r)) / vol for r in rs}
    return region, ratios, spec.K


def l2_norm_sq(kern) -> float:
    """The squared L2 norm of a triangle SmoothingKernel of radius s: 2s/3."""
    return 2.0 * kern.s / 3.0


def quadrature_autocorr(kern, u):
    """(omega * omega~)(u) of a SmoothingKernel by midpoint quadrature,
    1000 steps over its support: the reference for its closed form."""
    lo, hi = -kern.s, kern.s
    step = (hi - lo) * 1e-3
    grid = np.arange(lo + step / 2, hi, step)
    base = kern(grid)
    out = np.empty(len(u))
    for idx, uu in enumerate(u):
        out[idx] = float(np.dot(base, kern(grid - uu))) * step
    return out


def shifted_density_lhs(source, w, kern, xs, n: float):
    """The Dworkin left side at each x by a shifted density per x: the
    midpoint quadrature of (1/Vol F_n) int_{F_n} rho(x + y) conj(rho(y)) dy
    on dworkin_report's grid, as complex numbers."""
    step = 2 * kern.s / 40.0
    grid = np.arange(-n + step / 2, n, step)
    rho = np.conj(smoothed_density(source, w, kern, grid))
    return [complex((smoothed_density(source, w, kern, grid + x) * rho).sum()) * step / (2.0 * n)
            for x in xs]


def plateau(v_lo: float, v_hi: float, zeta: float):
    """The function equal to 1 on [v_lo + zeta, v_hi - zeta], 0 outside
    [v_lo, v_hi] and linear between: the smoothed indicator of V."""
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.minimum(np.clip((x - v_lo) / zeta, 0.0, 1.0), np.clip((v_hi - x) / zeta, 0.0, 1.0))
    return f


def hermitian_defect(meas) -> float:
    """max |c(-t) - conj c(t)| over the support of an AutocorrelationMeasure."""
    return float(np.abs(meas.coefficient(-meas.t) - np.conj(meas.c)).max(initial=0.0))


def dense_cluster_distance(P, Q) -> float:
    """cluster_distance from every |P| x |Q| distance, colour by colour."""
    worst = 0.0
    for pa, pb in zip(map(P.positions, range(P.m)), map(Q.positions, range(Q.m))):
        if not len(pa) and not len(pb):
            continue
        if not len(pa) or not len(pb):
            worst = max(worst, 1.0)
            continue
        pa, pb = pa.reshape(len(pa), 1, -1), pb.reshape(1, len(pb), -1)
        d = np.sqrt(((pa - pb) ** 2).sum(axis=2))
        worst = max(worst, float(d.min(axis=1).max()), float(d.min(axis=0).max()))
    return worst


def poisson_window_points(src, region):
    """PoissonSource's points in region, drawn one cell at a time: a fresh
    default_rng((seed, *(c + 2**32))) per unit cell c, its count from
    poisson(intensity) and its offsets from uniform(0, 1)."""
    axes = [range(math.floor(lo), math.ceil(hi) + 1) for lo, hi in region.bounds()]
    chunks = [np.empty((0, src.dim))]
    for cell in itertools.product(*axes):
        rng = np.random.default_rng((src.seed,) + tuple(c + 2 ** 32 for c in cell))
        n = rng.poisson(src.intensity)
        if n:
            chunks.append(np.array(cell, dtype=float) + rng.uniform(0.0, 1.0, size=(n, src.dim)))
    x = np.concatenate(chunks)
    x = x[:, 0] if src.dim == 1 else x
    return x[region.mask(x)]


def patch_to_json(patch, field=None) -> dict:
    """The points.json document as Python rows: exact coordinates as Fractions
    (an int, or their str), rows sorted by the str() of each entry; written
    with output.write_json, it gives the file's bytes."""
    points = []
    for i in range(patch.m):
        q = patch.exact_positions(i)
        if q is None:
            points += [row + [i] for row in patch.positions(i).reshape(-1, patch.dim).tolist()]
        else:
            points += [[[_int_or_str(a, q.den), _int_or_str(b, q.den)], i]
                       for a, b in zip(q.a.tolist(), q.b.tolist())]
    points.sort(key=lambda row: tuple(str(v) for v in row))
    doc = {
        "dim": patch.dim,
        "m": patch.m,
        "coords": "exact" if patch.exact else "float",
        "points": points,
        "region": region_to_json(patch.region),
    }
    if patch.exact and field is not None:
        doc["field"] = {"tau": field.name}
    return doc


def _int_or_str(num: int, den: int):
    v = Fraction(num, den)
    return int(v) if v.denominator == 1 else str(v)


def sequential_hull_metric(source1, source2, eps_grid: float):
    """The hull-metric bracket (lower, upper) searched one epsilon at a time:
    descend METRIC_CAP / 2^k while the matching predicate holds, then bisect
    the first failing bracket down to width eps_grid.  It decides only the
    epsilons its path reaches, so a patch need only cover those."""
    cap, floor = hull.METRIC_CAP, max(eps_grid / 2.0, 1e-4)
    near = hull.metric_window(eps_grid)
    p1, p2 = (s if isinstance(s, MultiSetPatch) else s.window(near) for s in (source1, source2))

    sides = hull._predicate_sides([p1], [p2])

    def holds(eps):
        return bool(hull._match_predicate(sides, [0], [eps])[0])

    if not holds(cap):
        return cap, cap
    hi, lo, eps = cap, None, cap / 2.0  # hi known true, lo known false
    while eps > floor:
        if holds(eps):
            hi = eps
            eps /= 2.0
        else:
            lo = eps
            break
    if lo is None:
        return 0.0, hi
    while hi - lo > eps_grid:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def batched_occurrence_index(patch, P, lo: float = -math.inf, hi: float = math.inf):
    """MultiSetPatch.occurrence_index by the all-points-at-once rule: per
    colour, one in_sorted search of every candidate translate of every point
    of P (but the anchor), the target of candidate q and point o being
    (q - anchor) + o.  Translate bounds apply in 1D only."""
    color = P.anchor_color()
    anchor, base = P.positions(color)[0], patch.positions(color)
    a, b = np.searchsorted(base, [lo + anchor - TOL_EQ, hi + anchor + TOL_EQ]) if patch.dim == 1 else (0, len(base))
    idx = np.arange(a, b)
    for i in range(P.m):
        others = P.positions(i)[int(i == color):]
        if len(idx) and len(others):
            idx = idx[in_sorted(patch.positions(i), (base[idx] - anchor)[:, None] + others).all(axis=1)]
    return idx


def exact_occurrence_count(patch, P) -> int:
    """L_P over an exact patch, on exact keys: the anchor-colour points q
    with q - anchor + p a point of the patch for every point p of P."""
    points = [set(map(q.value, range(len(q.a)))) for q in map(patch.exact_positions, range(patch.m))]
    (anchor,), colour = P.anchor_point(), P.anchor_color()
    return sum(all(q - anchor + p in points[i] for i, part in enumerate(P.parts) for (p,) in part)
               for q in points[colour])


def scalar_sign(field, a, b) -> int:
    """Exact sign of a + b*tau for rational a, b, by cases on the signs of
    u = 2a + p*b and v = b, where 2(a + b*tau) = u + v sqrt(D)."""
    if type(a) is int and type(b) is int:
        u = 2 * a + field.p * b
        v = b
    else:
        u = 2 * Fraction(a) + field.p * Fraction(b)
        v = Fraction(b)
    if v == 0:
        return 0 if u == 0 else (1 if u > 0 else -1)
    if u == 0:
        return 1 if v > 0 else -1
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    t = u * u - v * v * field.disc  # sign(u + v sqrt(D)) = sign(u) * sign(t) here
    if t == 0:
        return 0
    if u > 0:  # v < 0
        return 1 if t > 0 else -1
    return 1 if t < 0 else -1  # u < 0, v > 0


def fibonacci_bragg_amplitudes(w, bound: int = 40):
    """(k, A(k)) at the Fourier-module points k = (p + q tau)/sqrt5 with |p|, |q|
    <= bound, for fibonacci_cut_project's windows and colour weights w.

    With k* = -(p + q tau')/sqrt5, e(-k x) = e(k* x*) on Z[tau], so the
    amplitude is A(k) = (1/sqrt5) sum_c w_c int_{W_c} e(k* y) dy (Hof 1995)."""
    tau, tau_c, s5 = (1 + 5 ** 0.5) / 2, (1 - 5 ** 0.5) / 2, 5 ** 0.5
    p, q = (g.ravel() for g in np.meshgrid(np.arange(-bound, bound + 1), np.arange(-bound, bound + 1)))
    k, k_star = (p + q * tau) / s5, -(p + q * tau_c) / s5
    amp = np.zeros(len(k), dtype=complex)
    for w_c, (lo, hi) in zip(w, [(tau - 2, tau - 1), (-1, tau - 2)]):
        zero = k_star == 0
        ks = np.where(zero, 1.0, k_star)
        integral = (np.exp(2j * np.pi * ks * hi) - np.exp(2j * np.pi * ks * lo)) / (2j * np.pi * ks)
        amp += w_c * np.where(zero, hi - lo, integral)
    return k, amp / s5
