"""Autocorrelation and diffraction estimators.

Two independent autocorrelation routes act as each other's oracle:

* autocorr_direct        finite-volume pair enumeration (the defining
                         self-convolution, volume-normalized)
* autocorr_from_frequencies   pair-cluster frequencies per difference
                         vector, one count per distinct (t, color pair)

Both find the differences t that occur the same way: one pair-range
expansion (geometry.within) over the sorted positions, grouped by
geometry.first_labels (exactly, or floats in runs of gaps of at most
TOL_EQ).  What they compute from there stays independent: the direct
route sums the weights of the pairs it found, while the frequency route
uses each pair only to learn t and takes every count from a separate
tolerant membership search (geometry.in_sorted), so a pair the shared
expansion dropped or invented shows up as a disagreement.

Diffraction is probed by normalized exponential sums A_n(k); Bragg
candidates must survive a non-decay drift test across the averaging
schedule to be retained.  Measures are smoothed by one kernel, the triangle
(SmoothingKernel), whose Fourier transform is closed-form; the Dworkin check
compares the ergodic average of the smoothed-density correlation (one
density) against the smoothed autocorrelation.

Every exponential sum runs through _tile_sums in phase tiles of at most
0.5 MiB, so an amplitude's bits depend on its k alone (and on whether its call
had one k).  The golden section sums only the k it has not seen, and its rows
split between the calling thread and one worker when the process may run on
two CPUs.  Two of peak_scan's steps are certified: the fine-grid argmax
(_fine_argmax), and the golden section's comparisons while a Taylor model of
|A| decides them within its error bound (_taylor_model); from a row's first
comparison the bound cannot decide on, its values are exact.  The coarse grid
and the schedule rows are exact.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .coords import TOL_EQ, as_floats
from .geometry import Interval, MultiSetPatch, first_labels, in_sorted, nearest, within
from .output import write_csv
from .stats import VanHoveSpec

THRESHOLD_BUMP = 10.0  # peak_scan's threshold over the noise floor, times 1/(Vol F_n1)^2
DRIFT_TOL = 0.2  # the largest relative intensity drop a retained peak may show per schedule step


def validate_weights(w, m: int) -> np.ndarray:
    arr = np.asarray(w, dtype=complex)
    if arr.shape != (m,):
        raise ValueError("weight vector must have one entry per color (m=%d)" % m)
    if not np.isfinite(arr).all():
        raise ValueError("weight vector entries must be finite")
    if np.allclose(arr, 0):
        raise ValueError("weight vector must not be identically zero")
    return arr


# ---------------------------------------------------------------------------
# autocorrelation measures


@dataclass(eq=False)  # identity: == on the arrays would be ambiguous
class AutocorrelationMeasure:
    """Finitely supported t -> c(t), |t| <= radius, from one estimator run:
    the support t ascending (stably sorted when built) and c aligned with it."""

    radius: float
    method: str
    n: float
    t: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        order = np.argsort(self.t, kind="stable")
        self.t, self.c = self.t[order], self.c[order]

    def items(self):
        """(t, c) pairs sorted by t."""
        return list(zip(self.t.tolist(), self.c))

    def coefficient(self, t):
        """c at the support point nearest t (a number or an array), or 0 when
        none lies within TOL_EQ."""
        t = np.asarray(t, dtype=float)
        if not len(self.t):
            return np.zeros(t.shape, dtype=complex)[()]
        k, dist = nearest(self.t, t)
        return np.where(dist <= TOL_EQ, self.c[k], 0)[()]

    def max_difference(self, other: "AutocorrelationMeasure") -> float:
        return float(max(np.abs(self.c - other.coefficient(self.t)).max(initial=0.0),
                         np.abs(other.c - self.coefficient(other.t)).max(initial=0.0)))


def _differences(x, qx, y, qy, radius: float):
    """All pairs (a, b) with y_b within radius of x_a (TOL_EQ slack), a-major
    and b ascending, grouped by their difference x_a - y_b as first_labels
    groups keys.

    x, y are sorted local coordinates (MultiSetPatch.local); qx, qy the
    aligned QuadArrays of an exact patch or None.  A difference's key is its
    exact (a, b) pair, or its float, so float differences group in runs of
    gaps of at most TOL_EQ.  Returns (a, b, group, keys, ts): group numbers
    each pair's difference in order of first occurrence, keys[g] is group
    g's key and ts[g] the float of its first difference.
    """
    a, b = within(y, x - radius - TOL_EQ, x + radius + TOL_EQ)
    if qx is None:
        keys = d = x[a] - y[b]
    else:
        d = qx[a] - qy[b]
        keys = np.stack([d.a, d.b], axis=1)
    first, group = first_labels(keys)
    return a, b, group, keys[first], as_floats(d[first])


def autocorr_direct(source, w, radius: float, spec: VanHoveSpec, n: float) -> AutocorrelationMeasure:
    """c(t) = (1/Vol F_n) sum over pairs x - y = t of w(x) conj(w(y))."""
    if not (radius > 0 and n > 0):
        raise ValueError("radius and n must be positive")
    w = validate_weights(w, source.m)
    patch = source.window(spec.region(n))
    vol = spec.region(n).volume()
    x, col = patch.local(), patch.all_positions()[1]
    q = patch.all_exact()
    a, b, group, _, ts = _differences(x, q, x, q, radius)
    # scalar products: an array multiply can round w(x) conj(w(y)) differently
    table = np.array([[wi * np.conj(wj) for wj in w] for wi in w])
    coef = table[col[a], col[b]]
    # bincount adds each group's terms in pair order, as a running sum would
    sums = np.empty(len(ts), dtype=complex)
    sums.real = np.bincount(group, coef.real, len(ts))
    sums.imag = np.bincount(group, coef.imag, len(ts))
    return AutocorrelationMeasure(radius, "direct", n, ts, sums / vol)


def autocorr_from_frequencies(source, w, radius: float, spec: VanHoveSpec,
                              n: float) -> AutocorrelationMeasure:
    """c(t) = sum_{i,j} a_i conj(a_j) freq(two-point cluster at difference t).

    Differences are discovered on F_n; each (t, i, j) frequency is the
    translate count of the pair cluster (color-i point at 0, color-j
    point at -t) over F_n, volume-normalized.  The t = 0, i = j term uses
    the single-point frequency.  The (i, j) terms of one t are summed in
    (i, j) order, starting from the first (not from 0.0, which would turn a
    lone -0.0 into 0.0).
    """
    if not (radius > 0 and n > 0):
        raise ValueError("radius and n must be positive")
    w = validate_weights(w, source.m)
    patch = source.window(spec.region(n))
    vol = spec.region(n).volume()
    local = [patch.local(i) for i in range(patch.m)]
    exact = [patch.exact_positions(i) for i in range(patch.m)]
    blocks = []  # per (i, j): the differences' keys, their floats t and the terms
    for i in range(patch.m):
        for j in range(patch.m):
            *_, key, t = _differences(local[i], exact[i], local[j], exact[j], radius)
            counts = [len(local[i]) if abs(tf) <= TOL_EQ and i == j  # single-point frequency
                      else int(in_sorted(local[j], local[i] - tf).sum()) for tf in t.tolist()]
            blocks.append((key, t, w[i] * np.conj(w[j]) * (np.array(counts, dtype=float) / vol)))
    keys, ts, terms = (np.concatenate(parts) for parts in zip(*blocks))
    first, label = first_labels(keys)
    c = np.full(len(first), complex(-0.0, -0.0))  # -0.0 + x is x, bit for bit
    np.add.at(c, label, terms)  # in (i, j) order
    return AutocorrelationMeasure(radius, "from-frequencies", n, ts[first], c)


def write_autocorr_csv(measures, path):
    write_csv(path, ["t", "re_c", "im_c", "method"],
              [(t, c.real, c.imag, meas.method) for meas in measures for t, c in meas.items()])


# ---------------------------------------------------------------------------
# exponential sums and peak scan


def bragg_amplitude(source, w, k, spec: VanHoveSpec, n: float):
    """A_n(k) = (1/Vol F_n) sum over points of w(color) e^{-2 pi i k.x}.

    One k (a number in 1D, a length-d vector in d dimensions) gives a
    complex; an array of them, shape (K,) or (K, d), gives an array.
    """
    if not n > 0:
        raise ValueError("n must be positive")
    w = validate_weights(w, source.m)
    patch = source.window(spec.region(n))
    pos, col = patch.all_positions()
    k = np.asarray(k, dtype=float)
    single = k.ndim == (0 if source.dim == 1 else 1)
    ks = k.reshape(-1) if source.dim == 1 else k.reshape(-1, source.dim)
    amps = _amplitudes_grid(pos, w[col], ks, spec.region(n).volume())
    return complex(amps[0]) if single else amps


def _amplitudes_grid(pos, wvals, ks, vol):
    """A(k) for each k in ks ((K,) for 1D positions, (K, d) for (N, d) ones)."""
    return _tile_sums(ks, pos, wvals) / vol


def _tile_sums(ks, pos, rhs):
    """e(-k.x) @ rhs for each k, rhs (N,) or (N, M): phases in tiles of at most
    max(3, 2^15 // N) rows (0.5 MiB; the two halves of a split refinement
    hold one tile each at once) from one buffer, one BLAS product per tile.  A
    row's gemv bits are the same in any tile of two or more rows, but a one-row
    product takes numpy's other path: so no call of K >= 2 has a one-row tile."""
    tile = max(3, 2 ** 15 // max(len(pos), 1))
    starts = list(range(0, len(ks), tile))
    if len(ks) > 1 and len(ks) % tile == 1:
        starts[-1] -= 1
    buf = np.empty((min(tile, len(ks)), len(pos)), dtype=complex)
    out = np.empty((len(ks),) + rhs.shape[1:], dtype=complex)
    for s, e in zip(starts, starts[1:] + [len(ks)]):
        out[s:e] = _phases(ks[s:e], pos, buf[: e - s]) @ rhs
    return out


def _phases(ks, pos, out=None):
    """e(-k.x) per k and point, in out when given: the bits of np.exp(-2j*np.pi*kx),
    whose argument is +0 + (0 + fl(-2 pi kx))i, and exp(+0) = 1 exactly."""
    kx = np.multiply.outer(ks, pos) if pos.ndim == 1 else ks @ pos.T
    # contiguous, so numpy's vector loops run here: they also clear the AVX state
    # a BLAS gemm leaves behind, under which the complex exp runs ten times slower
    kx *= -2 * np.pi
    kx += 0.0  # -0.0 -> +0.0, as the complex product rounds it
    ph = np.empty(kx.shape, dtype=complex) if out is None else out
    ph.real, ph.imag = 0.0, kx
    return np.exp(ph, out=ph)


@dataclass
class PeakEntry:
    k: float
    amplitude: complex
    intensity: float
    n: float
    retained: bool


@dataclass
class DiffractionEstimate:
    entries: list
    k_range: tuple
    resolution: float
    n_schedule: list
    threshold: float
    drift_tol: float

    def retained(self):
        return [e for e in self.entries if e.retained]

    def to_csv(self, path):
        write_csv(path, ["k", "re_A", "im_A", "intensity", "n", "retained"],
                  [(e.k, e.amplitude.real, e.amplitude.imag, e.intensity, float(e.n),
                    int(e.retained)) for e in self.entries])


_INVPHI = (math.sqrt(5.0) - 1) / 2
_U = 2.0 ** -53  # the unit roundoff
_SLACK = 1 + 2.0 ** -20  # covers the O(N u^2) terms and the roundings of a bound itself


def _kernel_error(s1, sx, n, kappa, vol):
    """A bound on |fl(A(k)) - A(k)| for |k| <= kappa, where _tile_sums sums A over n
    points and divides by vol, S1 = sum|w| and Sx = sum|w||x|.

    To first order in u = 2^-53, vol |dA| gathers 6 pi u kappa Sx from the phases
    (the roundings of k.x, of 2 pi and of their product), 2u S1 from the sincos
    (1 ulp per component), 2 sqrt2 N u S1 from the gamma_2N sum with w (gemv) and
    u S1 from the division by vol: under 2u(3 pi kappa Sx + (sqrt2 N + 4) S1) / vol.
    """
    return 2 * _U * (3 * np.pi * kappa * sx + (math.sqrt(2) * n + 4) * s1) / vol


def _taylor_model(pos, wvals, vol, lo, hi):
    """(start, model): the rows of the brackets [lo, hi] that start on a Taylor model
    of |A|, and model(k, r) -> (|T(k)|, e), T the model of row r's bracket and e a
    bound on | |T(k)| - |fl(A(k))| | for the exact kernel's fl(A(k)).

    A global phase leaves |A| alone, so the model sums over y = x - x0 (x0 the
    middle of the points' range, Y = max|y|, t = y/Y).  Around a bracket's centre
    c, with z = -2 pi i (k - c) Y and G_p = sum w e(-c y) t^p / vol, the sum over
    y is the sum over p of z^p/p! G_p, and T(k) keeps its terms p < P: G takes
    one phase row per bracket and one GEMM, and T Horner's rule.  |G_p| <= S1/vol
    (|t| <= 1), so the terms from P on sum to at most
    tail = |z|^P/P! e^|z| S1/vol.  P is the least order with tail < u S1/vol at
    the largest |z| <= 2 pi half Y of a bracket; brackets whose |z| can pass 1
    start on the exact kernel.

    With Sy = sum|w||y|, kappa = |c| + half and |z| <= 1, to first order in u,
    vol |dT| gathers 2 pi u kappa Sy from y = fl(x - x0); 6 pi u |c| Sy + 2u S1
    from e(-c y), as in _kernel_error; 2p u |w| |t|^p from t = fl(y/Y), the p - 1
    products of its power and the product with w; 2 sqrt2 N u S1 from the GEMM
    and u S1 from the division by vol, per G_p; 4u|z| e^|z| S1 from z (k - c,
    2 pi and two products) through |dT/dz| <= e^|z| S1/vol; and 3u e^|z| S1 per
    Horner step (z/p, the product with it and the sum), carried on by factors
    |z|/p <= 1.  Weighted by the sums of |z|^p/p! (e^|z|) and of p |z|^p/p!
    (|z| e^|z|), that is under
        e_m = e^|z| (2u(pi (3|c| + kappa) Sy + (sqrt2 N + 2P + 3) S1) + |z|^P/P! S1) / vol.
    The exact kernel is within e_x = _kernel_error(kappa) of A, so e = e_x + e_m
    bounds the distance of the two moduli.
    """
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    y = pos - 0.5 * (pos.min() + pos.max()) if len(pos) else pos
    big_y = float(np.abs(y).max(initial=0.0))
    zmax = 2 * np.pi * half * big_y
    start = zmax <= 1.0
    if not start.any():
        return start, None
    z1 = float(zmax[start].max())
    order = 1
    while z1 ** order / math.factorial(order) * math.exp(z1) >= _U:
        order += 1
    aw = np.abs(wvals)
    s1, sx, sy, kappa = float(aw.sum()), float(aw @ np.abs(pos)), float(aw @ np.abs(y)), abs(centre) + half
    e_m = np.exp(zmax) * (2 * _U * (np.pi * (3 * abs(centre) + kappa) * sy
                                    + (math.sqrt(2) * len(pos) + 2 * order + 3) * s1)
                          + zmax ** order / math.factorial(order) * s1) / vol
    err = _kernel_error(s1, sx, len(pos), kappa, vol) + e_m
    t = y / big_y if big_y else y
    g = _tile_sums(centre, y, wvals[:, None] * np.vander(t, order, increasing=True)) / vol

    def model(k, r):
        s = -2 * np.pi * (k - centre[r]) * big_y  # z = i s
        acc = np.zeros(s.shape, dtype=complex)
        for p in range(order, 0, -1):
            acc = g[r, p - 1] + acc * (1j * (s / p))
        return np.abs(acc), err[r]
    return start, model


def _golden_refine(pos, wvals, vol, lo, hi):
    """Golden-section maximization of |A(k)|^2 on each row's [lo, hi] in 60 steps,
    every comparison fn(c) < fn(d) with the outcome it has on the exact kernel.

    A row starts on _taylor_model, and a comparison is certified while the model
    intensities m_c, m_d are more than D_c + D_d apart.  With a = |T(k)| (T the
    model) and e its bound, an intensity fl(|fl(A)|)^2 is within 5u of |fl(A)|^2
    (hypot within 1 ulp, then the square), so |m - fl(|fl(A)|)^2| <= e(2|T| + e)
    + 5u(|T|^2 + (|T| + e)^2) <= D = 2(a + e)e + 12u(a + e)^2.  From a row's first
    comparison the bound cannot decide on, its values come from
    _reusing_intensity, so each row keeps the bits the plain loop gives it.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    exact = _reusing_intensity(pos, wvals, vol, len(a))
    guess, model = _taylor_model(pos, wvals, vol, a, b)
    for _ in range(60):
        c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
        swap = np.zeros(len(a), dtype=bool)
        r = np.flatnonzero(guess)
        if r.size:
            amp, err = model(np.stack([c[r], d[r]]), r)
            dist = 2 * (amp + err) * err + 12 * _U * (amp + err) ** 2
            m = amp ** 2
            swap[r] = m[0] < m[1]
            guess[r[~(np.abs(m[0] - m[1]) > (dist[0] + dist[1]) * _SLACK)]] = False
        if not guess.all():
            fc, fd = exact((c, d), ~guess)
            swap[~guess] = (fc < fd)[~guess]
        a = np.where(swap, c, a)
        b = np.where(~swap, d, b)
    mid = 0.5 * (a + b)
    return mid, exact((mid,))[0]


def _reusing_intensity(pos, wvals, vol, rows):
    """fn(ks, on) = [np.abs(_amplitudes_grid(pos, wvals, k, vol)) ** 2 for k in ks] on
    the rows `on` (all by default; the others are undefined), bit for bit, each k
    `rows` long.  A row takes the value of the same k bits from an earlier k of
    the call or of the last six k, where that value was computed; _tile_sums sums
    the other rows of the call at once, with a second row when one row is new
    (from `on` where it can), or one k at a time when rows == 1, as one-k calls."""
    hist = deque(maxlen=6)  # (k, value, computed)

    def fn(ks, on=None):
        on = np.ones(rows, dtype=bool) if on is None else on
        work, copies = [], []
        for kk in ks:
            out, todo = np.empty(rows), on.copy()
            for k_old, v_old, known in hist:
                hit = todo & known & (k_old.view(np.int64) == kk.view(np.int64))
                copies.append((out, v_old, hit))
                todo &= ~hit
            known = on.copy()
            hist.append((kk, out, known))
            work.append((kk, out, todo, known))
        if rows > 1 and sum(int(todo.sum()) for *_, todo, _ in work) == 1:
            _, _, todo, known = next(w for w in work if w[2].any())
            free = np.flatnonzero(~todo)
            j = free[np.argmax(on[free])]  # a row of `on` where there is one
            todo[j] = known[j] = True
        new = [kk[todo] for kk, _, todo, _ in work]
        if rows > 1:
            sums = np.split(_tile_sums(np.concatenate(new), pos, wvals),
                            np.cumsum([len(k) for k in new])[:-1])
        else:
            sums = [_tile_sums(k, pos, wvals) for k in new]
        for (_, out, todo, _), s in zip(work, sums):
            out[todo] = np.abs(s / vol) ** 2
        for out, v_old, hit in copies:
            out[hit] = v_old[hit]
        return [out for _, out, _, _ in work]
    return fn


def _usable_cpus():
    """The number of CPUs this process may run on (its affinity mask, where the
    OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _refine_rows(pos, wvals, vol, lo, hi):
    """_golden_refine of |A(k)|^2 on each row's [lo, hi], as one call gives it.

    From 4 rows on, when the process may run on two CPUs, one worker thread
    refines the second half while this thread refines the first.  Each half has
    two or more rows, so every row keeps its bits (see _tile_sums).  The worker
    is always joined, and an exception it raised is raised here."""
    def refine(s, e):
        return _golden_refine(pos, wvals, vol, lo[s:e], hi[s:e])

    rows = len(lo)
    if rows < 4 or _usable_cpus() < 2:
        return refine(0, rows)
    mid, box = rows // 2, []

    def work():
        try:
            box.append(refine(mid, rows))
        except BaseException as exc:  # re-raised by the caller
            box.append(exc)
    worker = threading.Thread(target=work, name="peak_scan-refine")
    worker.start()
    try:
        first = refine(0, mid)
    finally:
        worker.join()
    if isinstance(box[0], BaseException):
        raise box[0]
    return tuple(np.concatenate(parts) for parts in zip(first, box[0]))


def _certified_argmax(approx, bound, exact_rows):
    """Row argmax of the exact values approx estimates within bound; rows whose
    top two are within 2 bound take it from exact_rows(row indices)."""
    best = np.argmax(approx, axis=1)
    unsure = np.flatnonzero(np.ptp(np.sort(approx, axis=1)[:, -2:], axis=1) <= 2 * bound)
    if unsure.size:
        best[unsure] = np.argmax(exact_rows(unsure), axis=1)
    return best


def _fine_argmax(pos, wvals, vol, cand, offs):
    """Row argmax over j of |A(fl(cand_i + offs_j))|^2, as _amplitudes_grid gives it.

    Factorized, |e(-c x) (W o e(-o x))^T|^2 / vol^2 (W with the shorter list), it
    takes one exp per (row, point) and per (offset, point).  With S1 = sum|w|,
    Sx = sum|w||x| and kappa >= |c| + |o|, each of the two sums, the factorized
    one and the one-call evaluation, is within _kernel_error(kappa) of A to first
    order (the roundings of c.x and o.x, and the one more sincos and product,
    take what the one-call k.x and gemv would), and k = fl(c + o) adds
    2 pi u kappa Sx / vol.  Doubled for the dropped O(N u^2) terms, that is
    E = 2 (2 _kernel_error(kappa) + 2 pi u kappa Sx / vol); with M = S1/vol + E,
    B = 2 M E + 10 u M^2 (|.|^2 twice).  A row whose top two are over 2B apart
    keeps its argmax; the others take theirs from the one-call evaluation.
    """
    aw = np.abs(wvals)
    s1, sx, kappa = float(aw.sum()), float(aw @ np.abs(pos)), abs(cand).max() + abs(offs).max()
    err = 2 * (2 * _kernel_error(s1, sx, len(pos), kappa, vol) + 2 * np.pi * _U * kappa * sx / vol)
    m = s1 / vol + err
    few, many = (cand, offs) if len(cand) < len(offs) else (offs, cand)
    approx = np.abs(_tile_sums(many, pos, (_phases(few, pos) * wvals).T) / vol) ** 2
    approx = approx.T if few is cand else approx
    return _certified_argmax(approx, 2 * m * err + 10 * _U * m * m, lambda rows: (np.abs(
        _amplitudes_grid(pos, wvals, (cand[rows][:, None] + offs).ravel(), vol)) ** 2).reshape(len(rows), -1))


def module_seed_candidates(source, k_lo: float, k_hi: float):
    """Fourier-module candidates (p + q tau)/sqrt(D), |p|, |q| <= 12, of the source's field."""
    f = getattr(source, "field", None)
    if f is None:
        return []
    ks = ((p + q * f.tau) / math.sqrt(f.disc) for p in range(-12, 13) for q in range(-12, 13))
    return sorted({round(k, 12) for k in ks if k_lo <= k <= k_hi})


def peak_scan(source, w, k_range, resolution: float, n_schedule,
              spec: VanHoveSpec = None) -> DiffractionEstimate:
    """Locate non-decaying Bragg candidates of the weighted comb.

    Coarse-scan |A_{n1}|^2 on a k grid; runs above threshold (empirical
    noise floor + THRESHOLD_BUMP/(Vol F_{n1})^2) yield local-max
    candidates, moved to the argmax of a fine grid (certified, see
    _fine_argmax) and refined by golden-section at n1 (its early comparisons
    certified from a Taylor model, the others exact, see _golden_refine; the
    rows split between this thread and one worker when the process may run
    on two CPUs, with the same bits; see _refine_rows); a candidate is retained
    only if its intensity never drops below (1 - DRIFT_TOL) of the
    previous schedule entry's value.  Sources with a quadratic field also
    seed candidates from their Fourier module.
    """
    if source.dim != 1:
        raise ValueError("peak_scan needs a 1D source")
    if len(n_schedule) < 2:
        raise ValueError("n_schedule needs at least two entries")
    if any(b <= a for a, b in zip(n_schedule, n_schedule[1:])):
        raise ValueError("n_schedule must be increasing")
    if not n_schedule[0] > 0:
        raise ValueError("n_schedule entries must be positive")
    k_lo, k_hi = float(k_range[0]), float(k_range[1])
    if not (resolution > 0 and k_lo < k_hi):
        raise ValueError("peak_scan needs resolution > 0 and k_min < k_max")
    if not all(math.isfinite(v) for v in (k_lo, k_hi, resolution)):
        raise ValueError("peak_scan needs finite k_min, k_max and resolution")
    if spec is None:
        spec = VanHoveSpec()
    w = validate_weights(w, source.m)
    n1 = n_schedule[0]
    patch1 = source.window(spec.region(n1))
    vol1 = spec.region(n1).volume()
    pos1, col1 = patch1.all_positions()
    wv1 = w[col1]
    ks = np.arange(k_lo, k_hi + resolution / 2, resolution)
    inten = np.abs(_amplitudes_grid(pos1, wv1, ks, vol1)) ** 2
    noise = float(np.median(inten))
    threshold = noise + THRESHOLD_BUMP / vol1 ** 2

    padded = np.concatenate([[-1.0], inten, [-1.0]])
    local_max = (inten > threshold) & (inten >= padded[:-2]) & (inten >= padded[2:])
    cand = list(ks[local_max]) + module_seed_candidates(source, k_lo, k_hi)
    if not cand:
        return DiffractionEstimate([], (k_lo, k_hi), resolution, list(n_schedule),
                                   threshold, DRIFT_TOL)
    cand = np.array(sorted(cand))

    # peaks at n1 have width ~ 1/(2 n1); locate the main lobe on a fine grid
    # first (|A|^2 is not unimodal across a coarse-resolution bracket), then
    # golden-section inside one fine step
    fine_step = 0.25 / (2.0 * n1)
    offs = np.arange(-resolution, resolution + fine_step / 2, fine_step)
    k0 = cand + offs[_fine_argmax(pos1, wv1, vol1, cand, offs)]
    k_star, i_star = _refine_rows(pos1, wv1, vol1, k0 - fine_step, k0 + fine_step)

    # dedupe refined candidates within half a grid step, ascending in k
    uniq = []
    for idx in np.argsort(k_star):
        if uniq and k_star[idx] - k_star[uniq[-1]] < resolution / 2:
            if i_star[idx] > i_star[uniq[-1]]:
                uniq[-1] = idx
            continue
        uniq.append(idx)
    uniq_k, prev = k_star[uniq], i_star[uniq]
    keep = prev > threshold
    for n in n_schedule[1:]:
        amps = bragg_amplitude(source, w, uniq_k, spec, n)
        inten_n = np.abs(amps) ** 2
        keep &= inten_n >= (1.0 - DRIFT_TOL) * prev
        prev = inten_n
    entries = [PeakEntry(k=float(k), amplitude=complex(a), intensity=float(abs(a) ** 2),
                         n=n_schedule[-1], retained=bool(r))
               for k, a, r in zip(uniq_k, amps, keep)]
    return DiffractionEstimate(entries, (k_lo, k_hi), resolution, list(n_schedule),
                               threshold, DRIFT_TOL)


# ---------------------------------------------------------------------------
# the smoothing kernel


class SmoothingKernel:
    """The triangle omega(x) = max(0, 1 - |x|/s) on [-s, s]: the continuous,
    compactly supported kernel of the smoothed measures, with a closed-form
    Fourier transform."""

    shape = "triangle"

    def __init__(self, s: float):
        self.s = float(s)
        if not 0.0 < self.s < math.inf:
            raise ValueError("support radius s must be positive and finite")

    def __call__(self, x):
        t = np.array(x, dtype=float)  # a copy, then in place: x is never written
        np.abs(t, out=t)
        t /= self.s
        np.subtract(1.0, t, out=t)
        return np.clip(t, 0.0, None, out=t)[()]

    def fourier(self, k):
        """omega-hat(k) = integral of omega(x) e^{-2 pi i k x} dx = s sinc^2(k s)."""
        k = np.asarray(k, dtype=float)
        return self.s * np.sinc(k * self.s) ** 2  # np.sinc(x) = sin(pi x)/(pi x)

    def autocorr(self, u):
        """(omega * omega~)(u) = s B(|u|/s), B the centred cubic B-spline (the unit
        triangle is the unit box convolved with itself): B(r) = 2/3 - r^2 + r^3/2
        on [0, 1], (2 - r)^3/6 on [1, 2] and 0 past 2."""
        r = np.abs(np.atleast_1d(np.asarray(u, dtype=float))) / self.s
        inner = 2.0 / 3.0 - r ** 2 + r ** 3 / 2.0
        outer = np.clip(2.0 - r, 0.0, None) ** 3 / 6.0
        return self.s * np.where(r <= 1.0, inner, outer)


# ---------------------------------------------------------------------------
# the smoothed autocorrelation and the Dworkin check


def smoothed_autocorr_profile(autocorr: AutocorrelationMeasure, kernel: SmoothingKernel, xs):
    """Real-space gamma_omega(x) = sum_t c(t) (omega * omega~)(x - t)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    w = kernel.s
    if np.max(np.abs(xs)) + 2 * w > autocorr.radius + TOL_EQ:
        raise ValueError("kernel support exceeds the autocorrelation radius at the "
                         "requested x range")
    ts, cs = autocorr.t, autocorr.c
    j, i = within(ts, xs - 2 * w - TOL_EQ, xs + 2 * w + TOL_EQ)
    rel = xs[j] - ts[i]
    near = np.abs(rel) < 2 * w
    j, terms = j[near], cs[i[near]] * kernel.autocorr(rel[near])
    out = np.empty(len(xs), dtype=complex)
    out.real = np.bincount(j, terms.real, len(xs))
    out.imag = np.bincount(j, terms.imag, len(xs))
    return out


@dataclass
class DworkinRow:
    x: float
    lhs: float
    rhs: float
    abs_diff: float
    rel_diff: float


@dataclass
class SpectralCheckReport:
    rows: list
    kernel: str
    n: float

    def max_rel_diff(self) -> float:
        return max((r.rel_diff for r in self.rows), default=0.0)


def smoothed_density(source, w, kernel: SmoothingKernel, grid: np.ndarray) -> np.ndarray:
    """rho_omega(y) = sum_points w(color) omega(y - point) on a grid (source or covering patch),
    one running sum per grid point in point order, over tiles of about 2^16 terms."""
    w = validate_weights(w, source.m)
    hw, step = kernel.s, grid[1] - grid[0]
    patch = source if isinstance(source, MultiSetPatch) else \
        source.window(Interval(float(grid[0]) - hw - 1.0, float(grid[-1]) + hw + 1.0))
    pos, col = patch.colour_major()  # the order the sum adds in
    rows = max(1, 2 ** 16 // int(2 * (hw + step) / step + 2))  # points a tile
    rho = np.zeros(len(grid), dtype=complex)
    for s in range(0, len(pos), rows):
        p, g = within(grid, pos[s: s + rows] - hw - step, pos[s: s + rows] + hw + step)
        np.add.at(rho, g, w[col[s + p]] * kernel(grid[g] - pos[s + p]))  # in pair order
    return rho


def dworkin_report(source, w, kernel: SmoothingKernel, xs, spec: VanHoveSpec,
                   n: float) -> SpectralCheckReport:
    """Spectral check rows over sampled shifts x.

    lhs: midpoint quadrature of (1/Vol F_n) int_{F_n} rho(x+y) conj(rho(y)) dy,
    summed as w_p omega((y + x) - p) conj(rho(y)) over points p and a block of
    grid points y per p (past the grid's end y = inf, where omega is 0): the
    kernel values of rho(x + y) bit for bit, added in another order.
    rhs: gamma_omega(x) from one frequency-route autocorrelation measure
    shared by all rows.
    """
    xs = [float(x) for x in xs]
    radius = max(abs(x) for x in xs) + 2 * kernel.s + 1.0
    ac = autocorr_from_frequencies(source, w, radius, spec, n)
    quad_step = 2 * kernel.s / 40.0  # = s/20
    reach = kernel.s + quad_step
    block = np.arange(int(2 * reach / quad_step) + 2)  # past every grid point within reach
    grid = np.concatenate([np.arange(-n + quad_step / 2, n, quad_step), np.full(len(block), np.inf)])
    patch = source.window(Interval(-n - radius, n + radius))  # every shifted grid's reach
    rho = smoothed_density(patch, w, kernel, grid)  # 0 at y = inf
    np.conj(rho, out=rho)
    pos, col = patch.colour_major()
    wp = validate_weights(w, source.m)[col]
    rows = []
    for x, rhs in zip(xs, smoothed_autocorr_profile(ac, kernel, xs)):
        g = np.searchsorted(grid, pos - x - reach)[:, None] + block
        sums = np.einsum("pk,pk->p", kernel((grid[g] + x) - pos[:, None]), rho[g])
        lhs = complex(wp @ sums) * quad_step / (2.0 * n)
        abs_diff = abs(lhs - rhs)
        rows.append(DworkinRow(x, float(np.real(lhs)), float(np.real(rhs)), float(abs_diff),
                               float(abs_diff / max(abs(rhs), 1e-300))))
    return SpectralCheckReport(rows=rows, kernel=kernel.shape, n=n)
