"""Van Hove averaging regions, cluster counting, and frequency estimation.

freq(P) and the single-orbit freq'(P) share one estimator; they differ
only in the offset set (freq' is offsets = [0]).  Counting is exact
integer work on float positions with the global tolerance; at desk scale
all bundled sources keep distinct coordinates far above TOL_EQ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import Box, Cluster, Interval
from .output import write_csv


@dataclass
class VanHoveSpec:
    """Centered closed cubes F_n = [-n, n]^d on a geometric schedule.

    Vol(F_n - F_n) = 2^d Vol(F_n), so K = 2^d works in the difference-set
    condition, and the union of the schedule exhausts R^d.
    """

    n0: float = 125.0
    doublings: int = 4
    dim: int = 1

    def __post_init__(self):
        if not (self.n0 > 0 and self.doublings >= 0 and self.dim >= 1):
            raise ValueError("van Hove schedule needs n0 > 0, doublings >= 0 and dim >= 1")

    def schedule(self):
        return [self.n0 * 2 ** k for k in range(self.doublings + 1)]

    @property
    def K(self) -> float:
        return 2.0 ** self.dim

    def region(self, n: float):
        if self.dim == 1:
            return Interval(-n, n)
        return Box((-n,) * self.dim, (n,) * self.dim)


# ---------------------------------------------------------------------------
# counting


def _count_in_patch(patch, P: Cluster) -> int:
    """L_P over one patch: translates v with v + P inside the patch."""
    return len(patch.occurrence_index(P))


# ---------------------------------------------------------------------------
# frequency estimation


@dataclass
class FrequencyEstimate:
    cluster: Cluster
    per_n: list          # [(n, mean ratio over offsets)]
    per_offset: list     # [(offset, ratio)] at the largest n
    value: float         # point estimate at the largest n
    uniformity_gap: float
    cauchy_gap: float
    rows: list           # [(n, offset, count, ratio)], n-major

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "uniformity_gap": self.uniformity_gap,
            "cauchy_gap": self.cauchy_gap,
            "per_n": [[n, v] for n, v in self.per_n],
        }


def halton(count: int, base: int = 2) -> np.ndarray:
    """Van der Corput / Halton low-discrepancy points in [0, 1), from index 1."""
    out = np.empty(count)
    for k in range(count):
        i, f, x = 1 + k, 1.0, 0.0
        while i > 0:
            f /= base
            x += f * (i % base)
            i //= base
        out[k] = x
    return out


def default_offsets(count: int, span: float, dim: int = 1):
    """Low-discrepancy probe offsets in [0, span]^d: per axis the Halton
    sequence of the next prime base, 2, 3, 5, ..."""
    if count < 0:
        raise ValueError("the number of probe offsets must be >= 0, not %r" % (count,))
    primes = (b for b in itertools.count(2) if all(b % k for k in range(2, b)))
    return list(zip(*(map(float, halton(count, b) * span) for b in itertools.islice(primes, dim))))


def estimate_frequency(source, P: Cluster, spec: VanHoveSpec, offsets) -> FrequencyEstimate:
    """Per-offset, per-n counting ratios L_P(x + F_n)/Vol(F_n).

    The point estimate is the offset average at the largest n; the
    uniformity gap (max offset deviation) is the finite UCF diagnostic.
    Use offsets=[(0,)] for the single-orbit estimator freq'.
    """
    if not offsets:
        raise ValueError("offsets must be nonempty (use [(0,)] for freq')")
    offsets = [o if isinstance(o, (tuple, list)) else (o,) for o in offsets]
    schedule = spec.schedule()
    span = max(max(abs(float(c)) for c in o) for o in offsets)
    reach = float(np.abs(P.colour_major()[0]).max(initial=0.0))
    patch = source.window(spec.region(schedule[-1] + span + reach + 1.0))
    counts = np.array([[_count_in_patch(patch.restrict(spec.region(n).translate(off)), P)
                        for off in offsets] for n in schedule])
    ratios = counts / np.array([[spec.region(n).volume()] for n in schedule])
    per_n = [(n, float(np.mean(r))) for n, r in zip(schedule, ratios)]
    value = per_n[-1][1]
    return FrequencyEstimate(
        cluster=P,
        per_n=per_n,
        per_offset=[(off, float(r)) for off, r in zip(offsets, ratios[-1])],
        value=value,
        uniformity_gap=float(np.abs(ratios[-1] - value).max()),
        cauchy_gap=abs(per_n[-1][1] - per_n[-2][1]) if len(per_n) >= 2 else 0.0,
        rows=[(n, off, int(c), float(r)) for n, cs, rs in zip(schedule, counts, ratios)
              for off, c, r in zip(offsets, cs, rs)],
    )


def write_frequency_csv(est: FrequencyEstimate, path):
    write_csv(path, ["n", "offset", "count", "ratio"],
              [(float(n), ";".join("%.17g" % float(x) for x in off), c, ratio)
               for n, off, c, ratio in est.rows])
