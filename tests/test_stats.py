import math

import numpy as np
import pytest

from pointspec.coords import GOLDEN, QuadNum
from pointspec.geometry import Box, Cluster, Interval, cluster_1d
from pointspec.hull import CylinderSpec, empirical_cylinder_measure
from pointspec.sources import TranslatedSource, fibonacci_cut_project, integer_lattice
from pointspec.stats import VanHoveSpec, _count_in_patch, default_offsets, estimate_frequency

from oracles import exact_occurrence_count, fibonacci_classes, fibonacci_domain, van_hove_region


def count_cluster(source, P, region) -> int:
    """L_P(A): the translates x with x + P inside A ∩ Λ, counted on the window of A."""
    return _count_in_patch(source.window(region), P)


# ---------------------------------------------------------------------------
# van Hove diagnostics


def test_van_hove_1d():
    region, ratios, K = van_hove_region(VanHoveSpec(dim=1), 100, rs=(1.0,))
    assert ratios[1.0] == pytest.approx(0.02)
    assert K == 2.0
    assert region.volume() == 200.0


def test_van_hove_2d():
    _, ratios, K = van_hove_region(VanHoveSpec(dim=2), 10, rs=(1.0,))
    assert ratios[1.0] == pytest.approx((22 ** 2 - 18 ** 2) / 20 ** 2)
    assert K == 4.0


def test_van_hove_ratio_vanishes_along_schedule():
    spec = VanHoveSpec(n0=125, doublings=4)
    for r in (1.0, 10.0):
        vals = [van_hove_region(spec, n, rs=(r,))[1][r] for n in spec.schedule()]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.05 * r


@pytest.mark.parametrize("kw", [{"n0": 0}, {"n0": -5}, {"n0": float("nan")}, {"doublings": -1},
                                {"dim": 0}])
def test_van_hove_spec_rejects_schedules_that_average_nothing(kw):
    with pytest.raises(ValueError, match="van Hove schedule"):
        VanHoveSpec(**kw)


# ---------------------------------------------------------------------------
# counting


def test_count_examples():
    z = integer_lattice()
    assert count_cluster(z, cluster_1d([0.0]), Interval(0, 10)) == 11
    assert count_cluster(z, cluster_1d([0.0, 1.0]), Interval(0, 10)) == 10
    assert count_cluster(z, cluster_1d([0.0, 0.5]), Interval(0, 10)) == 0


def test_count_2d():
    from pointspec.sources import LatticeSource
    from pointspec.geometry import Cluster

    z2 = LatticeSource([[1.0, 0.0], [0.0, 1.0]])
    P = Cluster([[(0.0, 0.0), (1.0, 0.0)]], dim=2)
    assert count_cluster(z2, P, Box((0.0, 0.0), (3.0, 3.0))) == 12


def test_count_2d_does_not_skip_points_near_the_anchor():
    from pointspec.sources import LatticeSource
    from pointspec.geometry import Cluster

    z2 = LatticeSource([[1.0, 0.0], [0.0, 1.0]])
    box = Box((990.0, 990.0), (1010.0, 1010.0))
    near = Cluster([[(1000.0, 1000.0), (1000.0, 1000.005)]], dim=2)
    assert count_cluster(z2, near, box) == 0  # 1000.005 is 5e-3 off the lattice
    unit = Cluster([[(1000.0, 1000.0), (1000.0, 1001.0)]], dim=2)
    assert count_cluster(z2, unit, box) == 21 * 20


def test_count_translation_covariance():
    fib = fibonacci_cut_project()
    P = cluster_1d([0.0, 1.0], [])
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = float(rng.uniform(-20, 20))
        A = Interval(3.0, 40.0)
        moved = Interval(3.0 - x, 40.0 - x)
        assert count_cluster(fib, P, A) == count_cluster(TranslatedSource(fib, x), P, moved)


def test_count_subadditivity_and_separated_equality():
    fib = fibonacci_cut_project()
    P = cluster_1d([0.0, 1.0], [])
    a = count_cluster(fib, P, Interval(0, 30))
    b = count_cluster(fib, P, Interval(20, 50))
    u = count_cluster(fib, P, Interval(0, 50))
    assert u <= a + b
    c = count_cluster(fib, P, Interval(60, 90))
    u2 = count_cluster(fib, P, Interval(0, 30))
    # separated regions (gap > diam supp P): counts add over the union
    assert count_cluster(fib, P, Interval(0, 90)) >= u2 + c


@pytest.mark.parametrize("h", [0, 10**4, 10**6, 10**8, 10**10, 10**12])
def test_counts_at_far_offsets_are_the_exact_ones(h):
    # the window at h and the source moved by the float h hold one point set:
    # both count what exact keys count, and estimate_frequency reads it on
    # the source moved by the float h and by the exact h alike
    fib = fibonacci_cut_project()
    P = Cluster([[0, QuadNum(0, 1, GOLDEN)], []])
    direct = fib.window(Interval(h - 500, h + 500))
    want = exact_occurrence_count(direct, P)
    assert want > 150
    assert len(direct.occurrence_index(P)) == want
    assert len(TranslatedSource(fib, float(h)).window(Interval(-500, 500)).occurrence_index(P)) == want
    spec = VanHoveSpec(n0=500, doublings=0)
    assert [estimate_frequency(TranslatedSource(fib, s), P, spec, [(0.0,)]).value
            for s in (float(h), h)] == [want / 1000] * 2


def test_lattice_moved_far_counts_as_moved_near():
    z, P, spec = integer_lattice(), cluster_1d([0.0, 1.0]), VanHoveSpec(n0=500, doublings=0)
    counts = [[count_cluster(TranslatedSource(z, h), P, Interval(-500, 500)),
               estimate_frequency(TranslatedSource(z, h), P, spec, [(0.0,)]).value] for h in (0.1, 1e8 + 0.1)]
    assert counts[0] == counts[1] == [999, 0.999]


# ---------------------------------------------------------------------------
# frequency estimation


def test_lattice_frequency_exact_ratios():
    z = integer_lattice()
    spec = VanHoveSpec(n0=125, doublings=3)
    est = estimate_frequency(z, cluster_1d([0.0]), spec, [(0.0,)])
    for n, v in est.per_n:
        assert v == pytest.approx((2 * n + 1) / (2 * n))
    est2 = estimate_frequency(z, cluster_1d([0.0, 1.0]), spec, [(0.0,)])
    assert est2.value == pytest.approx(1.0, abs=1e-3)


def test_periodic_offsets_give_identical_ratios():
    z = integer_lattice()
    spec = VanHoveSpec(n0=125, doublings=1)
    est = estimate_frequency(z, cluster_1d([0.0]), spec, [(0.3,), (1.3,), (5.3,)])
    vals = [r for _, r in est.per_offset]
    assert vals[0] == vals[1] == vals[2]


def test_freq_prime_is_offsets_zero():
    fib = fibonacci_cut_project()
    spec = VanHoveSpec(n0=250, doublings=2)
    est = estimate_frequency(fib, cluster_1d([0.0], []), spec, [(0.0,)])
    assert est.uniformity_gap == 0.0
    assert est.value == pytest.approx(1 / 5 ** 0.5, abs=5e-3)  # color-a density


def test_default_offsets_in_2d_pair_the_base_2_and_base_3_sequences():
    want = [(1 / 2, 1 / 3), (1 / 4, 2 / 3), (3 / 4, 1 / 9), (1 / 8, 4 / 9), (5 / 8, 7 / 9)]
    offsets = default_offsets(5, 8.0, dim=2)
    assert all(type(c) is float for o in offsets for c in o)
    assert offsets == [pytest.approx((8.0 * x, 8.0 * y), abs=1e-12) for x, y in want]


def test_default_offsets_in_3d_add_the_base_5_sequence():
    # each axis takes the next prime base; 1D and 2D keep their values
    want = [(1 / 2, 1 / 3, 1 / 5), (1 / 4, 2 / 3, 2 / 5), (3 / 4, 1 / 9, 3 / 5), (1 / 8, 4 / 9, 4 / 5),
            (5 / 8, 7 / 9, 1 / 25)]
    offsets = default_offsets(5, 8.0, dim=3)
    assert all(len(o) == 3 and type(c) is float for o in offsets for c in o)
    assert offsets == [pytest.approx(tuple(8.0 * c for c in w), abs=1e-12) for w in want]
    assert [o[:2] for o in offsets] == default_offsets(5, 8.0, dim=2)
    assert [o[:1] for o in offsets] == default_offsets(5, 8.0)


def test_fibonacci_class_frequencies_are_their_acceptance_domains():
    """estimate_frequency of each R = 3 class against |D|/sqrt5 = dens |D|/|W|
    (dens = tau/sqrt5), D its occurrence domain; D is the class's piece of W
    when one piece holds the class.

    The tolerance, from F_n = [-n, n]: the N points in F_n have u = x* on a
    rotation by 1/tau of W, whose discrepancy is at most log_tau(N) + 3
    (Ostrowski, all partial quotients 1), twice that for an interval D not
    at 0; translates whose cluster (span s) leaves F_n drop at most s + 1
    counts (points lie at least 1 apart); and |N - 2n dens| <= 4, as the
    tile counts of Fibonacci words are balanced.  Over Vol F_n = 2n."""
    fib, spec = fibonacci_cut_project(), VanHoveSpec(n0=500, doublings=3)
    n = spec.schedule()[-1]
    N = fib.window(spec.region(n)).total_points
    one_piece = 0
    for P, length in fibonacci_classes(3):
        D = fibonacci_domain(P)
        one_piece += D == length
        assert D <= length  # a pattern met from two centres has two pieces, one domain
        span = float(np.ptp(P.colour_major()[0]))
        tol = (2 * (math.log(N, GOLDEN.tau) + 3) + span + 1 + 4) / (2 * n)
        assert abs(estimate_frequency(fib, P, spec, [(0.0,)]).value - float(D) / math.sqrt(5)) <= tol
    assert one_piece == 4


def test_fibonacci_cylinder_measure_is_its_acceptance_window():
    """Criterion 5's Fibonacci cylinder measure against the exact Vol(V) |W_a|/sqrt5
    (|W_a| = 1, colour a's density), not a point count, at the check's n.

    The tolerance, from F_n = [-n, n]: the colour-a points (the left ends of
    the tiles of length tau) in F_n number N_a, and the N tiles starting in F_n
    cover N_a tau + (N - N_a) = 2n + theta with |theta| < tau.  The Fibonacci
    word is Sturmian, so balanced: N_a = N/tau + beta with |beta| < 1.  Hence
    N_a = (2n + theta - beta/tau)/sqrt5 + beta, within (tau + 1/tau)/sqrt5 + 1 = 2
    of 2n/sqrt5.  J differs from Vol(V) N_a by less than Vol(V): points lie at
    least 1 apart, so one translate at most is cut at each end of F_n.  Over
    Vol F_n = 2n."""
    fib, n, V = fibonacci_cut_project(), 1000, Interval(0.0, 0.1, True, False)
    w_a = fib.spec.windows[0]
    exact = V.volume() * float(w_a.hi - w_a.lo) / math.sqrt(5)
    m, _, _ = empirical_cylinder_measure(fib, CylinderSpec(cluster_1d([0.0], []), V), n)
    assert abs(m - exact) <= 2e-3  # criterion 5's tolerance
    assert abs(m - exact) <= 3 * V.volume() / (2 * n)


def test_default_offsets_reject_a_negative_count():
    assert default_offsets(0, 8.0) == []
    with pytest.raises(ValueError, match="number of probe offsets must be >= 0"):
        default_offsets(-1, 8.0)


def test_uniformity_gap_probes_offsets():
    fib = fibonacci_cut_project()
    spec = VanHoveSpec(n0=125, doublings=2)
    est = estimate_frequency(fib, cluster_1d([0.0], []), spec, default_offsets(20, 10.0))
    assert est.uniformity_gap < 5e-3
    assert est.cauchy_gap < 5e-3


# ---------------------------------------------------------------------------
# boundary sandwich for cylinder integrals


def test_boundary_sandwich():
    fib = fibonacci_cut_project()
    P = cluster_1d([0.0, 1.0], [])
    V = Interval(0.0, 0.4, True, False)
    r = 0.4 + 1.0  # max |V| + max |supp P|
    n = 500
    for h in (0.0, 7.3, -12.9):
        _, J, _ = empirical_cylinder_measure(fib, CylinderSpec(P, V), n, offset=h)
        lo_region = Interval(h - (n - r), h + (n - r))
        hi_region = Interval(h - (n + r), h + (n + r))
        lower = V.volume() * count_cluster(fib, P, lo_region)
        upper = V.volume() * count_cluster(fib, P, hi_region)
        assert lower - 1e-9 <= J <= upper + 1e-9


def test_frequency_rows_are_the_count_table():
    fib = fibonacci_cut_project()
    spec = VanHoveSpec(n0=125, doublings=2)
    P = cluster_1d([0.0], [])
    offs = default_offsets(8, 10.0)
    est = estimate_frequency(fib, P, spec, offs)
    schedule = spec.schedule()
    assert [(n, off) for n, off, _, _ in est.rows] == [(n, o) for n in schedule for o in offs]
    for n, off, count, ratio in est.rows:
        assert count == count_cluster(fib, P, spec.region(n).translate(off))
        assert ratio == count / spec.region(n).volume()
    table = [[r for _, _, _, r in est.rows[i * len(offs):(i + 1) * len(offs)]]
             for i in range(len(schedule))]
    assert est.per_n == [(n, float(np.mean(rs))) for n, rs in zip(schedule, table)]
    assert est.per_offset == list(zip(offs, table[-1]))
    assert est.value == est.per_n[-1][1]
    assert est.uniformity_gap == max(abs(r - est.value) for r in table[-1])
