import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pointspec.coords import GOLDEN, SILVER, QuadArray, QuadField, QuadNum, coord_key

from oracles import coord_eq, scalar_sign


def q(a, b):
    return QuadNum(a, b, GOLDEN)


def test_golden_satisfies_defining_equation():
    tau = q(0, 1)
    assert tau * tau == tau + q(1, 0)


def test_arithmetic_and_float_value():
    x = q(2, -1)
    y = q(-1, 3)
    assert (x + y) == q(1, 2)
    assert (x - y) == q(3, -4)
    prod = x * y
    assert abs(float(prod) - float(x) * float(y)) < 1e-9


def test_exact_ordering_is_decided_exactly():
    # 13 - 8*tau is small (~0.056) but positive; float noise cannot flip it
    assert q(13, -8) > 0
    assert q(-13, 8) < 0
    assert not (q(13, -8) == 0)


def test_sign_against_rational_comparisons():
    tau = q(0, 1)
    assert tau > Fraction(8, 5)
    assert tau < Fraction(13, 8)
    assert tau > 1.618033
    assert tau < 1.6180340


def test_conjugate():
    x = q(3, 2)
    c = x.conj()
    # conj(tau) = 1 - tau for the golden field
    assert c == q(3 + 2, -2)
    s = x + c
    assert s.b == 0  # trace is rational


def test_hash_agrees_with_int():
    assert hash(q(5, 0)) == hash(5)
    assert q(5, 0) == 5
    d = {q(5, 0): "a"}
    assert coord_key(q(5, 0)) == coord_key(5)


def test_coord_eq_tolerance():
    assert coord_eq(1.0, 1.0 + 5e-10)
    assert not coord_eq(1.0, 1.0 + 5e-9)
    assert coord_eq(q(1, 1), q(1, 1))
    assert not coord_eq(q(1, 1), q(1, 2))


def test_division_by_rational():
    x = q(3, 6) / 3
    assert x == q(1, 2)


def test_mixed_field_rejected():
    with pytest.raises(ValueError):
        QuadNum(1, 1, GOLDEN) + QuadNum(1, 1, SILVER)


def test_square_discriminant_rejected():
    QuadField("ok", 3, 1)  # disc = 13, fine
    with pytest.raises(ValueError):
        QuadField("square", 0, 1)  # disc = 4: tau would be rational
    with pytest.raises(ValueError):
        QuadField("negative", 0, -1)


def test_fraction_coefficients():
    x = QuadNum(Fraction(1, 2), Fraction(1, 3), GOLDEN)
    y = x * 6
    assert y == q(3, 2)


def _values(x):
    return [x.value(k) for k in range(len(x.a))]


def test_quad_array_difference_aligns_denominators_and_needs_one_field():
    a = QuadArray([3, 5, -7], [1, -2, 0], 2, GOLDEN)
    for b in (QuadArray([1, 6, 1], [1, 1, 4], 2, GOLDEN), QuadArray([1, 6, 1], [1, 1, 4], 3, GOLDEN),
              QuadArray([1, 6, 1], [1, 1, 4], 1, GOLDEN)):
        d = a - b
        assert d.den == math.lcm(a.den, b.den) and d.field == GOLDEN
        assert _values(d) == [x - y for x, y in zip(_values(a), _values(b))]
    assert (a - a[1]).a.tolist() == [-2, 0, -12]  # one entry broadcasts
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        a - QuadArray([1, 6, 1], [1, 1, 4], 2, SILVER)
    r = QuadArray([1, 6, 1], [0, 0, 0], 3)  # rationals minus golden numbers are golden
    assert (r - a).field == GOLDEN and _values(r - a) == [x - y for x, y in zip(_values(r), _values(a))]
    with pytest.raises(ValueError, match="int64"):  # rescaled numerators are checked
        QuadArray([2 ** 52], [0]) - QuadArray([1], [0], 3)


def _near_ties(field, bs):
    """(a, b) with a next to -b*tau: a + b*tau within 1 of 0, so only u^2 - D v^2 decides."""
    out = []
    for b in bs:  # floor(b*tau) = floor((p*b + sqrt(D b^2))/2), exactly
        r = math.isqrt(field.disc * b * b)
        top = (field.p * b + (r if b > 0 else -r - 1)) // 2
        out += [(-top + d, b) for d in (-1, 0, 1, 2)]
    return out


@pytest.mark.parametrize("field", [GOLDEN, SILVER])
def test_signs_match_the_scalar_reference(field):
    rng = random.Random(field.disc)
    big = [(rng.randint(-2 ** 80, 2 ** 80), rng.randint(-2 ** 80, 2 ** 80)) for _ in range(200)]
    near = _near_ties(field, [rng.randint(-2 ** 80, 2 ** 80) for _ in range(50)] + [1, -1, 2 ** 40])
    fractions = [(Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 6)),
                  Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 6))) for _ in range(100)]
    zeros = [(0, 0), (0, 5), (0, -2 ** 70), (-3, 0), (2 ** 70, 0), (Fraction(0), Fraction(-1, 3))]
    for pairs in (big, near, fractions, zeros):
        want = [scalar_sign(field, a, b) for a, b in pairs]
        a, b = (np.array(c, dtype=object) for c in zip(*pairs))
        assert field.signs(a, b).tolist() == want
        assert [field.sign(a, b) for a, b in pairs] == want
    assert {scalar_sign(field, a, b) for a, b in near} == {-1, 1}  # near-ties of both signs
    assert max(abs(2 * a + field.p * b) for a, b in big) > 2 ** 63  # squares far past int64
    assert field.signs(np.array([], dtype=object), np.array([], dtype=object)).tolist() == []


@pytest.mark.parametrize("field", [GOLDEN, SILVER, None])
def test_compare_is_zero_on_exact_ties_and_exact_past_int64(field):
    rng = random.Random(3)
    n = 60
    q = QuadArray([rng.randint(-10 ** 15, 10 ** 15) for _ in range(n)],
                  [0] * n if field is None else [rng.randint(-10 ** 15, 10 ** 15) for _ in range(n)], 6, field)
    eps = Fraction(1, 10 ** 9)  # an end -+ TOL_EQ at 1e15: numerators near 1e24
    for k in range(0, n, 7):
        v = q.value(k)
        for c in (v, v + eps, v - eps, v + Fraction(1, 7)):
            diffs = [x - c for x in _values(q)]
            want = [scalar_sign(field or GOLDEN, *((d.a, d.b) if field else (d, 0))) for d in diffs]
            assert q.compare(c).tolist() == want
        assert (q.compare(v)[k], q.compare(v + eps)[k], q.compare(v - eps)[k]) == (0, -1, 1)
