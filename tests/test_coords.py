from fractions import Fraction

import pytest

from pointspec.coords import GOLDEN, SILVER, QuadArray, QuadField, QuadNum, coord_key

from oracles import coord_eq


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


def test_quad_array_difference_needs_one_denominator_and_field():
    a = QuadArray([3, 5, -7], [1, -2, 0], 2, GOLDEN)
    b = QuadArray([1, 6, 1], [1, 1, 4], 2, GOLDEN)
    d = a - b
    assert [d.value(k) for k in range(3)] == [a.value(k) - b.value(k) for k in range(3)]
    assert (a - b[1]).a.tolist() == [-3, -1, -13]  # one entry broadcasts
    for other in (QuadArray([1, 6, 1], [1, 1, 4], 1, GOLDEN), QuadArray([1, 6, 1], [1, 1, 4], 2, SILVER),
                  QuadArray([1, 6, 1], [0, 0, 0], 2)):
        with pytest.raises(ValueError, match="one denominator and field"):
            a - other
