"""Exact quadratic-field coordinates and float tolerance conventions.

This module alone does field arithmetic: it conjugates, divides, keys and
aligns the denominators of exact numbers, and the other modules call it.
A coordinate is either a plain Python float (compared with the global
tolerance TOL_EQ), a plain int, or a QuadNum a + b*tau where tau is the
positive root of x^2 = p*x + q for a fixed real quadratic field.  All
QuadNum comparisons are decided exactly with integer arithmetic, so two
distinct numbers never collide and equal numbers never split, no matter
how close their float values are.  A point source uses one representation
consistently.  QuadArray holds many exact coordinates as integer arrays.
Every exact sign comes from QuadField.signs, on arrays of Python ints:
for one QuadNum ordering, or all the ties at a region's end at once.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


TOL_EQ = 1e-9


def decimal(x) -> Fraction:
    """x as an exact rational: an int or Fraction as it is, a float at its
    shortest decimal value (3.7 is 37/10, not its binary value over 2^51)."""
    return Fraction(x) if isinstance(x, (int, Fraction)) else Fraction(repr(float(x)))


class QuadField:
    """Real quadratic field Q(tau), tau the positive root of x^2 = p x + q.

    The discriminant D = p^2 + 4q must be positive and not a perfect
    square, so tau is irrational and (a, b) -> a + b*tau is injective on
    rational pairs.
    """

    __slots__ = ("name", "p", "q", "disc", "tau", "tau_conj")

    def __init__(self, name: str, p: int, q: int):
        disc = p * p + 4 * q
        if disc <= 0:
            raise ValueError("field discriminant must be positive")
        r = math.isqrt(disc)
        if r * r == disc:
            raise ValueError("discriminant %d is a perfect square; tau would be rational" % disc)
        self.name = name
        self.p = p
        self.q = q
        self.disc = disc
        self.tau = (p + math.sqrt(disc)) / 2.0
        self.tau_conj = (p - math.sqrt(disc)) / 2.0

    def signs(self, a, b) -> np.ndarray:
        """Exact signs of a + b*tau, entrywise (broadcasting), as an int
        array: a and b hold Python ints or Fractions, with no int64 bound."""
        # 2(a + b*tau) = u + v sqrt(D): where u and v differ in sign, the sign
        # is sign(u) * sign(u^2 - D v^2), and elsewhere that of u + v
        v = np.asarray(b, dtype=object)
        u = 2 * np.asarray(a, dtype=object) + self.p * v
        su, sv = np.sign(u), np.sign(v)
        return np.where(su * sv < 0, su * np.sign(u * u - self.disc * v * v), np.sign(su + sv)).astype(int)

    def sign(self, a, b) -> int:
        """Exact sign of a + b*tau for rational a, b."""
        return int(self.signs([a], [b])[0])

    def __repr__(self):
        return "QuadField(%r, p=%d, q=%d)" % (self.name, self.p, self.q)

    def __eq__(self, other):
        return isinstance(other, QuadField) and (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return hash(("QuadField", self.p, self.q))


GOLDEN = QuadField("golden", 1, 1)    # tau = (1 + sqrt5)/2
SILVER = QuadField("silver", 2, 1)    # tau = 1 + sqrt2

_FIELDS = {"golden": GOLDEN, "silver": SILVER}


def field_by_name(name: str) -> QuadField:
    try:
        return _FIELDS[name]
    except KeyError:
        raise ValueError("unknown quadratic field %r (have: %s)" % (name, sorted(_FIELDS)))


class QuadNum:
    """a + b*tau with rational a, b; exact ring arithmetic and ordering."""

    __slots__ = ("a", "b", "field")

    def __init__(self, a, b, field: QuadField):
        self.a = a
        self.b = b
        self.field = field

    # -- arithmetic -------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, QuadNum):
            if other.field != self.field:
                raise ValueError("mixed quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadNum(other, 0, self.field)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return float(self) + other
        return QuadNum(self.a + o.a, self.b + o.b, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return float(self) - other
        return QuadNum(self.a - o.a, self.b - o.b, self.field)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return other - float(self)
        return o - self

    def __neg__(self):
        return QuadNum(-self.a, -self.b, self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return float(self) * other
        p, q = self.field.p, self.field.q
        # (a1 + b1 t)(a2 + b2 t), t^2 = p t + q
        return QuadNum(
            self.a * o.a + q * self.b * o.b,
            self.a * o.b + self.b * o.a + p * self.b * o.b,
            self.field,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        # exact for an exact y: x / y = x conj(y) / N(y), the norm N(y) = y conj(y) rational
        o = self._coerce(other)
        if o is None:
            return float(self) / float(other)
        c, f = self * o.conj(), self.field
        n = Fraction(o.a * o.a + f.p * o.a * o.b - f.q * o.b * o.b)
        return QuadNum(c.a / n, c.b / n, f)

    def conj(self) -> "QuadNum":
        """Galois conjugate: tau -> p - tau."""
        return QuadNum(self.a + self.field.p * self.b, -self.b, self.field)

    # -- comparisons (exact) ----------------------------------------------
    def _sign_diff(self, other) -> int:
        o = self._coerce(other)
        if o is None:  # float comparison, exact via Fraction(float)
            o = QuadNum(Fraction(other), 0, self.field)
        return self.field.sign(self.a - o.a, self.b - o.b)

    def __eq__(self, other):
        if not isinstance(other, (QuadNum, int, Fraction, float)):
            return NotImplemented
        return self._sign_diff(other) == 0

    def __lt__(self, other):
        return self._sign_diff(other) < 0

    def __le__(self, other):
        return self._sign_diff(other) <= 0

    def __gt__(self, other):
        return self._sign_diff(other) > 0

    def __ge__(self, other):
        return self._sign_diff(other) >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)  # agree with int/Fraction hashing
        return hash((self.a, self.b, self.field.p, self.field.q))

    def __float__(self):
        return float(self.a) + float(self.b) * self.field.tau

    def __repr__(self):
        return "QuadNum(%s, %s, %s)" % (self.a, self.b, self.field.name)


# -- generic coordinate helpers (float | int | QuadNum) --------------------

def is_exact_coord(c) -> bool:
    return isinstance(c, (int, Fraction, QuadNum))


def _pair(c):
    """(a, b, field) with c = a + b*tau, a and b Fractions; field None for rationals."""
    if isinstance(c, QuadNum):
        return Fraction(c.a), Fraction(c.b), c.field
    return Fraction(c), Fraction(0), None


def _join(f, g):
    if f is not None and g is not None and f != g:
        raise ValueError("mixed quadratic fields")
    return f if f is not None else g


EXACT_MAX = 2 ** 53  # |a|, |b| and den stay below this, so floats() rounds as float() does

# float(a + b*tau) rounds a, b, tau, b*tau and the sum: an error of at most
# u (2|a| + (4|tau| + sqrt(D)/2)|b|) with u = 2^-53, up to O(u^2).  FLOAT_ERR
# times |a| + (2|tau| + sqrt(D)/4)|b| is twice that.
FLOAT_ERR = 2.0 ** -51


def _weight_b(field) -> float:
    return 0.0 if field is None else 2 * abs(field.tau) + math.sqrt(field.disc) / 4


def float_error(c) -> float:
    """A bound on |float(c) - c| for a coordinate: 0 for a float."""
    if isinstance(c, QuadNum):
        return FLOAT_ERR * (abs(float(c.a)) + _weight_b(c.field) * abs(float(c.b)))
    return FLOAT_ERR * abs(float(c)) if is_exact_coord(c) else 0.0


def _check(den, *magnitudes):
    if den >= EXACT_MAX or max(magnitudes, default=0) >= EXACT_MAX:
        raise ValueError("exact coordinates beyond the int64 range")


class QuadArray:
    """Exact numbers (a + b*tau)/den as int64 arrays a, b over one positive
    denominator: the array counterpart of QuadNum.  With no field the
    numbers are rationals and b is zero."""

    __slots__ = ("a", "b", "den", "field")

    def __init__(self, a, b, den: int = 1, field: QuadField = None):
        self.a = np.asarray(a, dtype=np.int64)
        self.b = np.asarray(b, dtype=np.int64)
        self.den = int(den)
        self.field = field

    @classmethod
    def of(cls, values, field: QuadField = None) -> "QuadArray":
        """From exact scalars (int, Fraction, QuadNum)."""
        pairs = [_pair(c) for c in values]
        for _, _, f in pairs:
            field = _join(field, f)
        den = math.lcm(1, *(c.denominator for a, b, _ in pairs for c in (a, b)))
        a, b = [int(a * den) for a, _, _ in pairs], [int(b * den) for _, b, _ in pairs]
        _check(den, *map(abs, a), *map(abs, b))
        return cls(a, b, den, field)

    def __getitem__(self, idx) -> "QuadArray":
        return QuadArray(self.a[idx], self.b[idx], self.den, self.field)

    def __neg__(self) -> "QuadArray":
        return QuadArray(-self.a, -self.b, self.den, self.field)

    def __sub__(self, other: "QuadArray") -> "QuadArray":
        """Entrywise difference (broadcasting), over the lcm of the two
        denominators and in the field of either: the one alignment of two
        denominators.  Raises when the result passes EXACT_MAX."""
        den = math.lcm(self.den, other.den)
        i, j = den // self.den, den // other.den
        if i * j > 1:  # each rescaled operand stays in range, so nothing wraps in int64
            _check(den, *(int(np.abs(x).max(initial=0)) * k for x, k in
                          ((self.a, i), (self.b, i), (other.a, j), (other.b, j))))
        a, b = self.a * i - other.a * j, self.b * i - other.b * j
        _check(den, int(np.abs(a).max(initial=0)), int(np.abs(b).max(initial=0)))
        return QuadArray(a, b, den, _join(self.field, other.field))

    def shift(self, c) -> "QuadArray":
        """c + self for an exact scalar c."""
        return self - QuadArray.of([-c])

    def conj(self) -> "QuadArray":
        """Galois conjugates, entrywise: tau -> p - tau (a rational is its own)."""
        a = self.a if self.field is None else self.a + self.field.p * self.b
        _check(self.den, int(np.abs(a).max(initial=0)))  # |b| is unchanged
        return QuadArray(a, -self.b, self.den, self.field)

    def key(self) -> tuple:
        """The exact values as a hashable key, the same for every way of
        writing them (common denominator, field when every b is 0)."""
        g = math.gcd(self.den, int(np.gcd.reduce(self.a, initial=0)), int(np.gcd.reduce(self.b, initial=0)))
        field = (self.field.p, self.field.q) if self.b.any() else None
        return self.den // g, (self.a // g).tobytes(), (self.b // g).tobytes(), field

    def floats(self) -> np.ndarray:
        """Float values, rounded exactly as float() rounds each QuadNum."""
        x = self.a / self.den
        return x if self.field is None else x + (self.b / self.den) * self.field.tau

    def float_error(self) -> float:
        """A bound on |floats() - exact value| over every entry (see FLOAT_ERR)."""
        top = np.abs(self.a).max(initial=0) + _weight_b(self.field) * np.abs(self.b).max(initial=0)
        return FLOAT_ERR * float(top) / self.den

    def value(self, k: int):
        """Entry k as a scalar: a QuadNum over a field, an int or Fraction otherwise."""
        a, b = int(self.a[k]), int(self.b[k])
        if self.den != 1:
            a, b = Fraction(a, self.den), Fraction(b, self.den)
        return a if self.field is None else QuadNum(a, b, self.field)

    def compare(self, c) -> np.ndarray:
        """The exact sign of each entry minus the exact scalar c (int,
        Fraction or QuadNum), on Python ints over the lcm denominator: no
        int64 bound."""
        ca, cb, cf = _pair(c)
        field = _join(self.field, cf)
        den = math.lcm(self.den, ca.denominator, cb.denominator)
        k = den // self.den
        a, b = (x.astype(object) * k - int(c * den) for x, c in ((self.a, ca), (self.b, cb)))
        return np.sign(a).astype(int) if field is None else field.signs(a, b)
