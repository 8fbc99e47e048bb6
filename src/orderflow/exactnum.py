"""Exact arithmetic in the field Q(sqrt 2).

Interval maps built here are piecewise affine with rational coefficients,
except that one transition of a permutation map is composed with an
irrational rotation by a multiple of sqrt(2) - 1.  Orbits and subdivision
points then live in Q(sqrt 2), and everything (piece lookup, equality
crossings, interval lengths) still needs exact comparison.  ``Sqrt2`` is
that number, a + b*sqrt(2) with b != 0: every operation collapses to its
rational part when the sqrt(2) part cancels, so purely rational pipelines
never see this class at all.

Its parts are Fractions for a field element (the :func:`exact` factory) or
ints for an element of the ring Z[sqrt 2].  Maps whose pieces all have
slope +1 or -1 (piecewise isometries: rotations, permutation maps and their
block sums) are subdivided on that ring.  Scaled by twice the least common
denominator of their piece bounds and intercepts, every value an exact
subdivision or a measure sweep computes lies in Z[sqrt 2]: iterate slopes
stay +-1, cut points (c - b)/a divide by +-1, and two iterates of opposite
slope cross at half the difference of their intercepts, which the factor 2
keeps integral.  Such a value is an ``int`` or a ``Sqrt2`` with int parts;
:func:`to_lattice`, :func:`from_lattice` and :func:`lattice_str` convert at
the ends, and :func:`exact_div` divides without leaving the lattice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import InvariantViolation

Exact = Union[int, Fraction, "Sqrt2"]

_SQRT2_FLOAT = 2.0 ** 0.5
_RATIONAL = (int, Fraction, float)  # Fraction(float) is exact, so mixed operations stay exact


def exact(a, b=0) -> Exact:
    """a + b*sqrt(2), as a Fraction when that is rational; ``a`` may itself be a Sqrt2."""
    a = a if isinstance(a, Sqrt2) else Fraction(a)
    b = Fraction(b)
    return a + Sqrt2(Fraction(0), b) if b else a


class Sqrt2:
    """An element a + b*sqrt(2) with a, b rational and b != 0.

    The parts are ints for a lattice value and Fractions for a field value;
    rational operands mix in exactly.  ``/`` gives Fraction parts, so a
    quotient is never a float; :func:`exact_div` divides on the lattice.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is int:
            return Sqrt2(self.a + other, self.b)
        if type(other) is Sqrt2:
            b = self.b + other.b
            return Sqrt2(self.a + other.a, b) if b else self.a + other.a
        if isinstance(other, _RATIONAL):
            return Sqrt2(self.a + Fraction(other), self.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Sqrt2(-self.a, -self.b)

    def __sub__(self, other):
        if type(other) is int:
            return Sqrt2(self.a - other, self.b)
        if type(other) is Sqrt2:
            b = self.b - other.b
            return Sqrt2(self.a - other.a, b) if b else self.a - other.a
        if isinstance(other, _RATIONAL):
            return Sqrt2(self.a - Fraction(other), self.b)
        return NotImplemented

    def __rsub__(self, other):
        if type(other) is int:
            return Sqrt2(other - self.a, -self.b)
        if isinstance(other, _RATIONAL):
            return Sqrt2(Fraction(other) - self.a, -self.b)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is int:
            return Sqrt2(self.a * other, self.b * other) if other else self.a * other
        if type(other) is Sqrt2:
            b = self.a * other.b + self.b * other.a
            a = self.a * other.a + 2 * self.b * other.b
            return Sqrt2(a, b) if b else a
        if isinstance(other, _RATIONAL):
            q = Fraction(other)
            return Sqrt2(self.a * q, self.b * q) if q else self.a * q
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Sqrt2:
            # Multiply by the conjugate; the norm a^2 - 2 b^2 never vanishes
            # for nonzero elements since sqrt(2) is irrational.
            norm = other.a * other.a - 2 * other.b * other.b
            return self * Sqrt2(other.a, -other.b) / Fraction(norm)
        if isinstance(other, _RATIONAL):
            q = Fraction(other)
            return Sqrt2(self.a / q, self.b / q)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _RATIONAL):
            norm = self.a * self.a - 2 * self.b * self.b
            return Sqrt2(self.a, -self.b) * Fraction(other) / Fraction(norm)
        return NotImplemented

    def __abs__(self):
        return -self if self._cmp(0) < 0 else self

    # -- order -------------------------------------------------------------

    def _cmp(self, other) -> int | None:
        """The sign of self - other, or None for a foreign type."""
        if type(other) is int:
            a, b = self.a - other, self.b
        elif type(other) is Sqrt2:
            a, b = self.a - other.a, self.b - other.b
        elif isinstance(other, _RATIONAL):
            a, b = self.a - Fraction(other), self.b
        else:
            return None
        if b == 0:
            return (a > 0) - (a < 0)
        if (a >= 0) == (b > 0):  # both parts agree, or a is 0
            return 1 if b > 0 else -1
        # Mixed signs: the larger of a^2 and 2 b^2 (never equal) decides.
        return (1 if a > 0 else -1) if a * a > 2 * b * b else (1 if b > 0 else -1)

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __eq__(self, other):
        if type(other) is Sqrt2:
            return self.a == other.a and self.b == other.b
        if isinstance(other, _RATIONAL):
            return False  # b != 0
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, "sqrt2"))

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * _SQRT2_FLOAT

    def __repr__(self) -> str:
        return f"Sqrt2({self.a!r}, {self.b!r})"


def exact_str(x: Exact) -> str:
    """Canonical text form: 'p/q' or 'a+b*sqrt2' / 'a-b*sqrt2'."""
    if type(x) is Fraction or type(x) is int:
        return str(x)
    if isinstance(x, Sqrt2):
        sep, b = ("-", -x.b) if x.b < 0 else ("+", x.b)
        return f"{x.a}{sep}{b}*sqrt2"
    return str(Fraction(x))


def parse_exact(text: str) -> Exact:
    """Inverse of :func:`exact_str`."""
    s = text.strip()
    if s.endswith("*sqrt2"):
        body = s[: -len("*sqrt2")]
        # The separator is the last sign not at position 0 and not part of
        # a fraction (fractions contain no signs beyond a leading one).
        idx = max(body.rfind("+", 1), body.rfind("-", 1))
        if idx <= 0:
            raise ValueError(f"malformed sqrt2 literal: {text!r}")
        a = Fraction(body[:idx])
        b = Fraction(body[idx + 1 :])
        if body[idx] == "-":
            b = -b
        return exact(a, b)
    return Fraction(s)


# -- the integer lattice Z[sqrt 2] -------------------------------------------


def exact_div(x, d):
    """x / d, exactly.

    On the lattice (x an int or a Sqrt2 with int parts, d a nonzero int) the
    quotient must stay on it: a remainder raises InvariantViolation.  Any
    other x or d is divided as a field element.
    """
    if type(d) is int:
        if type(x) is int:
            q, r = divmod(x, d)
            if r:
                raise InvariantViolation(f"lattice division {x} / {d} leaves remainder {r}")
            return q
        if type(x) is Sqrt2 and type(x.a) is int:
            qa, ra = divmod(x.a, d)
            qb, rb = divmod(x.b, d)
            if ra or rb:
                raise InvariantViolation(f"lattice division {x!r} / {d} leaves a remainder")
            return Sqrt2(qa, qb)
    return x / d


def lattice_scale(values) -> int:
    """Twice the least common denominator of the parts of exact ``values``."""
    dens = []
    for x in values:
        if isinstance(x, Sqrt2):
            dens += (x.a.denominator, x.b.denominator)
        else:
            dens.append(x.denominator)
    return 2 * math.lcm(*dens)


def _scaled(q, scale: int) -> int:
    k, r = divmod(scale, q.denominator)
    if r:
        raise InvariantViolation(f"scale {scale} leaves {q} off the lattice")
    return q.numerator * k


def to_lattice(x: Exact, scale: int) -> Exact:
    """scale * x as a lattice value; scale must clear x's denominators."""
    if isinstance(x, Sqrt2):
        return Sqrt2(_scaled(x.a, scale), _scaled(x.b, scale))
    return _scaled(x, scale)


def from_lattice(x: Exact, scale: int) -> Exact:
    """x / scale back in Q(sqrt 2): a Fraction, or a Sqrt2 with Fraction parts."""
    if type(x) is Sqrt2:
        return Sqrt2(Fraction(x.a, scale), Fraction(x.b, scale))
    return Fraction(x, scale)


def lattice_str(x: Exact, scale: int) -> str:
    """``exact_str(from_lattice(x, scale))``, read off the int parts of a lattice value without a Fraction."""
    if type(x) is int:
        return _ratio_str(x, scale)
    if type(x) is Sqrt2 and type(x.a) is int:
        sep, b = ("-", -x.b) if x.b < 0 else ("+", x.b)
        return f"{_ratio_str(x.a, scale)}{sep}{_ratio_str(b, scale)}*sqrt2"
    return exact_str(x if scale == 1 else from_lattice(x, scale))


def _ratio_str(p: int, q: int) -> str:
    """The text of Fraction(p, q) for q > 0."""
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"
