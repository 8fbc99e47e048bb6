"""Exact arithmetic in the field Q(sqrt 2).

Interval maps built here are piecewise affine with rational coefficients,
except that one transition of a permutation map is composed with an
irrational rotation by a multiple of sqrt(2) - 1.  Orbits and subdivision
points then live in Q(sqrt 2), and everything (piece lookup, equality
crossings, interval lengths) still needs exact comparison.  ``Sqrt2`` is
that field element; the :func:`exact` factory collapses back to
``fractions.Fraction`` whenever the irrational part cancels, so purely
rational pipelines never see this class at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Exact = Union[int, Fraction, "Sqrt2"]

_SQRT2_FLOAT = 2.0 ** 0.5


def exact(a, b=0) -> Exact:
    """a + b*sqrt(2), as a Fraction when b == 0."""
    a = Fraction(a)
    b = Fraction(b)
    if b == 0:
        return a
    return Sqrt2(a, b)


@dataclass(frozen=True)
class Sqrt2:
    """An element a + b*sqrt(2) with a, b rational and b != 0."""

    a: Fraction
    b: Fraction

    def _coerce(self, other):
        if isinstance(other, Sqrt2):
            return other
        if isinstance(other, (int, Fraction, float)):
            # Fraction(float) is exact, so mixed comparisons stay exact.
            return Sqrt2(Fraction(other), Fraction(0))
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return exact(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Sqrt2(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return exact(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return exact(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return exact(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # Multiply by the conjugate; the norm a^2 - 2 b^2 never vanishes
        # for nonzero elements since sqrt(2) is irrational.
        norm = o.a * o.a - 2 * o.b * o.b
        inv = Sqrt2(o.a / norm, -o.b / norm)
        return self * inv

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __abs__(self):
        return -self if self._sign() < 0 else self

    # -- order -------------------------------------------------------------

    def _sign(self) -> int:
        a, b = self.a, self.b
        if a >= 0 and b >= 0:
            return 1 if (a != 0 or b != 0) else 0
        if a <= 0 and b <= 0:
            return -1 if (a != 0 or b != 0) else 0
        # Mixed signs: compare a^2 with 2 b^2, the sign follows the larger term.
        lhs = a * a
        rhs = 2 * b * b
        if a > 0:
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def _cmp(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        diff = self - o
        if isinstance(diff, Sqrt2):
            return diff._sign()
        return (diff > 0) - (diff < 0)

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __eq__(self, other):
        if isinstance(other, Sqrt2):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return False  # b != 0 by construction
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
