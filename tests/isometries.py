"""Hypothesis strategies for piecewise isometries of [0, 1).

Every map drawn here has pieces of slope +1 or -1, so exact subdivision
takes the integer-lattice route; tests compare it with the generic route
and with the three-stage oracle.  Drawn without flips, an exchange has
slope 1 throughout and takes the translation route.  Values mix rationals
and a + b*sqrt2.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from orderflow.exactnum import exact
from orderflow.maps import IntervalMap, Piece, block_sum, builtin


@st.composite
def unit_points(draw):
    """A value in (0, 1): a rational p/q, or its sum with (j/q)*sqrt2 moved into (0, 1) by an integer."""
    q = draw(st.integers(2, 9))
    x = exact(Fraction(draw(st.integers(1, q - 1)), q), Fraction(draw(st.integers(-2, 2)), q))
    while x >= 1:
        x -= 1
    while x < 0:
        x += 1
    return x  # an irrational x is never 0


@st.composite
def interval_exchanges(draw, max_pieces: int = 4, flips: bool = True):
    """[0, 1) cut at drawn points; the pieces are permuted, some flipped (if ``flips``), then all shifted mod 1."""
    cuts = sorted(set(draw(st.lists(unit_points(), max_size=max_pieces - 1))))
    bounds = [Fraction(0), *cuts, Fraction(1)]
    spans = list(zip(bounds, bounds[1:]))
    targets = draw(st.permutations(range(len(spans))))
    flipped = draw(st.lists(st.booleans() if flips else st.just(False), min_size=len(spans), max_size=len(spans)))
    shift = draw(st.just(Fraction(0)) | unit_points())
    start, pieces = Fraction(0), []
    for i in targets:
        lo, hi = spans[i]
        # x -> a x + b maps [lo, hi) onto [start, start + hi - lo), reversed if flipped.
        a, b = (Fraction(-1), start + hi) if flipped[i] else (Fraction(1), start - lo)
        start += hi - lo
        b += shift
        wrap = (1 - b) / a  # where the shifted image crosses 1
        if lo < wrap < hi:
            inner = (lo, wrap, b) if a > 0 else (wrap, hi, b)
            outer = (wrap, hi, b - 1) if a > 0 else (lo, wrap, b - 1)
            pieces += [Piece(inner[0], inner[1], a, inner[2]), Piece(outer[0], outer[1], a, outer[2])]
        else:
            pieces.append(Piece(lo, hi, a, b if a * lo + b < 1 or a * hi + b < 1 else b - 1))
    return IntervalMap(tuple(pieces), name="exchange")


lattice_maps = st.one_of(
    interval_exchanges(),
    st.builds(block_sum, interval_exchanges(3), interval_exchanges(3), unit_points()),
    st.builds(lambda alpha: builtin("rotation", alpha), unit_points()),
)
