"""Three-stage exact subdivision, kept as a test oracle.

This is the straightforward route to mu_n(f): refine [0,1) by pulling the
piece bounds back through each iterate, then split every segment at all
pairwise crossings of its n affine iterates, then evaluate the iterates at
each cell's midpoint and read its order pattern.  It tests all n(n-1)/2
pairs per segment and evaluates n values per cell, so the package computes
the same cells in one pass instead; tests compare the two exactly.

``generator_translation_route`` is the translation route as it was written
before it became one loop: a generator of children per cell, walked by
``analysis._final_cells``.  Tests compare the two routes' cell streams,
errors and error texts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

from orderflow.analysis import _escape, _final_cells
from orderflow.errors import CapExceeded, DegenerateTie, NotPiecewiseAffine
from orderflow.maps import IntervalMap
from orderflow.perms import PatternDistribution, Perm, order_pattern


def oracle_distribution(f: IntervalMap, n: int, cap: int = 500_000) -> PatternDistribution:
    if n < 1:
        raise ValueError("pattern length must be at least 1")
    if any(not p.affine for p in f.pieces):
        raise NotPiecewiseAffine(f"{f.name or 'map'} has a non-affine piece")

    lo_bounds = [p.lo for p in f.pieces]

    def locate(value) -> int:
        idx = bisect_right(lo_bounds, value) - 1
        if idx < 0 or not f.pieces[idx].lo <= value < f.pieces[idx].hi:
            raise ValueError(f"iterate value {value} escapes [0, 1)")
        return idx

    # Segments are open intervals (lo, hi) with the list of affine maps for
    # iterates 0..k so far; iterate 0 is the identity.
    segments = [(Fraction(0), Fraction(1), [(Fraction(1), Fraction(0))])]
    for _ in range(n - 1):
        refined = []
        for lo, hi, comps in segments:
            a, b = comps[-1]
            cuts = []
            if a != 0:
                vlo, vhi = a * lo + b, a * hi + b
                if vlo > vhi:
                    vlo, vhi = vhi, vlo
                for bound in lo_bounds:
                    if vlo < bound < vhi:
                        cuts.append((bound - b) / a)
            points = [lo] + sorted(cuts) + [hi]
            for left, right in zip(points, points[1:]):
                mid = (left + right) / 2
                piece = f.pieces[locate(a * mid + b)]
                refined.append((left, right, comps + [(piece.a * a, piece.a * b + piece.b)]))
            if len(refined) > cap:
                raise CapExceeded(f"subdivision grew past {cap} intervals")
        segments = refined

    masses: dict[Perm, object] = {}
    for lo, hi, comps in segments:
        cuts = []
        for i in range(n):
            for j in range(i + 1, n):
                ai, bi = comps[i]
                aj, bj = comps[j]
                if ai == aj:
                    if bi == bj:
                        raise DegenerateTie(f"iterates {i} and {j} coincide on ({lo}, {hi})")
                    continue
                x = (bj - bi) / (ai - aj)
                if lo < x < hi:
                    cuts.append(x)
        points = [lo] + sorted(set(cuts)) + [hi]
        for left, right in zip(points, points[1:]):
            mid = (left + right) / 2
            sigma = order_pattern([a * mid + b for a, b in comps])
            masses[sigma] = masses.get(sigma, Fraction(0)) + (right - left)
    return PatternDistribution(n, masses)


def generator_translation_route(pieces, n: int, one, show):
    """The final cells (lo, hi, intercepts, order) of a frame whose every slope is 1, ordered by intercept."""
    bounds = [p.lo for p in pieces]
    shifts = [p.b for p in pieces]

    def children(cell, k):
        # Cut where iterate k - 1 meets a piece bound; each part gets iterate k's intercept.
        lo, hi, bs = cell
        b = bs[-1]
        ylo, yhi = lo + b, hi + b
        if ylo < 0 or yhi > one:
            raise _escape(k - 1, lo, hi, ylo, yhi, show)
        last = bisect_left(bounds, yhi)
        left = lo
        for j in range(bisect_right(bounds, ylo) - 1, last):
            right = hi if j == last - 1 else bounds[j + 1] - b
            new = b + shifts[j]
            if new in bs:
                raise DegenerateTie(f"iterates {bs.index(new)} and {k} coincide on ({show(left)}, {show(right)})")
            yield left, right, bs + (new,)
            left = right

    cells = _final_cells((0, one, (0,)), children, n)
    return ((lo, hi, bs, tuple(sorted(range(n), key=bs.__getitem__))) for lo, hi, bs in cells)
