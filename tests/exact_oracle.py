"""Three-stage exact subdivision, kept as a test oracle.

This is the straightforward route to mu_n(f): refine [0,1) by pulling the
piece bounds back through each iterate, then split every segment at all
pairwise crossings of its n affine iterates, then evaluate the iterates at
each cell's midpoint and read its order pattern.  It tests all n(n-1)/2
pairs per segment and evaluates n values per cell, so the package computes
the same cells in one pass instead; tests compare the two exactly.

``generator_crossing_route`` and ``generator_translation_route`` are the two
exact routes as they were written before each became one loop: a generator
of children per cell, walked by ``_final_cells``, which counts the entries as
the package does.  Tests compare each one-loop route's cell stream, errors
and error texts with its generator route.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

from orderflow import analysis
from orderflow.analysis import _entries_reached, _escape, _rank, _require_least_entries
from orderflow.errors import CapExceeded, DegenerateTie, EscapesInterval, NotPiecewiseAffine
from orderflow.exactnum import Exact, exact_div
from orderflow.maps import IntervalMap, _image_span
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


def _final_cells(root, children, n: int):
    """The cells at iterate n - 1 inside ``root``, the cell at iterate 0, in x order.

    ``children(cell, k)`` streams the cells at iterate k inside a cell at
    iterate k - 1.  Each cell adds the iterates it carries to the entries,
    checked as each cell's children end, and first for n (n + 1) / 2.
    """
    _require_least_entries(n)
    entries, stack = 0, [iter((root,))]
    while stack:
        k = len(stack) - 1
        cell = next(stack[-1], None)
        if cell is None:
            stack.pop()
            if entries > analysis.SUBDIVISION_MAX:
                raise _entries_reached(entries, k)
        elif k == n - 1:
            entries += n
            yield cell
        else:
            entries += k + 1
            stack.append(children(cell, k + 1))


def _piece_cells(bounds: list[Exact], a: Exact, b: Exact, lo: Exact, hi: Exact, k: int, one, show):
    """Split (lo, hi) where iterate k, x -> a x + b, crosses a piece bound.

    Yields (left, right, piece index) in x order; the iterate's values on
    (lo, hi) must stay in [0, one), where the map is defined.
    """
    if a == 0:
        if not 0 <= b < one:
            raise EscapesInterval(
                f"iterate {k} takes the value {show(b)} outside [0, 1) on ({show(lo)}, {show(hi)})"
            )
        yield lo, hi, bisect_right(bounds, b) - 1
        return
    ylo, yhi = _image_span(a, b, lo, hi)
    if ylo < 0 or yhi > one:
        raise _escape(k, lo, hi, ylo, yhi, show)
    first = bisect_right(bounds, ylo) - 1
    last = bisect_left(bounds, yhi)
    xs = [exact_div(c - b, a) for c in bounds[first + 1 : last]]
    indices = range(first, last)
    if a < 0:
        xs.reverse()
        indices = indices[::-1]
    points = [lo, *xs, hi]
    yield from zip(points, points[1:], indices)


def _insert(comps, order: tuple[int, ...], a: Exact, b: Exact, lo: Exact, hi: Exact, show):
    """Split (lo, hi) where x -> a x + b crosses the iterates of ``order``.

    Yields (left, right, rank of the new iterate) in x order.  Only the
    iterates ranked between its ranks at the two ends cross it, each once,
    and consecutive ranks cross in x order.  An old iterate identical to the
    new one would sit just above it at either end.
    """
    start = _rank(comps, order, a, b, lo, right=True)
    end = _rank(comps, order, a, b, hi, right=False)
    for rank in (start, end):
        if rank < len(order) and comps[order[rank]] == (a, b):
            raise DegenerateTie(f"iterates {order[rank]} and {len(comps)} coincide on ({show(lo)}, {show(hi)})")
    step = 1 if end > start else -1
    left = lo
    for rank in range(start, end, step):
        ai, bi = comps[order[rank if step > 0 else rank - 1]]
        cross = exact_div(bi - b, a - ai)
        yield left, cross, rank
        left = cross
    yield left, hi, end


def generator_crossing_route(pieces, n: int, one, show):
    """The final cells (lo, hi, maps, order) of any affine frame, each iterate inserted by crossing search."""
    bounds = [p.lo for p in pieces]

    def children(cell, k):
        # Cut where iterate k - 1 crosses a piece bound, then where iterate k crosses the others.
        lo, hi, comps, order = cell
        a, b = comps[-1]
        for left, right, j in _piece_cells(bounds, a, b, lo, hi, k - 1, one, show):
            p = pieces[j]
            new = (p.a * a, p.a * b + p.b)
            grown = comps + (new,)
            for x0, x1, rank in _insert(comps, order, *new, left, right, show):
                yield x0, x1, grown, order[:rank] + (k,) + order[rank:]

    return _final_cells((0, one, ((1, 0),), (0,)), children, n)


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
