"""Pattern statistics of interval maps.

The exact route subdivides [0,1) into open cells on which the first n
iterates are affine and keep one order, adding one iterate per pass: each
cell is cut where its last iterate crosses a piece bound (bisection over the
sorted bounds), and the next iterate is inserted into the cell's order by
binary search for its rank just inside both ends, so only the iterates
ranked between those two ranks cross it, at sorted points.  A final cell's
order is its pattern; masses are exact interval lengths and this is the
oracle the rest of the package is checked against.

A piecewise translation, whose every piece has slope 1 (permutation maps,
their block sums, rotations), takes the translation route instead, chosen
from the slopes of its frame.  Its iterates x -> x + b_k never cross, so a
cell is cut only where its last iterate meets a piece bound and carries
just its intercepts; a final cell's order is one sort of its n intercepts,
with no crossing search.  Both routes stream the same cells and raise the
same errors with the same texts at the same cells, and only their work, the
``SUBDIVISION_MAX`` cell entries, bounds a length.  Each route walks its
cells in one loop over a stack of cells; the crossing route's time is its
Fraction arithmetic.

The subdivision runs in the map's frame (S, pieces), ``IntervalMap.frame``,
on the interval (0, S), and reads the affine test there too.  A map is held
only as its frame, so the subdivision never needs its Q(sqrt2) pieces.  A
piecewise isometry (every slope +1 or -1) is scaled onto
the integer lattice Z[sqrt2] of :mod:`.exactnum`, so every bound,
intercept, cut and crossing is an int or a Sqrt2 with int parts, and
divisions go through ``exact_div``, which refuses a remainder.  Other slopes
cross at points with varying denominators, so their maps keep S = 1 and
Fraction / Sqrt2 values.  ``lattice_masses`` sums the masses per order on
the lattice; ``exact_distribution`` converts them back to Q(sqrt2) by
``from_lattice``, as error texts are, while ``maps.realize_flow`` checks its
map against the flow in those lattice values.

The empirical route samples a counter-based deterministic stream, so runs
are reproducible per seed and parallelizable by index range, and each pass
is bounded by its orbit values, ``ORBIT_VALUES_MAX``, before the first draw.

Statistics over several lengths take one pass to the longest and project
down along head restrictions, as the tower mu_n = restrict_* mu_{n+1} does:
an exact cell's order at length n is its order at n+1 without the last
iterate, and an orbit kept at n+1 is kept at n.  Orbits discarded at n+1
but not at n (a late escape or repeat) are counted at the longest length
they keep, so every length sees exactly the orbits a separate call would.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, bisect_right
from functools import partial
from typing import Iterable, Literal

from .caps import LIFT_LEVEL_MAX, ORBIT_VALUES_MAX, SUBDIVISION_MAX
from .errors import (
    CapExceeded, DegenerateTie, EscapesInterval, FormatError, InvariantViolation, NotPiecewiseAffine, OrderflowError,
    SamplesDiscarded,
)
from .exactnum import Exact, exact_div, from_lattice
from .maps import IntervalMap, _image_span
from .paths import allowed_counts
from .perms import (
    HEAD, TAIL, PatternDistribution, Perm, _Record, _trusted, all_perms, order_pattern, preimages, push_mass,
    restrict,
)

Mode = Literal["exact", "empirical"]


class PatternReport(_Record):
    """Distribution plus bookkeeping for one (map, n) query."""

    __slots__ = ("distribution", "samples", "counts")
    distribution: PatternDistribution
    samples: int | None  # None marks an exact computation
    counts: dict[Perm, int] | None  # the sampled histogram; None when exact

    def __init__(self, distribution: PatternDistribution, samples: int | None, counts: dict[Perm, int] | None = None):
        object.__setattr__(self, "distribution", distribution)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "counts", counts)

    @property
    def exact(self) -> bool:
        return self.samples is None

    @property
    def n(self) -> int:
        return self.distribution.n

    @property
    def realized(self) -> frozenset[Perm]:
        return frozenset(self.distribution.mass)

    @property
    def discards(self) -> int:
        """Sampled orbits left out of the histogram: escapes and exact repeats."""
        return 0 if self.counts is None else self.samples - sum(self.counts.values())


# -- exact subdivision --------------------------------------------------------

# A cell is an open interval (lo, hi) of [0, one) with the affine maps (a, b)
# of iterates 0..k on it and ``order``, the iterate indices sorted by their
# values there; no two iterates meet inside a cell.  On the translation route
# a cell (lo, hi, intercepts) holds only the b of each iterate x -> x + b.
# Each route walks its cells depth first in one loop over a stack of cells,
# so no level is held whole and no depth nests a call.  ``one`` is the
# frame's scale S, and ``show`` gives a value's Q(sqrt2) form for error texts.


def _require_least_entries(n: int) -> None:
    """Refuse a length whose one cell per iterate already takes n (n + 1) / 2 entries past the cap."""
    least = n * (n + 1) // 2
    if least > SUBDIVISION_MAX:
        raise CapExceeded(f"exact subdivision of length {n} needs at least {least} entries, cap {SUBDIVISION_MAX}")


def _entries_reached(entries: int, k: int) -> CapExceeded:
    return CapExceeded(f"exact subdivision reached {entries} entries at iterate {k}, cap {SUBDIVISION_MAX}")


def _escape(k: int, lo, hi, ylo, yhi, show) -> EscapesInterval:
    """The error for iterate k mapping (lo, hi) onto (ylo, yhi), which leaves [0, one)."""
    return EscapesInterval(
        f"iterate {k} maps ({show(lo)}, {show(hi)}) onto ({show(ylo)}, {show(yhi)}), outside [0, 1)"
    )


def _tie(i: int, k: int, lo, hi, show) -> DegenerateTie:
    """The error for iterates i and k coinciding on (lo, hi)."""
    return DegenerateTie(f"iterates {i} and {k} coincide on ({show(lo)}, {show(hi)})")


def _rank(comps, order: tuple[int, ...], a: Exact, b: Exact, x: Exact, right: bool) -> int:
    """How many iterates of ``order`` lie below x -> a x + b just right (or left) of x.

    Values at x decide first and slopes break ties; parallel iterates keep
    the order of their intercepts.
    """
    y = a * x + b
    lo, hi = 0, len(order)
    while lo < hi:
        mid = (lo + hi) // 2
        ai, bi = comps[order[mid]]
        if ai == a:
            below = bi < b
        else:
            yi = ai * x + bi
            # At a shared value the steeper iterate is above just right of x.
            below = yi < y or (yi == y and (ai < a) == right)
        if below:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _crossing_route(pieces, n: int, one, show):
    """The final cells (lo, hi, maps, order) of any affine frame, each iterate inserted by crossing search.

    One loop walks a stack of cells, as ``_translation_route`` does.  A cell
    is cut where its last iterate, which must stay in [0, one), crosses a
    piece bound.  Each part is split where the next iterate crosses the
    iterates ranked between its ranks just inside the part's ends, each
    once and in x order; an old iterate identical to it would sit just
    above it at either end, and that child is stacked as its error.
    """
    _require_least_entries(n)
    if n == 1:
        yield 0, one, ((1, 0),), (0,)
        return
    bounds = [p.lo for p in pieces]
    last = n - 1
    entries, stack = 0, [(0, one, ((1, 0),), (0,))]
    while stack:
        lo, hi, comps, order = stack.pop()
        if comps is None:
            raise hi  # a child that ties, stacked as its error
        k = len(comps)  # the iterate this cell's children add
        entries += k
        a, b = comps[-1]
        if a == 0:
            if not 0 <= b < one:
                raise EscapesInterval(
                    f"iterate {k - 1} takes the value {show(b)} outside [0, 1) on ({show(lo)}, {show(hi)})"
                )
            parts = [(lo, hi, bisect_right(bounds, b) - 1)]
        else:
            ylo, yhi = _image_span(a, b, lo, hi)
            if ylo < 0 or yhi > one:
                raise _escape(k - 1, lo, hi, ylo, yhi, show)
            first, end = bisect_right(bounds, ylo) - 1, bisect_left(bounds, yhi)
            xs = [exact_div(c - b, a) for c in bounds[first + 1 : end]]
            indices = range(first, end)
            if a < 0:
                xs.reverse()
                indices = indices[::-1]
            points = [lo, *xs, hi]
            parts = zip(points, points[1:], indices)
        children = []
        for left, right, j in parts:
            p = pieces[j]
            new = na, nb = p.a * a, p.a * b + p.b
            start = _rank(comps, order, na, nb, left, right=True)
            stop = _rank(comps, order, na, nb, right, right=False)
            tied = [order[rank] for rank in (start, stop) if rank < k and comps[order[rank]] == new]
            if tied:
                children.append((None, _tie(tied[0], k, left, right, show), None, None))
                break
            grown = comps + (new,)
            step = 1 if stop > start else -1
            for rank in range(start, stop, step):
                ai, bi = comps[order[rank if step > 0 else rank - 1]]
                cross = exact_div(bi - nb, na - ai)
                children.append((left, cross, grown, order[:rank] + (k,) + order[rank:]))
                left = cross
            children.append((left, right, grown, order[:stop] + (k,) + order[stop:]))
        if k == last:
            for cell in children:
                if cell[2] is None:
                    raise cell[1]
                entries += n
                yield cell
            if entries > SUBDIVISION_MAX:
                raise _entries_reached(entries, last)
        else:
            children.reverse()
            stack += children


def _translation_route(pieces, n: int, one, show):
    """The final cells (lo, hi, intercepts, order) of a frame whose every slope is 1, ordered by intercept.

    One loop streams the cells, counts the entries and raises the errors at
    the same cells as ``_crossing_route``.  A cell taken from the stack adds
    its iterates to the entries and is cut where its last iterate meets a
    piece bound.  A cell that stays in one piece has one child, taken at
    once; a cell at iterate n - 2 streams its final cells at once and then
    checks the entries; any other stacks its children in reverse x order.
    A child that ties is stacked as its error, raised when the walk reaches
    it.
    """
    _require_least_entries(n)
    if n == 1:
        yield 0, one, (0,), (0,)
        return
    bounds = [p.lo for p in pieces]
    shifts = [p.b for p in pieces]
    places, last = range(n), n - 1
    entries, stack = 0, [(0, one, (0,))]
    while stack:
        lo, hi, bs = stack.pop()
        if bs is None:
            raise hi  # a child that ties, stacked as its error
        while True:
            k = len(bs)  # the iterate this cell's children add
            entries += k
            b = bs[-1]
            ylo, yhi = lo + b, hi + b
            if ylo < 0 or yhi > one:
                raise _escape(k - 1, lo, hi, ylo, yhi, show)
            start, end = bisect_right(bounds, ylo) - 1, bisect_left(bounds, yhi)
            if k == last or end - start > 1:
                break
            new = b + shifts[start]
            if new in bs:
                raise _tie(bs.index(new), k, lo, hi, show)
            bs += (new,)
        left, children = lo, []
        for j in range(start, end):
            right = hi if j == end - 1 else bounds[j + 1] - b
            new = b + shifts[j]
            if new in bs:
                tie = _tie(bs.index(new), k, left, right, show)
                if k == last:
                    raise tie
                children.append((None, tie, None))
                break
            grown = bs + (new,)
            if k == last:
                entries += n
                yield left, right, grown, tuple(sorted(places, key=grown.__getitem__))
            else:
                children.append((left, right, grown))
            left = right
        if k == last:
            if entries > SUBDIVISION_MAX:
                raise _entries_reached(entries, last)
        else:
            children.reverse()
            stack += children


def exact_distribution(f: IntervalMap, n: int) -> PatternReport:
    """Exact pattern distribution of the first n iterates.

    Requires every piece affine (coefficients may lie in Q(sqrt2)); regions
    where two iterates coincide identically would make the pattern undefined
    on positive measure and are reported as a degeneracy instead of guessed.
    A piecewise isometry is subdivided on the lattice Z[sqrt2], and a
    piecewise translation (every slope 1) by the translation route.  The
    masses are those of :func:`lattice_masses`, read back into Q(sqrt2).
    """
    return _report(n, *lattice_masses(f, n))


def lattice_masses(f: IntervalMap, n: int) -> tuple[int, dict[tuple[int, ...], Exact]]:
    """The frame's scale S and the masses of f's final cells at length n on its lattice, by order.

    An order lists the iterate indices by value, as ``_pattern`` reads it.
    The masses are ints or Sqrt2s with int parts for a piecewise isometry
    (Fractions at S = 1 for any other map), checked to cover [0, S).
    """
    if n < 1:
        raise ValueError("pattern length must be at least 1")
    pieces = f.frame[1]
    if any(not p.affine for p in pieces):
        raise NotPiecewiseAffine(f"{f.name or 'map'} has a non-affine piece")
    return _subdivided(f, n, _translation_route if all(p.a == 1 for p in pieces) else _crossing_route)


def _subdivided(f: IntervalMap, n: int, route) -> tuple[int, dict[tuple[int, ...], Exact]]:
    """The masses by order of the final cells that ``route`` streams for f's frame, checked to cover it."""
    one, pieces = f.frame
    show = partial(from_lattice, scale=one)
    by_order: dict[tuple[int, ...], Exact] = {}
    for lo, hi, _, order in route(pieces, n, one, show):
        m = by_order.get(order)
        by_order[order] = hi - lo if m is None else m + (hi - lo)
    total = sum(by_order.values())
    if total != one:
        raise InvariantViolation(f"exact subdivision of {f.name or 'map'} covers {show(total)}, not 1")
    return one, by_order


def _report(n: int, one: int, by_order: dict[tuple[int, ...], Exact]) -> PatternReport:
    """The exact report of masses by order on a lattice of scale ``one``.

    At scale 1 the masses are already values in Q(sqrt2) and pass through as
    they are; on a finer lattice each is divided back by ``from_lattice``.
    """
    mass = {_pattern(order): m if one == 1 else from_lattice(m, one) for order, m in by_order.items()}
    return PatternReport(PatternDistribution(n, mass), samples=None)


def _pattern(order: tuple[int, ...]) -> Perm:
    """The pattern whose entries, sorted by value, are at positions ``order``.

    ``order[r]`` is the position of rank r + 1, so one pass over ``order``
    writes each rank at its position: the inverse permutation, with no sort.
    """
    ranks = [0] * len(order)
    for rank, place in enumerate(order, 1):
        ranks[place] = rank
    return _trusted(tuple(ranks))


# -- deterministic sampling ----------------------------------------------------

_BLOCK = 4096  # digests unpacked at once
_UNIT = 2.0**-64


def unit_samples(seed, count: int) -> Iterable[float]:
    """Uniform floats in [0, 1) keyed by (seed, index); order-independent.

    Sample i is the 8-byte blake2b digest of the text f"{seed}:{i}", read
    as a big-endian integer and divided by 2**64, as it has been since the
    first version.  It is drawn from one hash state fed f"{seed}:" once and
    copied per index, and each block of at most ``_BLOCK`` digests is read
    by one ``struct.unpack`` and scaled by 2**-64: scaling by a power of two
    is exact, so each float is still the correctly rounded int / 2**64.
    Only one block is held at a time.
    """
    from hashlib import blake2b

    keyed = blake2b(f"{seed}:".encode(), digest_size=8)
    for start in range(0, count, _BLOCK):
        stop = min(start + _BLOCK, count)
        digests = []
        for i in range(start, stop):
            h = keyed.copy()
            h.update(b"%d" % i)
            digests.append(h.digest())
        yield from map(_UNIT.__mul__, struct.unpack(f">{stop - start}Q", b"".join(digests)))


def _float_pieces(f: IntervalMap):
    """Bounds and (c, a, b) of f's pieces as floats; a coefficient past float range is a FormatError."""
    polys = []
    for k, p in enumerate(f.pieces):
        row = []
        for field in ("c", "a", "b"):
            try:
                x = float(getattr(p, field))
            except OverflowError:
                x = math.inf
            if not math.isfinite(x):
                raise FormatError(f"{f.name or 'map'} piece {k}: coefficient {field} is beyond float range")
            row.append(x)
        polys.append(tuple(row))
    return [float(p.lo) for p in f.pieces], [float(p.hi) for p in f.pieces], polys


def _sampled_reports(f: IntervalMap, lengths: list[int], samples: int, seed) -> dict[int, PatternReport]:
    """Histograms at every length of ``lengths`` from one pass over the orbits.

    Each orbit is iterated up to the longest length; its kept prefix ends at
    its first escape from the domain or exact repeat.  It counts at every
    length up to that prefix's, under the prefix's pattern restricted to the
    length.  When every piece is affine (c = 0.0) a step is a*x + b, equal
    to (0.0*x + a)*x + b for every finite x: the two can differ only in the
    sign of a zero, which no comparison here sees.  ``ORBIT_VALUES_MAX``
    bounds the orbit values of the pass before the first draw.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if lengths[0] < 1:
        raise SamplesDiscarded("all samples were discarded")  # no orbit has a shorter pattern
    n_min, n_max = lengths[0], lengths[-1]
    needed = samples * (n_min + n_max) * (n_max - n_min + 1) // 2
    if needed > ORBIT_VALUES_MAX:
        raise CapExceeded(
            f"sampling needs {needed} orbit values ({samples} samples, lengths {n_min} to {n_max}), "
            f"cap {ORBIT_VALUES_MAX}"
        )
    los, his, polys = _float_pieces(f)
    lines = [(a, b) for c, a, b in polys] if all(c == 0.0 for c, _, _ in polys) else None
    steps = range(n_max - 1)
    places = {k: list(range(k)) for k in range(n_min, n_max + 1)}  # whose ints every order shares
    # A list scan finds a repeat as the orbit grows; past length 8 one set after the loop is faster.
    scanned = n_max <= 8
    ends: dict[tuple[int, ...], int] = {}  # orbits by the order of their kept prefix
    for x in unit_samples(seed, samples):
        values = [x]
        seen = values if scanned else ()
        for _ in steps:
            idx = bisect_right(los, x) - 1
            if idx < 0 or x >= his[idx]:
                break
            if lines:
                a, b = lines[idx]
                x = a * x + b
            else:
                c, a, b = polys[idx]
                x = (c * x + a) * x + b
            if x in seen:
                break
            values.append(x)
        k = len(values)
        if not scanned and len(set(values)) < k:  # past its first repeat an orbit only cycles
            firsts = {}
            k = next(j for j, x in enumerate(values) if firsts.setdefault(x, j) != j)
        if k >= n_min:
            order = tuple(sorted(places[k], key=values.__getitem__))
            ends[order] = ends.get(order, 0) + 1
    reports = {}
    counts: dict[Perm, int] = {}
    for n in range(n_max, n_min - 1, -1):
        counts = push_mass(counts, HEAD)
        for order, c in ends.items():
            if len(order) == n:
                sigma = _pattern(order)
                counts[sigma] = counts.get(sigma, 0) + c
        kept = sum(counts.values())
        if n in lengths:
            if kept == 0:
                raise SamplesDiscarded("all samples were discarded")
            dist = PatternDistribution(n, {s: c / kept for s, c in counts.items()})
            reports[n] = PatternReport(dist, samples, counts)
    return {n: reports[n] for n in lengths}


def empirical_distribution(
    f: IntervalMap, n: int, samples: int, seed
) -> PatternReport:
    """Histogram of order patterns over pseudo-random orbits.

    Orbits showing an exact repeat (a tie between two window values) are
    discarded and counted; identity placeholders in truncated constructions
    surface this way and stay out of the histogram.
    """
    return _sampled_reports(f, [n], samples, seed)[n]


def realized_patterns(
    f: IntervalMap, lengths: Iterable[int], mode: Mode, samples: int = 100_000, seed=0
) -> dict[int, frozenset[Perm]]:
    """The realized patterns at each of ``lengths``, from one pass to the longest.

    Each set equals the ``realized`` of a separate ``exact_distribution`` or
    ``empirical_distribution`` call.  The pass is bounded as a whole: one
    over its cap (the longest length's cell entries, or the orbit values of
    all the lengths) raises that refusal, and any other failure raises what
    the shortest failing length, found by bisection, raises alone.  A range
    of lengths, too long to list before a cap refuses it, is kept as it is.
    """
    lengths = lengths if isinstance(lengths, range) and lengths.step == 1 else sorted(set(lengths))
    if not lengths:
        return {}
    if mode == "empirical":
        return {n: r.realized for n, r in _sampled_reports(f, lengths, samples, seed).items()}
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'empirical', got {mode!r}")
    try:
        realized = {lengths[-1]: exact_distribution(f, lengths[-1]).realized}
        for n in range(lengths[-1] - 1, lengths[0] - 1, -1):
            realized[n] = frozenset(restrict(s, HEAD) for s in realized[n + 1])
    except CapExceeded:
        raise
    except (OrderflowError, ValueError) as exc:
        # A length that fails alone, refused included, fails every longer
        # one too, possibly first at a deeper iterate: bisect for the
        # shortest failing length and raise what it raises alone.
        if lengths[0] < 1:
            exact_distribution(f, lengths[0])  # refuses the length, and comes first
        lo, hi = 0, len(lengths) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                exact_distribution(f, lengths[mid])
            except (OrderflowError, ValueError) as failure:
                hi, exc = mid, failure
            else:
                lo = mid + 1
        raise exc
    return {n: realized[n] for n in lengths}


# -- derived statistics ---------------------------------------------------------


def entropy_estimate(
    f: IntervalMap, n_max: int, mode: Mode = "exact", samples: int = 100_000, seed=0
) -> list[tuple[int, int, float]]:
    """Realized-pattern counts and the normalized log-count sequence.

    The statistic log|realized_n| / (n-1) converges to the topological
    entropy for piecewise continuous, piecewise monotone maps.
    """
    realized = realized_patterns(f, range(2, n_max + 1), mode, samples, seed)
    return [(n, len(r), math.log(len(r)) / (n - 1)) for n, r in realized.items()]


def forbidden_patterns(
    f: IntervalMap, n: int, mode: Mode = "exact", samples: int = 100_000, seed=0
) -> tuple[frozenset[Perm], frozenset[Perm]]:
    """Unrealized patterns of length n, and the basic ones among them.

    A forbidden pattern is basic when no proper consecutive window of it is
    itself forbidden at its own length, so it is not explained by a shorter
    obstruction.  The scan lists all of S_n, so n! past ``LIFT_LEVEL_MAX``
    (n > 9) is refused, like an n past ``PERM_CAP``, before any subdivision
    or sampling.
    """
    candidates = all_perms(n)
    if math.factorial(n) > LIFT_LEVEL_MAX:
        raise CapExceeded(f"forbidden-pattern scan of S_{n} needs {math.factorial(n)} patterns, cap {LIFT_LEVEL_MAX}")
    realized_by_len = realized_patterns(f, range(min(n, 2), n + 1), mode, samples, seed)
    forbidden = frozenset(s for s in candidates if s not in realized_by_len[n])
    # Every proper window of a pattern is a window of its head or its tail.
    # So W_k, the length-k patterns whose every window of length 2 to k is
    # realized, is W_2 = R_2 and W_k = {pi in R_k : head, tail in W_(k-1)},
    # and a forbidden pattern is basic when its head and tail are in W_(n-1).
    # Only those grown from W_(n-1) by a last value have such a head.
    if n < 3:
        return forbidden, forbidden  # no proper window is as long as 2
    whole = realized_by_len[2]
    for k in range(3, n):
        whole = {pi for pi in realized_by_len[k] if restrict(pi, HEAD) in whole and restrict(pi, TAIL) in whole}
    basic = (s for pi in whole for s in preimages(pi, HEAD) if s in forbidden and restrict(s, TAIL) in whole)
    return forbidden, frozenset(basic)


class ExclusionRow(_Record):
    __slots__ = ("m", "missing", "extra")
    m: int
    missing: int  # lift preimage members the map does not realize
    extra: int  # realized patterns outside the lift preimage

    def __init__(self, m: int, missing: int, extra: int):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "missing", missing)
        object.__setattr__(self, "extra", extra)

    @property
    def equal(self) -> bool:
        """Whether the realized patterns are exactly the lift preimage."""
        return not self.missing and not self.extra


def exclusion_type_test(
    f: IntervalMap, n: int, m_max: int, mode: Mode = "exact", samples: int = 100_000, seed=0
) -> list[ExclusionRow]:
    """Compare realized patterns with all lifts of paths in the level-n graph.

    A map of exclusion type n would make every row equal for all m; any
    discrepancy up to m_max refutes that type (the verdict is necessarily
    partial in the other direction).  The lift preimage A_m is counted by
    ``paths.allowed_counts``; ``extra`` counts the realized patterns with a
    window outside the graph, the only new window being the last one.
    """
    realized_by_len = realized_patterns(f, range(n + 1, max(m_max, n + 1) + 1), mode, samples, seed)
    edges = realized_by_len[n + 1]
    rows, outside = [], frozenset()
    for m, allowed in zip(range(n + 1, m_max + 1), allowed_counts(edges, n, m_max)):
        realized = realized_by_len[m]
        outside = {s for s in realized if restrict(s, HEAD) in outside or order_pattern(s.word[-n - 1 :]) not in edges}
        rows.append(ExclusionRow(m, allowed - len(realized) + len(outside), len(outside)))
    return rows
