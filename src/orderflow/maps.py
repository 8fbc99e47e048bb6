"""Piecewise self-maps of [0,1) with exact coefficients.

Pieces are polynomial of degree at most two (degree two only for the
logistic family); everything else is affine with coefficients in Q or
Q(sqrt 2).  The irrational coefficients enter through permutation maps:
equal subintervals permuted by translations realize a prescribed loop of
order patterns, and one transition is composed with an in-piece rotation by
(sqrt(2)-1)/l so that almost every orbit is aperiodic while Lebesgue measure
and the pattern distribution are untouched.

A map is held only as its frame, ``IntervalMap.frame``: a piecewise isometry
is scaled onto the integer lattice Z[sqrt2] of :mod:`.exactnum`, and any
other map keeps its pieces at scale 1.  A map built from pieces is put in its
frame by :func:`lattice_frame` when it is built; a permutation map is built
in its frame by :meth:`IntervalMap.from_frame`, which checks that its lattice
pieces at scale 2l tile [0, 2l) and that 2l is the scale :func:`lattice_frame`
would pick.  Exact work on a map (the subdivision, the
measure check) and :func:`map_to_json` run on the frame.  The Q(sqrt2)
pieces are derived from it only when something reads them: a block sum
gluing components, the sampler, or a caller.
``IntervalMap.measure_preserving`` is worked out in the frame too; map JSON
carries it as written by :func:`map_to_json`, and :func:`map_from_json`
ignores it.
"""

from __future__ import annotations

import heapq
import json
import math
from bisect import bisect_right
from collections import Counter
from functools import cached_property
from fractions import Fraction
from operator import attrgetter

from .caps import CYCLIC_LIFT_MAX
from .digraph import Subgraph, face_components
from .drift import DRIFTLESS, TOTALLY_DRIFTLESS, IndexReach, _synthesize, classify_loop
from .errors import (
    CapExceeded,
    CyclicObstruction,
    DriftObstruction,
    FormatError,
    InvariantViolation,
    NotRealizable,
    UnknownBuiltin,
)
from .exactnum import (
    Exact, Sqrt2, exact, exact_str, from_lattice, lattice_scale, lattice_str, parse_exact, to_lattice,
)
from .paths import DiPath
from .perms import PatternDistribution, Perm, _Record, load_json

ZERO = Fraction(0)
ONE = Fraction(1)


class Piece(_Record):
    """One half-open piece [lo, hi) with map x -> c x^2 + a x + b."""

    __slots__ = ("lo", "hi", "a", "b", "c")
    lo: Exact
    hi: Exact
    a: Exact
    b: Exact
    c: Exact

    def __init__(self, lo: Exact, hi: Exact, a: Exact, b: Exact, c: Exact = ZERO):
        if not lo < hi:
            raise ValueError(f"piece [{lo}, {hi}) is empty")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __call__(self, x):
        if self.c == 0:
            return self.a * x + self.b
        return (self.c * x + self.a) * x + self.b

    @property
    def affine(self) -> bool:
        return self.c == 0


class IntervalMap(_Record):
    """A self-map of [0,1), held as its frame: a scale S and pieces that tile [0, S).

    It is built from pieces that partition [0, 1), which :func:`lattice_frame`
    puts in their frame, or by :meth:`from_frame` from its frame.  Maps are
    immutable and equal when their frames and names are.
    """

    frame: tuple[int, tuple[Piece, ...]]
    name: str

    def __init__(self, pieces, name: str = ""):
        self.__dict__.update(frame=lattice_frame(_tiling(pieces, 1)), name=name)

    @classmethod
    def from_frame(cls, one: int, pieces, name: str = "") -> "IntervalMap":
        """The map whose frame is (one, pieces): its pieces conjugated by x -> one x, tiling [0, one).

        The frame must be the one :func:`lattice_frame` gives the map, so that
        a map has one frame and equal maps compare equal.  A piecewise
        isometry's scale and the int parts of its bounds and intercepts have
        gcd 2; any other map has scale 1.  Another frame is a ValueError.
        """
        tiles = _tiling(pieces, one)
        if not all(p.c == 0 and (p.a == 1 or p.a == -1) for p in tiles):
            if one != 1:
                raise ValueError(f"frame scale {one} of a map that is not a piecewise isometry must be 1")
        else:
            parts = [one]
            for p in tiles:
                for v in (p.lo, p.hi, p.b):
                    parts += (v.a, v.b) if type(v) is Sqrt2 else (v,)
            if set(map(type, parts)) != {int} or math.gcd(*parts) != 2:
                raise ValueError(f"frame scale {one} is not the lattice scale of this piecewise isometry")
        f = object.__new__(cls)
        f.__dict__.update(frame=(one, tiles), name=name)
        return f

    @cached_property
    def pieces(self) -> tuple[Piece, ...]:
        """The Q(sqrt2) pieces: the frame's, conjugated back by x -> x / S (the frame's own at S = 1)."""
        one, frame = self.frame
        if one == 1:
            return frame
        return tuple(
            Piece(from_lattice(p.lo, one), from_lattice(p.hi, one), exact(p.a), from_lattice(p.b, one),
                  exact(p.c * one))
            for p in frame
        )

    def piece_index(self, x) -> int:
        los = [p.lo for p in self.pieces]
        idx = bisect_right(los, x) - 1
        if idx < 0 or not self.pieces[idx].lo <= x < self.pieces[idx].hi:
            raise ValueError(f"{x} is outside [0, 1)")
        return idx

    def __call__(self, x):
        return self.pieces[self.piece_index(x)](x)

    @cached_property
    def measure_preserving(self) -> bool:
        """Whether the map preserves Lebesgue measure: :func:`preserves_measure`, run on the frame."""
        one, pieces = self.frame
        return all(p.affine for p in pieces) and _density_is_one(one, pieces)


def _tiling(pieces, one) -> tuple[Piece, ...]:
    """The pieces sorted by their left ends, checked to tile [0, one) with no gap or overlap."""
    ps = sorted(pieces, key=attrgetter("lo"))
    if not ps:
        raise ValueError("a map needs at least one piece")
    if ps[0].lo != 0 or ps[-1].hi != one:
        raise ValueError("pieces must cover [0, 1)")
    for left, right in zip(ps, ps[1:]):
        if left.hi != right.lo:
            ends = (left.hi, right.lo) if one == 1 else (from_lattice(left.hi, one), from_lattice(right.lo, one))
            raise ValueError("gap or overlap at {} != {}".format(*ends))
    return tuple(ps)


def iterate(f: IntervalMap, x, k: int) -> list:
    """The orbit (x, f x, ..., f^k x), in exact arithmetic for exact input."""
    orbit = [x]
    for _ in range(k):
        orbit.append(f(orbit[-1]))
    return orbit


# -- measure preservation ----------------------------------------------------


def preserves_measure(pieces: tuple[Piece, ...]) -> bool | None:
    """Exact Lebesgue-preservation check for affine pieces; None if non-affine.

    The pushforward density at y is the sum of 1/|slope| over pieces whose
    image covers y; the map preserves measure iff that sum is 1 on every cell
    of the image arrangement.  One sweep over the sorted span ends adds each
    piece's weight where its image starts and removes it where it ends.  It
    runs in the frame of :func:`lattice_frame`, where [0, 1) is [0, S).
    """
    if any(not p.affine for p in pieces):
        return None
    return _density_is_one(*lattice_frame(pieces))


def _density_is_one(one: int, pieces: tuple[Piece, ...]) -> bool:
    """The sweep of :func:`preserves_measure` over affine pieces in a frame of scale ``one``."""
    steps: dict[Exact, Exact] = {0: 0, one: 0}
    for p in pieces:
        if abs(p.a) < 1:  # weight 1/|slope| > 1 alone puts the density above 1 on the image
            return False
        ylo, yhi = _image_span(p.a, p.b, p.lo, p.hi)
        if ylo < 0 or yhi > one:
            return False
        w = 1 if p.a == 1 or p.a == -1 else ONE / abs(p.a)
        steps[ylo] = steps.get(ylo, 0) + w
        steps[yhi] = steps.get(yhi, 0) - w
    density = 0
    for y in sorted(steps)[:-1]:
        density += steps[y]
        if density != 1:
            return False
    return True


def _image_span(a: Exact, b: Exact, lo: Exact, hi: Exact) -> tuple[Exact, Exact]:
    """The image (low end, high end) of the interval from lo to hi under x -> a x + b."""
    ylo, yhi = a * lo + b, a * hi + b
    return (yhi, ylo) if a < 0 else (ylo, yhi)


def escaping_pieces(f: IntervalMap) -> list[str]:
    """One line per piece of f whose exact image, with a degree-2 piece's vertex inside it, leaves [0, 1]."""
    out = []
    for k, p in enumerate(f.pieces):
        ylo, yhi = _image_span(p.a, p.b, p.lo, p.hi) if p.c == 0 else sorted((p(p.lo), p(p.hi)))
        if p.c != 0 and p.lo < (vertex := -p.a / (2 * p.c)) < p.hi:
            ylo, yhi = min(ylo, p(vertex)), max(yhi, p(vertex))
        if ylo < 0 or yhi > 1:
            lo, hi, ylo, yhi = map(exact_str, (p.lo, p.hi, ylo, yhi))
            out.append(f"piece {k} maps [{lo}, {hi}) onto [{ylo}, {yhi}], outside [0, 1]")
    return out


def lattice_frame(pieces: tuple[Piece, ...]) -> tuple[int, tuple[Piece, ...]]:
    """A scale S and the pieces conjugated by x -> S x, which maps [0, 1) to [0, S).

    A piecewise isometry (every piece affine with slope +1 or -1) lands on
    the lattice Z[sqrt2]: S is :func:`exactnum.lattice_scale` of the bounds
    and intercepts, and the scaled slopes and the c = 0 of every piece are
    ints, so tests on them compare ints.  Any other map
    keeps S = 1 and its pieces, with int coefficients read as Fractions:
    :func:`exactnum.exact_div` takes an int for a lattice value.
    """
    if not all(p.c == 0 and (p.a == 1 or p.a == -1) for p in pieces):
        fields = ((p.lo, p.hi, p.a, p.b, p.c) for p in pieces)
        return 1, tuple(Piece(*(Fraction(v) if type(v) is int else v for v in vs)) for vs in fields)
    scale = lattice_scale(v for p in pieces for v in (p.lo, p.hi, p.b))
    return scale, tuple(
        Piece(to_lattice(p.lo, scale), to_lattice(p.hi, scale), int(p.a), to_lattice(p.b, scale), 0) for p in pieces
    )


# -- built-in maps -----------------------------------------------------------


def builtin(name: str, param=None) -> IntervalMap:
    """Construct a named map: rotation, doubling, tent, or logistic.

    Rotations take an offset in (0, 1); rational offsets are periodic, while
    a Q(sqrt2) offset gives the aperiodic rotation family.  Logistic accepts
    only the parameter 4 and is the one non-affine, non-measure-preserving
    inhabitant.  Doubling and tent take no parameter.
    """
    if name == "rotation":
        if param is None:
            raise ValueError("rotation needs an offset in (0, 1)")
        alpha = exact(param)
        if not 0 < alpha < 1:
            raise ValueError(f"rotation offset must lie in (0, 1), got {alpha}")
        pieces = (
            Piece(ZERO, 1 - alpha, ONE, alpha),
            Piece(1 - alpha, ONE, ONE, alpha - 1),
        )
        return IntervalMap(pieces, name=f"rotation({exact_str(alpha)})")
    if name in ("doubling", "tent") and param is not None:
        raise ValueError(f"{name} takes no parameter")
    if name == "doubling":
        half = Fraction(1, 2)
        pieces = (Piece(ZERO, half, Fraction(2), ZERO), Piece(half, ONE, Fraction(2), -ONE))
        return IntervalMap(pieces, name="doubling")
    if name == "tent":
        half = Fraction(1, 2)
        pieces = (Piece(ZERO, half, Fraction(2), ZERO), Piece(half, ONE, Fraction(-2), Fraction(2)))
        return IntervalMap(pieces, name="tent")
    if name == "logistic":
        if param is not None and Fraction(param) != 4:
            raise ValueError("only the logistic map with parameter 4 is supported")
        pieces = (Piece(ZERO, ONE, Fraction(4), ZERO, Fraction(-4)),)
        return IntervalMap(pieces, name="logistic(4)")
    raise UnknownBuiltin(f"no builtin named {name!r}")


def parse_map_spec(spec: str) -> IntervalMap:
    """CLI-facing map reference: 'doubling', 'rotation:3/10', 'logistic', ..."""
    name, colon, raw = spec.partition(":")
    try:
        return builtin(name, parse_exact(raw)) if colon else builtin(name)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"map spec {spec!r}: {exc}") from exc


# -- block sums ---------------------------------------------------------------


def _rescale_piece(p: Piece, shift: Exact, scale: Exact) -> Piece:
    """Conjugate a piece by x -> shift + scale * x (scale > 0)."""
    # y = shift + scale * q((x - shift) / scale) for q(u) = c u^2 + a u + b.
    c = p.c / scale if p.c != 0 else ZERO
    a = p.a - 2 * p.c * shift / scale if p.c != 0 else p.a
    b = p.c * shift * shift / scale - p.a * shift + scale * p.b + shift
    return Piece(shift + scale * p.lo, shift + scale * p.hi, a, b, c)


def block_sum(f: IntervalMap, g: IntervalMap, t) -> IntervalMap:
    """Run f on [0, t) and g on [t, 1), each rescaled into its block.

    Orbits never leave their block, so the pattern distribution of the sum is
    the t : (1-t) convex combination of the constituents', exactly.
    """
    t = exact(t)
    if not 0 < t < 1:
        raise ValueError(f"block weight must lie strictly between 0 and 1, got {t}")
    left = [_rescale_piece(p, ZERO, t) for p in f.pieces]
    right = [_rescale_piece(p, t, 1 - t) for p in g.pieces]
    return IntervalMap(tuple(left + right), name=f"block_sum({f.name}, {g.name}, {t})")


# -- cyclic rankings and permutation maps -------------------------------------


class CyclicRanking(_Record):
    """A bijection of cycle positions to ranks realizing a loop's windows."""

    __slots__ = ("rank",)
    rank: tuple[int, ...]

    def __init__(self, rank: tuple[int, ...]):
        if sorted(rank) != list(range(1, len(rank) + 1)):
            raise ValueError("rank must be a bijection onto 1..length")
        object.__setattr__(self, "rank", rank)

    @property
    def length(self) -> int:
        return len(self.rank)


def _value_order(e: Perm) -> list[int]:
    """The window slots of edge e sorted by their values: slot ``e^-1(1)`` first."""
    return sorted(range(len(e.word)), key=e.word.__getitem__)


def ranking_realizes(r: CyclicRanking, gamma: DiPath) -> bool:
    """Whether every cyclic window of ranks reproduces the matching edge.

    A window of distinct ranks has order pattern e exactly when its ranks
    rise along e's slots in value order.  Each window is read from the ranks
    written twice, and the first window that does not rise decides.
    """
    ell, rank = r.length, r.rank
    if ell != gamma.length or 0 < ell <= gamma.n:
        return False  # a window longer than the loop repeats a rank, so it never rises
    doubled = rank + rank
    orders: dict[Perm, list[int]] = {}
    for b, e in enumerate(gamma.edges):
        slots = orders.get(e)
        if slots is None:
            slots = orders[e] = _value_order(e)
        below = 0  # ranks start at 1
        for s in slots:
            x = doubled[b + s]
            if x <= below:
                return False
            below = x
    return True


def cyclic_lift(gamma: DiPath) -> CyclicRanking:
    """Rank the positions of a driftless loop so all cyclic windows match.

    Window constraints give strict comparisons between positions mod the loop
    length; any consistent ranking works, so one topological sort of the
    constraint digraph suffices and failure (a directed cycle) is reported as
    an obstruction rather than glossed over.  Each window adds only its w-1
    comparisons of consecutive values, whose transitive closure is the
    window's total order, so the partial order and the least ranking the
    min-heap sort picks are those of all pairwise comparisons.  A comparison
    two windows share is listed twice and counted twice in the in-degree, so
    a position is still ready exactly when all its predecessors are ranked.

    A loop that drifts is refused with its drift class, before any other
    error.  The class is worked out only when the lift fails: a ranking that
    realizes every window is a periodic lift, x_{l+j} = x_j, of the loop's
    windows.  Every relation the loop's poset forces holds strictly in any
    lift, so no chain of window inequalities can force x_j < x_{l+j} or
    x_j > x_{l+j}, and the drift diagonal is all 0: the loop is driftless.
    """
    gamma.require_loop()
    ell = gamma.length
    if ell > CYCLIC_LIFT_MAX:
        raise _lift_refusal(gamma, CapExceeded(f"loop length {ell} exceeds cyclic ranking cap {CYCLIC_LIFT_MAX}"))
    if ell < gamma.n + 1:  # x_0 and x_ell share the first window, which forces a drift
        raise _lift_refusal(gamma, InvariantViolation(f"a loop of length {ell} shorter than its window must drift"))
    succs: list[list[int]] = [[] for _ in range(ell)]
    indeg = [0] * ell
    steps: dict[Perm, list[tuple[int, int]]] = {}
    for b, e in enumerate(gamma.edges):
        pairs = steps.get(e)
        if pairs is None:
            slots = _value_order(e)
            pairs = steps[e] = list(zip(slots, slots[1:]))
        for low, high in pairs:
            high = (b + high) % ell
            succs[(b + low) % ell].append(high)
            indeg[high] += 1
    ready = [i for i in range(ell) if indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for u in succs[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(ready, u)
    if len(order) < ell:
        raise _lift_refusal(gamma, CyclicObstruction("window constraints force a cyclic chain of inequalities"))
    rank = [0] * ell
    for position_rank, pos in enumerate(order, start=1):
        rank[pos] = position_rank
    ranking = CyclicRanking(tuple(rank))
    if not ranking_realizes(ranking, gamma):
        raise _lift_refusal(gamma, InvariantViolation("cyclic ranking does not reproduce the loop's windows"))
    return ranking


def _lift_refusal(gamma: DiPath, error: Exception) -> Exception:
    """The error ``cyclic_lift`` raises: the drift obstruction when gamma drifts, else ``error``."""
    cls = classify_loop(gamma)
    if cls not in (DRIFTLESS, TOTALLY_DRIFTLESS):
        return CyclicObstruction(f"loop classifies as {cls}; it cannot close up cyclically")
    return error


def permutation_map(r: CyclicRanking) -> IntervalMap:
    """Translate equal pieces of [0,1) along the temporal cycle of a ranking.

    The piece of rank r(i) is translated onto the piece of rank r(i+1); the
    final transition additionally rotates within its target piece by
    (sqrt(2)-1)/l, so the map stays measure preserving, keeps each piece's
    image a single piece, and loses all rational periodicity.

    The map is built in its frame, on the lattice at scale S = 2l, the scale
    :func:`lattice_frame` finds for it: the piece of rank r is [2(r-1), 2r),
    a shift is 2(r(i+1) - r(i)) and the rotation is 2(sqrt2 - 1).  Its
    Q(sqrt2) pieces, the lattice ones divided by S, are derived only when read.
    """
    ell, rank = r.length, r.rank
    scale = 2 * ell
    delta = Sqrt2(-2, 2)  # (sqrt2 - 1) / ell, times the scale
    frame: list[Piece] = []
    for i in sorted(range(ell), key=rank.__getitem__):  # in x order, which the tiling check then keeps
        src, dst = rank[i], rank[(i + 1) % ell]
        lo, hi, shift = 2 * (src - 1), 2 * src, 2 * (dst - src)
        if i < ell - 1:
            frame.append(Piece(lo, hi, 1, shift, 0))
        else:
            cut = hi - delta
            frame.append(Piece(lo, cut, 1, shift + delta, 0))
            frame.append(Piece(cut, hi, 1, shift + delta - 2, 0))
    label = ",".join(map(str, r.rank)) if ell <= 16 else f"{ell} pieces"
    result = IntervalMap.from_frame(scale, frame, name=f"permutation_map({label})")
    if not result.measure_preserving:
        raise InvariantViolation(f"permutation map of {ell} pieces does not preserve measure")
    return result


# -- realization of flows ------------------------------------------------------


def _euler_circuit(H: Subgraph, mult: dict[Perm, int]) -> DiPath:
    """Closed walk from H's least vertex using each edge exactly its multiplicity (Hierholzer).

    Conservation of the scaled flow balances in- and out-multiplicity at every
    vertex and the component H is strongly connected, so the circuit exists.
    """
    # Each edge once per unit of multiplicity, so that pop() takes the least edge first.
    unused = [[(e, w) for e, w in reversed(row) for _ in range(mult[e])] for row in H.ranking.out]
    stack: list[tuple[int, Perm | None]] = [(0, None)]  # (place, the edge walked into it)
    circuit: list[Perm] = []
    while stack:
        v, into = stack[-1]
        if unused[v]:
            e, w = unused[v].pop()
            stack.append((w, e))
        else:
            stack.pop()
            if into is not None:
                circuit.append(into)
    circuit.reverse()
    if any(unused):
        raise InvariantViolation(f"Euler walk from {H.vertices()[0]} leaves edges unused: component not connected")
    return DiPath(H.n, tuple(circuit))


def realize_flow(mu: PatternDistribution, tol) -> IntervalMap:
    """A measure-preserving map whose exact pattern distribution is tol-close to mu.

    Per connected component of the support: scale the flow to integer edge
    multiplicities, synthesize a totally driftless loop delta in the
    component, check the loop length against ``CYCLIC_LIFT_MAX``, walk an
    Eulerian circuit beta through the multiplicities, and realize beta^N delta
    as a permutation map with N chosen so the loop's counting measure lands
    within tol of the component flow (the appended delta keeps the whole loop
    totally driftless, hence cyclically rankable).  Components are then glued
    by block sums weighted by their flow masses.

    The glued map's exact distribution is checked against the flow in the
    frame's lattice ints: a mass m of :func:`analysis.lattice_masses` on
    scale S and the flow's weight q on its own scale must meet
    |m scale - q S| tol_q <= tol_p S scale, for tol = tol_p / tol_q.  A miss
    raises InvariantViolation with the gap, built only then.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    from .flows import as_flow  # deferred: only realization needs flows

    flow = as_flow(mu)
    n = flow.n
    # The masses as ints q[e] = scale * flow(e) on a common denominator, and tol as tol_p / tol_q.
    scale = lattice_scale(flow.mass.values())
    q = {e: to_lattice(m, scale) for e, m in flow.mass.items()}
    tol_p, tol_q = Fraction(tol).as_integer_ratio()
    H = Subgraph(n - 1, frozenset(flow.mass))  # the support of a conserving flow is a face
    built: list[tuple[Fraction, IntervalMap]] = []
    for comp in face_components(H):
        piece = H.component(comp)
        try:
            delta = _synthesize(IndexReach(piece))
        except DriftObstruction as exc:
            raise NotRealizable(f"component at {piece.vertices()[0]} drifts") from exc
        # The component's weights q[e] / sum(q) in least terms are m_e / T with
        # m_e = q[e] / g and T = sum(m), g the gcd of the q[e].
        g = math.gcd(*(q[e] for e in comp.edges))
        mult = {e: q[e] // g for e in comp.edges}
        total = sum(mult.values())
        # With k repetitions edge e has frequency (k m_e + d_e) / (k T + D), so
        # its error is |d_e T - m_e D| / (T (k T + D)): the sup error
        # C / (T (k T + D)) falls with k, and the least k meeting tol is
        # explicit, ceil((C / (T tol) - D) / T), here in ints.
        D = delta.length
        counts = Counter(delta.edges)
        C = max(abs(counts[e] * total - mult[e] * D) for e in comp.edges)
        reps = max(1, -((D * total * tol_p - C * tol_q) // (total * total * tol_p)))
        if reps * total + D > CYCLIC_LIFT_MAX:
            raise CapExceeded(
                f"reaching tolerance {tol} needs a loop of {reps * total + D} edges, "
                f"cap {CYCLIC_LIFT_MAX}"
            )
        loop = _euler_circuit(piece, mult) ** reps * delta
        ranking = cyclic_lift(loop)
        built.append((Fraction(g * total, scale), permutation_map(ranking)))

    def glue(parts: list[tuple[Fraction, IntervalMap]]) -> IntervalMap:
        if len(parts) == 1:
            return parts[0][1]
        t = parts[0][0] / sum((m for m, _ in parts), ZERO)
        return block_sum(parts[0][1], glue(parts[1:]), t)

    result = glue(built)
    from .analysis import lattice_masses  # deferred: analysis imports maps

    worst, den = _flow_gap(*lattice_masses(result, n), q, scale)
    if worst * tol_q > tol_p * den:
        raise InvariantViolation(f"realization missed tolerance: {float(from_lattice(worst, den))} > {tol}")
    return result


def _flow_gap(one: int, masses: dict[tuple[int, ...], Exact], q: dict[Perm, int], scale: int) -> tuple[Exact, int]:
    """The sup gap between masses m / one by order and a flow q / scale, as (worst, den): worst / den.

    Each pattern's gap |m / one - q / scale| is |m scale - q one| / (one
    scale), read in the lattice values of :func:`analysis.lattice_masses`,
    so no pattern and no Fraction is built.
    """
    unmatched = dict(masses)
    gaps = [abs(unmatched.pop(tuple(_value_order(e)), 0) * scale - w * one) for e, w in q.items()]
    gaps += (m * scale for m in unmatched.values())
    return max(gaps), one * scale


# -- serialization -------------------------------------------------------------


def map_to_json(f: IntervalMap) -> str:
    """The map's name, measure flag and pieces, each value written from the frame as its Q(sqrt2) text.

    The text is that of ``json.dumps(..., sort_keys=True)``, written
    directly: every value but the name is the ASCII text of a number, which
    JSON writes as it is.
    """
    one, frame = f.frame
    # The frame tiles [0, S): a piece's high end is the next one's low end, and the last is S.
    ends = [lattice_str(p.lo, one) for p in frame] + ["1"]
    # Pieces share few slopes and intercepts: each is written once.
    slopes = {a: exact_str(a) for a in {p.a for p in frame}}
    shifts = {b: lattice_str(b, one) for b in {p.b for p in frame}}
    pieces = []
    for p, lo, hi in zip(frame, ends, ends[1:]):
        c = f'"c": "{exact_str(p.c * one)}", ' if p.c else ""
        pieces.append(f'{{"a": "{slopes[p.a]}", "b": "{shifts[p.b]}", {c}"hi": "{hi}", "lo": "{lo}"}}')
    flag = "true" if f.measure_preserving else "false"
    return f'{{"measure_preserving": {flag}, "name": {json.dumps(f.name)}, "pieces": [{", ".join(pieces)}]}}'


def map_from_json(text: str) -> IntervalMap:
    payload = load_json(text, "map", {"pieces"})
    name = payload.get("name", "")
    if not isinstance(name, str):
        raise FormatError(f"map JSON 'name' must be a string, got {name!r}")
    if not isinstance(payload["pieces"], list):
        raise FormatError("map JSON 'pieces' must be a list")
    pieces = []
    for i, rec in enumerate(payload["pieces"]):
        if not isinstance(rec, dict):
            raise FormatError(f"piece {i} must be an object")
        missing = {"lo", "hi", "a", "b"} - set(rec)
        if missing:
            raise FormatError(f"piece {i} missing keys {sorted(missing)}")
        values = [rec["lo"], rec["hi"], rec["a"], rec["b"], rec.get("c", "0")]
        if not all(isinstance(v, str) for v in values):
            raise FormatError(f"piece {i}: lo, hi, a, b and c must be strings")
        try:
            pieces.append(Piece(*map(parse_exact, values)))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"piece {i}: {exc}") from exc
    try:
        return IntervalMap(tuple(pieces), name=name)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
