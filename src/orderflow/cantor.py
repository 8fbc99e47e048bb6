"""Finite-depth realization of arbitrary compatible pattern towers.

Any compatible tower of distributions is the pattern sequence of some
(wildly non-measure-preserving) map.  The construction nests half-open
intervals I_sigma inside (1/4, 3/4] with lengths half the target masses,
places disjoint separator intervals J_sigma so that points drawn from a
compatible chain are automatically in the chain's order, and routes orbits
I -> J_2 -> J_3 -> ... by affine hops.  Dyadic shells near 0 and 1 carry
rescaled copies, which restores the other half of the mass geometrically.
The genuinely singular parts of the idea (a Cantor-set bijection with
measure-zero image) are replaced by affine maps at finite depth, with the
truncation error bounded explicitly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from fractions import Fraction

from .caps import SCALE_DEPTH_MAX, SEPARATOR_DEPTH_MAX
from .errors import CapExceeded, IncompatibleSequence, InvariantViolation
from .maps import IntervalMap, Piece, _image_span
from .perms import (
    HEAD,
    PatternDistribution,
    Perm,
    _Record,
    all_perms,
    is_compatible,
    preimages,
    push_mass,
    restrict,
)

ZERO = Fraction(0)
ONE = Fraction(1)
QUARTER = Fraction(1, 4)
CONFIDENCE_DELTA = 1e-3  # failure probability the sampling term of a verification bound allows


class IntervalRec(_Record):
    """A half-open interval (lo, hi]; may be empty (lo == hi)."""

    __slots__ = ("lo", "hi")
    lo: Fraction
    hi: Fraction

    def __init__(self, lo: Fraction, hi: Fraction):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


class IntervalTree(_Record):
    """Nested intervals I_sigma in (1/4, 3/4], one per pattern up to depth N.

    Level n partitions (1/4, 3/4] left-to-right in lexicographic order with
    |I_sigma| equal to half the target mass of sigma.  Each level's
    intervals add up to 1/2, so each keeps one at least, and the depth is
    the longest pattern.
    """

    __slots__ = ("intervals",)
    intervals: dict[Perm, IntervalRec]

    def __init__(self, intervals: dict[Perm, IntervalRec]):
        object.__setattr__(self, "intervals", intervals)

    @property
    def depth(self) -> int:
        return max(s.n for s in self.intervals)

    def children(self, sigma: Perm) -> list[Perm]:
        return sorted(p for p in preimages(sigma, HEAD) if p in self.intervals)


class SeparatorTree(_Record):
    """Disjoint open intervals J_sigma in [1/8, 7/8] ordering compatible chains.

    Points x_i drawn from J of the i-th chain element always realize the
    chain's top pattern; the root interval is the closed [1/4, 3/4].  Every
    pattern up to the depth has an interval, so the depth is the longest.
    """

    __slots__ = ("intervals",)
    intervals: dict[Perm, IntervalRec]

    def __init__(self, intervals: dict[Perm, IntervalRec]):
        object.__setattr__(self, "intervals", intervals)

    @property
    def depth(self) -> int:
        return max(s.n for s in self.intervals)


def _chain(sigma: Perm) -> list[Perm]:
    """sigma's ancestors under head restriction, from length 1 to sigma."""
    out = [sigma]
    while out[-1].n > 1:
        out.append(restrict(out[-1], HEAD))
    return list(reversed(out))


def build_interval_tree(mu_list: list[PatternDistribution]) -> IntervalTree:
    """Subdivide (1/4, 3/4] by the tower of target masses (exact arithmetic)."""
    if not mu_list:
        raise IncompatibleSequence("need distributions for lengths 1..N")
    for k, mu in enumerate(mu_list, start=1):
        if mu.n != k:
            raise IncompatibleSequence(f"expected length {k} at position {k}, got {mu.n}")
        if not mu.exact:
            raise IncompatibleSequence("interval trees need exact rational masses")
    for mu, mu_next in zip(mu_list, mu_list[1:]):
        if not is_compatible(mu, mu_next):
            raise IncompatibleSequence(
                f"lengths {mu.n} and {mu_next.n} fail the pushforward identity"
            )
    root = Perm((1,))
    intervals = {root: IntervalRec(QUARTER, Fraction(3, 4))}
    for mu in mu_list[1:]:
        for parent in all_perms(mu.n - 1):
            if parent not in intervals:
                continue
            cursor = intervals[parent].lo
            for child in sorted(preimages(parent, HEAD)):
                width = mu(child) / 2
                intervals[child] = IntervalRec(cursor, cursor + width)
                cursor += width
    # Drop empty intervals: zero-mass patterns own no points.
    intervals = {s: r for s, r in intervals.items() if r.length > 0}
    tree = IntervalTree(intervals)
    _check_interval_invariants(tree, mu_list)
    return tree


def _check_interval_invariants(tree: IntervalTree, mu_list: list[PatternDistribution]) -> None:
    for n, mu in enumerate(mu_list, start=1):
        level = sorted(
            (rec for s, rec in tree.intervals.items() if s.n == n), key=lambda r: r.lo
        )
        total = sum((rec.length for rec in level), ZERO)
        if total != Fraction(1, 2):
            raise InvariantViolation(f"level {n} covers {total}, not 1/2")
        for left, right in zip(level, level[1:]):
            if left.hi != right.lo:
                raise InvariantViolation(f"level {n} does not tile (1/4, 3/4] at {left.hi}")
        for s, rec in tree.intervals.items():
            if s.n != n:
                continue
            if rec.length != mu(s) / 2:
                raise InvariantViolation(f"|I_{s}| = {rec.length} is not half its mass {mu(s)}")
            if n > 1:
                parent = tree.intervals[restrict(s, HEAD)]
                if not (parent.lo <= rec.lo and rec.hi <= parent.hi):
                    raise InvariantViolation(f"I_{s} is not nested in its parent's interval")


def build_separator_tree(depth: int) -> SeparatorTree:
    """Place the separator intervals deterministically, level by level.

    Each new pattern must sit between the intervals of its chain neighbors
    (the values ranked one below and one above its final entry); the chosen
    spot is the middle third of the widest free gap inside that window, so
    positive gaps survive for the next level.
    """
    if depth > SEPARATOR_DEPTH_MAX:
        raise CapExceeded(f"separator tree reached depth {depth}, cap {SEPARATOR_DEPTH_MAX}")
    root = Perm((1,))
    intervals: dict[Perm, IntervalRec] = {root: IntervalRec(QUARTER, Fraction(3, 4))}
    spans = [(QUARTER, Fraction(3, 4))]  # every interval's ends, sorted
    lower_bound = Fraction(1, 8)
    upper_bound = Fraction(7, 8)
    for k in range(1, depth):
        for sigma in all_perms(k + 1):
            chain = _chain(sigma)
            parent = chain[-2]
            rank = sigma(k + 1)
            if rank >= 2:
                below = chain[parent.position_of(rank - 1) - 1]
                lo = intervals[below].hi
            else:
                lo = lower_bound
            if rank <= k:
                above = chain[parent.position_of(rank) - 1]
                hi = intervals[above].lo
            else:
                hi = upper_bound
            # Occupants of (lo, hi) are whole intervals (everything placed is
            # disjoint from the boundary intervals), so the free gaps are the
            # complement slots.
            best = max(_free_gaps(spans, lo, hi), key=lambda g: g[1] - g[0])
            width = (best[1] - best[0]) / 3
            rec = intervals[sigma] = IntervalRec(best[0] + width, best[0] + 2 * width)
            insort(spans, (rec.lo, rec.hi))
    return SeparatorTree(intervals)


def _free_gaps(spans: list[tuple[Fraction, Fraction]], lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """The parts of (lo, hi) that no span covers, left to right.

    ``spans`` are disjoint (lo, hi) pairs sorted by their left ends, so the
    scan starts at the last span that begins before lo.
    """
    gaps = []
    edge = lo
    for s_lo, s_hi in spans[max(bisect_left(spans, (lo,)) - 1, 0) :]:
        if s_lo >= hi:
            break
        if s_hi <= edge:
            continue
        if s_lo > edge:
            gaps.append((edge, s_lo))
        edge = s_hi
    if edge < hi:
        gaps.append((edge, hi))
    return gaps


def assemble_truncated_map(tree: IntervalTree, scale_depth: int) -> IntervalMap:
    """The finite-depth map: affine hops I -> K_2 -> ... -> K_N plus shells.

    Orbits started in I_sigma visit tiny landing zones K inside the separator
    intervals of sigma's chain (in a separator tree of the same depth), so
    their first N patterns match sigma's ancestors.  The shells g_m^{-1}
    replicate the structure into (0, 2^-m] and (1 - 2^-m, 1], restoring all
    but 2^-M of the mass; landing zones are sized so that everything they
    displace also fits inside the 2^(1-M) deviation budget.  Unclaimed
    leftovers become identity placeholders, whose orbits tie immediately and
    get discarded (and counted) by samplers.
    """
    sep = build_separator_tree(tree.depth)
    if scale_depth > SCALE_DEPTH_MAX:
        raise CapExceeded(f"scale depth reached {scale_depth}, cap {SCALE_DEPTH_MAX}")
    N = tree.depth
    M = scale_depth

    # Landing zone K_sigma: centered in J_sigma, shrunk so the total landing
    # mass (with all shell copies) stays below 2^(-M-1).
    kappa = Fraction(1, 2 ** (M + 2))
    landing: dict[Perm, IntervalRec] = {}
    for sigma, J in sep.intervals.items():
        if sigma.n < 2 or sigma not in tree.intervals:
            continue
        width = J.length * kappa
        mid = J.midpoint()
        landing[sigma] = IntervalRec(mid - width / 2, mid + width / 2)

    def affine_between(src: IntervalRec, dst: IntervalRec) -> tuple[Fraction, Fraction]:
        slope = dst.length / src.length
        return slope, dst.lo - slope * src.lo

    base_pieces: list[Piece] = []
    if N >= 2:
        # Hop 1: I_sigma2 -> K_sigma2 on the base region.
        for sigma in all_perms(2):
            if sigma not in tree.intervals:
                continue
            src = tree.intervals[sigma]
            a, b = affine_between(src, landing[sigma])
            base_pieces.append(Piece(src.lo, src.hi, a, b))
        # Hops k -> k+1 between landing zones (domains are the forwarded
        # images of the children's intervals).
        for k in range(2, N):
            for sigma in all_perms(k):
                if sigma not in tree.intervals or sigma not in landing:
                    continue
                a_k, b_k = affine_between(tree.intervals[sigma], landing[sigma])
                for child in tree.children(sigma):
                    src = tree.intervals[child]
                    image = IntervalRec(a_k * src.lo + b_k, a_k * src.hi + b_k)
                    a_c, b_c = affine_between(src, landing[child])
                    a = a_c / a_k
                    b = b_c - a_c * b_k / a_k
                    base_pieces.append(Piece(image.lo, image.hi, a, b))

    half = Fraction(1, 2)

    def halved(piece: Piece) -> list[Piece]:
        if piece.lo < half < piece.hi:
            return [
                Piece(piece.lo, half, piece.a, piece.b),
                Piece(half, piece.hi, piece.a, piece.b),
            ]
        return [piece]

    def conjugate(piece: Piece, scale: Fraction) -> Piece:
        # g^{-1} . piece . g with g(x) = x/scale below 1/2 (after g) and
        # g(x) = 1 - (1-x)/scale above; branch chosen per side.
        if piece.hi <= half:
            d_a, d_b = 1 / scale, ZERO
        else:
            d_a, d_b = 1 / scale, 1 - 1 / scale
        if _image_span(piece.a, piece.b, piece.lo, piece.hi)[1] <= half:
            i_a, i_b = scale, ZERO
        else:
            i_a, i_b = scale, 1 - scale
        a = i_a * piece.a * d_a
        b = i_a * (piece.a * d_b + piece.b) + i_b
        return Piece((piece.lo - d_b) / d_a, (piece.hi - d_b) / d_a, a, b)

    pieces: list[Piece] = []
    claimed: list[tuple[Fraction, Fraction]] = []  # the pieces' ends, sorted

    def place(piece: Piece) -> None:
        # First come, first served: the dyadic-shell copies of the landing
        # zones land exactly where the next shell's main copy goes, so later
        # pieces yield.  This is the finite analogue of excluding points
        # already defined, and the yielded mass is part of the truncation
        # budget.
        for lo, hi in _free_gaps(claimed, piece.lo, piece.hi):
            pieces.append(Piece(lo, hi, piece.a, piece.b))
            insort(claimed, (lo, hi))

    for piece in base_pieces:
        place(piece)
    for m in range(2, M + 1):
        scale = Fraction(1, 2 ** (m - 1))
        for whole in base_pieces:
            for part in halved(whole):
                place(conjugate(part, scale))

    # Identity placeholders on everything never claimed.
    pieces.extend(Piece(lo, hi, ONE, ZERO) for lo, hi in _free_gaps(claimed, ZERO, ONE))
    return IntervalMap(tuple(pieces), name=f"cantor(depth={N}, shells={M})")


class VerificationRow(_Record):
    __slots__ = ("n", "deviation", "bound")
    n: int
    deviation: float
    bound: float

    def __init__(self, n: int, deviation: float, bound: float):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "deviation", deviation)
        object.__setattr__(self, "bound", bound)

    @property
    def passed(self) -> bool:
        return self.deviation <= self.bound


class VerificationReport(_Record):
    __slots__ = ("rows", "samples", "excluded")
    rows: list[VerificationRow]
    samples: int
    excluded: int

    def __init__(self, rows: list[VerificationRow], samples: int, excluded: int):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "excluded", excluded)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def verify_construction(
    f: IntervalMap,
    mu_list: list[PatternDistribution],
    samples: int,
    seed,
    scale_depth: int,
) -> VerificationReport:
    """Empirical sup-norm deviation from each target, with its analytic budget.

    The budget per length n is the truncation term 2^{1-scale_depth} plus a
    Hoeffding-style sampling term; identity-placeholder hits are excluded
    from the histogram and reported.
    """
    from .analysis import empirical_distribution

    N = len(mu_list)
    report = empirical_distribution(f, N, samples, seed)
    excluded = report.discards
    kept = samples - excluded
    rows = []
    # Counts at the full depth project consistently onto the shorter lengths.
    counts_n = {N: report.counts}
    for n in range(N - 1, 0, -1):
        counts_n[n] = push_mass(counts_n[n + 1], HEAD)
    for n in range(1, N + 1):
        mu = mu_list[n - 1]
        empirical = {s: c / kept for s, c in counts_n[n].items()}
        worst = 0.0
        for s in set(empirical) | set(mu.mass):
            worst = max(worst, abs(empirical.get(s, 0.0) - float(mu(s))))
        bound = 2.0 ** (1 - scale_depth) + 4 * math.sqrt(
            math.log(2 * math.factorial(n) * N / CONFIDENCE_DELTA) / samples
        )
        rows.append(VerificationRow(n, worst, bound))
    return VerificationReport(rows, samples, excluded)


def uniform_tower(depth: int) -> list[PatternDistribution]:
    if depth > SEPARATOR_DEPTH_MAX:
        raise CapExceeded(f"separator tree reached depth {depth}, cap {SEPARATOR_DEPTH_MAX}")
    return [PatternDistribution.uniform(n) for n in range(1, depth + 1)]
