"""Paths on permutation digraphs and their posets.

A path of length l on G_n is determined by its edge sequence (each edge in
S_{n+1}, consecutive windows agreeing); it constrains l + n real values, and
the poset of forced order relations among them decides exactly which
permutations of S_{l+n} project onto the path.  Lifts of a path are the
linear extensions of its poset, which is the central oracle equivalence the
test suite leans on: the package lists and counts lifts by one growth step
of the transfer count, and the tests compare both with the poset's
extensions.
"""

from __future__ import annotations

import json
from typing import Collection, Iterable, Iterator, Sequence

from .caps import LIFT_LEVEL_MAX
from .errors import CapExceeded, EndpointMismatch, FormatError, InvariantViolation, LengthMismatch, NotALoop
from .perms import HEAD, TAIL, Perm, _Record, _trusted, json_length, load_json, order_pattern, perm, restrict


class DiPath(_Record):
    """A path on G_n as an edge sequence; a length-0 path stores its vertex."""

    __slots__ = ("n", "edges", "start")
    n: int
    edges: tuple[Perm, ...]
    start: Perm | None

    def __init__(self, n: int, edges: tuple[Perm, ...], start: Perm | None = None):
        if not edges:
            if start is None or start.n != n:
                raise ValueError("a length-0 path needs its single vertex of length n")
        else:
            if start is not None and start != restrict(edges[0], HEAD):
                raise ValueError("explicit start vertex disagrees with the first edge")
            start = None  # derived; keep equality canonical
            for e in edges:
                if e.n != n + 1:
                    raise ValueError(f"edge {e} has length {e.n}, expected {n + 1}")
            for a, b in zip(edges, edges[1:]):
                if restrict(a, TAIL) != restrict(b, HEAD):
                    raise ValueError(f"consecutive edges {a}, {b} disagree on their shared vertex")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "start", start)

    @property
    def length(self) -> int:
        return len(self.edges)

    def vertices(self) -> tuple[Perm, ...]:
        if not self.edges:
            return (self.start,)
        verts = [restrict(self.edges[0], HEAD)]
        verts.extend(restrict(e, TAIL) for e in self.edges)
        return tuple(verts)

    @property
    def first_vertex(self) -> Perm:
        return self.start if not self.edges else restrict(self.edges[0], HEAD)

    @property
    def last_vertex(self) -> Perm:
        return self.start if not self.edges else restrict(self.edges[-1], TAIL)

    @property
    def is_loop(self) -> bool:
        return self.length >= 1 and self.first_vertex == self.last_vertex

    def require_loop(self) -> "DiPath":
        if not self.is_loop:
            raise NotALoop(f"path from {self.first_vertex} to {self.last_vertex} is not a loop")
        return self

    def __mul__(self, other: "DiPath") -> "DiPath":
        return concat(self, other)

    def __pow__(self, k: int) -> "DiPath":
        self.require_loop()
        if k < 1:
            raise ValueError("loop powers need k >= 1")
        return _joined(self.n, self.edges * k)

    def rotate(self, k: int) -> "DiPath":
        """The same loop traversed starting k edges later."""
        self.require_loop()
        k %= self.length
        return _joined(self.n, self.edges[k:] + self.edges[:k])


def path(n: int, edges: Sequence, start=None) -> DiPath:
    return DiPath(n, tuple(perm(e) for e in edges), None if start is None else perm(start))


def _joined(n: int, edges: tuple[Perm, ...]) -> DiPath:
    """A nonempty path joined from checked paths whose seams were checked.

    Skips the checks of ``DiPath.__init__``, which would check every edge pair again.
    """
    p = object.__new__(DiPath)
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "edges", edges)
    object.__setattr__(p, "start", None)
    return p


def concat(p: DiPath, q: DiPath) -> DiPath:
    if p.n != q.n:
        raise EndpointMismatch(f"paths live on G_{p.n} and G_{q.n}")
    if p.last_vertex != q.first_vertex:
        raise EndpointMismatch(f"cannot join at {p.last_vertex} != {q.first_vertex}")
    if not q.edges:
        return p
    if not p.edges:
        return q
    return _joined(p.n, p.edges + q.edges)


def _one_step_down(p: DiPath) -> DiPath:
    # The vertex sequence becomes the edge sequence one level down.
    return DiPath(p.n - 1, p.vertices())


def project(obj: Perm | DiPath, n: int) -> DiPath:
    """Iterated one-step projection down to G_n.

    A permutation sigma of S_m is a length-0 path on G_m; its projection to
    G_n is the path of length m - n whose edges are the order patterns of the
    consecutive (n+1)-windows of sigma.
    """
    if n < 1:
        raise ValueError("target level must be at least 1")
    p = DiPath(obj.n, (), obj) if isinstance(obj, Perm) else obj
    if n > p.n:
        raise ValueError(f"cannot project a path on G_{p.n} up to G_{n}")
    while p.n > n:
        p = _one_step_down(p)
    return p


def _edge_gaps(edges: Iterable[Perm]) -> dict[tuple[int, ...], list[int]]:
    """Head pattern -> how many of its values lie below the last, one entry per edge."""
    gaps: dict[tuple[int, ...], list[int]] = {}
    for e in edges:
        gaps.setdefault(order_pattern(e.word[:-1]).word, []).append(e.word[-1] - 1)
    return gaps


def _lift_step(states: dict[tuple[int, ...], int], n: int, i: int, gaps: dict, drop: int) -> dict:
    """One step of the transfer count for consecutive patterns (Elizalde & Noy 2003).

    A state, ranks among the i values placed, counts the patterns it stands
    for.  It grows by a last value in each gap (see :func:`_edge_gaps`) its
    last n ranks' pattern allows, and drops its first ``drop`` ranks.  As
    they grow, a step's states may hold as many ranks as ``LIFT_LEVEL_MAX``
    windows of n ranks (drop=1) do; whole patterns (drop=0) hold i + 1 each.

    Windows merge, so a window step's work, its transitions (each state
    times the ranks it allows), can pass its states by far once i is large.
    It may make as many as ``LIFT_LEVEL_MAX`` states of a step into S_10 can,
    each allowing at most 10 ranks, and is refused before a state that would
    pass that is grown.  Each transition of whole patterns is a new pattern,
    which the bound on ranks already counts.
    """
    grown: dict[tuple[int, ...], int] = {}
    cap = LIFT_LEVEL_MAX * n
    work_cap = LIFT_LEVEL_MAX * 10
    made = 0
    for s, c in states.items():
        window = s[-n:]
        bounds = (0, *sorted(window), i + 1)
        allowed = gaps.get(order_pattern(window).word, ())
        if drop:
            made += sum(bounds[k + 1] - bounds[k] for k in allowed)
            if made > work_cap:
                raise CapExceeded(
                    f"window count in S_{i + 1} reached {made} transitions (states x allowed ranks), cap {work_cap}"
                )
        for k in allowed:
            for r in range(bounds[k] + 1, bounds[k + 1] + 1):
                t = (*(x + (x >= r) for x in s[drop:]), r)  # ranks >= r move up by one
                grown[t] = grown.get(t, 0) + c
        if drop and len(grown) > LIFT_LEVEL_MAX:
            raise CapExceeded(f"window count in S_{i + 1} reached {len(grown)} states, cap {LIFT_LEVEL_MAX}")
        if not drop and (held := len(grown) * (i + 1)) > cap:
            raise CapExceeded(f"lift level in S_{i + 1} reached {held} ranks ({len(grown)} patterns), cap {cap}")
    return grown


def allowed_counts(edges: Collection[Perm], n: int, m_max: int) -> Iterator[int]:
    """|A_m| for m = n+1..m_max: the patterns of S_m whose every (n+1)-window is in ``edges``.

    The transfer count from every head pattern, with every step allowing every edge.
    """
    gaps = _edge_gaps(edges)
    counts = dict.fromkeys(gaps, 1)
    for i in range(n, m_max):
        counts = _lift_step(counts, n, i, gaps, drop=1)
        yield sum(counts.values())


def _lift_states(p: DiPath, drop: int) -> dict[tuple[int, ...], int]:
    """The transfer count from p's first vertex after every edge of p, step b allowing only edge b."""
    states = {p.first_vertex.word: 1}
    for i, e in enumerate(p.edges, start=p.n):
        states = _lift_step(states, p.n, i, _edge_gaps([e]), drop)
    return states


def lift_count(p: DiPath) -> int:
    """How many permutations of S_m, m = length + n, project onto p.

    Its states keep the last n ranks; the total is also the number of linear
    extensions of :func:`build_poset` (p).
    """
    return sum(_lift_states(p, drop=1).values())


def lifts(p: DiPath) -> list[Perm]:
    """All permutations of S_m, m = length + n, projecting onto p, in lexicographic order.

    The same steps as :func:`lift_count`, each state keeping all its ranks,
    so only the ranks a step holds bound the work, not m: the zig-zag path
    (132, 312)^20 132 has one lift in S_43.  Surjectivity of the projection
    guarantees the result is never empty.
    """
    words = _lift_states(p, drop=0)
    if not words:
        raise InvariantViolation(f"no lift of a path of length {p.length} on G_{p.n}; lifting is surjective")
    return [_trusted(w) for w in sorted(words)]


# -- the poset of a path -----------------------------------------------------


class PathPoset(_Record):
    """Forced order relations among the m values realizing a path.

    ``leq`` is a tuple of m bitmasks: bit j of row i is set iff element i+1
    is <= element j+1 (1-indexed elements, 0-indexed bits).  The relation is
    reflexive, antisymmetric, and transitively closed.
    """

    __slots__ = ("leq",)
    leq: tuple[int, ...]

    def __init__(self, leq: tuple[int, ...]):
        for i, row in enumerate(leq):
            if not row >> i & 1:
                raise ValueError("leq must be reflexive")
        _check_antisymmetry(leq)
        closed = _transitive_closure(leq)
        if tuple(closed) != tuple(leq):
            raise ValueError("leq must be transitively closed")
        object.__setattr__(self, "leq", leq)

    @property
    def m(self) -> int:
        return len(self.leq)

    def holds(self, i: int, j: int) -> bool:
        """Whether x_i <= x_j (1-indexed)."""
        return bool(self.leq[i - 1] >> (j - 1) & 1)

    def comparability(self, i: int, j: int) -> str:
        down = self.holds(i, j)
        up = self.holds(j, i)
        if down and up:
            return "equal"
        if down:
            return "leq"
        if up:
            return "geq"
        return "incomparable"

    def covers(self) -> list[tuple[int, int]]:
        """Hasse diagram as (lower, upper) pairs, 1-indexed."""
        out = []
        for i in range(self.m):
            for j in range(self.m):
                if i == j or not self.leq[i] >> j & 1:
                    continue
                strictly_between = any(
                    k != i and k != j and self.leq[i] >> k & 1 and self.leq[k] >> j & 1
                    for k in range(self.m)
                )
                if not strictly_between:
                    out.append((i + 1, j + 1))
        return out


def _check_antisymmetry(rows: Sequence[int]) -> None:
    for i, row in enumerate(rows):
        for j in range(i + 1, len(rows)):
            if row >> j & 1 and rows[j] >> i & 1:
                raise ValueError(f"elements {i + 1} and {j + 1} compare both ways")


def _transitive_closure(rows: Sequence[int]) -> list[int]:
    # Warshall on the boolean semiring with rows as bitmasks; updating in
    # place makes a single sweep over intermediate vertices sufficient.
    closed = list(rows)
    m = len(closed)
    for k in range(m):
        bit = 1 << k
        row_k = closed[k]
        for i in range(m):
            if closed[i] & bit:
                closed[i] |= row_k
    return closed


def build_poset(p: DiPath) -> PathPoset:
    """Close the edge-window total orders of a path into its poset.

    Each edge e_b totally orders the window of elements b..b+n; the vertex
    windows are implied whenever the path has an edge.  Every build checks
    the closure's antisymmetry, but does not close the closed rows again.
    """
    n = p.n
    if p.length == 0:
        m = n
        word = p.start.word
        rows = [1 << i for i in range(m)]
        for i in range(m):
            for j in range(m):
                if word[i] <= word[j]:
                    rows[i] |= 1 << j
        return _closed_poset(tuple(rows))
    m = p.length + n
    rows = [1 << i for i in range(m)]
    for b, e in enumerate(p.edges):
        word = e.word
        for c in range(n + 1):
            for d in range(n + 1):
                if word[c] <= word[d]:
                    rows[b + c] |= 1 << (b + d)
    return _closed_poset(tuple(_transitive_closure(rows)))


def _closed_poset(leq: tuple[int, ...]) -> PathPoset:
    """The poset of reflexive, transitively closed rows the package built itself.

    Skips the second closure that ``PathPoset`` computes to check a caller's
    rows, but keeps the antisymmetry check, the one check such rows can fail.
    """
    _check_antisymmetry(leq)
    poset = object.__new__(PathPoset)
    object.__setattr__(poset, "leq", leq)
    return poset


def comparability(p: DiPath, i: int, j: int, oracle: bool = False) -> str:
    """Relation between x_i and x_j: 'leq', 'geq', 'equal' or 'incomparable'.

    With ``oracle=True`` the answer is recomputed by enumerating every lift
    and intersecting their orders; the two methods must agree.
    """
    m = p.length + p.n
    if not (1 <= i <= m and 1 <= j <= m):
        raise LengthMismatch(f"indices must lie in 1..{m}, got {i} and {j}")
    answer = build_poset(p).comparability(i, j)
    if oracle:
        sigmas = lifts(p)
        down = all(s(i) <= s(j) for s in sigmas)
        up = all(s(i) >= s(j) for s in sigmas)
        brute = "equal" if down and up else "leq" if down else "geq" if up else "incomparable"
        if brute != answer:
            raise InvariantViolation(f"poset says {answer}, lift oracle says {brute}")
    return answer


# -- serialization ----------------------------------------------------------


def path_to_json(p: DiPath) -> str:
    payload: dict = {"n": p.n, "edges": [str(e) for e in p.edges]}
    if not p.edges:
        payload["start"] = str(p.start)
    return json.dumps(payload, sort_keys=True)


def path_from_json(text: str) -> DiPath:
    payload = load_json(text, "path", {"n", "edges"})
    n = json_length(payload, "path")
    try:
        return path(n, payload["edges"], payload.get("start"))
    except (ValueError, TypeError) as exc:
        raise FormatError(f"path JSON: {exc}") from exc


def poset_to_json(P: PathPoset) -> str:
    return json.dumps({"m": P.m, "covers": P.covers()}, sort_keys=True)
