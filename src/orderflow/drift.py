"""Drift profiles and the drift obstruction.

Walking a loop on G_n forces order relations between the n values seen at the
start and the n values seen one period later.  ``DriftProfile`` condenses a
path's poset into two monotone maps: ``maxmap[i]`` names the least final
value forced above initial value i (sentinel n+1 = "none, unbounded above")
and ``minmap[i]`` the greatest final value forced below it (sentinel 0).
Profiles compose along concatenation one index at a time: the bounds on
initial value i after a path depend only on its bounds before the last edge
and on that edge.  So the diagonal sign at (v, j) over *all* loops at v is
fixed by the index states (vertex, max-index, min-index) reachable from
(v, j, j), of which there are at most |V| (n+2)^2, and a breadth-first search
over them decides the realizability criterion for polytope faces in
polynomial time.

Drift is all-or-none over the vertices of a strongly connected edge set, so
one vertex decides it.  A vertex w *drifts* when at some index every
nonempty loop at w (inside the edge set) has one and the same nonzero
diagonal sign.  Read ``maxmap`` in value ranks: for a path P from u to w,
F_P(r) is the rank, among the values at w, of the least final value forced
above the initial value of rank r, and inf when none is.  Composition gives
F_PQ = F_Q o F_P with inf absorbing, and a loop at v has sign + at index j
exactly when F(r) <= r, r being the rank of index j in v.  Likewise G_P reads
``minmap``, with 0 absorbing, and the sign is - exactly when G(r) >= r: the
two never hold together on a diagonal, since x_j <= y_j <= x_j would make the
initial and the final value one position of the orbit, and only the empty
loop has that.

Claim: if a vertex v drifts, so does every vertex w of the edge set.  Say v
drifts at index j (rank r_j) with sign +, and w does not drift.  Then no
rank r at w has every loop of sign +: there is a loop g_r at w with
F_{g_r}(r) > r.  Strong connectivity gives paths p from v to w and q from w
to v.  Chain r_0 = F_p(r_j) and r_{k+1} = F_{g_{r_k}}(r_k) while r_k is
finite; the ranks rise strictly within 1..n, so some r_m is inf with m <= n.
The loop p g_{r_0} ... g_{r_{m-1}} q at v has F(r_j) = F_q(inf) = inf > r_j,
so its sign at j is not +, against the drift at v.  The sign - is the mirror
image: loops g_r with G_{g_r}(r) < r push the chain down to 0.

So the least vertex drifts whenever any vertex does, and the first
(vertex, index, sign) witness in sorted order always lies at the least
vertex: ``IndexReach.verdict`` searches its n indices and no others.

The search runs on the component's ``Subgraph.ranking``, which a face's
component takes from the face's own ranking (``Subgraph.component``), so a
decision ranks its vertices once.  A state (place, a, b) is one int, with
a and b the max- and min-index among 0..n+1, and each place's transition
row is built once for all n searches.  A search is a breadth-first pass
that runs only as far as its reader asks: the verdict stops a pass at the
first zero sign or the second nonzero sign at the least vertex, and
synthesis resumes the same passes for its loops.  Discovery order and
parent pointers are those of the whole pass, so witnesses and loops are
the same as a full search gives; ``tests/drift_oracle.py`` keeps the
tuple-state search as a second route.
"""

from __future__ import annotations

import functools
import json
from operator import itemgetter
from typing import Iterator

from .caps import SYNTHESIS_LENGTH_MAX
from .digraph import Subgraph, face_components, head, shortest_paths, tail
from .errors import (
    CapExceeded,
    DimensionMismatch,
    DriftObstruction,
    EndpointMismatch,
    InvariantViolation,
    NotStronglyConnected,
)
from .paths import DiPath, _joined, build_poset, concat
from .perms import Perm, _Record

# Loop classifications, weakest to strongest.
DRIFTS = "drifts"
PARTIALLY_DRIFTLESS = "partially_driftless"
DRIFTLESS = "driftless"
TOTALLY_DRIFTLESS = "totally_driftless"

PLUS = "+"
MINUS = "-"
ZERO = "0"


def _sign(end: Perm, above: int, below: int, j: int) -> str:
    """Sign of an initial value bounded by final indices (above, below) against final value j.

    Both relations holding at once means the two poset elements coincide
    (possible only when the loop is shorter than its window); the inclusive
    definition then reads the entry as +.
    """
    v = end.word
    if above <= len(v) and v[above - 1] <= v[j - 1]:
        return PLUS
    if below >= 1 and v[below - 1] >= v[j - 1]:
        return MINUS
    return ZERO


class DriftProfile(_Record):
    """Max/Min data of a path, with its endpoint vertices.

    Values are indices into the final vertex, with 0 standing for "minus
    infinity" and n+1 for "plus infinity"; both sentinels are fixed under
    composition.
    """

    __slots__ = ("start", "end", "maxmap", "minmap")
    start: Perm
    end: Perm
    maxmap: tuple[int, ...]
    minmap: tuple[int, ...]

    def __init__(self, start: Perm, end: Perm, maxmap: tuple[int, ...], minmap: tuple[int, ...]):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "maxmap", maxmap)
        object.__setattr__(self, "minmap", minmap)

    @property
    def n(self) -> int:
        return len(self.maxmap)

    def diagonal(self, j: int) -> str:
        """Drift sign at index j: forced up (+), forced down (-), or free (0)."""
        return self.entry(j, j)

    def entry(self, i: int, j: int) -> str:
        """Sign of the forced relation between initial value i and final value j."""
        return _sign(self.end, self.maxmap[i - 1], self.minmap[i - 1], j)


def identity_profile(v: Perm) -> DriftProfile:
    ident = tuple(range(1, v.n + 1))
    return DriftProfile(v, v, ident, ident)


def edge_profile(e: Perm) -> DriftProfile:
    """Profile of the length-1 path along edge e (a totally ordered window).

    Built on the memoised ``_edge_tables``, which path folds and
    reachability searches read without building a profile per edge.
    """
    up, down = _edge_tables(e)
    return DriftProfile(head(e), tail(e), up[1:-1], down[1:-1])


def _padded(p: DriftProfile) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """p's maxmap and minmap with index 0 and n+1, the sentinels, mapped to themselves."""
    top = p.n + 1
    return (0, *p.maxmap, top), (0, *p.minmap, top)


def _fold(start: Perm, end: Perm, tables) -> DriftProfile:
    """The profile from ``start`` to ``end`` of padded tables composed left to right.

    Each index is looked up in the next table, and the padding keeps the
    sentinels fixed without a test.
    """
    tables = iter(tables)
    up, down = next(tables)
    for up_e, down_e in tables:
        up = itemgetter(*up)(up_e)  # a tuple: the padding gives at least three indices
        down = itemgetter(*down)(down_e)
    return DriftProfile(start, end, up[1:-1], down[1:-1])


def compose(a: DriftProfile, b: DriftProfile) -> DriftProfile:
    """Profile of a concatenation: apply a's maps, then b's, sentinels fixed."""
    if a.n != b.n:
        raise DimensionMismatch(f"profiles of lengths {a.n} and {b.n}")
    if a.end != b.start:
        raise EndpointMismatch(f"profiles meet at {a.end} != {b.start}")
    return _fold(a.start, b.end, (_padded(a), _padded(b)))


@functools.lru_cache(maxsize=1 << 14)
def _edge_tables(e: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Edge e's maxmap and minmap, padded as by ``_padded``.

    The window x_0..x_n of e puts initial value i at x_{i-1} and final value
    j at x_j, so for i >= 2 the initial value i is the final value i - 1
    itself, and both maps send i to i - 1.  Only x_0 lies outside the final
    window: the least final value above it is the slot of the value one
    larger in e's word (n+1 when there is none), and the greatest below it
    the slot of the value one smaller (0 when there is none).
    """
    word = e.word
    n, first = len(word) - 1, word[0]
    inner = tuple(range(1, n))
    up = word.index(first + 1) if first <= n else n + 1
    down = word.index(first - 1) if first > 1 else 0
    return (0, up, *inner, n + 1), (0, down, *inner, n + 1)


def path_profile(p: DiPath) -> DriftProfile:
    """The profile of a path: the left fold of ``compose`` over its edge profiles."""
    if p.length == 0:
        return identity_profile(p.start)
    return _fold(p.first_vertex, p.last_vertex, map(_edge_tables, p.edges))


class DriftMatrix(_Record):
    """All pairwise drift signs of a loop."""

    __slots__ = ("entries",)
    entries: tuple[tuple[str, ...], ...]

    def __init__(self, entries: tuple[tuple[str, ...], ...]):
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def at(self, i: int, j: int) -> str:
        return self.entries[i - 1][j - 1]

    def diagonal(self) -> tuple[str, ...]:
        return tuple(self.entries[i][i] for i in range(self.n))


def loop_drift(gamma: DiPath, method: str = "profile") -> DriftMatrix:
    """Drift matrix of a loop, via profile composition or the poset oracle.

    The two methods implement the same relation (forced order between the
    start window and the window one period later) and must agree; tests
    exercise both.
    """
    gamma.require_loop()
    n = gamma.n
    if method == "profile":
        prof = path_profile(gamma)
        rows = tuple(tuple(prof.entry(i, j) for j in range(1, n + 1)) for i in range(1, n + 1))
        return DriftMatrix(rows)
    if method == "poset":
        P = build_poset(gamma)
        ell = gamma.length
        rows = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, n + 1):
                down = P.holds(i, ell + j)
                up = P.holds(ell + j, i)
                # down and up together means x_i and the shifted element are
                # the same (short loop); the inclusive reading is +.
                row.append(PLUS if down else MINUS if up else ZERO)
            rows.append(tuple(row))
        return DriftMatrix(tuple(rows))
    raise ValueError(f"method must be 'profile' or 'poset', got {method!r}")


def classify_loop(gamma: DiPath, method: str = "profile") -> str:
    """Strongest applicable label among the four drift classes."""
    mat = loop_drift(gamma, method=method)
    diag = mat.diagonal()
    if all(s == ZERO for row in mat.entries for s in row):
        return TOTALLY_DRIFTLESS
    if all(s == ZERO for s in diag):
        return DRIFTLESS
    if any(s == ZERO for s in diag):
        return PARTIALLY_DRIFTLESS
    return DRIFTS


# -- index-state reachability over a strongly connected edge set ----------------


class DriftVerdict(_Record):
    __slots__ = ("witness",)
    witness: tuple[Perm, int, str] | None  # (vertex, index, sign) of a drift

    def __init__(self, witness: tuple[Perm, int, str] | None = None):
        object.__setattr__(self, "witness", witness)

    @property
    def drifts(self) -> bool:
        return self.witness is not None


class _Search:
    """One breadth-first pass over index states from one start state, run only as far as its readers ask.

    Iterating yields the states nonempty paths reach, in discovery order,
    expanding the queue just far enough for the next one; every iteration
    reads the same pass.  ``parent[t]`` is the state whose expansion first
    reached t, -1 before that.  Out-edges are tried in sorted order, so the
    pointers trace the shortest path to the state that comes first in edge
    order, and discovery order sorts those paths by (length, edge word).
    """

    def __init__(self, rows: list, width: int, start: int):
        self.rows, self.width = rows, width  # an IndexReach's, which holds the pass: no reference cycle
        self.order = [start]  # the start state, then each state as it is discovered
        self.parent = [-1] * (len(rows) * width**2)
        self.expanded = 0

    def __iter__(self) -> Iterator[int]:
        order, parent, rows, width = self.order, self.parent, self.rows, self.width
        block = width**2
        k = 1
        while True:
            while k < len(order):
                yield order[k]
                k += 1
            if self.expanded == len(order):
                return
            s = order[self.expanded]
            self.expanded += 1
            w, r = divmod(s, block)
            a, b = divmod(r, width)
            for x, up, down in rows[w]:
                t = x + up[a] * width + down[b]
                if parent[t] < 0:
                    parent[t] = s
                    order.append(t)


class IndexReach:
    """Which (vertex, max-index, min-index) states paths from v reach, tracking index j.

    Along an edge e a state (w, a, b) moves to (tail(e), maxmap_e[a],
    minmap_e[b]), so the loops at v realize exactly the diagonal signs at j
    read off the reachable states at vertex v.  A state is coded as one int,
    (place * width + a) * width + b with width = n + 2, places being those of
    the ranking of the strongly connected ``graph``.  Each place's transition
    row, per out-edge in sorted order the code of its tail's (0, 0) state and
    the edge's padded max- and min-index tables, is built once and serves
    every search; each (v, j) is one breadth-first pass, run as far as the
    question needs.

    Drift is all-or-none over the vertices (see the module docstring), so
    the verdict takes the n passes at the least vertex.  Those passes are
    kept, and loops asked for at the least vertex resume them.
    """

    def __init__(self, graph: Subgraph):
        self.graph = graph
        self.width = graph.n + 2
        self.block = block = self.width**2  # states per place
        out = graph.ranking.out
        self.edges = [[e for e, _ in row] for row in out]
        self.rows = [[(w * block, *_edge_tables(e)) for e, w in row] for row in out]
        self._at_least: dict[int, _Search] = {}

    def search(self, v: Perm, j: int) -> _Search:
        """The breadth-first pass from the state (v, j, j)."""
        return _Search(self.rows, self.width, self.graph.ranking.place[v] * self.block + j * self.width + j)

    def _reached(self, v: Perm, j: int) -> _Search:
        """``search(v, j)``, made once per index at the least vertex."""
        if v != self.graph.vertices()[0]:
            return self.search(v, j)
        if j not in self._at_least:
            self._at_least[j] = self.search(v, j)
        return self._at_least[j]

    def _edge(self, s: int, t: int) -> Perm:
        """The first out-edge, in sorted order, that takes state s to state t."""
        w, r = divmod(s, self.block)
        a, b = divmod(r, self.width)
        return self.edges[w][[x + up[a] * self.width + down[b] for x, up, down in self.rows[w]].index(t)]

    def first_loop(self, v: Perm, j: int, signs) -> DiPath | None:
        """The shortest, then least in edge order, loop at v whose diagonal sign at j is in ``signs``."""
        search = self._reached(v, j)
        start = search.order[0]
        base = start - start % self.block  # the code of (v, 0, 0)
        for state in search:
            if base <= state < base + self.block and _sign(v, *divmod(state - base, self.width), j) in signs:
                edges = []
                # The start state's out-steps were all recorded when it was
                # expanded first, so a pointer to it always means depth 0.
                while (prev := search.parent[state]) != start:
                    edges.append(self._edge(prev, state))  # the edge that recorded the pointer
                    state = prev
                edges.append(self._edge(start, state))
                return DiPath(self.graph.n, tuple(reversed(edges)))
        return None

    def verdict(self) -> DriftVerdict:
        """The first index of the least vertex where every loop has the same nonzero sign.

        By the all-or-none argument this is also the first (vertex, index)
        in sorted order over every vertex.  Each pass stops once a zero sign
        or both nonzero signs have shown at the least vertex.
        """
        v = self.graph.vertices()[0]  # place 0, whose states are the codes below one block
        for j in range(1, self.graph.n + 1):
            signs = set()
            for s in self._reached(v, j):
                if s < self.block:
                    signs.add(_sign(v, *divmod(s, self.width), j))
                    if ZERO in signs or len(signs) == 2:
                        break
            if len(signs) == 1 and ZERO not in signs:
                return DriftVerdict((v, j, signs.pop()))
        return DriftVerdict()


def subgraph_drifts(H: Subgraph) -> DriftVerdict:
    """Decide drift for a face subgraph, component by component.

    A strongly connected piece drifts when some vertex v, index j and sign
    force every loop at v to that sign; index-state reachability makes the
    check finite, and the least vertex decides it.  The first witness in
    (vertex, index, sign) order is reported.
    """
    for comp in face_components(H):
        verdict = IndexReach(H.component(comp)).verdict()
        if verdict.drifts:
            return verdict
    return DriftVerdict()


def verdict_payload(verdict: DriftVerdict) -> dict:
    if not verdict.drifts:
        return {"verdict": "driftless"}
    v, j, sign = verdict.witness
    return {"verdict": "drifts", "witness": {"vertex": str(v), "index": j, "sign": sign}}


def verdict_to_json(verdict: DriftVerdict) -> str:
    return json.dumps(verdict_payload(verdict), sort_keys=True)


# -- synthesis ----------------------------------------------------------------


def _cover_walk(H: Subgraph, base: Perm) -> DiPath:
    """A loop at ``base`` using every edge of H at least once.

    It takes the edges in sorted order, each after a shortest path from
    where the walk stands to its head, then a shortest path back to
    ``base``.  Head and tail are read off H's ranking, and the shortest
    paths from each place come from one breadth-first search.  The pieces
    meet at places by construction, so the path skips ``DiPath``'s check of
    every edge pair.
    """
    verts, place, out = H.ranking
    paths: dict[int, list] = {}

    def to(a: int, b: int) -> tuple[Perm, ...]:
        if a not in paths:
            paths[a] = shortest_paths(H, verts[a])
        return paths[a][b]

    walk: list[Perm] = []
    at = place[base]
    for e, h, t in sorted(((e, h, t) for h, row in enumerate(out) for e, t in row), key=lambda x: x[0].word):
        walk.extend(to(at, h))
        walk.append(e)
        at = t
    walk.extend(to(at, place[base]))
    return _joined(H.n, tuple(walk))  # each seam joins a place's out-edge to a path from that edge's tail


def synthesize_totally_driftless_loop(H: Subgraph) -> DiPath:
    """A totally driftless loop whose support is exactly H.

    Requires H strongly connected and driftless.  Starting from an
    edge-covering loop, repeatedly append loops that break the current upper
    bound on the minimal value, until nothing is forced above it; then do the
    symmetric run for the maximal value.  Each append strictly raises the
    bound in the base-vertex order, so both phases finish within n steps,
    after which monotonicity of the profile maps forces every entry free.
    """
    if len(face_components(H)) != 1:
        raise NotStronglyConnected("synthesis needs one strongly connected piece")
    return _synthesize(IndexReach(H))  # one component and no loose edge: H is strongly connected


def _synthesize(reach: IndexReach) -> DiPath:
    """The synthesis for the strongly connected subgraph that ``reach`` searches."""
    H, n = reach.graph, reach.graph.n
    verdict = reach.verdict()
    if verdict.drifts:
        raise DriftObstruction(f"subgraph drifts with witness {verdict.witness}")

    base = H.vertices()[0]  # the least vertex, whose searches the verdict kept
    gamma = _cover_walk(H, base)
    if gamma.length > SYNTHESIS_LENGTH_MAX:
        raise CapExceeded(f"edge-covering walk reached {gamma.length} edges, cap {SYNTHESIS_LENGTH_MAX}")
    prof = path_profile(gamma)
    i = base.position_of(1)
    j = base.position_of(n)

    def append_avoiding(k: int, sign: str):
        nonlocal gamma, prof
        loop = reach.first_loop(base, k, {PLUS, MINUS, ZERO} - {sign})
        if loop is None:  # a driftless verdict leaves one at every (vertex, index)
            raise InvariantViolation(f"every loop at {base} has drift {sign} at index {k}")
        gamma = concat(gamma, loop)
        if gamma.length > SYNTHESIS_LENGTH_MAX:
            raise CapExceeded(f"synthesized loop reached {gamma.length} edges, cap {SYNTHESIS_LENGTH_MAX}")
        prof = compose(prof, path_profile(loop))

    while prof.maxmap[i - 1] <= n:
        append_avoiding(prof.maxmap[i - 1], PLUS)
    while prof.minmap[j - 1] >= 1:
        append_avoiding(prof.minmap[j - 1], MINUS)

    if classify_loop(gamma) != TOTALLY_DRIFTLESS:
        raise InvariantViolation(f"synthesized loop at {base} is not totally driftless")
    if frozenset(gamma.edges) != H.edges:
        raise InvariantViolation(f"synthesized loop at {base} does not cover the subgraph")
    return gamma
