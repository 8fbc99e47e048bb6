"""Slower drift routes, kept as test oracles.

``scanned_edge_profile`` is the edge profile read off the edge's window by
comparing each initial value with every final value, the O(n^2) scan the
package's closed-form edge tables replaced.

The all-vertex search runs the package's index-state search at every
(vertex, index) of a component, where the package searches only the least
vertex's indices and relies on drift being all-or-none over the vertices.

Profile saturation is the exponential decision that came before the
index-state search.  For every ordered vertex pair (u, w) of one strongly
connected edge set it collects the finite set of whole drift profiles of
paths from u to w, each with the first path found breadth-first as its
representative.  Loop profiles at v are the set at (v, v), so the drift
quantifier over infinitely many loops becomes a scan of that set.  The set
can grow exponentially with the component (full G_4 holds 548,314
profiles), so tests run it at n <= 3 only, against the package's
index-state reachability.

``reach_partially_driftless_in`` finds a loop with a zero diagonal entry
by the package's index-state search instead; tests check it against the
saturation route's ``partially_driftless_in``.

``TupleReach`` is the index-state search as the package ran it before its
states became int codes: each state a (place, max-index, min-index) tuple,
each search a dict from state to (previous state, edge), and each step
computed afresh from the edge tables.  Tests check that both give the same
verdicts, witnesses, loops and synthesized loops.
"""

from __future__ import annotations

import functools
from collections import deque

from orderflow.digraph import Subgraph, face_components, head, strongly_connected_components, tail
from orderflow.drift import (
    MINUS,
    PLUS,
    ZERO,
    DriftVerdict,
    IndexReach,
    DriftProfile,
    _cover_walk,
    _edge_tables,
    _sign,
    compose,
    edge_profile,
    path_profile,
)
from orderflow.errors import DriftObstruction, NotStronglyConnected
from orderflow.paths import DiPath
from orderflow.perms import Perm


def scanned_edge_profile(e: Perm) -> DriftProfile:
    """Profile of the length-1 path along e: for each initial value, the nearest final values above and below."""
    n = e.n - 1
    word = e.word
    maxmap = []
    minmap = []
    for i in range(1, n + 1):
        above = [j for j in range(1, n + 1) if word[j] >= word[i - 1]]
        below = [j for j in range(1, n + 1) if word[j] <= word[i - 1]]
        maxmap.append(min(above, key=lambda j: word[j]) if above else n + 1)
        minmap.append(max(below, key=lambda j: word[j]) if below else 0)
    return DriftProfile(head(e), tail(e), tuple(maxmap), tuple(minmap))


def _diagonal(v: Perm, maxmap: tuple[int, ...], minmap: tuple[int, ...], j: int) -> str:
    """Diagonal sign at j of a loop profile at v (+ wins when both hold)."""
    word, n = v.word, v.n
    above, below = maxmap[j - 1], minmap[j - 1]
    if above <= n and word[above - 1] <= word[j - 1]:
        return PLUS
    if below >= 1 and word[below - 1] >= word[j - 1]:
        return MINUS
    return ZERO


class ProfileSaturation:
    """Closure of path profiles over one strongly connected edge set.

    A profile is kept as its (maxmap, minmap) pair under its (start, end)
    vertex pair, and composed here directly rather than through
    ``orderflow.drift.compose``.
    """

    def __init__(self, edges: frozenset[Perm]):
        self.vertices = sorted({head(e) for e in edges} | {tail(e) for e in edges})
        rank = {v: k for k, v in enumerate(self.vertices)}
        self.profiles: dict[tuple[int, int], dict[tuple, tuple[Perm, ...]]] = {}
        self._rank = rank
        out_edges: list[list[tuple]] = [[] for _ in self.vertices]
        queue: deque[tuple[int, int, tuple]] = deque()

        def add(u: int, w: int, prof: tuple, rep: tuple[Perm, ...]) -> None:
            bucket = self.profiles.setdefault((u, w), {})
            if prof not in bucket:
                bucket[prof] = rep
                queue.append((u, w, prof))

        for e in sorted(edges):
            prof = edge_profile(e)
            n = prof.n
            # Padded so the sentinels 0 and n+1 map to themselves.
            up = (0,) + prof.maxmap + (n + 1,)
            down = (0,) + prof.minmap + (n + 1,)
            out_edges[rank[head(e)]].append((e, rank[tail(e)], up.__getitem__, down.__getitem__))
            add(rank[head(e)], rank[tail(e)], (prof.maxmap, prof.minmap), (e,))
        while queue:
            u, w, (maxmap, minmap) = queue.popleft()
            rep = self.profiles[(u, w)][(maxmap, minmap)]
            for e, x, up, down in out_edges[w]:
                add(u, x, (tuple(map(up, maxmap)), tuple(map(down, minmap))), rep + (e,))

    def loop_profiles(self, v: Perm) -> dict[tuple, tuple[Perm, ...]]:
        k = self._rank[v]
        return self.profiles.get((k, k), {})

    def forced_sign(self, v: Perm, j: int) -> str | None:
        signs = {_diagonal(v, *prof, j) for prof in self.loop_profiles(v)}
        return signs.pop() if signs in ({PLUS}, {MINUS}) else None

    def loop_avoiding(self, v: Perm, j: int, sign: str) -> DiPath:
        """The shortest representative loop at v whose diagonal at j is not ``sign``."""
        best = None
        for prof, rep in self.loop_profiles(v).items():
            if _diagonal(v, *prof, j) != sign and (best is None or len(rep) < len(best)):
                best = rep
        if best is None:
            raise DriftObstruction(f"every loop at {v} has drift {sign} at index {j}")
        return DiPath(v.n, best)

    def verdict(self, n: int) -> DriftVerdict:
        for v in self.vertices:
            for j in range(1, n + 1):
                sign = self.forced_sign(v, j)
                if sign is not None:
                    return DriftVerdict((v, j, sign))
        return DriftVerdict()


@functools.lru_cache(maxsize=None)
def saturation(edges: frozenset[Perm]) -> ProfileSaturation:
    return ProfileSaturation(edges)


def subgraph_drifts(H: Subgraph) -> DriftVerdict:
    for comp in face_components(H):
        verdict = saturation(comp.edges).verdict(H.n)
        if verdict.drifts:
            return verdict
    return DriftVerdict()


def synthesize_totally_driftless_loop(H: Subgraph) -> DiPath:
    """The seed's synthesis: cover walk, then saturation loops breaking each bound."""
    comps = face_components(H)
    if len(comps) != 1:
        raise NotStronglyConnected("synthesis needs one strongly connected piece")
    sat = saturation(comps[0].edges)
    n = H.n
    if sat.verdict(n).drifts:
        raise DriftObstruction("subgraph drifts")
    base = min(H.vertices())
    gamma = _cover_walk(H, base)
    prof = path_profile(gamma)
    i, j = base.position_of(1), base.position_of(n)
    while prof.maxmap[i - 1] <= n:
        loop = sat.loop_avoiding(base, prof.maxmap[i - 1], PLUS)
        gamma, prof = DiPath(n, gamma.edges + loop.edges), compose(prof, path_profile(loop))
    while prof.minmap[j - 1] >= 1:
        loop = sat.loop_avoiding(base, prof.minmap[j - 1], MINUS)
        gamma, prof = DiPath(n, gamma.edges + loop.edges), compose(prof, path_profile(loop))
    return gamma


def partially_driftless_in(H: Subgraph) -> DiPath | None:
    for comp in strongly_connected_components(H):
        if not comp.edges:
            continue
        sat = saturation(comp.edges)
        for v in sorted(comp.vertices):
            for prof, rep in sat.loop_profiles(v).items():
                if any(_diagonal(v, *prof, j) == ZERO for j in range(1, H.n + 1)):
                    return DiPath(H.n, rep)
    return None


# -- all-vertex index-state search -------------------------------------------


def drifting_vertices(reach: IndexReach) -> list[tuple[Perm, int, str]]:
    """Every vertex's first (index, sign) witness, from one search per (vertex, index)."""
    found = []
    for k, v in enumerate(reach.graph.vertices()):
        for j in range(1, reach.graph.n + 1):
            states = [divmod(s % reach.block, reach.width) for s in reach.search(v, j) if s // reach.block == k]
            signs = {_sign(v, a, b, j) for a, b in states}
            if len(signs) == 1 and ZERO not in signs:
                found.append((v, j, signs.pop()))
                break
    return found


def all_vertex_verdict(reach: IndexReach) -> DriftVerdict:
    """The first (vertex, index, sign) witness over every vertex, in sorted order."""
    found = drifting_vertices(reach)
    return DriftVerdict(found[0] if found else None)


def all_vertex_subgraph_drifts(H: Subgraph) -> DriftVerdict:
    for comp in face_components(H):
        verdict = all_vertex_verdict(IndexReach(Subgraph(H.n, comp.edges)))
        if verdict.drifts:
            return verdict
    return DriftVerdict()


def reach_partially_driftless_in(H: Subgraph) -> DiPath | None:
    """Some loop in H with a zero diagonal drift entry, or None.

    Searches the index states of each strongly connected piece; the witness
    is the shortest, then least in edge order, such loop at the least vertex
    that has one.
    """
    for comp in strongly_connected_components(H):
        if not comp.edges:
            continue
        reach = IndexReach(Subgraph(H.n, comp.edges))
        for v in reach.graph.vertices():
            found = [reach.first_loop(v, j, {ZERO}) for j in range(1, H.n + 1)]
            found = [loop for loop in found if loop is not None]
            if found:
                return min(found, key=lambda loop: (loop.length, loop.edges))
    return None


# -- the tuple-state search ---------------------------------------------------


class TupleReach:
    """The index-state search with (place, max-index, min-index) tuples as states; ``IndexReach``'s interface."""

    def __init__(self, graph: Subgraph):
        self.graph = graph
        self.steps = [[(e, w, *_edge_tables(e)) for e, w in row] for row in graph.ranking.out]
        self._at_least: dict[int, dict] = {}

    def search(self, v: Perm, j: int) -> dict:
        """States reached from (v, j, j) by nonempty paths, in breadth-first order, each with (previous state, edge)."""
        parent: dict = {}
        order = [(self.graph.ranking.place[v], j, j)]
        for state in order:  # grows while it is walked: a FIFO queue
            w, a, b = state
            for e, x, up, down in self.steps[w]:
                nxt = (x, up[a], down[b])
                if nxt not in parent:
                    parent[nxt] = (state, e)
                    order.append(nxt)
        return parent

    def _reached(self, v: Perm, j: int) -> dict:
        if v != self.graph.vertices()[0]:
            return self.search(v, j)
        if j not in self._at_least:
            self._at_least[j] = self.search(v, j)
        return self._at_least[j]

    def first_loop(self, v: Perm, j: int, signs) -> DiPath | None:
        parent = self._reached(v, j)
        start = (self.graph.ranking.place[v], j, j)
        for state in parent:
            w, a, b = state
            if w == start[0] and _sign(v, a, b, j) in signs:
                edges = [parent[state][1]]
                while (state := parent[state][0]) != start:
                    edges.append(parent[state][1])
                return DiPath(self.graph.n, tuple(reversed(edges)))
        return None

    def verdict(self) -> DriftVerdict:
        v = self.graph.vertices()[0]
        for j in range(1, self.graph.n + 1):
            signs = {_sign(v, a, b, j) for w, a, b in self._reached(v, j) if w == 0}
            if len(signs) == 1 and ZERO not in signs:
                return DriftVerdict((v, j, signs.pop()))
        return DriftVerdict()
