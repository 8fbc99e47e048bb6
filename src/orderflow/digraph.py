"""The permutation digraph G_n and its subgraphs.

G_n has vertex set S_n and edge set S_{n+1}; an edge sigma runs from its
head-restriction (drop the last entry) to its tail-restriction (drop the
first).  G_n itself is not stored: all structure derives from these two
restrictions (``restrict``, whose bounded cache holds both endpoints of
every edge up to G_6, 5040 edges).  Subgraphs are plain edge sets; their
vertex sets are derived.

This module alone ranks a subgraph's vertices: ``Subgraph.ranking`` sorts
them once, on first use, and every graph walk of the package (SCCs, shortest
paths, loops, the drift search, the Euler walk, the census mask walk) runs on
their places.  The ranking reads each edge's head and tail words off the
edge's own word in one pass, without a ``restrict`` lookup per edge end.  A
strongly connected component's subgraph (``Subgraph.component``) takes its
ranking from its parent's, which already orders its vertices, instead of
sorting again.  A ranking lives on its subgraph; no cache here outlives it.
"""

from __future__ import annotations

import json
import math
from collections import deque
from functools import cached_property
from itertools import count
from operator import attrgetter
from typing import Iterator, NamedTuple

from .caps import FULL_DIGRAPH_N_MAX, LOOP_ENUM_VERTEX_MAX
from .errors import CapExceeded, FormatError, NotFaceSubgraph
from .perms import HEAD, TAIL, Perm, _Record, _trusted, all_perms, json_length, load_json, perm, restrict


def head(e: Perm) -> Perm:
    return restrict(e, HEAD)


def tail(e: Perm) -> Perm:
    return restrict(e, TAIL)


class PermDigraph(_Record):
    """Implicit handle on G_n: vertices S_n, edges S_{n+1}."""

    __slots__ = ("n",)
    n: int

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        object.__setattr__(self, "n", n)

    def vertices(self) -> Iterator[Perm]:
        return all_perms(self.n)

    def edges(self) -> Iterator[Perm]:
        return all_perms(self.n + 1)

    def vertex_count(self) -> int:
        return math.factorial(self.n)

    def edge_count(self) -> int:
        return math.factorial(self.n + 1)

    def full_subgraph(self) -> "Subgraph":
        if self.n > FULL_DIGRAPH_N_MAX:
            raise CapExceeded(f"full digraph reached n = {self.n}, cap {FULL_DIGRAPH_N_MAX}")
        return Subgraph(self.n, frozenset(self.edges()))


def build(n: int) -> PermDigraph:
    return PermDigraph(n)


class Ranking(NamedTuple):
    """Sorted vertices, each one's place, and per place its sorted out-edges with their tails' places."""

    vertices: tuple[Perm, ...]
    place: dict[Perm, int]
    out: tuple[tuple[tuple[Perm, int], ...], ...]


class Subgraph(_Record):
    """A sub-digraph of G_n given by its edge set (vertices are derived)."""

    n: int
    edges: frozenset[Perm]

    def __init__(self, n: int, edges: frozenset[Perm]):
        for e in edges:
            if e.n != n + 1:
                raise ValueError(f"edge {e} has length {e.n}, expected {n + 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @cached_property
    def ranking(self) -> Ranking:
        """The vertices ranked once, on first use; every walk over the subgraph reads it.

        Each edge's head and tail words are its word without the last or the
        first entry, re-ranked as ``restrict`` re-ranks them.
        """
        ends = []
        for e in sorted(self.edges, key=attrgetter("word")):  # Perm's order, without calling Perm's comparison
            word = e.word
            first, last = word[0], word[-1]
            ends.append((e, tuple([r - (r > last) for r in word[:-1]]), tuple([r - (r > first) for r in word[1:]])))
        words = sorted({h for _, h, _ in ends}.union(t for _, _, t in ends))
        at = {word: k for k, word in enumerate(words)}
        out: list[list[tuple[Perm, int]]] = [[] for _ in words]
        for e, h, t in ends:
            out[at[h]].append((e, at[t]))
        vertices = tuple(map(_trusted, words))
        return Ranking(vertices, dict(zip(vertices, range(len(vertices)))), tuple(map(tuple, out)))

    def component(self, comp: "Component") -> "Subgraph":
        """The subgraph of one of this subgraph's strongly connected components, ranked from this ranking.

        The component's places keep their order here, and its out-edges are
        theirs whose tails stay inside it, so its ranking needs no sort.
        """
        if not comp.edges:  # a vertex on no loop, which an edge set alone does not hold
            return Subgraph(self.n, comp.edges)
        verts, _, out = self.ranking
        if len(comp.vertices) == len(verts):  # every vertex, so every edge
            return self
        piece = Subgraph(self.n, comp.edges)
        places = [k for k, v in enumerate(verts) if v in comp.vertices]
        renumber = dict(zip(places, range(len(places))))
        vertices = tuple([verts[k] for k in places])
        piece.__dict__["ranking"] = Ranking(  # what the cached property would compute
            vertices,
            dict(zip(vertices, range(len(vertices)))),
            tuple(tuple([(e, renumber[w]) for e, w in out[k] if w in renumber]) for k in places),
        )
        return piece

    def vertices(self) -> tuple[Perm, ...]:
        """The vertices in sorted order."""
        return self.ranking.vertices

    def __contains__(self, e: Perm) -> bool:
        return e in self.edges

    def __or__(self, other: "Subgraph") -> "Subgraph":
        if self.n != other.n:
            raise ValueError("cannot union subgraphs of different ambient digraphs")
        return Subgraph(self.n, self.edges | other.edges)


def subgraph(n: int, edges) -> Subgraph:
    return Subgraph(n, frozenset(perm(e) for e in edges))


class Component(_Record):
    """One strongly connected component with its induced edge set."""

    __slots__ = ("vertices", "edges")
    vertices: frozenset[Perm]
    edges: frozenset[Perm]

    def __init__(self, vertices: frozenset[Perm], edges: frozenset[Perm]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)


def strongly_connected_components(H: Subgraph) -> list[Component]:
    """Tarjan's algorithm, iterative, on the places of H's ranking.

    Components come back sorted by their least vertex, each with its induced
    edges: the out-edges of its places whose tails stay inside it.
    """
    verts, _, out = H.ranking
    index = [-1] * len(verts)  # discovery number, -1 before the visit
    low = [0] * len(verts)
    comp_of = [-1] * len(verts)  # -1 while the place is unvisited or on the stack
    stack: list[int] = []
    work: list[tuple[int, Iterator[tuple[Perm, int]]]] = []
    comps: list[list[int]] = []
    numbers = count()

    def enter(v: int) -> None:
        index[v] = low[v] = next(numbers)
        stack.append(v)
        work.append((v, iter(out[v])))

    for root in range(len(verts)):
        if index[root] < 0:
            enter(root)
        while work:
            v, it = work[-1]
            for _, w in it:
                if index[w] < 0:
                    enter(w)
                    break
                if comp_of[w] < 0:  # visited and not yet in a component: on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp_of[stack[-1]] = len(comps)
                        comp.append(stack.pop())
                    comps.append(comp)

    return [
        Component(
            frozenset(verts[v] for v in places),
            frozenset(e for v in places for e, w in out[v] if comp_of[w] == comp_of[v]),
        )
        for places in sorted(comps, key=min)
    ]


def face_components(H: Subgraph) -> list[Component]:
    """The strongly connected components of a face subgraph.

    Raises NotFaceSubgraph, naming the least such edge, when some edge joins
    two components, i.e. lies on no loop of H.
    """
    comps = strongly_connected_components(H)
    loose = H.edges.difference(*(c.edges for c in comps))
    if loose:
        raise NotFaceSubgraph(f"edge {min(loose)} lies on no loop of the subgraph")
    return comps


def is_face_subgraph(H: Subgraph) -> bool:
    """Every edge lies on a directed loop inside H.

    Equivalent to: both endpoints of every edge sit in the same strongly
    connected component, i.e. each connected component is strongly connected.
    """
    try:
        face_components(H)
    except NotFaceSubgraph:
        return False
    return True


def shortest_paths(H: Subgraph, src: Perm) -> list[tuple[Perm, ...] | None]:
    """Per place of H's ranking, the edges of a shortest path from src to it, or None when there is none.

    Breadth first over sorted out-edges: each place keeps the path by which
    it was first reached.
    """
    _, place, out = H.ranking
    start = place[src]
    found: list[tuple[Perm, ...] | None] = [None] * len(out)
    found[start] = ()
    frontier = deque([start])
    while frontier:
        v = frontier.popleft()
        for e, w in out[v]:
            if found[w] is None:
                found[w] = found[v] + (e,)
                frontier.append(w)
    return found


def embedded_loops(H: Subgraph) -> list[tuple[Perm, ...]]:
    """All embedded loops of H, one canonical representative per rotation class.

    An embedded loop visits distinct vertices except for its endpoints.  The
    DFS roots at each place of H's ranking in turn and only explores places
    not below the root, so each vertex cycle is found exactly once; parallel
    edges give distinct loops.  The representative is the lexicographically
    least rotation of the edge word.
    """
    verts, _, out = H.ranking
    if len(verts) > LOOP_ENUM_VERTEX_MAX:
        raise CapExceeded(f"{len(verts)} vertices exceeds embedded-loop cap {LOOP_ENUM_VERTEX_MAX}")
    loops: list[tuple[Perm, ...]] = []
    on_path = [False] * len(verts)

    def canonical(word: tuple[Perm, ...]) -> tuple[Perm, ...]:
        rotations = (word[i:] + word[:i] for i in range(len(word)))
        return min(rotations)

    def dfs(root: int, v: int, path: list[Perm]):
        for e, w in out[v]:
            if w == root:
                loops.append(canonical(tuple(path) + (e,)))
                continue
            if w < root or on_path[w]:
                continue
            on_path[w] = True
            path.append(e)
            dfs(root, w, path)
            path.pop()
            on_path[w] = False

    for root in range(len(verts)):
        dfs(root, root, [])
    loops.sort()
    return loops


# -- serialization ----------------------------------------------------------


def export_dot(obj) -> str:
    """DOT text for a Subgraph or a whole PermDigraph."""
    H = obj.full_subgraph() if isinstance(obj, PermDigraph) else obj
    lines = ["digraph G {"]
    for v in H.vertices():
        lines.append(f'  "{v}";')
    for e in sorted(H.edges):
        lines.append(f'  "{head(e)}" -> "{tail(e)}" [label="{e}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def subgraph_to_json(H: Subgraph) -> str:
    payload = {"n": H.n, "edges": [str(e) for e in sorted(H.edges)]}
    return json.dumps(payload, sort_keys=True)


def subgraph_from_json(text: str) -> Subgraph:
    payload = load_json(text, "subgraph", {"n", "edges"})
    n = json_length(payload, "subgraph")
    try:
        return subgraph(n, payload["edges"])
    except (ValueError, TypeError) as exc:
        raise FormatError(f"subgraph JSON: {exc}") from exc
