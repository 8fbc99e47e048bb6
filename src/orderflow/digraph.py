"""The permutation digraph G_n and its subgraphs.

G_n has vertex set S_n and edge set S_{n+1}; an edge sigma runs from its
head-restriction (drop the last entry) to its tail-restriction (drop the
first).  G_n itself is not stored: all structure derives from ``restrict``,
whose bounded cache holds both endpoints of every edge up to G_6 (5040
edges), so a walk over a subgraph re-ranks each edge once.  Subgraphs are
plain edge sets; their vertex sets are derived.
"""

from __future__ import annotations

import functools
import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .caps import FULL_DIGRAPH_N_MAX, LOOP_ENUM_VERTEX_MAX, PERM_CAP
from .errors import CapExceeded, FormatError, NotFaceSubgraph, NotStronglyConnected
from .perms import HEAD, TAIL, Perm, all_perms, json_length, load_json, perm, restrict


def head(e: Perm) -> Perm:
    return restrict(e, HEAD)


def tail(e: Perm) -> Perm:
    return restrict(e, TAIL)


@dataclass(frozen=True)
class PermDigraph:
    """Implicit handle on G_n: vertices S_n, edges S_{n+1}."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.n + 1 > PERM_CAP:
            raise CapExceeded(f"edges of G_{self.n} live in S_{self.n + 1}, beyond cap {PERM_CAP}")

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


@dataclass(frozen=True)
class Subgraph:
    """A sub-digraph of G_n given by its edge set (vertices are derived)."""

    n: int
    edges: frozenset[Perm]

    def __post_init__(self):
        for e in self.edges:
            if e.n != self.n + 1:
                raise ValueError(f"edge {e} has length {e.n}, expected {self.n + 1}")

    def vertices(self) -> frozenset[Perm]:
        verts = set()
        for e in self.edges:
            verts.add(head(e))
            verts.add(tail(e))
        return frozenset(verts)

    def __contains__(self, e: Perm) -> bool:
        return e in self.edges

    def __or__(self, other: "Subgraph") -> "Subgraph":
        if self.n != other.n:
            raise ValueError("cannot union subgraphs of different ambient digraphs")
        return Subgraph(self.n, self.edges | other.edges)


def subgraph(n: int, edges) -> Subgraph:
    return Subgraph(n, frozenset(perm(e) for e in edges))


@functools.lru_cache(maxsize=256)
def adjacency(H: Subgraph) -> dict[Perm, tuple[Perm, ...]]:
    """Out-edges per vertex, sorted for determinism."""
    out: dict[Perm, list[Perm]] = {v: [] for v in H.vertices()}
    for e in sorted(H.edges):
        out[head(e)].append(e)
    return {v: tuple(es) for v, es in out.items()}


@dataclass(frozen=True)
class Component:
    """One strongly connected component with its induced edge set."""

    vertices: frozenset[Perm]
    edges: frozenset[Perm]


def strongly_connected_components(H: Subgraph) -> list[Component]:
    """Tarjan's algorithm, iterative, on the derived vertex set.

    Components come back sorted by their least vertex; induced edges are the
    edges of H with both endpoints inside the component.
    """
    adj = adjacency(H)
    index: dict[Perm, int] = {}
    low: dict[Perm, int] = {}
    on_stack: set[Perm] = set()
    stack: list[Perm] = []
    comps: list[frozenset[Perm]] = []
    counter = 0

    for root in sorted(adj):
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for e in it:
                w = tail(e)
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                comps.append(frozenset(comp))

    out = []
    for comp in comps:
        induced = frozenset(e for e in H.edges if head(e) in comp and tail(e) in comp)
        out.append(Component(comp, induced))
    out.sort(key=lambda c: min(c.vertices))
    return out


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


def shortest_path(H: Subgraph, src: Perm, dst: Perm) -> tuple[Perm, ...]:
    """Edges of a shortest path from src to dst in H, breadth first over sorted out-edges."""
    if src == dst:
        return ()
    adj = adjacency(H)
    seen = {src: ()}
    frontier = deque([src])
    while frontier:
        v = frontier.popleft()
        for e in adj[v]:
            w = tail(e)
            if w not in seen:
                seen[w] = seen[v] + (e,)
                if w == dst:
                    return seen[w]
                frontier.append(w)
    raise NotStronglyConnected(f"no path from {src} to {dst}")


def embedded_loops(H: Subgraph) -> list[tuple[Perm, ...]]:
    """All embedded loops of H, one canonical representative per rotation class.

    An embedded loop visits distinct vertices except for its endpoints.  The
    DFS roots at each vertex in sorted order and only explores vertices that
    are not smaller than the root, so each vertex cycle is found exactly once;
    parallel edges give distinct loops.  The representative is the
    lexicographically least rotation of the edge word.
    """
    verts = sorted(H.vertices())
    if len(verts) > LOOP_ENUM_VERTEX_MAX:
        raise CapExceeded(f"{len(verts)} vertices exceeds embedded-loop cap {LOOP_ENUM_VERTEX_MAX}")
    rank = {v: i for i, v in enumerate(verts)}
    adj = adjacency(H)
    loops: list[tuple[Perm, ...]] = []

    def canonical(word: tuple[Perm, ...]) -> tuple[Perm, ...]:
        rotations = (word[i:] + word[:i] for i in range(len(word)))
        return min(rotations)

    def dfs(root: Perm, v: Perm, path: list[Perm], on_path: set[Perm]):
        for e in adj.get(v, ()):
            w = tail(e)
            if w == root:
                loops.append(canonical(tuple(path) + (e,)))
                continue
            if w in on_path or rank.get(w, -1) < rank[root]:
                continue
            on_path.add(w)
            path.append(e)
            dfs(root, w, path, on_path)
            path.pop()
            on_path.discard(w)

    for root in verts:
        dfs(root, root, [], {root})
    loops.sort()
    return loops


def face_dimension(H: Subgraph) -> int:
    """Dimension of the polytope face that H corresponds to.

    One less than the rank of the first homology of H, i.e.
    |E| - |V| + #components - 1.
    """
    return len(H.edges) - len(H.vertices()) + len(face_components(H)) - 1


# -- serialization ----------------------------------------------------------


def export_dot(obj) -> str:
    """DOT text for a Subgraph or a whole PermDigraph."""
    H = obj.full_subgraph() if isinstance(obj, PermDigraph) else obj
    lines = ["digraph G {"]
    for v in sorted(H.vertices()):
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
