"""Reference combinatorics that the benchmark checks against.

Everything here works on plain tuples and Fractions and imports nothing from
``orderflow``, so the checks that use it reach their verdict by a route other
than the code being timed:

* permutation digraph G_n, its strongly connected components and its simple
  cycles (embedded loops);
* the drift decision as reachability over (vertex, max-index, min-index)
  states, instead of the program's saturation over whole drift profiles;
* the exact pattern distribution of a rational rotation, read off the arcs
  cut by the points -k*alpha, instead of the program's interval subdivision.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

PLUS, MINUS, ZERO = "+", "-", "0"


def pattern(values) -> tuple[int, ...]:
    """Rank tuple of pairwise distinct values (1 = smallest)."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    for r, i in enumerate(order, start=1):
        ranks[i] = r
    return tuple(ranks)


def word(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",")) if "," in text else tuple(int(c) for c in text)


def text(w: tuple[int, ...]) -> str:
    return "".join(map(str, w)) if len(w) <= 9 else ",".join(map(str, w))


@functools.cache
def head(e: tuple[int, ...]) -> tuple[int, ...]:
    return pattern(e[:-1])


@functools.cache
def tail(e: tuple[int, ...]) -> tuple[int, ...]:
    return pattern(e[1:])


def digraph_edges(n: int) -> list[tuple[int, ...]]:
    """Edges of G_n: the permutations of length n + 1, sorted."""
    return sorted(itertools.permutations(range(1, n + 2)))


def components(edges) -> list[frozenset]:
    """Edge sets of the strongly connected pieces that carry edges, by least vertex."""
    out: dict = {}
    for e in edges:
        out.setdefault(head(e), set()).add(tail(e))
    reach = {}
    for v in out:
        seen, todo = {v}, [v]
        while todo:
            for w in out.get(todo.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach[v] = seen
    comp_of = {}
    for v in sorted(out):
        if v not in comp_of:
            comp = frozenset(w for w in reach[v] if v in reach.get(w, ()))
            for w in comp:
                comp_of[w] = comp
    pieces: dict = {}
    for e in edges:
        c = comp_of.get(head(e))
        if c is not None and tail(e) in c:
            pieces.setdefault(min(c), set()).add(e)
    return [frozenset(pieces[k]) for k in sorted(pieces)]


def simple_cycles(edges) -> list[tuple]:
    """Embedded loops as edge tuples, each starting at its least vertex."""
    out: dict = {}
    for e in sorted(edges):
        out.setdefault(head(e), []).append(e)
    cycles = []

    def walk(root, v, path, visited):
        for e in out.get(v, ()):
            w = tail(e)
            if w == root:
                cycles.append(tuple(path + [e]))
            elif w > root and w not in visited:
                visited.add(w)
                walk(root, w, path + [e], visited)
                visited.discard(w)

    for root in sorted(out):
        walk(root, root, [], {root})
    return cycles


@functools.cache
def _edge_step(e: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(tail, up, down): where the max/min bound of each window index goes along e.

    Index i of the head window is bounded above by the nearest larger value
    of the tail window and below by the nearest smaller one; 0 and n+1 stand
    for "no bound" and stay put.
    """
    n = len(e) - 1
    up, down = [0], [0]
    for i in range(n):
        above = [j for j in range(1, n + 1) if e[j] >= e[i]]
        below = [j for j in range(1, n + 1) if e[j] <= e[i]]
        up.append(min(above, key=e.__getitem__) if above else n + 1)
        down.append(max(below, key=e.__getitem__) if below else 0)
    return tail(e), tuple(up + [n + 1]), tuple(down + [n + 1])


def forced_signs(edges) -> dict:
    """Map (v, j) to the diagonal drift sign every loop at v is forced to.

    Reachability search over states (vertex, max-index, min-index) started
    one edge out of (v, j, j); only pairs with a forced sign are returned.
    """
    n = len(next(iter(edges))) - 1
    out: dict = {}
    for e in edges:
        out.setdefault(head(e), []).append(_edge_step(e))
    forced = {}
    for v in sorted(out):
        for j in range(1, n + 1):
            seen = {(w, up[j], down[j]) for w, up, down in out[v]}
            todo = list(seen)
            while todo:
                w, a, b = todo.pop()
                for state in [(x, up[a], down[b]) for x, up, down in out[w]]:
                    if state not in seen:
                        seen.add(state)
                        todo.append(state)
            signs = set()
            for w, a, b in seen:
                if w != v:
                    continue
                if a <= n and v[a - 1] <= v[j - 1]:
                    signs.add(PLUS)
                elif b >= 1 and v[b - 1] >= v[j - 1]:
                    signs.add(MINUS)
                else:
                    signs.add(ZERO)
            if len(signs) == 1 and ZERO not in signs:
                forced[(v, j)] = signs.pop()
    return forced


def drift_witness(edges):
    """First (vertex, index, sign) forcing drift, components by least vertex; None if driftless."""
    for comp in components(edges):
        forced = forced_signs(comp)
        if forced:
            (v, j) = min(forced)
            return v, j, forced[(v, j)]
    return None


def rotation_distribution(alpha: Fraction, n: int) -> dict[tuple[int, ...], Fraction]:
    """Exact length-n pattern distribution of x -> x + alpha mod 1.

    The pattern of (x + k*alpha mod 1)_k changes only where some iterate
    wraps, i.e. at the points -k*alpha mod 1; between them it is constant.
    """
    cuts = sorted({(-k * alpha) % 1 for k in range(n)} | {Fraction(0), Fraction(1)})
    dist: dict[tuple[int, ...], Fraction] = {}
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        sigma = pattern([(mid + k * alpha) % 1 for k in range(n)])
        dist[sigma] = dist.get(sigma, Fraction(0)) + (hi - lo)
    return dist
