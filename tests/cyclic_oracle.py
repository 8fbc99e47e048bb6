"""The all-pairs cyclic ranking and an order-pattern window check, kept as test oracles.

``maps.cyclic_lift`` adds only the w-1 comparisons of consecutive values per
window and ``maps.ranking_realizes`` checks that ranks rise along an edge's
slots in value order.  The routes here are the ones they replaced: every
pair of slots of every window becomes a constraint, and every window of
ranks is turned into a ``Perm`` by ``order_pattern`` and compared with its
edge.
"""

from __future__ import annotations

import heapq

from orderflow.caps import CYCLIC_LIFT_MAX
from orderflow.drift import DRIFTLESS, TOTALLY_DRIFTLESS, classify_loop
from orderflow.errors import CapExceeded, CyclicObstruction, InvariantViolation
from orderflow.maps import CyclicRanking
from orderflow.paths import DiPath
from orderflow.perms import order_pattern


def oracle_ranking_realizes(r: CyclicRanking, gamma: DiPath) -> bool:
    """Whether every cyclic window of ranks has its edge as order pattern."""
    ell, w = r.length, gamma.n + 1
    if ell != gamma.length:
        return False
    for b, e in enumerate(gamma.edges):
        window = tuple(r.rank[(b + t) % ell] for t in range(w))
        if len(set(window)) != w or order_pattern(window) != e:
            return False
    return True


def oracle_cyclic_lift(gamma: DiPath) -> CyclicRanking:
    """The least ranking (min-heap topological sort) under every pairwise window constraint."""
    gamma.require_loop()
    cls = classify_loop(gamma)
    if cls not in (DRIFTLESS, TOTALLY_DRIFTLESS):
        raise CyclicObstruction(f"loop classifies as {cls}; it cannot close up cyclically")
    ell = gamma.length
    if ell > CYCLIC_LIFT_MAX:
        raise CapExceeded(f"loop length {ell} exceeds cyclic ranking cap {CYCLIC_LIFT_MAX}")
    w = gamma.n + 1
    succs: list[set[int]] = [set() for _ in range(ell)]
    indeg = [0] * ell
    for b, e in enumerate(gamma.edges):
        word = e.word
        for cslot in range(w):
            for dslot in range(cslot + 1, w):
                p1, p2 = (b + cslot) % ell, (b + dslot) % ell
                if p1 == p2:  # a window wraps onto itself, which forces a drift
                    raise InvariantViolation(f"a loop of length {ell} shorter than its window must drift")
                lowpos, highpos = (p1, p2) if word[cslot] < word[dslot] else (p2, p1)
                if highpos not in succs[lowpos]:
                    succs[lowpos].add(highpos)
                    indeg[highpos] += 1
    ready = [i for i in range(ell) if indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for u in sorted(succs[v]):
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(ready, u)
    if len(order) < ell:
        raise CyclicObstruction("window constraints force a cyclic chain of inequalities")
    rank = [0] * ell
    for position_rank, pos in enumerate(order, start=1):
        rank[pos] = position_rank
    ranking = CyclicRanking(tuple(rank))
    if not oracle_ranking_realizes(ranking, gamma):
        raise InvariantViolation("cyclic ranking does not reproduce the loop's windows")
    return ranking
