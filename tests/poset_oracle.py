"""The poset route to a path's lifts, kept as a test oracle.

Lifts of a path are exactly the linear extensions of its poset.  The
package lists lifts by growing them window by window (``paths.lifts``) and
counts them by the transfer count (``paths.lift_count``); the routes here
work on the poset instead: a downset DP counts its extensions and a
backtracking walk lists them.  The one-step lift of a path to the level
above and the factorial growth check of loop powers are kept beside them.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Literal

from orderflow.drift import ZERO, loop_drift
from orderflow.errors import CapExceeded
from orderflow.paths import DiPath, PathPoset, build_poset
from orderflow.perms import HEAD, TAIL, Perm, preimages, restrict

# Listing linear extensions by backtracking stops at m = 9.
EXTENSION_ENUM_MAX = 9
# Counting linear extensions by downset DP is feasible a bit further.
EXTENSION_COUNT_MAX = 14


def linear_extensions(P: PathPoset, mode: Literal["count", "enumerate"] = "count"):
    """Count or list the total-order extensions of a path poset.

    Counting runs a downset DP (memoized on the placed-set bitmask); listing
    backtracks and reports each extension as the permutation assigning ranks,
    which for a path poset is exactly a lift of the path.
    """
    preds = []
    for i in range(P.m):
        mask = 0
        for k in range(P.m):
            if k != i and P.leq[k] >> i & 1:
                mask |= 1 << k
        preds.append(mask)
    full = (1 << P.m) - 1

    if mode == "count":
        if P.m > EXTENSION_COUNT_MAX:
            raise CapExceeded(f"extension counting reached m = {P.m}, cap {EXTENSION_COUNT_MAX}")

        @lru_cache(maxsize=None)
        def count(placed: int) -> int:
            if placed == full:
                return 1
            total = 0
            for i in range(P.m):
                if placed >> i & 1 == 0 and preds[i] & ~placed == 0:
                    total += count(placed | 1 << i)
            return total

        return count(0)

    if mode == "enumerate":
        if P.m > EXTENSION_ENUM_MAX:
            raise CapExceeded(f"extension enumeration reached m = {P.m}, cap {EXTENSION_ENUM_MAX}")
        out: list[Perm] = []
        order: list[int] = []

        def walk(placed: int):
            if placed == full:
                word = [0] * P.m
                for rank, elt in enumerate(order, start=1):
                    word[elt] = rank
                out.append(Perm(tuple(word)))
                return
            for i in range(P.m):
                if placed >> i & 1 == 0 and preds[i] & ~placed == 0:
                    order.append(i)
                    walk(placed | 1 << i)
                    order.pop()

        walk(0)
        return out

    raise ValueError(f"mode must be 'count' or 'enumerate', got {mode!r}")


def edges_between(u: Perm, w: Perm) -> list[Perm]:
    """All edges of G_n from u to w (both in S_n)."""
    return [e for e in preimages(u, HEAD) if restrict(e, TAIL) == w]


def lift_paths_one_step(p: DiPath) -> list[DiPath]:
    """All paths on G_{n+1} projecting onto p (one level up).

    The lifted vertices are forced (they are p's edges); only the lifted
    edges vary.  Defined for paths of length >= 1; the lift has length l - 1.
    """
    if p.length < 1:
        raise ValueError("only paths of positive length lift downward-determined")
    if p.length == 1:
        return [DiPath(p.n + 1, (), p.edges[0])]
    choices = [edges_between(a, b) for a, b in zip(p.edges, p.edges[1:])]
    return [DiPath(p.n + 1, combo) for combo in itertools.product(*choices)]


def growth_check(gamma: DiPath, k_max: int) -> list[tuple[int, int, int]]:
    """Lift counts of loop powers against the factorial lower bound.

    For a loop with a zero diagonal drift entry, the k-th power admits at
    least k! lifts.  Each power's lifts are counted as the linear extensions
    of its poset.
    """
    gamma.require_loop()
    diag = loop_drift(gamma).diagonal()
    if ZERO not in diag:
        raise ValueError("growth bound needs a loop with a zero diagonal drift entry")
    rows = []
    for k in range(1, k_max + 1):
        count = linear_extensions(build_poset(gamma**k), "count")
        rows.append((k, count, math.factorial(k)))
    return rows
