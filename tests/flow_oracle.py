"""Flow-polytope routes that only tests run, kept as oracles and fixtures.

``polytope_dimension`` computes by exact constraint rank what the closed
form n! - (n-1)! gives, and ``face_dimension`` the face dimension that the
census reads off its bit rows.  ``interior_flow`` builds a point of an open
face, and ``flow_to_json`` writes a flow as the file the CLI reads.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from orderflow.digraph import Subgraph, face_components, head, shortest_paths, tail
from orderflow.errors import CapExceeded, InvariantViolation
from orderflow.perms import PatternDistribution, Perm, all_perms

POLYTOPE_DIM_MAX = 6


def face_dimension(H: Subgraph) -> int:
    """Dimension of the polytope face that H corresponds to.

    One less than the rank of the first homology of H, i.e.
    |E| - |V| + #components - 1.
    """
    return len(H.edges) - len(H.vertices()) + len(face_components(H)) - 1


def interior_flow(H: Subgraph) -> PatternDistribution:
    """Some flow supported on exactly H (a point of the open face).

    Built as the normalized sum of counting measures of one loop through
    each edge; which interior point comes back is arbitrary but
    deterministic.
    """
    face_components(H)  # raises NotFaceSubgraph when an edge lies on no loop
    counts: dict[Perm, int] = {}
    for e in sorted(H.edges):
        loop = (e,) + shortest_paths(H, tail(e))[H.ranking.place[head(e)]]
        for f in loop:
            counts[f] = counts.get(f, 0) + 1
    total = sum(counts.values())
    masses = {e: Fraction(c, total) for e, c in counts.items()}
    return PatternDistribution(H.n + 1, masses)


def polytope_dimension(n: int) -> int:
    """Affine dimension of the flow polytope at length n, by constraint rank.

    The conservation constraints are the incidence rows of G_{n-1}; exactly
    one dependency (their sum vanishes) is expected, and the final dimension
    must come out as n! - (n-1)!.
    """
    if n < 2:
        return 0
    if n > POLYTOPE_DIM_MAX:
        raise CapExceeded(f"polytope dimension reached n = {n}, cap {POLYTOPE_DIM_MAX}")
    verts = list(all_perms(n - 1))
    vindex = {v: i for i, v in enumerate(verts)}
    cols = list(all_perms(n))
    rows = [[0] * len(cols) for _ in verts]
    for c, e in enumerate(cols):
        rows[vindex[head(e)]][c] += 1
        rows[vindex[tail(e)]][c] -= 1

    def rank(mat: list[list[int]]) -> int:
        mat = [list(Fraction(x) for x in row) for row in mat]
        r = 0
        ncols = len(mat[0]) if mat else 0
        for c in range(ncols):
            pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
            if pivot is None:
                continue
            mat[r], mat[pivot] = mat[pivot], mat[r]
            inv = 1 / mat[r][c]
            mat[r] = [x * inv for x in mat[r]]
            for i in range(len(mat)):
                if i != r and mat[i][c] != 0:
                    f = mat[i][c]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
            r += 1
            if r == len(mat):
                break
        return r

    flow_rank = rank(rows)
    if flow_rank != math.factorial(n - 1) - 1:
        raise InvariantViolation(
            f"conservation rows of G_{n - 1} have rank {flow_rank}, not one short of full"
        )
    return math.factorial(n) - flow_rank - 1


def flow_to_json(mu: PatternDistribution) -> str:
    """The flow JSON that ``flows.flow_from_json`` reads."""
    weights = {str(s): str(m) if mu.exact else repr(float(m)) for s, m in sorted(mu.mass.items())}
    return json.dumps({"n": mu.n, "weights": weights}, sort_keys=True)
