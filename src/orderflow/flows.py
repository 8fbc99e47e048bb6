"""The flow polytope of pattern distributions.

A distribution on S_n is an edge weighting of G_{n-1}; it is a flow when
inflow equals outflow at every vertex, which is exactly the constraint that
the two one-step pushforwards of the distribution agree.  Faces of the flow
polytope correspond to face subgraphs, vertices to embedded loops, and a face
is realizable by a measure-preserving interval map precisely when its
subgraph is driftless.  The face census walks every edge mask of G_{n-1}
once and searches for drift only where a smaller face does not settle it.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from typing import Iterator

from .caps import CENSUS_N_MAX
from .digraph import (
    PermDigraph,
    Subgraph,
    embedded_loops,
    head,
    is_face_subgraph,
    tail,
)
from .drift import IndexReach, subgraph_drifts
from .errors import CapExceeded, FormatError, LengthTooSmall, NotAFlow
from .exactnum import Sqrt2, from_lattice, lattice_scale, to_lattice
from .paths import DiPath
from .perms import (
    HEAD,
    TAIL,
    PatternDistribution,
    Perm,
    _Record,
    json_length,
    load_json,
    parse_mass,
    parsed_distribution,
    perm,
    push_mass,
)

SNAP_TOL = 1e-9
SNAP_DENOMINATOR = 10**6


def flow_residual(mu: PatternDistribution):
    """Largest conservation violation over the vertices of G_{n-1}.

    Zero iff mu is a flow.  Length-1 distributions are vacuously flows.  An
    exact table is summed on its common denominator, as the ints (or Z[sqrt2]
    values) ``to_lattice`` gives, and the largest gap is divided back.
    """
    if mu.n < 2:
        return Fraction(0) if mu.exact else 0.0
    if mu.exact:
        scale = lattice_scale(mu.mass.values())
        mass = {s: to_lattice(m, scale) for s, m in mu.mass.items()}
    else:
        mass = mu.mass
    # The two pushforwards' masses, summed straight from the table.
    down = push_mass(mass, HEAD)
    up = push_mass(mass, TAIL)
    worst = max(abs(down.get(v, 0) - up.get(v, 0)) for v in down.keys() | up.keys())
    return from_lattice(worst, scale) if mu.exact else worst


def snap_to_exact(mu: PatternDistribution) -> tuple[PatternDistribution, float]:
    """Round float masses to nearby rationals and renormalize.

    Face membership is discontinuous, so float flows are snapped before any
    exact test.  Returns the snapped distribution and the largest per-entry
    adjustment, which must stay within ``SNAP_TOL``.
    """
    if mu.exact:
        return mu, 0.0
    snapped: dict[Perm, Fraction] = {}
    worst = 0.0
    for sigma, m in mu.mass.items():
        r = Fraction(m).limit_denominator(SNAP_DENOMINATOR)
        worst = max(worst, abs(float(r) - float(m)))
        if r > 0:
            snapped[sigma] = r
    if worst > SNAP_TOL:
        raise NotAFlow(f"snapping moved a mass by {worst}, beyond tolerance {SNAP_TOL}")
    total = sum(snapped.values())
    snapped = {s: m / total for s, m in snapped.items()}
    return PatternDistribution(mu.n, snapped), worst


def as_flow(mu: PatternDistribution) -> PatternDistribution:
    """Validate conservation, snapping float inputs first.

    Distributions double as flows; this is the gatekeeper.
    """
    flow, _ = snap_to_exact(mu)
    residual = flow_residual(flow)
    if residual != 0:
        raise NotAFlow(f"conservation fails with residual {residual}")
    return flow


def support_face(mu: PatternDistribution) -> Subgraph:
    """The face subgraph carrying the positive-mass edges of a flow."""
    flow = as_flow(mu)
    H = Subgraph(flow.n - 1, frozenset(flow.mass))
    if not is_face_subgraph(H):
        raise NotAFlow("support of a flow must be a face subgraph")
    return H


def face_realizable(H: Subgraph) -> bool:
    """Whether the open face of H contains distributions of measure-preserving maps.

    True exactly when no connected component of H drifts; NotFaceSubgraph
    if H is not a face subgraph.
    """
    return not subgraph_drifts(H).drifts


class CensusRow(_Record):
    __slots__ = ("dimension", "total", "realizable")
    dimension: int
    total: int
    realizable: int

    def __init__(self, dimension: int, total: int, realizable: int):
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "realizable", realizable)


def census(n: int, dimensions=None) -> list[CensusRow]:
    """Face census of the flow polytope: per dimension, how many faces are realizable.

    Exhaustive over the faces of G_{n-1} for n <= ``CENSUS_N_MAX``, by one
    walk over its edge masks (``_face_walk``).  A request for dimension 0
    alone lists the vertices, i.e. the embedded loops, instead.  Larger n is
    refused, and so is n < 2, which has no G_{n-1}.
    """
    if n < 2:
        raise LengthTooSmall(f"census needs length n at least 2, got {n}")
    if n > CENSUS_N_MAX:
        raise CapExceeded(f"census reached n = {n}, cap {CENSUS_N_MAX}")
    G = PermDigraph(n - 1)
    if dimensions is not None and set(dimensions) == {0}:
        faces = ((0, face_realizable(Subgraph(n - 1, frozenset(loop)))) for loop in embedded_loops(G.full_subgraph()))
    else:
        faces = ((d, ok) for _, d, ok in _face_walk(sorted(G.edges())))
    counts: dict[int, tuple[int, int]] = {}
    for d, ok in faces:
        if dimensions is None or d in dimensions:
            total, realizable = counts.get(d, (0, 0))
            counts[d] = (total + 1, realizable + ok)
    return [CensusRow(d, t, r) for d, (t, r) in sorted(counts.items())]


def _face_walk(edges: list[Perm]) -> Iterator[tuple[int, int, bool]]:
    """(mask, dimension, realizable) of every face among the subsets of ``edges``, by increasing mask.

    Bit k of a mask stands for ``edges[k]``; the edges all lie in one G_m,
    and a vertex is named by its place in their ``Subgraph``'s ranking.
    Reachability in a mask is closed on one int of |V| rows of |V| bits (bit
    w of row v: a nonempty path leads from v to w), which starts as the
    adjacency rows of the mask's two halves, looked up by submask.  Above
    the rows, the tables also hold the (tail, head) bit of every edge, and
    the mask is a face when every edge's tail reaches its head.  In a face,
    what v reaches is v's component, so the rows give the c components, and
    the dimension is |E| - |V| + c - 1.  The edges of a face out of a
    component's vertices are the component's edges (``inside``).

    ``marked[mask]`` records a realizable face: one whose components are all
    driftless.  A face of several components is realizable when every
    component's edge mask, a smaller mask walked before, is marked.  A
    strongly connected face H is driftless if H - e is marked for some edge e
    of H; only otherwise does one ``IndexReach`` search decide it.

    The shortcut is sound.  If the strongly connected H drifts, it drifts at
    every one of its vertices (``drift.py``).  Let C inside H be nonempty and
    strongly connected, and v a vertex of C.  H drifts at v: at some index
    every nonempty loop of H at v has one nonzero sign.  The loops of C at v
    are such loops, and there is at least one, so C drifts at v.  Hence a
    driftless C makes H driftless, and a component of a marked H - e is such
    a C.
    """
    m = edges[0].n - 1
    place = Subgraph(m, frozenset(edges)).ranking.place
    nv, half = len(place), len(edges) // 2
    row, column = (1 << nv) - 1, sum(1 << nv * v for v in range(nv))
    ends = [(place[head(e)], place[tail(e)]) for e in edges]
    bits = [1 << k for k in range(len(edges))]
    inside = [sum(b for b, (h, _) in zip(bits, ends) if vs >> h & 1) for vs in range(1 << nv)]
    low, high = [0], [0]
    for k, (h, t) in enumerate(ends):
        table = low if k < half else high
        table += [x | 1 << nv * h + t | 1 << nv * (nv + t) + h for x in table]
    marked = bytearray(1 << len(edges))
    for mask in range(1, len(marked)):
        reach = low[mask & len(low) - 1] | high[mask >> half]
        for v in range(nv):  # Warshall: rows that reach v gain v's row
            reach |= (reach >> v & column) * (reach >> nv * v & row)
        if reach >> nv * nv & ~reach:
            continue
        comps = {reach >> nv * v & row for v in range(nv)} - {0}
        if len(comps) > 1:
            ok = all(marked[mask & inside[c]] for c in comps)
        else:
            ok = any(marked[mask ^ b] for b in bits if mask & b)
            ok = ok or not IndexReach(Subgraph(m, frozenset(e for b, e in zip(bits, edges) if mask & b))).verdict().drifts
        marked[mask] = ok
        yield mask, mask.bit_count() - sum(c.bit_count() for c in comps) + len(comps) - 1, ok


def census_to_csv(rows: list[CensusRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["dimension", "total", "realizable"])
    for row in rows:
        w.writerow([row.dimension, row.total, row.realizable])
    return buf.getvalue()


def cycle_decompose(mu: PatternDistribution) -> list[tuple[DiPath, Fraction]]:
    """Write a flow as a positive combination of embedded loops.

    Standard circulation peeling: follow positive out-edges until a vertex
    repeats, subtract the bottleneck along the extracted cycle, repeat.  Each
    round zeroes at least one edge, so at most |E| loops come back, and the
    weighted loops re-sum exactly to the input.
    """
    flow = as_flow(mu)
    if not flow.exact:
        raise NotAFlow("cycle decomposition needs exact rational weights")
    n = flow.n - 1
    residual: dict[Perm, Fraction] = dict(flow.mass)
    out: list[tuple[DiPath, Fraction]] = []

    def out_edge(v: Perm) -> Perm:
        options = [e for e in residual if head(e) == v]
        if not options:
            raise NotAFlow(f"conservation fails at {v} during decomposition")
        return min(options)

    while residual:
        start = head(min(residual))
        seen_at: dict[Perm, int] = {start: 0}
        verts = [start]
        walk: list[Perm] = []
        while True:
            e = out_edge(verts[-1])
            walk.append(e)
            w = tail(e)
            if w in seen_at:
                cycle = tuple(walk[seen_at[w] :])
                break
            seen_at[w] = len(walk)
            verts.append(w)
        weight = min(residual[e] for e in cycle)
        for e in cycle:
            residual[e] -= weight
            if residual[e] == 0:
                del residual[e]
        out.append((DiPath(n, cycle), weight))
    return out


# -- serialization ----------------------------------------------------------


def flow_from_json(text: str) -> PatternDistribution:
    payload = load_json(text, "flow", {"n", "weights"})
    n, weights = json_length(payload, "flow"), payload["weights"]
    if not isinstance(weights, dict):
        raise FormatError("flow JSON 'weights' must be an object")
    mass: dict[Perm, object] = {}
    for key, raw in weights.items():
        try:
            sigma = perm(key)
        except ValueError as exc:
            raise FormatError(f"weight key {key!r}: {exc}") from exc
        if sigma.n != n:
            raise FormatError(f"weight key {key} has wrong length for n={n}")
        weight = parse_mass(raw, f"weight of {key}")
        if isinstance(weight, Sqrt2):
            raise FormatError(f"weight of {key}: {raw!r} is irrational; flow weights must be rational")
        mass[sigma] = weight
    return parsed_distribution(n, mass)
