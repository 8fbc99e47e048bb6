import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flow_oracle import face_dimension, flow_to_json, interior_flow, polytope_dimension
from orderflow import flows
from orderflow.digraph import (
    Subgraph,
    build,
    embedded_loops,
    face_components,
    head,
    is_face_subgraph,
    strongly_connected_components,
    subgraph,
    tail,
)
from orderflow.drift import TOTALLY_DRIFTLESS, classify_loop, synthesize_totally_driftless_loop
from orderflow.errors import CapExceeded, DriftObstruction, LengthTooSmall, NotAFlow, NotFaceSubgraph
from orderflow.flows import (
    as_flow,
    census,
    census_to_csv,
    cycle_decompose,
    face_realizable,
    flow_from_json,
    flow_residual,
    snap_to_exact,
    support_face,
)
from orderflow.exactnum import Sqrt2, exact
from orderflow.perms import HEAD, TAIL, PatternDistribution, all_perms, perm, restrict


def dist(n, **masses):
    return PatternDistribution(n, {perm(k): Fraction(v) for k, v in masses.items()})


class TestResidual:
    def test_examples(self):
        assert flow_residual(PatternDistribution.uniform(3)) == 0
        assert flow_residual(PatternDistribution.point_mass(perm("123"))) == 0
        mu = PatternDistribution(
            3, {perm("132"): Fraction(1, 2), perm("123"): Fraction(1, 2)}
        )
        assert flow_residual(mu) == Fraction(1, 2)

    def test_length_one(self):
        assert flow_residual(PatternDistribution.point_mass(perm("1"))) == 0

    def test_as_flow_gate(self):
        with pytest.raises(NotAFlow):
            as_flow(PatternDistribution(3, {perm("132"): Fraction(1)}))

    @settings(max_examples=200)
    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.lists(st.integers(0, 50), min_size=math.factorial(n), max_size=math.factorial(n))
        ),
        st.sampled_from(["fraction", "sqrt2", "float"]),
    )
    def test_equals_the_sum_in_fractions(self, weights, kind):
        # The int route against the masses summed as they are, gap by gap.
        n = {2: 2, 6: 3, 24: 4}[len(weights)]
        if not any(weights):
            weights = [1] + weights[1:]
        total = sum(weights)
        mass = {s: Fraction(w, total) for s, w in zip(all_perms(n), weights) if w}
        if kind == "sqrt2" and len(mass) > 1:
            # Move an irrational sliver from one mass to another: still exact, still total 1.
            (a, ma), (b, mb) = sorted(mass.items())[:2]
            eps = exact(0, min(ma, mb) / 4)
            mass[a], mass[b] = ma + eps, mb - eps
        if kind == "float":
            mass = {s: float(m) for s, m in mass.items()}
        mu = PatternDistribution(n, mass)
        zero = Fraction(0) if mu.exact else 0.0
        down, up = {}, {}
        for sigma, m in mu.mass.items():
            down[restrict(sigma, HEAD)] = down.get(restrict(sigma, HEAD), zero) + m
            up[restrict(sigma, TAIL)] = up.get(restrict(sigma, TAIL), zero) + m
        expected = max(abs(down.get(v, zero) - up.get(v, zero)) for v in down.keys() | up.keys())
        got = flow_residual(mu)
        assert got == expected and type(got) is type(expected)
        if isinstance(got, Sqrt2):
            assert type(got.a) is type(got.b) is Fraction

    def test_float_snapping(self):
        mu = PatternDistribution(3, {s: 1 / 6 for s in all_perms(3)})
        snapped, worst = snap_to_exact(mu)
        assert snapped.exact and worst < 1e-9
        assert flow_residual(snapped) == 0


class TestSupportFace:
    def test_examples(self, G2_full, driftless_triple):
        third = Fraction(1, 3)
        mu = PatternDistribution(
            3, {perm("132"): third, perm("321"): third, perm("213"): third}
        )
        H = support_face(mu)
        assert H.edges == driftless_triple.edges
        assert face_dimension(H) == 1

        assert support_face(PatternDistribution.uniform(3)).edges == G2_full.edges
        assert face_dimension(support_face(PatternDistribution.uniform(3))) == 4

        H0 = support_face(PatternDistribution.point_mass(perm("123")))
        assert face_dimension(H0) == 0

    def test_rejects_non_flow(self):
        with pytest.raises(NotAFlow):
            support_face(dist(3, **{"132": "1/2", "123": "1/2"}))


class TestRealizableFaces:
    def test_examples(self, G2_full, nine_edge_loop):
        assert face_realizable(G2_full)
        assert not face_realizable(subgraph(2, ["123"]))
        H9 = Subgraph(4, frozenset(nine_edge_loop.edges))
        assert face_realizable(H9)

    def test_requires_face_subgraph(self):
        with pytest.raises(NotFaceSubgraph):
            face_realizable(subgraph(2, ["132"]))

    def test_realizable_iff_totally_driftless_loop_exists(self, G2_full):
        # Connected face subgraphs only: loop synthesis is the cross-check.
        edges = sorted(G2_full.edges)
        for mask in range(1, 1 << 6):
            H = Subgraph(2, frozenset(e for k, e in enumerate(edges) if mask >> k & 1))
            if not is_face_subgraph(H) or len(strongly_connected_components(H)) != 1:
                continue
            if face_realizable(H):
                gamma = synthesize_totally_driftless_loop(H)
                assert classify_loop(gamma) == TOTALLY_DRIFTLESS
            else:
                with pytest.raises(DriftObstruction):
                    synthesize_totally_driftless_loop(H)


class TestCensus:
    def test_length_three_table(self):
        rows = census(3)
        assert [(r.dimension, r.total, r.realizable) for r in rows] == [
            (0, 6, 0),
            (1, 13, 2),
            (2, 13, 9),
            (3, 6, 6),
            (4, 1, 1),
        ]

    def test_length_two_table(self):
        rows = census(2)
        assert [(r.dimension, r.total, r.realizable) for r in rows] == [(0, 2, 0), (1, 1, 1)]

    def test_vertices_of_length_four(self):
        rows = census(4, dimensions=[0])
        assert len(rows) == 1
        row = rows[0]
        assert row.dimension == 0
        assert row.total == len(embedded_loops(build(3).full_subgraph()))
        assert 0 < row.realizable < row.total

    def test_refuses_large(self):
        with pytest.raises(CapExceeded, match=r"^census reached n = 5, cap 4$"):
            census(5)
        with pytest.raises(CapExceeded, match=r"^census reached n = 5, cap 4$"):
            census(5, dimensions=[0])

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_refuses_small(self, n):
        # G_{n-1} does not exist; the error names the census length, not the digraph's.
        with pytest.raises(LengthTooSmall, match=rf"^census needs length n at least 2, got {n}$"):
            census(n)
        with pytest.raises(LengthTooSmall):
            census(n, dimensions=[0])

    @pytest.mark.parametrize("n", [2, 3])
    def test_loop_route_matches_the_walk(self, n):
        # dimensions={0} lists embedded loops; any other request walks every edge mask.
        walked = [r for r in census(n) if r.dimension == 0]
        assert census(n, dimensions=[0]) == census(n, dimensions=[0, 0]) == walked

    def test_csv(self):
        text = census_to_csv(census(3))
        assert text.splitlines()[0] == "dimension,total,realizable"
        assert text.splitlines()[1] == "0,6,0"


class TestCycleDecompose:
    def resummed(self, parts):
        acc: dict = {}
        for loop, w in parts:
            for e in loop.edges:
                acc[e] = acc.get(e, Fraction(0)) + w
        return acc

    def test_uniform(self):
        mu = PatternDistribution.uniform(3)
        parts = cycle_decompose(mu)
        assert len(parts) <= 6
        assert self.resummed(parts) == dict(mu.mass)
        assert all(loop.is_loop for loop, _ in parts)

    def test_point_mass(self):
        parts = cycle_decompose(PatternDistribution.point_mass(perm("123")))
        assert len(parts) == 1
        assert parts[0][0].edges == (perm("123"),)
        assert parts[0][1] == 1

    def test_three_edge_face(self, driftless_triple):
        mu = interior_flow(driftless_triple)
        parts = cycle_decompose(mu)
        assert self.resummed(parts) == dict(mu.mass)

    def test_rejects_non_flow(self):
        with pytest.raises(NotAFlow):
            cycle_decompose(dist(3, **{"132": "1/2", "123": "1/2"}))


class TestInteriorFlow:
    def test_examples(self, G2_full, two_cycle):
        full = interior_flow(G2_full)
        assert support_face(full).edges == G2_full.edges
        assert flow_residual(full) == 0

        assert interior_flow(subgraph(2, ["123"])) == PatternDistribution.point_mass(perm("123"))

        half = interior_flow(two_cycle)
        assert half(perm("132")) == Fraction(1, 2) and half(perm("213")) == Fraction(1, 2)

    def test_support_exact_on_all_faces(self, G2_full):
        edges = sorted(G2_full.edges)
        for mask in range(1, 1 << 6):
            H = Subgraph(2, frozenset(e for k, e in enumerate(edges) if mask >> k & 1))
            if not is_face_subgraph(H):
                continue
            mu = interior_flow(H)
            assert support_face(mu).edges == H.edges


class TestPolytopeDimension:
    @pytest.mark.parametrize("n,dim", [(2, 1), (3, 4), (4, 18)])
    def test_values(self, n, dim):
        assert polytope_dimension(n) == dim

    def test_cap(self):
        with pytest.raises(CapExceeded, match=r"polytope dimension reached n = 7, cap 6$"):
            polytope_dimension(7)


class TestJoinStructure:
    def test_disjoint_union_adds_dimensions_plus_one(self, G2_full):
        edges = sorted(G2_full.edges)
        faces = []
        for mask in range(1, 1 << 6):
            H = Subgraph(2, frozenset(e for k, e in enumerate(edges) if mask >> k & 1))
            if is_face_subgraph(H):
                faces.append(H)
        for H in faces:
            for K in faces:
                if set(H.vertices()) & set(K.vertices()):
                    continue
                union = Subgraph(2, H.edges | K.edges)
                assert face_dimension(union) == face_dimension(H) + face_dimension(K) + 1


class TestSerialization:
    def test_round_trip(self, driftless_triple):
        mu = interior_flow(driftless_triple)
        assert flow_from_json(flow_to_json(mu)) == mu

    def test_parse_floats(self):
        mu = flow_from_json('{"n": 2, "weights": {"12": 0.5, "21": 0.5}}')
        assert not mu.exact

    def test_diagnostics(self):
        from orderflow.errors import FormatError

        with pytest.raises(FormatError):
            flow_from_json('{"n": 2}')
        with pytest.raises(FormatError):
            flow_from_json('{"n": 2, "weights": {"121": "1"}}')
        with pytest.raises(FormatError) as err:
            flow_from_json('{"n": 2, "weights": {"12": "3/2", "21": "-1/2"}}')
        assert "negative" in str(err.value)


def _or_table(bits: list[int]) -> list[int]:
    """Entry ``mask``: the OR of ``bits[j]`` over the set bits j of mask."""
    table = [0]
    for b in bits:
        table += [t | b for t in table]
    return table


_G3_EDGES = sorted(build(3).edges())
# Realizable faces with two components are rare among random edge subsets of
# G_3 (the first ten subsets below hold one).  The vertex triples here each
# carry 44 driftless strongly connected faces, so subsets of the 16 edges
# inside them hold many.
_TRIPLES = ({"123", "231", "312"}, {"132", "213", "321"})
_TRIPLE_EDGES = [e for e in _G3_EDGES if any({str(head(e)), str(tail(e))} <= t for t in _TRIPLES)]


class TestFaceWalk:
    """The census mask walk against the Subgraph route on seeded edge subsets of G_3."""

    SUBSETS = [
        sorted(random.Random(seed).sample(_G3_EDGES if seed < 10 else _TRIPLE_EDGES, 12 + seed % 3))
        for seed in range(20)
    ]

    @pytest.mark.parametrize("edges", SUBSETS, ids=range(len(SUBSETS)))
    def test_faces_match_the_subgraph_route(self, edges, monkeypatch):
        searches = []

        class CountingReach(flows.IndexReach):
            def verdict(self):
                searches.append(1)
                return super().verdict()

        monkeypatch.setattr(flows, "IndexReach", CountingReach)
        walked = {mask: (d, ok) for mask, d, ok in flows._face_walk(edges)}
        monkeypatch.undo()

        def sub(mask):
            return Subgraph(3, frozenset(e for k, e in enumerate(edges) if mask >> k & 1))

        # Every vertex of a face has an edge in and an edge out, so a mask
        # whose heads and tails are different vertex sets is not a face.
        verts = sorted({head(e) for e in edges} | {tail(e) for e in edges})
        heads = _or_table([1 << verts.index(head(e)) for e in edges])
        tails = _or_table([1 << verts.index(tail(e)) for e in edges])
        oracle, strongly_connected = {}, []
        for mask in range(1, 1 << len(edges)):
            if mask in walked or (heads[mask] == tails[mask] and is_face_subgraph(sub(mask))):
                H = sub(mask)
                oracle[mask] = (face_dimension(H), face_realizable(H))
                if len(face_components(H)) == 1:
                    strongly_connected.append(mask)
        assert walked == oracle
        # The walk searches a strongly connected face unless removing one edge
        # leaves a realizable face.
        bits = [1 << k for k in range(len(edges))]
        expected = [m for m in strongly_connected if not any(m & b and oracle.get(m ^ b, (0, False))[1] for b in bits)]
        assert len(searches) == len(expected)

