import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flow_oracle import face_dimension
from orderflow.digraph import (
    Subgraph,
    build,
    embedded_loops,
    export_dot,
    face_components,
    is_face_subgraph,
    shortest_paths,
    strongly_connected_components,
    subgraph,
    subgraph_from_json,
    subgraph_to_json,
)
from orderflow.errors import CapExceeded, FormatError, NotFaceSubgraph
from orderflow.perms import HEAD, TAIL, all_perms, perm, restrict


class TestBuild:
    @pytest.mark.parametrize("n,v,e", [(2, 2, 6), (3, 6, 24), (4, 24, 120)])
    def test_counts(self, n, v, e):
        G = build(n)
        assert G.vertex_count() == v and G.edge_count() == e
        assert len(list(G.vertices())) == v and len(list(G.edges())) == e

    def test_cap(self):
        # The handle holds only n; listing its edges, all of S_13, is what the cap refuses.
        G = build(12)
        assert G.edge_count() == 6_227_020_800
        with pytest.raises(CapExceeded, match=r"^S_13 enumeration exceeds cap 12$"):
            G.edges()

    def test_endpoints_and_degrees_exhaustive(self):
        for n in range(1, 6):
            G = build(n)
            vertices = set(G.vertices())
            out_deg = {v: 0 for v in vertices}
            in_deg = {v: 0 for v in vertices}
            for e in G.edges():
                h, t = restrict(e, HEAD), restrict(e, TAIL)
                assert h in vertices and t in vertices
                out_deg[h] += 1
                in_deg[t] += 1
            assert set(out_deg.values()) == {n + 1}
            assert set(in_deg.values()) == {n + 1}


class TestFaceSubgraphs:
    def test_examples(self, G2_full, two_cycle):
        assert is_face_subgraph(two_cycle)
        assert not is_face_subgraph(subgraph(2, ["132"]))
        assert is_face_subgraph(G2_full)

    def test_scc_examples(self):
        comps = strongly_connected_components(subgraph(2, ["123", "321"]))
        assert len(comps) == 2
        assert all(len(c.vertices) == 1 and len(c.edges) == 1 for c in comps)

        comps = strongly_connected_components(subgraph(2, ["132", "213", "231", "312"]))
        assert len(comps) == 1
        assert comps[0].vertices == frozenset({perm("12"), perm("21")})

        comps = strongly_connected_components(subgraph(2, ["132"]))
        assert len(comps) == 2
        assert all(not c.edges for c in comps)

    def test_face_iff_union_of_embedded_loop_supports(self, G2_full):
        edges = sorted(G2_full.edges)
        for mask in range(1, 1 << 6):
            H = Subgraph(2, frozenset(e for k, e in enumerate(edges) if mask >> k & 1))
            loops = embedded_loops(H)
            covered = frozenset(e for loop in loops for e in loop)
            assert is_face_subgraph(H) == (covered == H.edges)


class TestEmbeddedLoops:
    def test_g2_has_six(self, G2_full):
        loops = embedded_loops(G2_full)
        assert len(loops) == 6
        supports = {frozenset(loop) for loop in loops}
        assert len(supports) == 6
        expected = {
            frozenset({perm("123")}),
            frozenset({perm("321")}),
            frozenset({perm("132"), perm("213")}),
            frozenset({perm("132"), perm("312")}),
            frozenset({perm("231"), perm("213")}),
            frozenset({perm("231"), perm("312")}),
        }
        assert supports == expected

    def test_small_cases(self, two_cycle):
        assert len(embedded_loops(two_cycle)) == 1
        assert embedded_loops(subgraph(2, ["123"])) == [(perm("123"),)]

    def test_canonical_rotation(self, two_cycle):
        (loop,) = embedded_loops(two_cycle)
        assert loop == min(loop[i:] + loop[:i] for i in range(len(loop)))

    def test_vertex_cap(self, monkeypatch):
        G3 = build(3).full_subgraph()
        monkeypatch.setattr("orderflow.digraph.LOOP_ENUM_VERTEX_MAX", 2)
        with pytest.raises(CapExceeded):
            embedded_loops(G3)


class TestFaceDimension:
    def test_examples(self, G2_full):
        assert face_dimension(G2_full) == 4
        assert face_dimension(subgraph(2, ["123"])) == 0
        assert face_dimension(subgraph(2, ["123", "321"])) == 1

    def test_full_graphs_match_polytope_dimensions(self):
        assert face_dimension(build(3).full_subgraph()) == 18  # 24 - 6 + 1 - 1

    def test_rejects_non_face(self):
        with pytest.raises(NotFaceSubgraph):
            face_dimension(subgraph(2, ["132"]))


class TestSerialization:
    def test_dot(self, G2_full, two_cycle):
        text = export_dot(G2_full)
        assert text.count("->") == 6 and text.count(";") == 8  # 2 nodes + 6 arcs
        text = export_dot(two_cycle)
        assert text.count("->") == 2
        assert export_dot(Subgraph(2, frozenset())).count(";") == 0

    def test_json_round_trip(self, two_cycle):
        assert subgraph_from_json(subgraph_to_json(two_cycle)) == two_cycle

    def test_json_errors(self):
        with pytest.raises(FormatError):
            subgraph_from_json("not json")
        with pytest.raises(FormatError):
            subgraph_from_json('{"n": 2}')


# -- the walks against independent oracles ---------------------------------------


@st.composite
def edge_sets(draw):
    """A random edge set of G_2 or G_3, each edge kept on a coin flip."""
    n = draw(st.sampled_from([2, 3]))
    edges = sorted(all_perms(n + 1))
    kept = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return Subgraph(n, frozenset(e for e, keep in zip(edges, kept) if keep))


def _ends(H: Subgraph) -> dict:
    return {e: (restrict(e, HEAD), restrict(e, TAIL)) for e in H.edges}


def _distances(H: Subgraph) -> dict:
    """Floyd-Warshall path lengths over H's vertices; a pair that no path joins is absent."""
    ends = _ends(H)
    verts = {v for pair in ends.values() for v in pair}
    dist = {(v, v): 0 for v in verts}
    for h, t in ends.values():
        if h != t:
            dist[h, t] = 1
    for k, i, j in itertools.product(verts, repeat=3):
        if (i, k) in dist and (k, j) in dist and dist[i, k] + dist[k, j] < dist.get((i, j), len(verts)):
            dist[i, j] = dist[i, k] + dist[k, j]
    return dist


def _classes(H: Subgraph) -> set[frozenset]:
    """The classes of mutual reachability in H's transitive closure."""
    dist = _distances(H)
    verts = {v for v, _ in dist}
    return {frozenset(w for w in verts if (v, w) in dist and (w, v) in dist) for v in verts}


def _simple_cycles(H: Subgraph) -> list[tuple]:
    """Every embedded loop as its least rotation, by brute force over distinct-vertex cycles."""
    ends = _ends(H)
    verts = sorted({v for pair in ends.values() for v in pair})
    loops = []
    for k in range(1, len(verts) + 1):
        for cycle in itertools.permutations(verts, k):
            if cycle[0] != min(cycle):
                continue
            hops = zip(cycle, cycle[1:] + cycle[:1])
            choices = [[e for e, pair in ends.items() if pair == hop] for hop in hops]
            for word in itertools.product(*choices):
                loops.append(min(word[i:] + word[:i] for i in range(k)))
    return sorted(loops)


class TestWalksAgainstOracles:
    @settings(max_examples=150)
    @given(edge_sets())
    def test_components_are_the_mutual_reachability_classes(self, H):
        comps = strongly_connected_components(H)
        assert {c.vertices for c in comps} == _classes(H)
        assert [min(c.vertices) for c in comps] == sorted(min(c.vertices) for c in comps)
        for c in comps:
            assert c.edges == {e for e, (h, t) in _ends(H).items() if h in c.vertices and t in c.vertices}

    @settings(max_examples=150)
    @given(edge_sets())
    def test_face_components_names_the_least_loose_edge(self, H):
        classes = _classes(H)
        loose = sorted(e for e, (h, t) in _ends(H).items() if not any(h in c and t in c for c in classes))
        if not loose:
            assert {c.vertices for c in face_components(H)} == classes
            return
        with pytest.raises(NotFaceSubgraph, match=f"edge {re.escape(str(loose[0]))} lies on no loop"):
            face_components(H)

    @settings(max_examples=150)
    @given(edge_sets())
    def test_shortest_path_is_a_path_of_bfs_length(self, H):
        dist = _distances(H)
        verts = sorted({v for v, _ in dist})
        for src, dst in itertools.product(verts, repeat=2):
            path = shortest_paths(H, src)[H.ranking.place[dst]]
            if (src, dst) not in dist:
                assert path is None
                continue
            assert len(path) == dist[src, dst]
            at = src
            for e in path:
                assert e in H and restrict(e, HEAD) == at
                at = restrict(e, TAIL)
            assert at == dst

    @settings(max_examples=100)
    @given(edge_sets())
    def test_embedded_loops_are_the_simple_cycles(self, H):
        assert embedded_loops(H) == _simple_cycles(H)

    @settings(max_examples=150)
    @given(edge_sets())
    def test_ranking_reads_the_restrictions(self, H):
        # The ranking reads head and tail words off each edge's word; restrict is the oracle.
        verts, place, out = H.ranking
        assert list(verts) == sorted({v for pair in _ends(H).values() for v in pair})
        assert place == {v: k for k, v in enumerate(verts)}
        for k, row in enumerate(out):
            assert [e for e, _ in row] == sorted(e for e, (h, _) in _ends(H).items() if h == verts[k])
            assert all(verts[w] == restrict(e, TAIL) for e, w in row)

    @settings(max_examples=150)
    @given(edge_sets())
    def test_component_ranking_is_its_own(self, H):
        # A component's subgraph takes its ranking from H's; ranked afresh it must come out the same.
        for comp in strongly_connected_components(H):
            piece = H.component(comp)
            assert piece == Subgraph(H.n, comp.edges)
            assert piece.ranking == Subgraph(H.n, comp.edges).ranking
