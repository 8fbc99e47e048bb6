import functools
import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import drift_oracle
from conftest import all_paths, random_path
from orderflow.digraph import (
    PermDigraph,
    Subgraph,
    face_components,
    is_face_subgraph,
    strongly_connected_components,
    tail,
)
from orderflow.drift import (
    DRIFTLESS,
    DRIFTS,
    MINUS,
    PARTIALLY_DRIFTLESS,
    PLUS,
    TOTALLY_DRIFTLESS,
    ZERO,
    DriftProfile,
    DriftVerdict,
    IndexReach,
    _edge_tables,
    _padded,
    _synthesize,
    classify_loop,
    compose,
    edge_profile,
    identity_profile,
    loop_drift,
    path_profile,
    subgraph_drifts,
    synthesize_totally_driftless_loop,
    verdict_payload,
    verdict_to_json,
)
from orderflow.errors import CapExceeded, DimensionMismatch, DriftObstruction, EndpointMismatch, NotALoop
from orderflow.paths import DiPath, build_poset, concat, path
from orderflow.perms import all_perms, perm

INF = 3  # sentinel for "nothing above" at window length 2
NEG = 0


def poset_profile(p: DiPath) -> DriftProfile:
    """Independent reference: read Max/Min straight off the path's poset."""
    P = build_poset(p)
    n, ell = p.n, p.length
    final = p.last_vertex
    maxmap, minmap = [], []
    for i in range(1, n + 1):
        above = [j for j in range(1, n + 1) if P.holds(i, ell + j)]
        below = [j for j in range(1, n + 1) if P.holds(ell + j, i)]
        maxmap.append(min(above, key=lambda j: final(j)) if above else n + 1)
        minmap.append(max(below, key=lambda j: final(j)) if below else 0)
    return DriftProfile(p.first_vertex, final, tuple(maxmap), tuple(minmap))


class TestEdgeProfiles:
    @pytest.mark.parametrize(
        "edge,maxmap,minmap",
        [
            ("132", (2, 1), (NEG, 1)),
            ("321", (INF, 1), (1, 1)),
            ("123", (1, 1), (NEG, 1)),
        ],
    )
    def test_examples(self, edge, maxmap, minmap):
        prof = edge_profile(perm(edge))
        assert prof.maxmap == maxmap and prof.minmap == minmap

    def test_matches_poset_on_all_edges(self):
        for n in (2, 3):
            for e in all_perms(n + 1):
                assert edge_profile(e) == poset_profile(path(n, [e]))

    def test_tables_match_the_scan_on_g1_to_g6(self):
        # Every edge of G_1..G_6: the closed-form tables against the old O(n^2) scan.
        for m in range(1, 7):
            for e in all_perms(m + 1):
                scanned = drift_oracle.scanned_edge_profile(e)
                assert _edge_tables(e) == _padded(scanned)
                assert edge_profile(e) == scanned

    @settings(max_examples=150)
    @given(st.integers(2, 8).flatmap(lambda m: st.permutations(range(1, m + 1))))
    def test_memoised_matches_fresh(self, word):
        e = perm(word)
        first = _edge_tables(e)
        assert first == _edge_tables.__wrapped__(e)
        # An equal edge built separately hits the cache and gets the same tables and profile.
        assert _edge_tables(perm(tuple(word))) == first
        assert edge_profile(perm(tuple(word))) == edge_profile(e)


class TestCompose:
    def test_example(self):
        c = compose(edge_profile(perm("132")), edge_profile(perm("213")))
        assert c.maxmap == (1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose(edge_profile(perm("132")), edge_profile(perm("2134")))

    def test_endpoint_mismatch(self):
        # 132 ends at 21, and 123 starts at 12.
        with pytest.raises(EndpointMismatch, match="profiles meet at 21 != 12"):
            compose(edge_profile(perm("132")), edge_profile(perm("123")))

    def test_sentinels_stay_fixed(self):
        # 312 forces nothing above its first value (maxmap 3 = n+1); 123 nothing below its first (minmap 0).
        c = compose(edge_profile(perm("312")), edge_profile(perm("123")))
        assert (c.n, c.maxmap, c.minmap) == (2, (3, 1), (1, 0))
        assert c == poset_profile(path(2, ["312", "123"]))

    def test_associativity_random(self):
        rng = random.Random(23)
        for _ in range(30):
            p = random_path(rng, 2, 3)
            a, b, c = (edge_profile(e) for e in p.edges)
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_path_profile_matches_poset_random(self):
        rng = random.Random(31)
        for n in (2, 3):
            for _ in range(50):
                p = random_path(rng, n, rng.randint(1, 4))
                assert path_profile(p) == poset_profile(p)

    def test_profile_multiplicativity_random(self):
        rng = random.Random(37)
        for n in (2, 3):
            hits = 0
            while hits < 50:
                p = random_path(rng, n, rng.randint(1, 3))
                q = random_path(rng, n, rng.randint(1, 3))
                if p.last_vertex != q.first_vertex:
                    continue
                hits += 1
                assert compose(path_profile(p), path_profile(q)) == path_profile(concat(p, q))


@st.composite
def split_paths(draw):
    """A random path of G_2 or G_3, cut into three consecutive pieces (possibly empty)."""
    n = draw(st.sampled_from([2, 3]))
    p = random_path(random.Random(draw(st.integers(0, 2**32))), n, draw(st.integers(1, 9)))
    i = draw(st.integers(0, p.length))
    j = draw(st.integers(i, p.length))
    vertices = [p.first_vertex] + [tail(e) for e in p.edges]
    return [DiPath(n, p.edges[a:b], vertices[a]) for a, b in ((0, i), (i, j), (j, p.length))]


class TestPathProfileTables:
    @settings(max_examples=200)
    @given(st.integers(2, 4), st.integers(1, 40), st.integers(0, 2**32))
    def test_equals_the_fold_of_compose(self, n, length, seed):
        # path_profile folds the padded tables of every edge at once; compose checks endpoints per step.
        p = random_path(random.Random(seed), n, length)
        assert path_profile(p) == functools.reduce(compose, map(edge_profile, p.edges))

    def test_empty_path_is_the_identity(self):
        v = perm("231")
        assert path_profile(DiPath(3, (), v)) == identity_profile(v)


class TestComposeProperties:
    @settings(max_examples=200)
    @given(split_paths())
    def test_associative(self, pieces):
        a, b, c = (path_profile(q) for q in pieces)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @settings(max_examples=200)
    @given(split_paths())
    def test_identity_is_a_two_sided_unit(self, pieces):
        for q in pieces:
            prof = path_profile(q)
            assert compose(identity_profile(q.first_vertex), prof) == prof
            assert compose(prof, identity_profile(q.last_vertex)) == prof


class TestLoopDrift:
    def test_figure_loop(self, figure_loop):
        mat = loop_drift(figure_loop)
        assert mat.diagonal() == ("+", "0", "+")
        assert loop_drift(figure_loop, method="poset").entries == mat.entries
        assert classify_loop(figure_loop) == PARTIALLY_DRIFTLESS

    def test_self_loop(self):
        gamma = path(2, ["123"])
        assert loop_drift(gamma).diagonal() == ("+", "+")
        assert classify_loop(gamma) == DRIFTS

    def test_driftless_but_not_totally(self, loop_132_321_213):
        mat = loop_drift(loop_132_321_213)
        assert mat.diagonal() == ("0", "0")
        assert mat.at(1, 2) == "+"
        assert classify_loop(loop_132_321_213) == DRIFTLESS

    def test_not_a_loop(self):
        with pytest.raises(NotALoop):
            loop_drift(path(2, ["132"]))

    def test_profile_equals_poset_exhaustive(self):
        for length in range(1, 6):
            for p in all_paths(2, length):
                if p.is_loop:
                    assert loop_drift(p).entries == loop_drift(p, method="poset").entries
        for length in range(1, 5):
            for p in all_paths(3, length):
                if p.is_loop:
                    assert loop_drift(p).entries == loop_drift(p, method="poset").entries


def _loops_of(n: int, max_length: int):
    for length in range(1, max_length + 1):
        for p in all_paths(n, length):
            if p.is_loop:
                yield p


class TestLoopProperties:
    def test_free_diagonals_survive_concatenation(self):
        # A diagonal free in both factors stays free in the product.
        rng = random.Random(41)
        loops = [p for p in _loops_of(2, 4)]
        for _ in range(80):
            beta, gamma = rng.choice(loops), rng.choice(loops)
            if beta.first_vertex != gamma.first_vertex:
                continue
            db = loop_drift(beta).diagonal()
            dg = loop_drift(gamma).diagonal()
            dbg = loop_drift(concat(beta, gamma)).diagonal()
            for j in range(2):
                if db[j] == "0" and dg[j] == "0":
                    assert dbg[j] == "0"

    def test_totally_driftless_absorbs(self, loop_132_321_213, driftless_triple):
        gamma = synthesize_totally_driftless_loop(driftless_triple)
        base = gamma.first_vertex
        for beta in _loops_of(2, 3):
            if beta.first_vertex != base:
                continue
            assert classify_loop(concat(beta, gamma)) == TOTALLY_DRIFTLESS

    def test_rotations_of_driftless_are_driftless(self):
        for gamma in _loops_of(2, 5):
            if classify_loop(gamma) in (DRIFTLESS, TOTALLY_DRIFTLESS):
                for k in range(1, gamma.length):
                    rotated = gamma.rotate(k)
                    assert classify_loop(rotated) in (DRIFTLESS, TOTALLY_DRIFTLESS)

    def test_profile_maps_are_monotone(self):
        # Larger initial values can only push the forced bounds upward.
        rng = random.Random(43)
        for n in (2, 3):
            for _ in range(40):
                p = random_path(rng, n, rng.randint(1, 4))
                prof = path_profile(p)
                start, end = p.first_vertex, p.last_vertex

                def key(v):
                    if v == 0:
                        return float("-inf")
                    if v == n + 1:
                        return float("inf")
                    return end(v)

                order = sorted(range(1, n + 1), key=start)
                for i, j in zip(order, order[1:]):
                    assert key(prof.maxmap[i - 1]) <= key(prof.maxmap[j - 1])
                    assert key(prof.minmap[i - 1]) <= key(prof.minmap[j - 1])


class TestSubgraphDrift:
    def test_two_cycle_drifts_with_witness(self, two_cycle):
        verdict = subgraph_drifts(two_cycle)
        assert verdict.drifts
        assert verdict.witness == (perm("12"), 1, "+")

    def test_drifts_is_having_a_witness(self, two_cycle, driftless_triple, G2_full):
        for H, drifts in ((two_cycle, True), (driftless_triple, False), (G2_full, False)):
            verdict = subgraph_drifts(H)
            assert verdict.drifts is drifts is (verdict.witness is not None)
            assert verdict_payload(verdict)["verdict"] == ("drifts" if drifts else "driftless")
        assert not DriftVerdict().drifts and DriftVerdict((perm("12"), 1, "+")).drifts

    def test_triple_is_driftless(self, driftless_triple):
        assert not subgraph_drifts(driftless_triple).drifts

    def test_full_graph_is_driftless(self, G2_full):
        assert not subgraph_drifts(G2_full).drifts

    def test_full_g4_is_driftless(self):
        # Whole-profile saturation needs 548,314 profiles here; the
        # index-state search visits at most |V| (n+2)^2 = 864 states per
        # (vertex, index).
        assert not subgraph_drifts(PermDigraph(4).full_subgraph()).drifts

    def test_enlarging_preserves_driftlessness(self, G2_full):
        # Exhaustive over face-subgraph pairs of the full level-2 graph.
        from orderflow.digraph import strongly_connected_components

        edges = sorted(G2_full.edges)
        faces = []
        for mask in range(1, 1 << 6):
            H = Subgraph(2, frozenset(e for k, e in enumerate(edges) if mask >> k & 1))
            if is_face_subgraph(H):
                faces.append(H)
        driftless = {H.edges: not subgraph_drifts(H).drifts for H in faces}
        connected = {
            H.edges: len(strongly_connected_components(H)) == 1 for H in faces
        }
        for K in faces:
            for H in faces:
                if K.edges <= H.edges and connected[K.edges] and connected[H.edges]:
                    if driftless[K.edges]:
                        assert driftless[H.edges]

    def test_verdict_json(self, two_cycle, driftless_triple):
        import json

        payload = json.loads(verdict_to_json(subgraph_drifts(two_cycle)))
        assert payload == {
            "verdict": "drifts",
            "witness": {"vertex": "12", "index": 1, "sign": "+"},
        }
        assert json.loads(verdict_to_json(subgraph_drifts(driftless_triple))) == {
            "verdict": "driftless"
        }


class TestSynthesis:
    def test_triple(self, driftless_triple):
        gamma = synthesize_totally_driftless_loop(driftless_triple)
        assert frozenset(gamma.edges) == driftless_triple.edges
        assert classify_loop(gamma) == TOTALLY_DRIFTLESS
        assert classify_loop(gamma, method="poset") == TOTALLY_DRIFTLESS

    def test_two_cycle_obstructed(self, two_cycle):
        with pytest.raises(DriftObstruction):
            synthesize_totally_driftless_loop(two_cycle)

    def test_length_cap(self, G2_full, monkeypatch):
        monkeypatch.setattr("orderflow.drift.SYNTHESIS_LENGTH_MAX", 3)
        with pytest.raises(CapExceeded, match=r"edge-covering walk reached 8 edges, cap 3$"):
            synthesize_totally_driftless_loop(G2_full)

    def test_appended_loop_cap(self, driftless_triple, monkeypatch):
        # The covering walk has 5 edges; the first appended loop passes 6.
        monkeypatch.setattr("orderflow.drift.SYNTHESIS_LENGTH_MAX", 6)
        with pytest.raises(CapExceeded, match=r"synthesized loop reached \d+ edges, cap 6$"):
            synthesize_totally_driftless_loop(driftless_triple)

    def test_full_graph(self, G2_full):
        gamma = synthesize_totally_driftless_loop(G2_full)
        assert frozenset(gamma.edges) == G2_full.edges
        assert classify_loop(gamma) == TOTALLY_DRIFTLESS

    def test_every_driftless_connected_face_subgraph_of_g2(self, G2_full):
        edges = sorted(G2_full.edges)
        for mask in range(1, 1 << 6):
            H = Subgraph(2, frozenset(e for k, e in enumerate(edges) if mask >> k & 1))
            if not is_face_subgraph(H):
                continue
            from orderflow.digraph import strongly_connected_components

            if len(strongly_connected_components(H)) != 1:
                continue
            if subgraph_drifts(H).drifts:
                with pytest.raises(DriftObstruction):
                    synthesize_totally_driftless_loop(H)
            else:
                gamma = synthesize_totally_driftless_loop(H)
                assert frozenset(gamma.edges) == H.edges
                assert classify_loop(gamma) == TOTALLY_DRIFTLESS


def _face_subgraphs_g2():
    edges = sorted(PermDigraph(2).edges())
    for mask in range(1, 1 << len(edges)):
        H = Subgraph(2, frozenset(e for k, e in enumerate(edges) if mask >> k & 1))
        if is_face_subgraph(H):
            yield H


def _random_face_subgraph(rng: random.Random, n: int, p: float) -> Subgraph:
    """Keep each edge of G_n with probability p, then the edges lying on loops."""
    kept = Subgraph(n, frozenset(e for e in PermDigraph(n).edges() if rng.random() < p))
    comps = strongly_connected_components(kept)
    return Subgraph(n, frozenset().union(*(c.edges for c in comps)))


def _assert_matches_saturation(H: Subgraph) -> None:
    assert subgraph_drifts(H) == drift_oracle.subgraph_drifts(H)
    assert drift_oracle.reach_partially_driftless_in(H) == drift_oracle.partially_driftless_in(H)
    for comp in strongly_connected_components(H):
        K = Subgraph(H.n, comp.edges)
        if comp.edges and not drift_oracle.subgraph_drifts(K).drifts:
            assert synthesize_totally_driftless_loop(K) == drift_oracle.synthesize_totally_driftless_loop(K)


class TestReachabilityAgainstSaturation:
    """Index-state reachability against whole-profile saturation (n <= 3).

    Verdict, witness, partially driftless loop and synthesized loop must all
    be identical, not merely equally valid.
    """

    def test_every_face_subgraph_of_g2(self):
        faces = list(_face_subgraphs_g2())
        assert len(faces) == 39
        for H in faces:
            _assert_matches_saturation(H)

    @pytest.mark.parametrize("p", [0.4, 0.6, 0.8])
    def test_random_face_subgraphs_of_g3(self, p):
        rng = random.Random(f"g3-faces-{p}")
        checked = 0
        while checked < 100:
            H = _random_face_subgraph(rng, 3, p)
            if H.edges:
                _assert_matches_saturation(H)
                checked += 1


def _assert_matches_all_vertices(H: Subgraph) -> None:
    """The least-vertex verdict equals the all-vertex search, and drift is all-or-none."""
    for comp in strongly_connected_components(H):
        if not comp.edges:
            continue
        reach = IndexReach(Subgraph(H.n, comp.edges))
        drifting = drift_oracle.drifting_vertices(reach)
        assert len(drifting) in (0, len(reach.graph.vertices()))
        assert reach.verdict() == drift_oracle.all_vertex_verdict(reach)
    assert subgraph_drifts(H) == drift_oracle.all_vertex_subgraph_drifts(H)


@st.composite
def strongly_connected_edge_sets(draw):
    """One strongly connected piece of a random edge set of G_3 or G_4."""
    n = draw(st.sampled_from([3, 4]))
    edges = sorted(PermDigraph(n).edges())
    keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    kept = Subgraph(n, frozenset(e for e, k in zip(edges, keep) if k))
    comps = [Subgraph(n, c.edges) for c in strongly_connected_components(kept) if c.edges]
    if not comps:
        reject()
    return draw(st.sampled_from(comps))


class TestLeastVertexAgainstAllVertices:
    """The verdict searches the least vertex only; the oracle searches every vertex."""

    @pytest.mark.parametrize("n, count", [(3, 100), (4, 30)])
    @pytest.mark.parametrize("p", [0.4, 0.6, 0.8])
    def test_random_face_subgraphs(self, n, count, p):
        rng = random.Random(f"g{n}-faces-{p}-all-vertices")
        checked = drifting = 0
        while checked < count:
            H = _random_face_subgraph(rng, n, p)
            if H.edges:
                _assert_matches_all_vertices(H)
                checked += 1
                drifting += subgraph_drifts(H).drifts
        if p == 0.4:  # the draws include drifting faces, whose witness vertex is checked
            assert drifting > 0

    @pytest.mark.parametrize("n", [4, 5])
    def test_full_graph(self, n):
        _assert_matches_all_vertices(PermDigraph(n).full_subgraph())

    @settings(max_examples=60, deadline=None)
    @given(strongly_connected_edge_sets())
    def test_strongly_connected_edge_sets(self, H):
        _assert_matches_all_vertices(H)


class TestSearchCount:
    """One breadth-first search per index of the least vertex, shared with synthesis."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        search = IndexReach.search

        def counted(reach, v, j):
            calls.append((v, j))
            return search(reach, v, j)

        monkeypatch.setattr(IndexReach, "search", counted)
        return calls

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_driftless_component_costs_n_searches(self, searches, n):
        H = PermDigraph(n).full_subgraph()
        assert not subgraph_drifts(H).drifts
        least = min(H.vertices())
        assert searches == [(least, j) for j in range(1, n + 1)]

    def test_drifting_component_stops_at_its_witness(self, searches, two_cycle):
        v, j, _ = subgraph_drifts(two_cycle).witness
        assert searches == [(v, k) for k in range(1, j + 1)]

    def test_synthesis_reuses_the_verdict_searches(self, searches, monkeypatch, driftless_triple):
        asked = []
        first_loop = IndexReach.first_loop
        monkeypatch.setattr(IndexReach, "first_loop", lambda reach, *a: asked.append(a) or first_loop(reach, *a))
        synthesize_totally_driftless_loop(driftless_triple)
        least = min(driftless_triple.vertices())
        assert asked and all(v == least for v, _, _ in asked)
        assert searches == [(least, 1), (least, 2)]


@st.composite
def driftless_components(draw):
    """A strongly connected, driftless face subgraph of G_2 or G_3."""
    n = draw(st.sampled_from([2, 3]))
    edges = sorted(PermDigraph(n).edges())
    kept = Subgraph(n, frozenset(draw(st.sets(st.sampled_from(edges), min_size=1))))
    comps = [Subgraph(n, c.edges) for c in strongly_connected_components(kept) if c.edges]
    comps = [K for K in comps if not subgraph_drifts(K).drifts]
    if not comps:
        reject()
    return draw(st.sampled_from(comps))


class TestSynthesisProperty:
    @settings(max_examples=60, deadline=None)
    @given(driftless_components())
    def test_synthesized_loop_is_totally_driftless_and_covers(self, H):
        gamma = synthesize_totally_driftless_loop(H)
        assert gamma.is_loop
        assert frozenset(gamma.edges) == H.edges
        assert classify_loop(gamma, method="poset") == TOTALLY_DRIFTLESS


SIGN_SETS = [{PLUS}, {MINUS}, {ZERO}, {MINUS, ZERO}, {PLUS, ZERO}, {PLUS, MINUS}]


def _synthesized(reach) -> DiPath | str:
    """The synthesized loop, or the text of the drift that refuses it."""
    try:
        return _synthesize(reach)
    except DriftObstruction as exc:
        return str(exc)


def _assert_routes_agree(H: Subgraph, every_vertex: bool = True) -> None:
    """Int-state and tuple-state searches give the same verdicts, witnesses, first loops and synthesized loops.

    The int route runs its passes only as far as each question needs, so it
    is asked in both orders: the verdict first, and the loops first.
    """
    for comp in face_components(H):
        K = H.component(comp)
        tuples = drift_oracle.TupleReach(Subgraph(H.n, comp.edges))
        verdict_first, loops_first = IndexReach(K), IndexReach(K)
        assert verdict_first.verdict() == tuples.verdict()
        verts = K.vertices()
        for v in verts if every_vertex else {verts[0], verts[len(verts) // 2], verts[-1]}:
            for j in range(1, H.n + 1):
                for signs in SIGN_SETS:
                    loop = tuples.first_loop(v, j, signs)
                    assert verdict_first.first_loop(v, j, signs) == loop
                    assert loops_first.first_loop(v, j, signs) == loop
        assert loops_first.verdict() == tuples.verdict()
        assert _synthesized(IndexReach(K)) == _synthesized(drift_oracle.TupleReach(K))


@st.composite
def face_subgraphs(draw):
    """The edges on loops of a random edge set of G_3 or G_4."""
    n = draw(st.sampled_from([3, 4]))
    edges = sorted(PermDigraph(n).edges())
    keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    comps = strongly_connected_components(Subgraph(n, frozenset(e for e, k in zip(edges, keep) if k)))
    H = Subgraph(n, frozenset().union(*(c.edges for c in comps)))
    if not H.edges:
        reject()
    return H


class TestIntStatesAgainstTuples:
    """The int-coded search against the tuple-state search it replaced (``drift_oracle.TupleReach``)."""

    def test_every_face_subgraph_of_g2(self):
        faces = list(_face_subgraphs_g2())
        assert len(faces) == 39
        for H in faces:
            _assert_routes_agree(H)

    @settings(max_examples=40, deadline=None)
    @given(face_subgraphs())
    def test_face_subgraphs_of_g3_and_g4(self, H):
        _assert_routes_agree(H, every_vertex=H.n == 3)

    def test_subgraph_drifts(self):
        rng = random.Random("int-states")
        for n, p in [(3, 0.4), (3, 0.7), (4, 0.3), (4, 0.6)]:
            for _ in range(10):
                H = _random_face_subgraph(rng, n, p)
                expected = DriftVerdict()
                for comp in face_components(H):
                    expected = drift_oracle.TupleReach(Subgraph(n, comp.edges)).verdict()
                    if expected.drifts:
                        break
                assert subgraph_drifts(H) == expected
