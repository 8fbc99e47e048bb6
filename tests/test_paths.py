import functools
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import all_paths, random_path
from lengths_oracle import oracle_lifts
from poset_oracle import edges_between, lift_paths_one_step, linear_extensions
from orderflow.errors import CapExceeded, EndpointMismatch, FormatError
from orderflow.paths import (
    DiPath,
    PathPoset,
    allowed_counts,
    build_poset,
    comparability,
    concat,
    lift_count,
    lifts,
    path,
    path_from_json,
    path_to_json,
    poset_to_json,
    project,
)
from orderflow.perms import HEAD, TAIL, Perm, all_perms, order_pattern, perm, preimages, restrict


@st.composite
def drawn_paths(draw, levels=(3, 4), min_length=1, m_max=lambda n: 9):
    """A path on G_n, n in levels, whose lifts lie in S_m, m = length + n <= m_max(n)."""
    n = draw(st.sampled_from(levels))
    length = draw(st.integers(min_length, m_max(n) - n))
    if length == 0:
        return DiPath(n, (), draw(st.sampled_from(list(all_perms(n)))))
    edges = [draw(st.sampled_from(list(all_perms(n + 1))))]
    while len(edges) < length:
        edges.append(draw(st.sampled_from(preimages(restrict(edges[-1], TAIL), HEAD))))
    return DiPath(n, tuple(edges))


class TestConcat:
    def test_example(self):
        p = concat(path(2, ["132"]), path(2, ["213"]))
        assert [str(v) for v in p.vertices()] == ["12", "21", "12"]
        assert p.length == 2

    def test_identity(self):
        p = path(2, ["132"])
        at_end = DiPath(2, (), perm("21"))
        assert concat(p, at_end) == p

    def test_mismatch(self):
        with pytest.raises(EndpointMismatch):
            concat(path(2, ["132"]), path(2, ["132"]))

    def test_joins_equal_checked_paths(self, loop_132_321_213):
        # concat, powers and rotations check only their seams; the result is the checked path.
        rng = random.Random(7)
        for _ in range(40):
            p = random_path(rng, rng.choice([2, 3]), rng.randrange(2, 8))
            k = rng.randrange(1, p.length)
            joined = concat(DiPath(p.n, p.edges[:k]), DiPath(p.n, p.edges[k:]))
            assert joined == p and hash(joined) == hash(p)
        gamma = loop_132_321_213
        for k in range(1, 4):
            assert gamma**k == DiPath(2, gamma.edges * k)
            assert gamma.rotate(k) == DiPath(2, gamma.edges[k:] + gamma.edges[:k])
        assert concat(gamma, DiPath(2, (), gamma.first_vertex)) is gamma


class TestProject:
    def test_single_step(self):
        p = project(perm("132"), 2)
        assert p.edges == (perm("132"),)
        assert [str(v) for v in p.vertices()] == ["12", "21"]

    def test_two_steps(self):
        p = project(perm("2413"), 2)
        assert [str(e) for e in p.edges] == ["231", "312"]
        assert [str(v) for v in p.vertices()] == ["12", "21", "12"]

    def test_windows(self):
        p = project(perm("1324"), 2)
        assert [str(e) for e in p.edges] == ["132", "213"]

    def test_length_bookkeeping(self):
        rng = random.Random(3)
        for _ in range(10):
            p = random_path(rng, 3, 3)
            q = project(p, 2)
            assert q.length == p.length + 1

    def test_project_to_self(self):
        sigma = perm("2413")
        assert project(sigma, 4).start == sigma


class TestLifts:
    def test_single_edge(self):
        assert lifts(path(2, ["132"])) == [perm("132")]

    def test_two_edge_loop(self):
        assert lifts(path(2, ["132", "213"])) == [perm("1324")]

    def test_three_edge_loop(self, loop_132_321_213):
        found = lifts(loop_132_321_213)
        assert len(found) == 4
        assert perm("25314") in found

    def test_cap(self, loop_132_321_213, monkeypatch):
        # The steps of the squared loop hold 1, 2, 4, 12, 42 and 136 patterns.
        # A step may hold as many ranks as 100 windows of 2 ranks: at S_7 that
        # is passed by the 30th pattern of 7 ranks, as the step grows.
        monkeypatch.setattr("orderflow.paths.LIFT_LEVEL_MAX", 100)
        with pytest.raises(CapExceeded, match=r"^lift level in S_7 reached 210 ranks \(30 patterns\), cap 200$"):
            lifts(loop_132_321_213**2)
        # The last step holds 136 x 8 = 1088 ranks: 544 windows' worth fit, 543 do not.
        monkeypatch.setattr("orderflow.paths.LIFT_LEVEL_MAX", 544)
        assert len(lifts(loop_132_321_213**2)) == 136
        monkeypatch.setattr("orderflow.paths.LIFT_LEVEL_MAX", 543)
        with pytest.raises(CapExceeded, match=r"^lift level in S_8 reached 1088 ranks \(136 patterns\), cap 1086$"):
            lifts(loop_132_321_213**2)


    def test_past_s9(self, loop_132_321_213):
        # The cap bounds one level, not m: the cubed loop lifts into S_11.
        cube = loop_132_321_213**3
        found = lifts(cube)
        assert len(found) == linear_extensions(build_poset(cube), "count") == 13640
        assert found == sorted(found) and found[0].n == 11

    def test_matches_brute_force_oracle(self):
        # The same lifts in the same (lexicographic) order as a scan of S_m.
        for length in range(1, 5):
            for p in all_paths(2, length):
                assert lifts(p) == oracle_lifts(p)
        rng = random.Random(31)
        for _ in range(30):
            p = random_path(rng, 3, rng.randint(1, 4))
            assert lifts(p) == oracle_lifts(p)

    def test_zero_length_path(self):
        assert lifts(DiPath(3, (), perm("231"))) == [perm("231")]

    def test_alternating_path_has_singleton_lifts(self):
        # The zig-zag path alternating 132 / 312 pins its lift completely:
        # the unique lift interleaves from the outside in.  Each step holds
        # one pattern, so no length of S_m bounds it: m = 43 lifts too.
        edges = ["132", "312"]
        for length in (*range(1, 5), 41):
            p = path(2, [edges[i % 2] for i in range(length)])
            m = length + 2
            found = lifts(p)
            lo, hi = 1, m
            word = []
            for i in range(m):
                if i % 2 == 0:
                    word.append(lo)
                    lo += 1
                else:
                    word.append(hi)
                    hi -= 1
            assert found == [Perm(tuple(word))]

    def test_edges_between(self):
        assert {str(e) for e in edges_between(perm("231"), perm("312"))} == {"2413", "3412"}
        assert {str(e) for e in edges_between(perm("312"), perm("231"))} == {"4231"}


class TestLiftCount:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn_paths(levels=(1, 2, 3, 4), min_length=0, m_max=lambda n: min(13, 7 + 2 * n)))
    def test_matches_the_poset_and_the_list(self, p):
        # m <= 7 + 2n keeps the lifts of low levels few enough to list.
        assert lift_count(p) == linear_extensions(build_poset(p), "count") == len(lifts(p))

    def test_past_the_poset_cap(self, loop_132_321_213):
        # m = 26, far past the downset DP's m <= 14; the DP run without its cap gives the same number.
        assert lift_count(loop_132_321_213**8) == 1_471_538_236_712_544_000

    def test_cap(self, loop_132_321_213, monkeypatch):
        # A step holds one count per pair of ranks of the last two values: 104 pairs at S_16.
        monkeypatch.setattr("orderflow.paths.LIFT_LEVEL_MAX", 100)
        with pytest.raises(CapExceeded, match=r"^window count in S_16 reached 104 states, cap 100$"):
            lift_count(loop_132_321_213**8)


@functools.lru_cache(maxsize=None)
def _window_sets(n: int, m: int) -> list[frozenset[Perm]]:
    """The (n+1)-window patterns of each permutation of S_m, by a scan of S_m."""
    return [frozenset(order_pattern(s.word[i : i + n + 1]) for i in range(m - n)) for s in all_perms(m)]


@st.composite
def edge_sets(draw):
    """A level n in 1..3 and a nonempty set of edges of G_n."""
    n = draw(st.integers(1, 3))
    return n, frozenset(draw(st.sets(st.sampled_from(list(all_perms(n + 1))), min_size=1)))


class TestAllowedCounts:
    @settings(max_examples=80, deadline=None)
    @given(edge_sets())
    def test_matches_a_scan_of_s_m(self, drawn):
        n, edges = drawn
        scanned = [sum(windows <= edges for windows in _window_sets(n, m)) for m in range(n + 1, 8)]
        assert list(allowed_counts(edges, n, 7)) == scanned

    def test_no_length_past_m_max(self):
        assert list(allowed_counts(all_perms(3), 2, 2)) == []
        assert list(allowed_counts(frozenset(all_perms(3)), 2, 6)) == [6, 24, 120, 720]


class TestPoset:
    def test_single_edge_total_order(self):
        P = build_poset(path(2, ["132"]))
        assert P.comparability(1, 3) == "leq"
        assert P.comparability(3, 2) == "leq"
        assert P.comparability(1, 2) == "leq"

    def test_three_edge_loop_relations(self, loop_132_321_213):
        P = build_poset(loop_132_321_213)
        expected_leq = {(1, 3), (3, 2), (4, 3), (3, 5), (1, 2), (1, 5), (4, 2), (4, 5)}
        for i in range(1, 6):
            for j in range(1, 6):
                if i == j:
                    assert P.comparability(i, j) == "equal"
                elif (i, j) in expected_leq:
                    assert P.comparability(i, j) == "leq"
                elif (j, i) in expected_leq:
                    assert P.comparability(i, j) == "geq"
                else:
                    assert P.comparability(i, j) == "incomparable"

    def test_figure_loop_relations(self, figure_loop):
        P = build_poset(figure_loop)
        assert P.comparability(1, 6) == "leq"
        assert P.comparability(3, 8) == "leq"
        assert P.comparability(2, 7) == "incomparable"

    def test_reflexive_query(self, loop_132_321_213):
        assert comparability(loop_132_321_213, 2, 2) == "equal"

    def test_oracle_agreement(self, figure_loop, loop_132_321_213):
        for p in (figure_loop, loop_132_321_213):
            m = p.length + p.n
            for i, j in itertools.product(range(1, m + 1), repeat=2):
                comparability(p, i, j, oracle=True)  # raises on disagreement

    def test_window_totality(self):
        rng = random.Random(11)
        for _ in range(20):
            p = random_path(rng, 3, rng.randint(1, 4))
            P = build_poset(p)
            for start in range(1, p.length + 2):
                window = range(start, start + 3)
                for i, j in itertools.combinations(window, 2):
                    assert P.comparability(i, j) != "incomparable"

    def test_zero_length_path(self):
        P = build_poset(DiPath(3, (), perm("231")))
        assert P.comparability(3, 1) == "leq"
        assert P.comparability(1, 2) == "leq"

    @settings(max_examples=60, deadline=None)
    @given(drawn_paths(levels=(1, 2, 3, 4), min_length=0))
    def test_closed_rows_pass_every_check(self, p):
        # build_poset skips the second closure; the public constructor's three checks accept its rows unchanged.
        P = build_poset(p)
        assert P == PathPoset(P.leq)


class TestLiftingProperties:
    def test_lift_extension_equality_small(self):
        # Lifts of a path are exactly the rank assignments extending its poset.
        for length in (1, 2, 3):
            for p in all_paths(2, length):
                assert sorted(lifts(p)) == sorted(
                    linear_extensions(build_poset(p), "enumerate")
                )

    @settings(max_examples=60, deadline=None)
    @given(drawn_paths())
    def test_lifts_are_the_poset_extensions(self, p):
        assert lifts(p) == sorted(linear_extensions(build_poset(p), "enumerate"))

    def test_relations_persist_under_lifting(self):
        # Any relation forced at level n stays forced in every one-step lift.
        for length in (2, 3):
            for p in all_paths(2, length):
                P = build_poset(p)
                for lifted in lift_paths_one_step(p):
                    Q = build_poset(lifted)
                    for i in range(1, P.m + 1):
                        for j in range(1, P.m + 1):
                            if P.holds(i, j):
                                assert Q.holds(i, j)

    def test_concat_embeds_relations_shifted(self):
        rng = random.Random(5)
        for _ in range(25):
            p = random_path(rng, 2, rng.randint(1, 3))
            q_start = p.last_vertex
            while True:
                q = random_path(rng, 2, rng.randint(1, 3))
                if q.first_vertex == q_start:
                    break
            pq = concat(p, q)
            Pq = build_poset(q)
            Ppq = build_poset(pq)
            shift = p.length
            for i in range(1, Pq.m + 1):
                for j in range(1, Pq.m + 1):
                    if Pq.holds(i, j):
                        assert Ppq.holds(shift + i, shift + j)


class TestLinearExtensions:
    def test_counts(self, loop_132_321_213):
        assert linear_extensions(build_poset(path(2, ["132", "213"])), "count") == 1
        assert linear_extensions(build_poset(loop_132_321_213), "count") == 4

    def test_antichain_counts_factorially(self):
        # Three mutually free elements and nothing else: 3! orders.
        rows = tuple(1 << i for i in range(3))
        P = PathPoset(rows)
        assert linear_extensions(P, "count") == 6
        assert len(linear_extensions(P, "enumerate")) == 6

    def test_caps(self):
        rows = tuple(1 << i for i in range(10))
        with pytest.raises(CapExceeded, match=r"extension enumeration reached m = 10, cap 9$"):
            linear_extensions(PathPoset(rows), "enumerate")
        rows = tuple(1 << i for i in range(15))
        with pytest.raises(CapExceeded, match=r"extension counting reached m = 15, cap 14$"):
            linear_extensions(PathPoset(rows), "count")

    def test_count_matches_enumeration(self):
        rng = random.Random(13)
        for _ in range(10):
            p = random_path(rng, 2, rng.randint(1, 5))
            P = build_poset(p)
            assert linear_extensions(P, "count") == len(linear_extensions(P, "enumerate"))


class TestPosetValidation:
    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            PathPoset((0b11, 0b11))

    def test_rejects_non_transitive(self):
        with pytest.raises(ValueError):
            PathPoset((0b011, 0b110, 0b100))


class TestSerialization:
    def test_path_round_trip(self, figure_loop):
        assert path_from_json(path_to_json(figure_loop)) == figure_loop
        p0 = DiPath(2, (), perm("21"))
        assert path_from_json(path_to_json(p0)) == p0

    def test_path_json_diagnoses_window_mismatch(self):
        with pytest.raises(FormatError) as err:
            path_from_json('{"n": 2, "edges": ["132", "132"]}')
        assert "132" in str(err.value)

    def test_poset_json_covers(self, loop_132_321_213):
        import json

        payload = json.loads(poset_to_json(build_poset(loop_132_321_213)))
        assert payload["m"] == 5
        assert sorted(map(tuple, payload["covers"])) == [(1, 3), (3, 2), (3, 5), (4, 3)]
