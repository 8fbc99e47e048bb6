"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Criterion 11a is marked strict-xfail: the exact pattern counts of the
doubling map (2, 6, 18, 48, 126, 306, 738, ...) put the n = 8 normalized
log-count 36% above log 2, so the stated 15% band is unreachable at n = 8;
see the assertion inside for the faithful check and the measured value.
"""

import math
import time
from fractions import Fraction

import pytest

from conftest import all_paths, random_path
from flow_oracle import face_dimension, polytope_dimension
from poset_oracle import edges_between, growth_check, linear_extensions
from orderflow.analysis import (
    entropy_estimate,
    exact_distribution,
    exclusion_type_test,
    forbidden_patterns,
    unit_samples,
)
from orderflow.cantor import (
    assemble_truncated_map,
    build_interval_tree,
    uniform_tower,
    verify_construction,
)
from orderflow.digraph import Subgraph, embedded_loops
from orderflow.drift import DRIFTLESS, classify_loop, loop_drift
from orderflow.errors import NotRealizable
from orderflow.flows import census, face_realizable, flow_residual
from orderflow.maps import cyclic_lift, permutation_map, realize_flow
from orderflow.paths import build_poset, comparability, lifts
from orderflow.perms import HEAD, PatternDistribution, all_perms, perm, pushforward


def report(number: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_01_face_census():
    t0 = time.time()
    rows = census(3)
    elapsed = time.time() - t0
    table = [(r.dimension, r.realizable, r.total) for r in rows]
    expected = [(0, 0, 6), (1, 2, 13), (2, 9, 13), (3, 6, 6), (4, 1, 1)]
    ok = table == expected and elapsed < 60
    report("1", ok, f"census(3) = {table} in {elapsed:.2f}s")
    assert table == expected
    assert elapsed < 60


def test_criterion_02_parallel_edges():
    forward = {str(e) for e in edges_between(perm("231"), perm("312"))}
    backward = {str(e) for e in edges_between(perm("312"), perm("231"))}
    ok = forward == {"2413", "3412"} and backward == {"4231"}
    report("2", ok, f"231->312 edges {sorted(forward)}, 312->231 edges {sorted(backward)}")
    assert forward == {"2413", "3412"}
    assert backward == {"4231"}


def test_criterion_03_figure_loop(figure_loop):
    mat_profile = loop_drift(figure_loop, method="profile")
    mat_poset = loop_drift(figure_loop, method="poset")
    diag = mat_profile.diagonal()
    relations = (
        comparability(figure_loop, 1, 6, oracle=True),
        comparability(figure_loop, 3, 8, oracle=True),
        comparability(figure_loop, 2, 7, oracle=True),
    )
    ok = (
        diag == ("+", "0", "+")
        and mat_profile.entries == mat_poset.entries
        and relations == ("leq", "leq", "incomparable")
    )
    report("3", ok, f"diagonal {diag}, relations (1,6)/(3,8)/(2,7) = {relations}")
    assert diag == ("+", "0", "+")
    assert mat_profile.entries == mat_poset.entries
    assert relations == ("leq", "leq", "incomparable")


def test_criterion_04_vertex_of_p5(nine_edge_loop):
    cls = classify_loop(nine_edge_loop)
    H = Subgraph(4, frozenset(nine_edge_loop.edges))
    realizable = face_realizable(H)
    dim = face_dimension(H)
    ok = cls == DRIFTLESS and realizable and dim == 0
    report("4", ok, f"nine-edge loop classifies {cls}; its dimension-{dim} face realizable={realizable}")
    assert cls == DRIFTLESS
    assert realizable and dim == 0


def test_criterion_05_dimension_formula():
    dims = {n: polytope_dimension(n) for n in (2, 3, 4)}
    ok = dims == {2: 1, 3: 4, 4: 18}
    report("5", ok, f"constraint-rank dimensions {dims}")
    assert dims == {2: 1, 3: 4, 4: 18}


def test_criterion_06_lift_extension_oracle():
    import random

    checked = 0
    for length in range(1, 6):
        for p in all_paths(2, length):
            brute = sorted(lifts(p))
            via_poset = sorted(linear_extensions(build_poset(p), "enumerate"))
            assert brute == via_poset, f"mismatch on {p}"
            checked += 1
    rng = random.Random(2024)
    for _ in range(80):
        p = random_path(rng, 3, rng.randint(1, 5))
        brute = sorted(lifts(p))
        via_poset = sorted(linear_extensions(build_poset(p), "enumerate"))
        assert brute == via_poset, f"mismatch on {p}"
        checked += 1
    ok = checked >= 200
    report("6", ok, f"{checked} paths checked (exhaustive level-2 lengths 1..5), zero mismatches")
    assert checked >= 200


def test_criterion_07_factorial_lower_bound(loop_132_321_213, figure_loop):
    rows_a = growth_check(loop_132_321_213, 2)  # m = 5, 8 within brute force
    rows_b = growth_check(figure_loop, 1)  # m = 8
    ok = all(count >= fact for _, count, fact in rows_a + rows_b)
    report(
        "7",
        ok,
        f"loop powers lift counts {[(k, c) for k, c, _ in rows_a]} and {[(k, c) for k, c, _ in rows_b]} meet k!",
    )
    for k, count, fact in rows_a + rows_b:
        assert count >= fact


def test_criterion_08_exact_realization(loop_132_321_213):
    ranking = cyclic_lift(loop_132_321_213)
    assert ranking.rank == (1, 3, 2)
    f = permutation_map(ranking)
    mu3 = exact_distribution(f, 3).distribution
    third = Fraction(1, 3)
    expected = {perm("132"): third, perm("321"): third, perm("213"): third}
    residual = flow_residual(mu3)
    mu2 = exact_distribution(f, 2).distribution
    compatible = pushforward(mu3, HEAD) == mu2
    ok = dict(mu3.mass) == expected and residual == 0 and compatible
    report("8", ok, f"mu_3 exactly 1/3 on three patterns, residual {residual}, mu_2 compatible {compatible}")
    assert dict(mu3.mass) == expected
    assert residual == 0
    assert compatible


def test_criterion_09_approximate_realization(G2_full):
    target = PatternDistribution.uniform(3)
    f = realize_flow(target, 0.05)
    mu3 = exact_distribution(f, 3).distribution
    gap = max(abs(mu3(s) - target(s)) for s in all_perms(3))
    rejected = 0
    for loop_edges in embedded_loops(G2_full):
        vertex_flow = PatternDistribution(
            3, {e: Fraction(1, len(loop_edges)) for e in loop_edges}
        )
        with pytest.raises(NotRealizable):
            realize_flow(vertex_flow, 0.05)
        rejected += 1
    ok = gap <= Fraction(1, 20) and rejected == 6
    report("9", ok, f"uniform realized with sup gap {float(gap):.4f}; all {rejected} vertex flows rejected")
    assert gap <= Fraction(1, 20)
    assert rejected == 6


def test_criterion_10_known_map_statistics(doubling, rotation_3_10):
    mu_d = exact_distribution(doubling, 3).distribution
    expected_d = {
        perm("123"): Fraction(1, 4),
        perm("132"): Fraction(1, 6),
        perm("213"): Fraction(1, 12),
        perm("231"): Fraction(1, 12),
        perm("312"): Fraction(1, 6),
        perm("321"): Fraction(1, 4),
    }
    mu_r = exact_distribution(rotation_3_10, 3).distribution
    expected_r = {
        perm("123"): Fraction(2, 5),
        perm("231"): Fraction(3, 10),
        perm("312"): Fraction(3, 10),
    }
    forbidden, _ = forbidden_patterns(rotation_3_10, 3)
    ok = (
        dict(mu_d.mass) == expected_d
        and sum(mu_d.mass.values()) == 1
        and flow_residual(mu_d) == 0
        and dict(mu_r.mass) == expected_r
        and forbidden == {perm("132"), perm("213"), perm("321")}
    )
    report("10", ok, "doubling and rotation length-3 tables exact, rotation forbidden set exact")
    assert dict(mu_d.mass) == expected_d
    assert flow_residual(mu_d) == 0
    assert dict(mu_r.mass) == expected_r
    assert forbidden == {perm("132"), perm("213"), perm("321")}


@pytest.mark.xfail(
    strict=True,
    reason=(
        "exact counts for the doubling map are 2, 6, 18, 48, 126, 306, 738 for "
        "n = 2..8, so log(738)/7 = 0.943 sits 36% above log 2; the 15% band "
        "at n = 8 is unreachable, and even exact n = 14 (95,310 patterns, within "
        "the subdivision cap) gives log(95,310)/13 = 1.272 log 2, still 27% above"
    ),
)
def test_criterion_11a_doubling_entropy_band(doubling):
    t0 = time.time()
    rows = entropy_estimate(doubling, 8)
    elapsed = time.time() - t0
    n, count, estimate = rows[-1]
    ok = abs(estimate - math.log(2)) <= 0.15 * math.log(2) and elapsed < 300
    report(
        "11a",
        ok,
        f"doubling n=8: {count} patterns, estimate {estimate:.4f} vs log2 {math.log(2):.4f} "
        f"(off by {estimate / math.log(2) - 1:+.1%}) in {elapsed:.1f}s",
    )
    assert elapsed < 300
    assert abs(estimate - math.log(2)) <= 0.15 * math.log(2)


def test_criterion_11b_rotation_entropy_sanity(rotation_3_10):
    t0 = time.time()
    rows = entropy_estimate(rotation_3_10, 8)
    elapsed = time.time() - t0
    n, count, estimate = rows[-1]
    ok = estimate < 0.4 and elapsed < 300
    report("11b", ok, f"rotation n=8: {count} patterns, estimate {estimate:.4f} < 0.4 in {elapsed:.1f}s")
    assert estimate < 0.4
    assert elapsed < 300


def test_criterion_12_exclusion_negative(doubling):
    rows = exclusion_type_test(doubling, 2, 4)
    at4 = next(r for r in rows if r.m == 4)
    ok = not at4.equal and at4.missing and not at4.extra
    report(
        "12",
        ok,
        f"at m=4 the lift preimage exceeds the realized set by {at4.missing} patterns "
        f"(so no exclusion type 2)",
    )
    assert not at4.equal
    assert at4.missing and not at4.extra


def test_criterion_13_cantor_construction():
    tower = uniform_tower(3)
    tree = build_interval_tree(tower)  # invariants checked exactly inside
    f = assemble_truncated_map(tree, 16)
    result = verify_construction(f, tower, 100_000, seed=12, scale_depth=16)
    worst = max(r.deviation for r in result.rows)
    ok = result.passed and worst <= 0.01
    report(
        "13",
        ok,
        f"sup deviations {[round(r.deviation, 5) for r in result.rows]} all within 0.01; "
        f"{result.excluded} samples excluded",
    )
    assert result.passed
    assert worst <= 0.01


def test_criterion_14_balayage(doubling, rotation_3_10, tent, loop_132_321_213):
    maps_under_test = {
        "rotation(3/10)": rotation_3_10,
        "doubling": doubling,
        "tent": tent,
        "permutation map": permutation_map(cyclic_lift(loop_132_321_213)),
        "realized uniform": realize_flow(PatternDistribution.uniform(3), 0.05),
    }
    from bisect import bisect_right

    outcomes = {}
    for name, f in maps_under_test.items():
        assert f.measure_preserving
        los = [float(p.lo) for p in f.pieces]
        polys = [(float(p.c), float(p.a), float(p.b)) for p in f.pieces]
        up = down = 0
        for x in unit_samples(f"balayage:{name}", 100_000):
            c, a, b = polys[bisect_right(los, x) - 1]
            y = (c * x + a) * x + b
            if y > x:
                up += 1
            elif y < x:
                down += 1
        outcomes[name] = (up, down)
    ok = all(up >= 1 and down >= 1 for up, down in outcomes.values())
    report("14", ok, f"rising/falling sample hits per map: {outcomes}")
    for name, (up, down) in outcomes.items():
        assert up >= 1 and down >= 1, name
