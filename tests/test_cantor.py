import math
from fractions import Fraction

import pytest

from orderflow.cantor import (
    IntervalRec,
    IntervalTree,
    VerificationReport,
    VerificationRow,
    _chain,
    _check_interval_invariants,
    assemble_truncated_map,
    build_interval_tree,
    build_separator_tree,
    uniform_tower,
    verify_construction,
)
from orderflow.errors import CapExceeded, IncompatibleSequence, InvariantViolation
from orderflow.maps import iterate
from orderflow.perms import PatternDistribution, Perm, all_perms, order_pattern, perm


def separator_order_ok(tree, sigma: Perm) -> bool:
    """Midpoints of sigma's chain intervals must realize sigma itself."""
    mids = [tree.intervals[s].midpoint() for s in _chain(sigma)]
    return order_pattern(mids) == sigma


def tower_from_top(mu_top):
    """Complete a single top distribution downward by head pushforwards."""
    from orderflow.perms import HEAD, pushforward

    tower = [mu_top]
    while tower[0].n > 1:
        tower.insert(0, pushforward(tower[0], HEAD))
    return tower


class TestIntervalTree:
    def test_two_level_example(self):
        mu2 = PatternDistribution(2, {perm("12"): Fraction(3, 5), perm("21"): Fraction(2, 5)})
        tree = build_interval_tree(tower_from_top(mu2))
        assert tree.intervals[perm("12")] == IntervalRec(Fraction(1, 4), Fraction(11, 20))
        assert tree.intervals[perm("21")] == IntervalRec(Fraction(11, 20), Fraction(3, 4))

    def test_invariant_checks(self):
        tower = uniform_tower(3)
        tree = build_interval_tree(tower)
        q, e = Fraction(1, 4), Fraction(1, 8)
        iv = tree.intervals
        broken = [
            ({perm("12"): IntervalRec(q, q + e)}, "covers"),
            ({perm("12"): IntervalRec(q, q + e), perm("21"): IntervalRec(2 * q, 3 * q + e)}, "tile"),
            ({perm("12"): IntervalRec(q, q + e), perm("21"): IntervalRec(q + e, 3 * q)}, "half its mass"),
            ({perm("123"): iv[perm("321")], perm("321"): iv[perm("123")]}, "nested"),
        ]
        for changed, message in broken:
            with pytest.raises(InvariantViolation, match=message):
                _check_interval_invariants(IntervalTree({**iv, **changed}), tower)

    def test_uniform_three_levels(self):
        tree = build_interval_tree(uniform_tower(3))
        level3 = [rec for s, rec in tree.intervals.items() if s.n == 3]
        assert len(level3) == 6
        assert {rec.length for rec in level3} == {Fraction(1, 12)}

    def test_point_mass_chain(self):
        mu3 = PatternDistribution.point_mass(perm("123"))
        tree = build_interval_tree(tower_from_top(mu3))
        for s, rec in tree.intervals.items():
            assert rec == IntervalRec(Fraction(1, 4), Fraction(3, 4))

    def test_incompatible_rejected(self):
        mu1 = PatternDistribution.point_mass(perm("1"))
        mu2 = PatternDistribution.point_mass(perm("12"))
        mu3 = PatternDistribution.point_mass(perm("213"))  # head-restricts to 21
        with pytest.raises(IncompatibleSequence):
            build_interval_tree([mu1, mu2, mu3])
        with pytest.raises(IncompatibleSequence):
            build_interval_tree([mu1, PatternDistribution.uniform(3)])


class TestSeparatorTree:
    def test_depth_one(self):
        sep = build_separator_tree(1)
        assert sep.intervals[perm("1")] == IntervalRec(Fraction(1, 4), Fraction(3, 4))

    def test_depth_two_order(self):
        sep = build_separator_tree(2)
        j1 = sep.intervals[perm("1")]
        j12 = sep.intervals[perm("12")]
        j21 = sep.intervals[perm("21")]
        assert j12.lo >= j1.hi  # above: second point larger
        assert j21.hi <= j1.lo  # below: second point smaller
        assert order_pattern((j1.midpoint(), j12.midpoint())) == perm("12")
        assert order_pattern((j1.midpoint(), j21.midpoint())) == perm("21")

    def test_disjoint_with_gaps(self):
        sep = build_separator_tree(4)
        recs = sorted(sep.intervals.values(), key=lambda r: r.lo)
        assert all(a.hi < b.lo for a, b in zip(recs, recs[1:]))
        assert recs[0].lo >= Fraction(1, 8) and recs[-1].hi <= Fraction(7, 8)

    def test_chain_order_property_exhaustive(self):
        sep = build_separator_tree(4)
        for n in range(1, 5):
            for sigma in all_perms(n):
                assert separator_order_ok(sep, sigma)

    def test_depth_cap(self):
        with pytest.raises(CapExceeded, match=r"separator tree reached depth 7, cap 6$"):
            build_separator_tree(7)


class TestAssembledMap:
    def test_coverage(self):
        tree = build_interval_tree(uniform_tower(3))
        f = assemble_truncated_map(tree, 16)
        identity_mass = sum(
            (p.hi - p.lo for p in f.pieces if p.a == 1 and p.b == 0 and p.c == 0),
            Fraction(0),
        )
        assert identity_mass <= Fraction(1, 2**15)

    def test_orbits_realize_their_patterns(self):
        tree = build_interval_tree(uniform_tower(3))
        f = assemble_truncated_map(tree, 12)
        for sigma, rec in tree.intervals.items():
            if sigma.n != 3:
                continue
            for t in (Fraction(1, 3), Fraction(4, 7)):
                x = rec.lo + rec.length * t
                assert order_pattern(iterate(f, x, 2)) == sigma

    def test_shell_orbits_realize_patterns_too(self):
        tree = build_interval_tree(uniform_tower(3))
        f = assemble_truncated_map(tree, 12)
        # Second shell: the squeeze of (1/4, 1/2] into (1/8, 1/4].  The offset
        # is deliberately irregular: round points can land inside the tiny
        # landing zones, which belong to the earlier hop pieces by design.
        for sigma, rec in tree.intervals.items():
            if sigma.n != 3:
                continue
            x = rec.lo + rec.length * Fraction(13, 37)
            if x >= Fraction(1, 2):
                continue
            assert order_pattern(iterate(f, x / 2, 2)) == sigma

    def test_scale_cap(self):
        tree = build_interval_tree(uniform_tower(2))
        with pytest.raises(CapExceeded, match=r"scale depth reached 30, cap 24$"):
            assemble_truncated_map(tree, 30)


class TestVerification:
    def test_uniform_target(self):
        tower = uniform_tower(3)
        f = assemble_truncated_map(build_interval_tree(tower), 16)
        report = verify_construction(f, tower, 100_000, seed=42, scale_depth=16)
        assert report.passed
        assert all(r.deviation <= 0.01 for r in report.rows)

    def test_point_mass_target(self):
        # A single forced pattern is fine here (no conservation constraint).
        tower = tower_from_top(PatternDistribution.point_mass(perm("12")))
        f = assemble_truncated_map(build_interval_tree(tower), 16)
        report = verify_construction(f, tower, 20_000, seed=7, scale_depth=16)
        assert report.passed

    def test_depth_one_trivial(self):
        tower = uniform_tower(1)
        f = assemble_truncated_map(build_interval_tree(tower), 8)
        report = verify_construction(f, tower, 1_000, seed=1, scale_depth=8)
        assert report.passed

    def test_bound_halves_with_extra_shell(self):
        n, samples, delta = 2, 10_000, 1e-3
        sampling = 4 * math.sqrt(math.log(2 * math.factorial(n) * n / delta) / samples)

        def bound(M):
            return 2.0 ** (1 - M) + sampling

        for M in (4, 8, 12):
            assert bound(M + 1) - sampling == pytest.approx((bound(M) - sampling) / 2)


class TestDerivedValues:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_depth_is_the_longest_pattern(self, depth):
        # A point-mass tower keeps one interval per level, the uniform one all of them.
        falling = PatternDistribution.point_mass(Perm(tuple(range(depth, 0, -1))))
        for tower in (uniform_tower(depth), tower_from_top(falling)):
            tree = build_interval_tree(tower)
            assert tree.depth == depth == len(tower)
            assert sorted({s.n for s in tree.intervals}) == list(range(1, depth + 1))
        sep = build_separator_tree(depth)
        assert sep.depth == depth
        assert len(sep.intervals) == sum(math.factorial(k) for k in range(1, depth + 1))
        assert assemble_truncated_map(tree, 4).name == f"cantor(depth={depth}, shells=4)"

    def test_passed_is_deviation_within_bound(self):
        tower = uniform_tower(3)
        f = assemble_truncated_map(build_interval_tree(tower), 6)
        report = verify_construction(f, tower, 2_000, seed=3, scale_depth=6)
        assert [r.n for r in report.rows] == [1, 2, 3]
        assert all(r.passed is (r.deviation <= r.bound) for r in report.rows)
        assert report.passed is all(r.passed for r in report.rows)
        assert VerificationRow(2, 0.25, 0.25).passed and not VerificationRow(2, 0.2500001, 0.25).passed
        failing = VerificationReport([VerificationRow(1, 0.0, 0.1), VerificationRow(2, 0.3, 0.1)], 10, 0)
        assert not failing.passed
