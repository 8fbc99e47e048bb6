"""One pass for every length against separate per-length runs (``lengths_oracle``)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lengths_oracle import (
    oracle_entropy,
    oracle_exclusion,
    oracle_forbidden,
    oracle_realized,
)
from sample_oracle import oracle_sampled
from orderflow.analysis import (
    empirical_distribution,
    exact_distribution,
    entropy_estimate,
    exclusion_type_test,
    forbidden_patterns,
    realized_patterns,
)
from orderflow.cantor import (
    assemble_truncated_map,
    build_interval_tree,
    uniform_tower,
    verify_construction,
)
from orderflow.exactnum import exact
from orderflow.maps import IntervalMap, Piece, block_sum, builtin
from orderflow.perms import TAIL, restrict


def _escaping():
    # x -> 3x on [0, 1/2) sends (1/3, 1/2) past 1.
    half = Fraction(1, 2)
    return IntervalMap((Piece(Fraction(0), half, Fraction(3), Fraction(0)), Piece(half, Fraction(1), Fraction(1), -half)))


def _contracting():
    # Onto [1/2, 3/4): points left of 1/2 rise, all others fall, so the
    # patterns of later windows are not those of the first.
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    return IntervalMap((Piece(Fraction(0), half, half, half), Piece(half, Fraction(1), half, quarter)))


def _cantor(depth, shells):
    tree = build_interval_tree(uniform_tower(depth))
    return assemble_truncated_map(tree, shells)


EXACT_MAPS = {
    "doubling": builtin("doubling"),
    "tent": builtin("tent"),
    "rotation 3/10": builtin("rotation", Fraction(3, 10)),
    "rotation sqrt2-1": builtin("rotation", exact(-1, 1)),
    "block 1/3": block_sum(builtin("doubling"), builtin("tent"), Fraction(1, 3)),
    "block 5/7": block_sum(builtin("tent"), builtin("rotation", Fraction(2, 9)), Fraction(5, 7)),
    "contracting": _contracting(),
}
# Maps whose orbits escape, repeat or hit identity placeholders, so the
# kept prefix ends early for some samples and lengths.
SAMPLED_MAPS = {
    **EXACT_MAPS,
    "logistic": builtin("logistic"),
    "rotation 1/3": builtin("rotation", Fraction(1, 3)),
    "escaping": _escaping(),
    "cantor 3": _cantor(3, 4),
    "cantor 2": _cantor(2, 3),
}


def _outcome(compute, *args, **kwargs):
    """The result, or the type and text of the error raised."""
    try:
        return compute(*args, **kwargs)
    except Exception as exc:  # the comparison is of the error itself
        return type(exc).__name__, str(exc)


class TestSampler:
    @pytest.mark.parametrize("name", sorted(SAMPLED_MAPS))
    def test_every_length_matches_a_separate_run(self, name):
        # Past length 8 the sampler finds an orbit's first repeat once, by a set, not as it
        # grows; float doubling orbits first repeat (at 0) around step 50.
        f = SAMPLED_MAPS[name]
        for n in (*range(1, 10), 17, 50):
            for seed in (3, "s"):
                assert _outcome(empirical_distribution, f, n, 1_500, seed) == _outcome(oracle_sampled, f, n, 1_500, seed)

    def test_counts_are_the_histogram(self):
        report = empirical_distribution(SAMPLED_MAPS["cantor 3"], 3, 5_000, 8)
        kept = report.samples - report.discards
        assert report.discards > 0
        assert sum(report.counts.values()) == kept
        assert {s: c / kept for s, c in report.counts.items()} == report.distribution.mass

    def test_cantor_verify_reads_the_integer_counts(self):
        f = SAMPLED_MAPS["cantor 3"]
        report = empirical_distribution(f, 3, 5_000, 8)
        kept = report.samples - report.discards
        assert report.counts == {s: round(m * kept) for s, m in report.distribution.mass.items()}
        assert verify_construction(f, uniform_tower(3), 5_000, 8, 4).excluded == report.discards

    # (map, n, samples, realized patterns, discarded orbits) as reports stored
    # them before they were derived; samples None is the exact subdivision.
    @pytest.mark.parametrize(
        "name, n, samples, realized, discards",
        [
            ("cantor 3", 3, 2_000, 6, 116),
            ("escaping", 4, 2_000, 11, 761),
            ("logistic", 5, 2_000, 31, 0),
            ("rotation 1/3", 3, 2_000, 3, 0),
            ("doubling", 4, None, 18, 0),
            ("rotation sqrt2-1", 5, None, 5, 0),
        ],
    )
    def test_derived_bookkeeping(self, name, n, samples, realized, discards):
        f = SAMPLED_MAPS[name]
        report = exact_distribution(f, n) if samples is None else empirical_distribution(f, n, samples, 5)
        assert (report.n, len(report.realized), report.discards) == (n, realized, discards)
        assert report.realized == frozenset(report.distribution.mass)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(SAMPLED_MAPS)), st.integers(1, 7), st.integers(0, 10**6), st.integers(1, 300))
    def test_random_runs(self, name, n, seed, samples):
        f = SAMPLED_MAPS[name]
        assert _outcome(empirical_distribution, f, n, samples, seed) == _outcome(oracle_sampled, f, n, samples, seed)


class TestRealizedPatterns:
    @pytest.mark.parametrize("name", sorted(EXACT_MAPS))
    def test_exact(self, name):
        f = EXACT_MAPS[name]
        assert realized_patterns(f, range(1, 9), "exact") == oracle_realized(f, range(1, 9), "exact")

    @pytest.mark.parametrize("name", sorted(SAMPLED_MAPS))
    def test_empirical(self, name):
        f = SAMPLED_MAPS[name]
        for lengths in (range(2, 8), [3, 6], [5]):
            got = _outcome(realized_patterns, f, lengths, "empirical", 1_000, 5)
            assert got == _outcome(oracle_realized, f, lengths, "empirical", 1_000, 5)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(sorted(EXACT_MAPS)),
        st.sampled_from(sorted(EXACT_MAPS)),
        st.integers(1, 11),
        st.sets(st.integers(1, 7), min_size=1),
    )
    def test_random_block_sums(self, first, second, k, lengths):
        f = block_sum(EXACT_MAPS[first], EXACT_MAPS[second], Fraction(k, 12))
        assert _outcome(realized_patterns, f, lengths, "exact") == _outcome(oracle_realized, f, lengths, "exact")

    @pytest.mark.parametrize(
        "f, lengths",
        [
            (builtin("rotation", Fraction(1, 3)), range(2, 6)),  # DegenerateTie at length 4
            (_escaping(), range(1, 5)),  # EscapesInterval at length 3
            (builtin("logistic"), [2, 3]),  # NotPiecewiseAffine
            (builtin("doubling"), [0, 3]),  # no length 0
        ],
    )
    @pytest.mark.parametrize("mode", ["exact", "empirical"])
    def test_errors_are_those_of_the_shortest_failing_length(self, f, lengths, mode):
        got = _outcome(realized_patterns, f, lengths, mode, 500, 2)
        assert got == _outcome(oracle_realized, f, lengths, mode, 500, 2)

    def test_shortest_failing_length_by_bisection(self, monkeypatch):
        # Rotation by 1/31 ties iterates 0 and 31: every length from 32 on fails.
        f, lengths = builtin("rotation", Fraction(1, 31)), range(2, 200)
        expected = _outcome(oracle_realized, f, lengths, "exact")
        calls = []

        def counted(g, n):
            calls.append(n)
            return exact_distribution(g, n)

        monkeypatch.setattr("orderflow.analysis.exact_distribution", counted)
        assert _outcome(realized_patterns, f, lengths, "exact") == expected
        assert expected[0] == "DegenerateTie" and len(calls) <= math.ceil(math.log2(len(lengths))) + 1

    @pytest.mark.parametrize("mode", ["exact", "empirical"])
    def test_length_cap(self, set_perm_cap, monkeypatch, mode):
        # Lengths past the cap on listing S_n run: only the pass's own work is bounded.
        set_perm_cap(5)
        f = builtin("tent")
        got = _outcome(realized_patterns, f, range(2, 9), mode, 500, 2)
        assert got == _outcome(oracle_realized, f, range(2, 9), mode, 500, 2) and len(got[8]) > 1
        # No orbit of a period-3 rotation is kept past length 3.
        rotation = builtin("rotation", Fraction(1, 3))
        got = _outcome(realized_patterns, rotation, [7], "empirical", 500, 2)
        assert got == ("SamplesDiscarded", "all samples were discarded")
        assert got == _outcome(oracle_realized, rotation, [7], "empirical", 500, 2)
        # A float doubling orbit from k/2**64 reaches 0 in at most 64 steps, then repeats.
        got = _outcome(realized_patterns, builtin("doubling"), [2, 70], "empirical", 200, 2)
        assert got == ("SamplesDiscarded", "all samples were discarded")
        assert got == _outcome(oracle_realized, builtin("doubling"), [2, 70], "empirical", 200, 2)
        # A pass over its cap raises its own refusal: the longest length's
        # cell entries, or the orbit values of every length of the pass.
        refusal = {
            "exact": ("SUBDIVISION_MAX", "exact subdivision reached 126 entries at iterate 8, cap 100"),
            "empirical": ("ORBIT_VALUES_MAX", "sampling needs 2200 orbit values (50 samples, lengths 2 to 9), cap 100"),
        }
        cap, text = refusal[mode]
        monkeypatch.setattr(f"orderflow.analysis.{cap}", 100)
        assert _outcome(realized_patterns, f, range(2, 10), mode, 50, 2) == ("CapExceeded", text)
        # It comes before the failure of a shorter length alone: an escape at
        # length 3, or every orbit of a period-3 rotation discarded at length 7.
        g, n = (_escaping(), 3) if mode == "exact" else (builtin("rotation", Fraction(1, 3)), 7)
        assert _outcome(oracle_realized, g, [n], mode, 50, 2)[0] in ("EscapesInterval", "SamplesDiscarded")
        assert _outcome(realized_patterns, g, range(n, 40), mode, 50, 2)[0] == "CapExceeded"


class TestStatistics:
    @pytest.mark.parametrize("name", ["doubling", "tent", "rotation 3/10", "block 5/7", "contracting"])
    @pytest.mark.parametrize("mode", ["exact", "empirical"])
    def test_entropy_forbidden_exclusion(self, name, mode):
        f = EXACT_MAPS[name]
        assert entropy_estimate(f, 7, mode, 2_000, 1) == oracle_entropy(f, 7, mode, 2_000, 1)
        assert forbidden_patterns(f, 5, mode, 2_000, 1) == oracle_forbidden(f, 5, mode, 2_000, 1)
        rows = exclusion_type_test(f, 2, 5, mode, 2_000, 1)
        for row, (m, preimage, realized) in zip(rows, oracle_exclusion(f, 2, 5, mode, 2_000, 1), strict=True):
            assert (row.m, row.missing, row.extra) == (m, len(preimage - realized), len(realized - preimage))

    @pytest.mark.parametrize("name", ["doubling", "tent"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_exclusion_against_a_scan_of_s_m(self, name, n):
        f = EXACT_MAPS[name]
        rows = exclusion_type_test(f, n, 7)
        for row, (m, preimage, realized) in zip(rows, oracle_exclusion(f, n, 7), strict=True):
            assert (row.m, row.missing, row.extra) == (m, len(preimage - realized), len(realized - preimage))
            assert row.equal is (preimage == realized)

    @pytest.mark.parametrize("name", ["doubling", "logistic"])
    def test_exclusion_extra_from_sparse_samples(self, name):
        # Thirty orbits leave some windows of the realized patterns unrealized,
        # so realized patterns fall outside the lift preimage.
        f = builtin(name)
        rows = exclusion_type_test(f, 3, 7, "empirical", 30, 5)
        oracle = oracle_exclusion(f, 3, 7, "empirical", 30, 5)
        expected = [(m, len(preimage - realized), len(realized - preimage)) for m, preimage, realized in oracle]
        assert [(row.m, row.missing, row.extra) for row in rows] == expected
        assert all(row.extra for row in rows[1:])

    @pytest.mark.parametrize("name", ["doubling", "tent", "rotation 3/10", "rotation sqrt2-1", "block 5/7", "contracting"])
    @pytest.mark.parametrize("n", [6, 7])
    def test_basic_forbidden_against_every_window(self, name, n):
        f = EXACT_MAPS[name]
        assert forbidden_patterns(f, n) == oracle_forbidden(f, n)

    @pytest.mark.parametrize("name", ["doubling", "logistic"])
    def test_basic_forbidden_from_sparse_samples(self, name):
        # Thirty orbits realize patterns whose windows they do not realize, so
        # the realized sets are not closed under head and tail restrictions.
        f = builtin(name)
        realized = realized_patterns(f, range(2, 7), "empirical", 30, 5)
        assert any(restrict(s, TAIL) not in realized[k - 1] for k in range(3, 7) for s in realized[k])
        forbidden, basic = forbidden_patterns(f, 6, "empirical", 30, 5)
        assert (forbidden, basic) == oracle_forbidden(f, 6, "empirical", 30, 5) and basic

    def test_entropy_below_length_two(self):
        assert entropy_estimate(builtin("doubling"), 1) == oracle_entropy(builtin("doubling"), 1) == []

    def test_forbidden_at_length_one(self):
        assert forbidden_patterns(builtin("doubling"), 1) == (frozenset(), frozenset())
