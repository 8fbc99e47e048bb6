import math
import sys
import tracemalloc
from fractions import Fraction
from functools import partial
from hashlib import blake2b
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drift_oracle import reach_partially_driftless_in
from exact_oracle import generator_crossing_route, generator_translation_route, oracle_distribution
from isometries import interval_exchanges, lattice_maps, unit_points
from poset_oracle import growth_check, linear_extensions
from sample_oracle import oracle_sampled, oracle_unit_samples
from shift_oracle import doubling_patterns
from orderflow import analysis
from orderflow.analysis import (
    ExclusionRow,
    empirical_distribution,
    entropy_estimate,
    exact_distribution,
    exclusion_type_test,
    forbidden_patterns,
    realized_patterns,
    unit_samples,
)
from orderflow.digraph import PermDigraph, Subgraph, embedded_loops
from orderflow.drift import loop_drift
from orderflow.errors import (
    CapExceeded, DegenerateTie, EscapesInterval, NotPiecewiseAffine, NotRealizable, OrderflowError,
    SamplesDiscarded,
)
from orderflow.exactnum import exact, from_lattice
from orderflow.flows import flow_residual
from orderflow.maps import (
    CyclicRanking,
    IntervalMap,
    Piece,
    block_sum,
    builtin,
    cyclic_lift,
    lattice_frame,
    map_from_json,
    permutation_map,
    realize_flow,
)
from orderflow.paths import allowed_counts, build_poset, lift_count, lifts, path
from orderflow.perms import HEAD, TAIL, PatternDistribution, all_perms, perm, pushforward, restrict

DOUBLING_MU3 = {
    "123": Fraction(1, 4),
    "132": Fraction(1, 6),
    "213": Fraction(1, 12),
    "231": Fraction(1, 12),
    "312": Fraction(1, 6),
    "321": Fraction(1, 4),
}


class TestExactDistribution:
    def test_doubling_length_two(self, doubling):
        mu = exact_distribution(doubling, 2).distribution
        assert mu(perm("12")) == Fraction(1, 2) and mu(perm("21")) == Fraction(1, 2)

    def test_doubling_length_three(self, doubling):
        mu = exact_distribution(doubling, 3).distribution
        assert {str(s): m for s, m in mu.mass.items()} == DOUBLING_MU3

    def test_rotation_length_three(self, rotation_3_10):
        report = exact_distribution(rotation_3_10, 3)
        mu = report.distribution
        assert mu(perm("123")) == Fraction(2, 5)
        assert mu(perm("231")) == Fraction(3, 10)
        assert mu(perm("312")) == Fraction(3, 10)
        assert report.realized == {perm("123"), perm("231"), perm("312")}

    def test_length_one(self, doubling):
        mu = exact_distribution(doubling, 1).distribution
        assert mu(perm("1")) == 1

    def test_logistic_rejected(self):
        with pytest.raises(NotPiecewiseAffine):
            exact_distribution(builtin("logistic"), 2)

    def test_identity_region_degenerate(self):
        half = Fraction(1, 2)
        stuck = IntervalMap(
            (Piece(Fraction(0), half, Fraction(1), Fraction(0)), Piece(half, Fraction(1), Fraction(1), Fraction(0)))
        )
        with pytest.raises(DegenerateTie):
            exact_distribution(stuck, 2)

    def test_identity_map_degenerate(self):
        identity = IntervalMap((Piece(Fraction(0), Fraction(1), Fraction(1), Fraction(0)),))
        with pytest.raises(DegenerateTie, match="iterates 0 and 1"):
            exact_distribution(identity, 2)

    def test_periodic_rotation_degenerate(self, rotation_3_10):
        # Every orbit of rotation(3/10) has period 10: iterates 0 and 10 coincide.
        assert len(exact_distribution(rotation_3_10, 10).realized) == 10
        with pytest.raises(DegenerateTie, match="iterates 0 and 10"):
            exact_distribution(rotation_3_10, 11)

    def test_subdivision_cap(self, doubling, monkeypatch):
        # The cap counts cell entries, each cell adding the iterates it carries.
        monkeypatch.setattr("orderflow.analysis.SUBDIVISION_MAX", 60)
        with pytest.raises(CapExceeded, match=r"^exact subdivision reached 92 entries at iterate 7, cap 60$"):
            exact_distribution(doubling, 8)
        # One cell per iterate already takes n (n + 1) / 2 = 36 entries: refused before any cell is cut,
        # so no cell's image is spanned to find the piece bounds inside it.
        monkeypatch.setattr("orderflow.analysis.SUBDIVISION_MAX", 35)
        with mock.patch.object(analysis, "_image_span", wraps=analysis._image_span) as cut:
            with pytest.raises(CapExceeded, match=r"^exact subdivision of length 8 needs at least 36 entries, cap 35$"):
                exact_distribution(doubling, 8)
            assert cut.call_count == 0

    def test_length_is_bounded_by_entries_alone(self):
        # The rotation by sqrt2 - 1 has n patterns of length n.  The walk holds
        # a stack of cells, so a depth far past the recursion limit is refused
        # by its entries, not by a RecursionError.
        rotation = builtin("rotation", exact(-1, 1))
        assert len(exact_distribution(rotation, 60).realized) == 60
        assert sys.getrecursionlimit() < 2000
        with pytest.raises(CapExceeded, match=r"^exact subdivision reached \d+ entries at iterate 1999, cap 3000000$"):
            exact_distribution(rotation, 2000)

    def test_escaping_map(self):
        # x -> 3x on [0, 1/2) sends (1/3, 1/2) past 1.
        half = Fraction(1, 2)
        f = IntervalMap((Piece(Fraction(0), half, Fraction(3), Fraction(0)), Piece(half, Fraction(1), Fraction(1), -half)))
        assert exact_distribution(f, 2).distribution.n == 2
        with pytest.raises(EscapesInterval, match="outside"):
            exact_distribution(f, 3)


class TestPatternOfOrder:
    @given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(n))))
    def test_one_pass_inverse_is_the_sorted_one(self, order):
        # The positions sorted by the value at them: the inverse read by a sort, as the readout once did.
        by_sort = tuple(place + 1 for place in sorted(range(len(order)), key=order.__getitem__))
        assert analysis._pattern(tuple(order)) == perm(by_sort)


def _same_as_oracle(f, n):
    assert exact_distribution(f, n).distribution.mass == oracle_distribution(f, n).mass


def _realized_single_loops():
    """The permutation maps realize_flow builds for the driftless embedded loops of G_3."""
    maps = []
    for loop in embedded_loops(PermDigraph(3).full_subgraph()):
        mu = PatternDistribution(4, {e: Fraction(1, len(loop)) for e in loop})
        try:
            maps.append(realize_flow(mu, 0.05))
        except NotRealizable:
            continue
    return maps


class TestExactAgainstOracle:
    """One-pass subdivision against the three-stage oracle: exactly equal masses."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_doubling_and_tent(self, doubling, tent, n):
        _same_as_oracle(doubling, n)
        _same_as_oracle(tent, n)

    @pytest.mark.parametrize("t", [Fraction(1, 3), Fraction(1, 2), Fraction(5, 7)])
    def test_block_sums(self, doubling, tent, t):
        f = block_sum(doubling, tent, t)
        for n in range(1, 9):
            _same_as_oracle(f, n)

    @pytest.mark.parametrize("alpha", [Fraction(3, 10), exact(-1, 1)])
    def test_rotations(self, alpha):
        f = builtin("rotation", alpha)
        for n in range(1, 11):
            _same_as_oracle(f, n)

    def test_realized_single_loops_of_g3(self):
        maps = _realized_single_loops()
        assert len(maps) == 30
        for f in maps:
            _same_as_oracle(f, 4)

    def test_degenerate_maps_agree(self, rotation_3_10):
        for f, n in ((rotation_3_10, 11), (IntervalMap((Piece(Fraction(0), Fraction(1), Fraction(1), Fraction(0)),)), 2)):
            for compute in (exact_distribution, oracle_distribution):
                with pytest.raises(DegenerateTie):
                    compute(f, n)


_BUILTINS = [builtin("doubling"), builtin("tent"), builtin("rotation", Fraction(3, 10)), builtin("rotation", exact(-1, 1))]


@st.composite
def block_sums(draw):
    f, g = draw(st.sampled_from(_BUILTINS)), draw(st.sampled_from(_BUILTINS))
    q = draw(st.integers(2, 12))
    return block_sum(f, g, Fraction(draw(st.integers(1, q - 1)), q))


@st.composite
def permutation_maps(draw):
    rank = draw(st.permutations(range(1, draw(st.integers(1, 12)) + 1)))
    return permutation_map(CyclicRanking(tuple(rank)))


def _generic(f, n):
    """exact_distribution in the unscaled frame, with the Fraction / Sqrt2 values other slopes take.

    ``IntervalMap.from_frame`` builds only the frame ``lattice_frame`` picks,
    so a stand-in with the map's ``frame`` and ``name`` carries the scale-1 one.
    """
    return exact_distribution(SimpleNamespace(frame=(1, f.pieces), name=f.name), n)


def _outcome(compute, f, n):
    """The masses, or the domain error's type and text."""
    try:
        report = compute(f, n)
    except OrderflowError as exc:
        return type(exc), str(exc)
    return getattr(report, "distribution", report).mass


class TestIsometryLattice:
    """Slope +-1 maps are subdivided on Z[sqrt2]: same masses and same error texts."""

    @settings(max_examples=60, deadline=None)
    @given(lattice_maps)
    def test_lattice_equals_generic_and_oracle(self, f):
        assert lattice_frame(f.pieces)[0] > 1
        for n in range(1, 7):
            lattice = _outcome(exact_distribution, f, n)
            assert lattice == _outcome(_generic, f, n)
            oracle = _outcome(oracle_distribution, f, n)
            if isinstance(lattice, dict):
                assert lattice == oracle
            else:
                assert lattice[0] is oracle[0] is DegenerateTie
                break

    def test_mass_types_match_generic(self, loop_132_321_213):
        for f in (permutation_map(cyclic_lift(loop_132_321_213)), builtin("rotation", exact(-1, 1))):
            lattice, generic = exact_distribution(f, 4).distribution.mass, _generic(f, 4).distribution.mass
            assert [(s, type(m)) for s, m in lattice.items()] == [(s, type(m)) for s, m in generic.items()]

    # The texts below are what the Fraction / Sqrt2 route prints for these maps.
    def test_periodic_rotation_tie_text(self):
        with pytest.raises(DegenerateTie) as caught:
            exact_distribution(builtin("rotation", Fraction(1, 3)), 4)
        assert str(caught.value) == "iterates 0 and 3 coincide on (0, 1/3)"

    def test_escaping_isometry_text(self):
        f = map_from_json(
            '{"pieces": [{"lo": "0", "hi": "-1+1*sqrt2", "a": "1", "b": "1/2"},'
            ' {"lo": "-1+1*sqrt2", "hi": "1", "a": "-1", "b": "3/2"}]}'
        )
        assert lattice_frame(f.pieces)[0] > 1
        with pytest.raises(EscapesInterval) as caught:
            exact_distribution(f, 3)
        assert str(caught.value) == (
            "iterate 1 maps (Sqrt2(Fraction(-1, 1), Fraction(1, 1)), 3/4) onto "
            "(3/4, Sqrt2(Fraction(5, 2), Fraction(-1, 1))), outside [0, 1)"
        )

    @pytest.mark.parametrize(
        "f, n, cap, text",
        [
            (builtin("rotation", exact(-1, 1)), 8, 40, "exact subdivision reached 44 entries at iterate 7, cap 40"),
            (permutation_map(CyclicRanking((2, 5, 1, 4, 3))), 6, 25, "exact subdivision reached 36 entries at iterate 5, cap 25"),
        ],
    )
    def test_cap_text(self, f, n, cap, text, monkeypatch):
        monkeypatch.setattr("orderflow.analysis.SUBDIVISION_MAX", cap)
        with pytest.raises(CapExceeded) as caught:
            exact_distribution(f, n)
        assert str(caught.value) == text

    def test_int_coefficients_stay_off_the_lattice(self, doubling):
        # Ints are lattice values to exact_div; a slope-2 map given in ints must still divide exactly.
        half = Fraction(1, 2)
        ints = IntervalMap((Piece(0, half, 2, 0), Piece(half, 1, 2, -1)))
        assert exact_distribution(ints, 5).distribution.mass == exact_distribution(doubling, 5).distribution.mass


# Piecewise translations: exchanges without flips, permutation maps and block sums of two, rotations.
translations = st.one_of(
    interval_exchanges(flips=False),
    permutation_maps(),
    st.builds(block_sum, permutation_maps(), permutation_maps(), unit_points()),
    st.builds(lambda alpha: builtin("rotation", alpha), unit_points()),
)


def _via(route):
    """The distribution that ``route`` subdivides for a map's frame, no switch between routes."""
    return lambda f, n: analysis._report(n, *analysis._subdivided(f, n, route))


ESCAPING_TRANSLATION = (
    '{"pieces": [{"lo": "0", "hi": "-1+1*sqrt2", "a": "1", "b": "1/2"},'
    ' {"lo": "-1+1*sqrt2", "hi": "1", "a": "1", "b": "1/4"}]}'
)


@st.composite
def slope_one_maps(draw):
    """Slope-1 maps with any intercepts, so that iterates escape [0, 1) or tie at any depth."""
    cuts = set(draw(st.lists(st.fractions(0, 1, max_denominator=12), max_size=3))) - {0, 1}
    ends = [Fraction(0), *sorted(cuts), Fraction(1)]
    shifts = st.fractions(-1, 1, max_denominator=12)
    return IntervalMap(tuple(Piece(lo, hi, Fraction(1), draw(shifts)) for lo, hi in zip(ends, ends[1:])))


def _stream(route, f, n):
    """Every cell (lo, hi, maps or intercepts, order) ``route`` streams for f's frame, in x order, and its error."""
    one, pieces = f.frame
    cells = []
    try:
        for cell in route(pieces, n, one, partial(from_lattice, scale=one)):
            cells.append(cell)
    except OrderflowError as exc:
        return cells, type(exc), str(exc)
    return cells, None, None


class TestTranslationRoute:
    """Slope-1 maps skip the crossing search: same masses, same error texts, no crossing route."""

    @settings(max_examples=150, deadline=None)
    @given(translations | slope_one_maps(), st.integers(1, 6), st.none() | st.integers(0, 150))
    @example(map_from_json(ESCAPING_TRANSLATION), 3, None)
    @example(builtin("rotation", Fraction(1, 3)), 6, 40)
    def test_one_loop_streams_the_generator_route(self, f, n, cap):
        # The same cells in the same order, then the same error with the same text, under small caps too.
        with mock.patch.object(analysis, "SUBDIVISION_MAX", analysis.SUBDIVISION_MAX if cap is None else cap):
            assert _stream(analysis._translation_route, f, n) == _stream(generator_translation_route, f, n)

    @settings(max_examples=60, deadline=None)
    @given(translations)
    def test_equals_crossing_search_and_oracle(self, f):
        assert all(p.a == 1 for p in f.frame[1])
        for n in range(1, 7):
            translated = _outcome(_via(analysis._translation_route), f, n)
            assert translated == _outcome(_via(analysis._crossing_route), f, n)
            assert translated == _outcome(exact_distribution, f, n)
            oracle = _outcome(oracle_distribution, f, n)
            if isinstance(translated, dict):
                assert translated == oracle
            else:
                assert translated[0] is oracle[0] is DegenerateTie
                break

    @pytest.mark.parametrize(
        "f, n, cap, error, text",
        [
            (
                map_from_json(ESCAPING_TRANSLATION), 3, None, EscapesInterval,
                "iterate 1 maps (Sqrt2(Fraction(-1, 1), Fraction(1, 1)), 1) onto "
                "(Sqrt2(Fraction(-3, 4), Fraction(1, 1)), 5/4), outside [0, 1)",
            ),
            (builtin("rotation", Fraction(1, 3)), 4, None, DegenerateTie, "iterates 0 and 3 coincide on (0, 1/3)"),
            (
                builtin("rotation", exact(-1, 1)), 8, 40, CapExceeded,
                "exact subdivision reached 44 entries at iterate 7, cap 40",
            ),
            (
                permutation_map(CyclicRanking((2, 5, 1, 4, 3))), 6, 25, CapExceeded,
                "exact subdivision reached 36 entries at iterate 5, cap 25",
            ),
        ],
    )
    def test_error_texts_match_crossing_search(self, f, n, cap, error, text, monkeypatch):
        if cap is not None:
            monkeypatch.setattr("orderflow.analysis.SUBDIVISION_MAX", cap)
        for compute in (exact_distribution, _via(analysis._translation_route), _via(analysis._crossing_route)):
            assert _outcome(compute, f, n) == (error, text)

    def test_only_other_slopes_search_crossings(self, doubling, loop_132_321_213):
        with mock.patch.object(analysis, "_crossing_route", wraps=analysis._crossing_route) as crossing:
            for f in (permutation_map(cyclic_lift(loop_132_321_213)), builtin("rotation", exact(-1, 1))):
                exact_distribution(f, 6)
            assert crossing.call_count == 0
            exact_distribution(doubling, 3)
            assert crossing.call_count > 0


_SLOPES = [Fraction(a) for a in (0, 1, -1, 2, -2, Fraction(1, 2), 3)]


@st.composite
def affine_maps(draw):
    """Affine maps with slopes 0, +-1, +-2, 1/2 and 3, so that iterates escape [0, 1) or tie at any depth.

    A piece whose image is short enough often gets an intercept that keeps
    it inside [0, 1], and otherwise any intercept.
    """
    cuts = set(draw(st.lists(st.fractions(0, 1, max_denominator=12), max_size=3))) - {0, 1}
    ends = [Fraction(0), *sorted(cuts), Fraction(1)]
    pieces = []
    for lo, hi in zip(ends, ends[1:]):
        a = draw(st.sampled_from(_SLOPES))
        ylo, yhi = sorted((a * lo, a * hi))
        inside = yhi - ylo <= 1 and draw(st.booleans())
        b = draw(st.fractions(-ylo, 1 - yhi, max_denominator=24) if inside else st.fractions(-2, 2, max_denominator=12))
        pieces.append(Piece(lo, hi, a, b))
    return IntervalMap(tuple(pieces))


class TestCrossingRoute:
    @settings(max_examples=150, deadline=None)
    @given(affine_maps() | lattice_maps, st.integers(1, 7), st.none() | st.integers(0, 200))
    # The identity on the right half ties at the last iterate, after the left half's final cells.
    @example(IntervalMap((Piece(0, Fraction(1, 2), Fraction(2), 0), Piece(Fraction(1, 2), 1, Fraction(1), 0))), 2, None)
    @example(builtin("doubling"), 6, 120)
    def test_one_loop_streams_the_generator_route(self, f, n, cap):
        # The same cells in the same order, then the same error with the same text, under small caps too.
        with mock.patch.object(analysis, "SUBDIVISION_MAX", analysis.SUBDIVISION_MAX if cap is None else cap):
            assert _stream(analysis._crossing_route, f, n) == _stream(generator_crossing_route, f, n)


class TestExactOracleProperty:
    @settings(max_examples=40, deadline=None)
    @given(block_sums(), st.integers(1, 6))
    def test_random_block_sums(self, f, n):
        _same_as_oracle(f, n)

    @settings(max_examples=40, deadline=None)
    @given(permutation_maps(), st.integers(1, 5))
    def test_random_permutation_maps(self, f, n):
        _same_as_oracle(f, n)


class TestShiftOracle:
    """The doubling map's realized patterns against Elizalde's symbol count for the binary shift."""

    def test_realized_sets(self, doubling):
        counts = []
        for n in range(2, 9):
            realized = frozenset(exact_distribution(doubling, n).distribution.mass)
            assert realized == doubling_patterns(n)
            counts.append(len(realized))
        assert counts == [2, 6, 18, 48, 126, 306, 738]

    @pytest.mark.parametrize("n", [4, 5])
    def test_forbidden_patterns(self, doubling, n):
        forbidden, _ = forbidden_patterns(doubling, n)
        assert forbidden == frozenset(all_perms(n)) - doubling_patterns(n)

    def test_entropy_counts(self, doubling):
        counts = [(n, count) for n, count, _ in entropy_estimate(doubling, 8)]
        assert counts == [(n, len(doubling_patterns(n))) for n in range(2, 9)]


class TestEmpiricalDistribution:
    def test_rotation_head_mass(self, rotation_3_10):
        report = empirical_distribution(rotation_3_10, 2, 100_000, seed=11)
        assert abs(float(report.distribution(perm("12"))) - 0.7) < 0.005
        assert report.discards == 0

    def test_matches_exact_within_bound(self, doubling):
        samples, delta = 100_000, 1e-3
        emp = empirical_distribution(doubling, 3, samples, seed=3).distribution
        exact = exact_distribution(doubling, 3).distribution
        bound = 4 * math.sqrt(math.log(2 * math.factorial(3) / delta) / samples)
        for s in all_perms(3):
            assert abs(float(emp(s)) - float(exact(s))) <= bound
            # at this sample size the agreement is much tighter in practice
            assert abs(float(emp(s)) - float(exact(s))) <= 0.01

    def test_length_one_point_mass(self, tent):
        report = empirical_distribution(tent, 1, 100, seed=0)
        assert report.distribution(perm("1")) == 1.0

    def test_determinism(self, doubling):
        a = empirical_distribution(doubling, 3, 5_000, seed=5).distribution
        b = empirical_distribution(doubling, 3, 5_000, seed=5).distribution
        assert dict(a.mass) == dict(b.mass)

    def test_sampler_is_counter_based(self):
        # Sample i depends on (seed, i) alone, so a longer run extends a shorter one.
        first = list(unit_samples("s", 5))
        assert list(unit_samples("s", 3)) == first[:3]
        assert list(unit_samples("t", 5)) != first
        assert first[4] == int.from_bytes(blake2b(b"s:4", digest_size=8).digest(), "big") / 2**64

    def test_discard_rate_low_for_builtins(self, doubling, rotation_3_10, tent):
        for f in (doubling, rotation_3_10, tent):
            report = empirical_distribution(f, 4, 100_000, seed=17)
            assert report.discards / 100_000 < 1e-4


# A slope or intercept of 1e-400 rounds to a float zero, -0.0 when negative.
_TINY = Fraction(1, 10**400)


@st.composite
def sampled_maps(draw):
    """A map of [0, 1) whose pieces escape, repeat exactly, are flat, bend (logistic) or map affinely."""
    unit = st.fractions(0, 1, max_denominator=12)
    cuts = sorted(set(draw(st.lists(unit, max_size=4))) - {0, 1})
    bounds = [Fraction(0), *cuts, Fraction(1)]
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        kind = draw(st.sampled_from(["escape", "identity", "flat", "logistic", "affine", "affine"]))
        if kind == "escape":
            pieces.append(Piece(lo, hi, 1, 1))
        elif kind == "identity":
            pieces.append(Piece(lo, hi, 1, 0))
        elif kind == "flat":
            a, b = draw(st.sampled_from([_TINY, -_TINY])), draw(st.sampled_from([0, -_TINY, Fraction(1, 3)]))
            pieces.append(Piece(lo, hi, a, b))
        elif kind == "logistic":  # x -> k x (1 - x) + b, into [0, 1) save x = 1/2 at k = 4
            k = draw(st.sampled_from([1, 2, 3, Fraction(7, 2), 4]))
            b = draw(st.sampled_from([0, Fraction(1, 8)])) if k <= 3 else 0
            pieces.append(Piece(lo, hi, k, b, -k))
        else:  # onto [u, v), or reversed onto (u, v]
            u, v = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
            a = (v - u) / (hi - lo) * draw(st.sampled_from([1, -1]))
            pieces.append(Piece(lo, hi, a, (u if a > 0 else v) - a * lo))
    return IntervalMap(tuple(pieces), name="drawn")


seeds = st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=6), st.floats())


class TestSamplerOracle:
    """The block-unpacked stream and the affine step against the first route (``sample_oracle``)."""

    @settings(max_examples=40, deadline=None)
    @given(seeds, st.one_of(st.sampled_from([0, 1, 4095, 4096, 4097, 8193]), st.integers(0, 200)))
    def test_stream_matches_bit_for_bit(self, seed, count):
        assert [x.hex() for x in unit_samples(seed, count)] == [x.hex() for x in oracle_unit_samples(seed, count)]

    # Orbits that repeat exactly in floats: a rotation by k/8 once the orbit is on
    # the grid of 2**-53, and x^2 - x + 3/4 once it reaches its superattracting 1/2.
    @settings(max_examples=100, deadline=None)
    @given(
        sampled_maps()
        | st.builds(lambda k: builtin("rotation", Fraction(k, 8)), st.integers(1, 7))
        | st.just(IntervalMap((Piece(0, 1, -1, Fraction(3, 4), 1),), name="superattracting")),
        st.lists(st.integers(1, 8), min_size=1, max_size=3),
        st.integers(1, 300),
        seeds,
    )
    def test_reports_match_per_length_runs(self, f, lengths, samples, seed):
        lengths = sorted(set(lengths))
        try:
            reports = analysis._sampled_reports(f, lengths, samples, seed)
        except SamplesDiscarded:
            # The longest length keeps the fewest orbits, so it is the one left empty.
            with pytest.raises(SamplesDiscarded):
                oracle_sampled(f, lengths[-1], samples, seed)
            return
        for n in lengths:
            ours, oracle = reports[n], oracle_sampled(f, n, samples, seed)
            assert ours.counts == oracle.counts
            assert ours.discards == oracle.discards
            assert dict(ours.distribution.mass) == dict(oracle.distribution.mass)

    def test_memory_stays_bounded(self):
        # Holding 100,000 floats in a list takes about 3.2 MB; the stream holds one block at a time.
        tracemalloc.start()
        try:
            for _ in unit_samples(3, 100_000):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestStatisticalInvariants:
    def test_exact_flow_residual_vanishes_for_preserving_maps(
        self, doubling, rotation_3_10, tent
    ):
        for f in (doubling, rotation_3_10, tent):
            for n in (2, 3, 4):
                assert flow_residual(exact_distribution(f, n).distribution) == 0

    def test_empirical_flow_residual_small_for_preserving_maps(self, doubling, tent, loop_132_321_213):
        samples, delta = 100_000, 1e-3
        bound = 4 * math.sqrt(math.log(1 / delta) / samples)
        pm = permutation_map(cyclic_lift(loop_132_321_213))
        for f in (doubling, tent, pm):
            mu = empirical_distribution(f, 3, samples, seed=23).distribution
            assert flow_residual(mu) <= bound

    def test_logistic_is_visibly_not_preserving(self):
        lg = builtin("logistic")
        mu = empirical_distribution(lg, 3, 100_000, seed=19).distribution
        assert flow_residual(mu) > 0.1

    def test_tower_compatibility_exact(self, doubling, rotation_3_10):
        for f in (doubling, rotation_3_10):
            mus = {n: exact_distribution(f, n).distribution for n in (2, 3, 4)}
            assert pushforward(mus[3], HEAD) == mus[2]
            assert pushforward(mus[4], HEAD) == mus[3]

    def test_realized_sets_refine(self, doubling, rotation_3_10):
        for f in (doubling, rotation_3_10):
            for n in (2, 3):
                upper = exact_distribution(f, n + 1).realized
                lower = exact_distribution(f, n).realized
                assert {restrict(s, HEAD) for s in upper} <= lower
                assert {restrict(s, TAIL) for s in upper} <= lower


def pattern_graph(f, n: int) -> Subgraph:
    """The subgraph of G_n whose edges are the realized (n+1)-patterns."""
    return Subgraph(n, realized_patterns(f, [n + 1], "exact")[n + 1])


class TestPatternGraph:
    def test_doubling_covers_everything(self, doubling, G2_full):
        assert pattern_graph(doubling, 2).edges == G2_full.edges

    def test_rotation(self, rotation_3_10):
        assert pattern_graph(rotation_3_10, 2).edges == {
            perm("123"),
            perm("231"),
            perm("312"),
        }

    def test_permutation_map(self, loop_132_321_213, driftless_triple):
        f = permutation_map(cyclic_lift(loop_132_321_213))
        assert pattern_graph(f, 2).edges == driftless_triple.edges


class TestPartiallyDriftless:
    def test_found_in_full_graph(self, doubling, G2_full):
        loop = reach_partially_driftless_in(pattern_graph(doubling, 2))
        assert loop is not None
        assert "0" in loop_drift(loop).diagonal()

    def test_absent_in_forced_cycle(self, two_cycle):
        assert reach_partially_driftless_in(two_cycle) is None

    def test_found_in_figure_support(self, figure_loop):
        H = Subgraph(3, frozenset(figure_loop.edges))
        loop = reach_partially_driftless_in(H)
        assert loop is not None
        assert "0" in loop_drift(loop).diagonal()


class TestEntropy:
    def test_doubling_small(self, doubling):
        rows = entropy_estimate(doubling, 3)
        assert rows[-1] == (3, 6, pytest.approx(math.log(6) / 2))

    def test_rotation_is_low_complexity(self, rotation_3_10):
        rows = entropy_estimate(rotation_3_10, 8)
        counts = {n: c for n, c, _ in rows}
        assert counts[3] == 3
        estimates = [est for n, _, est in rows if n >= 3]
        assert all(a >= b for a, b in zip(estimates, estimates[1:]))
        assert estimates[-1] < 0.4

    def test_cap(self, monkeypatch):
        # No cap of its own: the subdivision's entries bound the exact mode, orbit values the sampled one.
        rotation = builtin("rotation", exact(-1, 1))
        assert [(n, c) for n, c, _ in entropy_estimate(rotation, 40)] == [(n, n) for n in range(2, 41)]
        monkeypatch.setattr("orderflow.analysis.SUBDIVISION_MAX", 1000)
        with pytest.raises(CapExceeded, match=r"^exact subdivision of length 50 needs at least 1275 entries, cap 1000$"):
            entropy_estimate(rotation, 50)
        monkeypatch.setattr("orderflow.analysis.ORBIT_VALUES_MAX", 1000)
        with pytest.raises(CapExceeded, match=r"^sampling needs 30576 orbit values \(24 samples, lengths 2 to 50\), cap 1000$"):
            entropy_estimate(rotation, 50, "empirical", 24, 1)


class TestForbidden:
    def test_rotation(self, rotation_3_10):
        forbidden, basic = forbidden_patterns(rotation_3_10, 3)
        assert forbidden == {perm("132"), perm("213"), perm("321")}
        assert basic == forbidden

    def test_doubling_three_empty(self, doubling):
        forbidden, basic = forbidden_patterns(doubling, 3)
        assert forbidden == frozenset() and basic == frozenset()

    def test_doubling_four_all_basic(self, doubling):
        forbidden, basic = forbidden_patterns(doubling, 4)
        assert forbidden
        # No length-3 pattern is forbidden, so nothing is explained away.
        assert basic == forbidden

    def test_rotation_four_has_non_basic(self, rotation_3_10):
        forbidden, basic = forbidden_patterns(rotation_3_10, 4)
        assert basic < forbidden

    @pytest.mark.parametrize("mode", ["exact", "empirical"])
    def test_scan_cap_refuses_before_any_pass(self, doubling, monkeypatch, mode):
        # The scan lists S_n whole, so n! past the cap is refused before the map is subdivided or sampled.
        monkeypatch.setattr("orderflow.analysis.LIFT_LEVEL_MAX", 23)
        with mock.patch.object(analysis, "realized_patterns") as passes:
            with pytest.raises(CapExceeded, match=r"^forbidden-pattern scan of S_5 needs 120 patterns, cap 23$"):
                forbidden_patterns(doubling, 5, mode)
        assert not passes.called
        monkeypatch.setattr("orderflow.analysis.LIFT_LEVEL_MAX", 24)
        assert forbidden_patterns(doubling, 4, mode) == forbidden_patterns(doubling, 4)


class TestExclusion:
    def test_doubling(self, doubling):
        rows = exclusion_type_test(doubling, 2, 4)
        assert rows[0].m == 3 and rows[0].equal
        assert rows[1].m == 4 and not rows[1].equal
        assert rows[1].missing and not rows[1].extra

    def test_cap(self, doubling, monkeypatch):
        # Doubling realizes every pattern of length 3, so the count of S_m holds
        # m (m - 1) states: 90 at m = 10, under a cap of 100 but not of 89.
        monkeypatch.setattr("orderflow.paths.LIFT_LEVEL_MAX", 100)
        assert [r.m for r in exclusion_type_test(doubling, 2, 10)] == list(range(3, 11))
        monkeypatch.setattr("orderflow.paths.LIFT_LEVEL_MAX", 89)
        with pytest.raises(CapExceeded, match=r"^window count in S_10 reached 90 states, cap 89$"):
            exclusion_type_test(doubling, 2, 10)

    def test_equal_is_no_missing_and_no_extra(self, doubling, tent):
        # Doubling and tent are of exclusion type 2 at m = 3 only; neither adds patterns outside the lifts.
        for f in (doubling, tent):
            rows = exclusion_type_test(f, 2, 6)
            assert [r.equal for r in rows] == [True, False, False, False]
            assert all(r.equal is (not r.missing and not r.extra) and not r.extra for r in rows)
        assert ExclusionRow(4, 0, 0).equal
        assert not ExclusionRow(4, 1, 0).equal and not ExclusionRow(4, 0, 1).equal

    def test_permutation_map_matches_at_three(self, loop_132_321_213):
        f = permutation_map(cyclic_lift(loop_132_321_213))
        rows = exclusion_type_test(f, 2, 3)
        assert rows[0].equal


class TestGrowth:
    @pytest.mark.parametrize("name", ["doubling", "tent"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_lift_preimage_outgrows_entropy(self, name, n):
        # A map of entropy h realizes about e^(h m) patterns of S_m, while the
        # lift preimage A_m grows superexponentially: |A_(m+1)| / |A_m| rises
        # strictly and stays above e^(h_top) = 2 for both maps.
        counts = list(allowed_counts(pattern_graph(builtin(name), n).edges, n, 16))
        ratios = [Fraction(b, a) for a, b in zip(counts, counts[1:])]
        assert len(ratios) == 15 - n
        assert all(2 < r < s for r, s in zip(ratios, ratios[1:]))

    def test_three_loop(self, loop_132_321_213):
        rows = growth_check(loop_132_321_213, 2)
        assert [(k, fact) for k, _, fact in rows] == [(1, 1), (2, 2)]
        assert all(count >= fact for _, count, fact in rows)
        assert rows[0][1] == 4

    def test_counting_routes_agree_on_a_loop_power(self, loop_132_321_213):
        # Brute force, the transfer count and downset counting must agree where all apply.
        power = loop_132_321_213**2
        assert len(lifts(power)) == lift_count(power) == linear_extensions(build_poset(power), "count")

    def test_figure_loop(self, figure_loop):
        rows = growth_check(figure_loop, 1)
        assert rows[0][1] >= 1

    def test_requires_free_diagonal(self):
        with pytest.raises(ValueError):
            growth_check(path(2, ["123"]), 1)
