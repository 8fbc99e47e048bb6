import ast
import inspect
import itertools
import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import all_paths
from cyclic_oracle import oracle_cyclic_lift, oracle_ranking_realizes
from flow_oracle import interior_flow
from isometries import lattice_maps, unit_points
from orderflow.cantor import assemble_truncated_map, build_interval_tree, uniform_tower
from orderflow import digraph
from orderflow.digraph import PermDigraph, Subgraph, embedded_loops, subgraph
from orderflow.drift import (
    DRIFTLESS,
    TOTALLY_DRIFTLESS,
    classify_loop,
    subgraph_drifts,
    synthesize_totally_driftless_loop,
)
from orderflow.errors import (
    CapExceeded,
    CyclicObstruction,
    FormatError,
    InvariantViolation,
    NotRealizable,
    UnknownBuiltin,
)
from orderflow.exactnum import (
    Sqrt2, exact, exact_div, exact_str, from_lattice, lattice_scale, lattice_str, parse_exact, to_lattice,
)
from orderflow.flows import face_realizable, flow_residual, support_face
from orderflow.maps import (
    CyclicRanking,
    _euler_circuit,
    _flow_gap,
    _image_span,
    IntervalMap,
    Piece,
    block_sum,
    builtin,
    cyclic_lift,
    iterate,
    lattice_frame,
    map_from_json,
    map_to_json,
    parse_map_spec,
    permutation_map,
    preserves_measure,
    ranking_realizes,
    realize_flow,
)
from orderflow.paths import DiPath, path
from orderflow.perms import PatternDistribution, all_perms, perm


class TestExactNumbers:
    def test_collapse_to_fraction(self):
        assert exact(Fraction(1, 2)) == Fraction(1, 2)
        x = exact(0, 1)
        assert isinstance(x - x + Fraction(1, 3), Fraction)

    def test_field_ops(self):
        root2 = exact(0, 1)
        assert root2 * root2 == 2
        assert (1 / root2) * root2 == 1
        assert abs(exact(1, -1)) == exact(-1, 1)  # |1 - sqrt2| = sqrt2 - 1

    def test_ordering(self):
        delta = exact(-1, 1)  # sqrt2 - 1
        assert Fraction(2, 5) < delta < Fraction(1, 2)
        assert delta > 0
        assert sorted([Fraction(1, 2), delta, Fraction(0)]) == [Fraction(0), delta, Fraction(1, 2)]

    def test_text_round_trip(self):
        for value in (Fraction(3, 7), exact(Fraction(-1, 3), Fraction(2, 5)), exact(0, -2)):
            assert parse_exact(exact_str(value)) == value


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
# a + b*sqrt2; exact() returns a Fraction when b == 0, so both types are drawn.
quadratics = st.builds(exact, rationals, rationals)


def decimal_value(x) -> Decimal:
    """x to 60 significant digits: an oracle for the order that shares no code with Sqrt2."""
    a, b = (x.a, x.b) if isinstance(x, Sqrt2) else (Fraction(x), Fraction(0))
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(a.numerator) / a.denominator + Decimal(b.numerator) / b.denominator * Decimal(2).sqrt()


def oracle_sign(d: Decimal) -> int:
    # Two distinct values drawn from `quadratics` differ by more than 1e-17
    # (|a^2 - 2b^2| is at least 1/60^8), far above the oracle's rounding error.
    return 0 if abs(d) < Decimal("1e-30") else (1 if d > 0 else -1)


class TestExactNumberProperties:
    @settings(max_examples=100)
    @given(quadratics, quadratics, quadratics)
    def test_ring_laws(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
        assert x - x == 0 and x + (-x) == 0

    @settings(max_examples=100)
    @given(quadratics, quadratics)
    def test_inverses(self, x, y):
        if x != 0:
            assert x * (1 / x) == 1
            assert (y / x) * x == y

    @settings(max_examples=100)
    @given(quadratics, quadratics)
    def test_order_matches_decimal_oracle(self, x, y):
        expected = oracle_sign(decimal_value(x) - decimal_value(y))
        assert ((x > y) - (x < y)) == expected
        assert (x == y) == (expected == 0)
        assert (x <= y) == (expected <= 0) and (x >= y) == (expected >= 0)
        assert abs(x) >= 0 and (abs(x) == x) == (oracle_sign(decimal_value(x)) >= 0)

    @settings(max_examples=100)
    @given(quadratics)
    def test_text_round_trip(self, x):
        text = exact_str(x)
        back = parse_exact(text)
        assert back == x and type(back) is type(x)
        assert parse_exact(f" {text} ") == x


def lattice(a: int, b: int):
    """a + b*sqrt2 on the lattice: an int when b == 0."""
    return Sqrt2(a, b) if b else a


def on_lattice(x) -> bool:
    return type(x) is int or (type(x) is Sqrt2 and type(x.a) is type(x.b) is int)


lattice_pairs = st.tuples(st.integers(-60, 60), st.integers(-45, 45)) | st.tuples(
    st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30)
)
# Sqrt2 values with int parts or with Fraction parts, and the rationals they mix with.
irrationals = st.builds(Sqrt2, st.integers(-60, 60), st.integers(-45, 45).filter(bool)) | st.builds(
    exact, rationals, rationals.filter(bool)
)
rational_operands = st.integers(-50, 50) | rationals


class TestLatticeNumbers:
    """Sqrt2 with int parts against the field values exact() builds, which have Fraction parts."""

    @settings(max_examples=300)
    @given(lattice_pairs, lattice_pairs)
    def test_order_sum_and_difference(self, p, q):
        x, y, ex, ey = lattice(*p), lattice(*q), exact(*p), exact(*q)
        assert (x > 0) - (x < 0) == (ex > 0) - (ex < 0)
        assert (x < y, x <= y, x > y, x >= y, x == y) == (ex < ey, ex <= ey, ex > ey, ex >= ey, ex == ey)
        for got, want in (
            (x + y, ex + ey), (x - y, ex - ey), (3 * x - y * 2, 3 * ex - 2 * ey), (x * -1, -ex), (x * y, ex * ey)
        ):
            assert on_lattice(got) and type(got) is (int if isinstance(want, Fraction) else Sqrt2)
            assert got == want and hash(got) == hash(want)
            assert from_lattice(got, 1) == want
        assert (hash(x) == hash(y)) or x != y

    @settings(max_examples=200)
    @given(lattice_pairs, st.sampled_from([1, -1, 2, -2]))
    def test_exact_division(self, p, d):
        x = lattice(*p)
        if p[0] % d or p[1] % d:
            with pytest.raises(InvariantViolation, match="remainder"):
                exact_div(x, d)
        else:
            q = exact_div(x, d)
            assert on_lattice(q) and from_lattice(q, 1) == exact(*p) / d

    @settings(max_examples=300)
    @given(irrationals, irrationals | rational_operands)
    def test_division_is_the_field_quotient(self, s, r):
        for num, den in ((s, r), (r, s)):
            if den == 0:
                continue
            q = num / den
            assert type(q) is Fraction or (type(q) is Sqrt2 and type(q.a) is type(q.b) is Fraction)
            assert q == from_lattice(num, 1) / from_lattice(den, 1)
            assert q * den == num

    @settings(max_examples=400)
    @given(
        lattice_pairs,
        st.integers(1, 60) | st.integers(1, 10**12),
        st.sampled_from(["as drawn", "a multiple of the scale", "no rational part", "negative sqrt2 part"]),
    )
    @example((0, 0), 1, "as drawn")
    @example((3, -2), 6, "a multiple of the scale")
    @example((0, -4), 6, "as drawn")
    def test_text_read_off_the_lattice(self, p, scale, shape):
        a, b = p
        if shape == "a multiple of the scale":
            a, b = a * scale, b * scale
        elif shape == "no rational part":
            a, b = 0, b or 1
        elif shape == "negative sqrt2 part":
            b = -abs(b) or -1
        x = lattice(a, b)
        assert lattice_str(x, scale) == exact_str(from_lattice(x, scale))

    @settings(max_examples=200)
    @given(irrationals | rationals, st.integers(1, 60))
    def test_text_of_field_values(self, x, scale):
        # Values off the lattice take the Fraction route, with or without a scale.
        assert lattice_str(x, scale) == exact_str(from_lattice(x, scale))

    def test_mixed_signs_near_the_diagonal(self):
        # a^2 and 2 b^2 differ by one: 3 - 2 sqrt2 > 0, 7 - 5 sqrt2 < 0, 17 - 12 sqrt2 > 0.
        assert Sqrt2(3, -2) > 0 and Sqrt2(-3, 2) < 0
        assert Sqrt2(7, -5) < 0 and Sqrt2(-7, 5) > 0
        assert Sqrt2(17, -12) > 0 and Sqrt2(17, -12) < Sqrt2(7, -5) + 1

    def test_non_numbers_refused(self):
        for x in (Sqrt2(1, 1), exact(1, 1)):
            for other in ("1", None, 1j):
                for op in (
                    lambda: x + other, lambda: other + x, lambda: x - other, lambda: other - x,
                    lambda: x * other, lambda: other * x, lambda: x / other, lambda: other / x,
                    lambda: x < other, lambda: other <= x,
                ):
                    with pytest.raises(TypeError):
                        op()
                assert x != other


class TestBuiltins:
    def test_rotation(self):
        r = builtin("rotation", Fraction(3, 10))
        assert len(r.pieces) == 2
        assert r.measure_preserving

    def test_rotation_irrational(self):
        r = builtin("rotation", exact(-1, 1))
        assert r.measure_preserving

    def test_rotation_bad_offset(self):
        with pytest.raises(ValueError):
            builtin("rotation", Fraction(3, 2))
        with pytest.raises(ValueError):
            builtin("rotation")

    def test_doubling_and_tent(self, doubling, tent):
        assert len(doubling.pieces) == 2 and doubling.measure_preserving
        assert tent.measure_preserving
        assert preserves_measure(doubling.pieces) is True
        assert preserves_measure(tent.pieces) is True

    def test_measure_preserving_is_worked_out_when_read(self, doubling, tent):
        f = builtin("rotation", Fraction(1, 3))
        assert "measure_preserving" not in vars(f)
        assert f.measure_preserving and "measure_preserving" in vars(f)
        assert block_sum(doubling, tent, Fraction(1, 3)).measure_preserving
        assert not block_sum(doubling, builtin("logistic"), Fraction(1, 3)).measure_preserving
        squash = IntervalMap((Piece(Fraction(0), Fraction(1), Fraction(1, 2), Fraction(0)),))
        assert not block_sum(doubling, squash, Fraction(1, 2)).measure_preserving

    def test_logistic(self):
        lg = builtin("logistic")
        assert not lg.measure_preserving
        assert preserves_measure(lg.pieces) is None
        with pytest.raises(ValueError):
            builtin("logistic", 3)

    def test_unknown(self):
        with pytest.raises(UnknownBuiltin):
            builtin("circle")

    def test_parse_spec(self):
        assert parse_map_spec("rotation:3/10").name == "rotation(3/10)"
        assert parse_map_spec("doubling").name == "doubling"

    def test_broken_partition_rejected(self):
        with pytest.raises(ValueError):
            IntervalMap((Piece(Fraction(0), Fraction(1, 2), Fraction(1), Fraction(0)),))

    def test_non_preserving_detected(self):
        squash = IntervalMap(
            (
                Piece(Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0)),
                Piece(Fraction(1, 2), Fraction(1), Fraction(1, 2), Fraction(1, 4)),
            )
        )
        assert preserves_measure(squash.pieces) is False


def _density_by_cells(pieces):
    """Reference for preserves_measure: sum the covering spans on every image cell."""
    if any(not p.affine for p in pieces):
        return None
    spans = []
    for p in pieces:
        if p.a == 0:
            return False
        ylo, yhi = sorted((p(p.lo), p(p.hi)))
        if ylo < 0 or yhi > 1:
            return False
        spans.append((ylo, yhi, 1 / abs(p.a)))
    cuts = sorted({c for span in spans for c in span[:2]} | {Fraction(0), Fraction(1)})
    for c1, c2 in zip(cuts, cuts[1:]):
        if sum((w for ylo, yhi, w in spans if ylo <= c1 and c2 <= yhi), Fraction(0)) != 1:
            return False
    return True


def _with_piece(pieces, i, **changes):
    p = pieces[i]
    fields = {"lo": p.lo, "hi": p.hi, "a": p.a, "b": p.b, **changes}
    return pieces[:i] + (Piece(**fields),) + pieces[i + 1 :]


class TestPreservesMeasure:
    def test_sweep_matches_cell_sums(self):
        rng = random.Random("preserves-measure")
        half = Fraction(1, 2)
        cases = [
            builtin("doubling").pieces,
            builtin("tent").pieces,
            builtin("rotation", exact(-1, 1)).pieces,
            # x/2 on [0, 1): density 2 on [0, 1/2) and a gap on [1/2, 1).
            (Piece(Fraction(0), Fraction(1), half, Fraction(0)),),
        ]
        for _ in range(40):
            ell = rng.randint(1, 12)
            rank = list(range(1, ell + 1))
            rng.shuffle(rank)
            pieces = permutation_map(CyclicRanking(tuple(rank))).pieces
            i = rng.randrange(len(pieces))
            nudge = Fraction(1, 4 * ell)
            cases += [
                pieces,
                _with_piece(pieces, i, b=pieces[i].b + nudge),  # overlap, gap or escape
                _with_piece(pieces, i, a=Fraction(0), b=pieces[i].b + pieces[i].lo),  # zero slope
                _with_piece(pieces, i, b=pieces[i].b + 1),  # image above 1
                _with_piece(pieces, i, b=pieces[i].b - 1),  # image below 0
            ]
        verdicts = [preserves_measure(ps) for ps in cases]
        assert verdicts == [_density_by_cells(ps) for ps in cases]
        assert verdicts[:4] == [True, True, True, False]
        assert verdicts[4::5] == [True] * 40
        assert not any(v for i, v in enumerate(verdicts[4:]) if i % 5)


    def test_a_contracting_piece_decides_alone(self):
        # Weight 1/|slope| > 1 puts the density above 1 on that piece's image, so
        # the sweep stops at the first such piece, before its image span.
        half = Fraction(1, 2)
        f = IntervalMap((Piece(Fraction(0), half, half, Fraction(0)), Piece(half, Fraction(1), Fraction(3, 2), -half)))
        cantor = assemble_truncated_map(build_interval_tree(uniform_tower(3)), 8)
        for g in (f, cantor):
            first = next(i for i, p in enumerate(g.pieces) if abs(p.a) < 1)
            with mock.patch("orderflow.maps._image_span", wraps=_image_span) as spans:
                assert g.measure_preserving is False
            assert spans.call_count == first
        assert _density_by_cells(f.pieces) is False


def _generic_preserves(pieces):
    with mock.patch("orderflow.maps.lattice_frame", lambda pieces: (1, pieces)):
        return preserves_measure(pieces)


class TestPreservesMeasureOnLattice:
    @settings(max_examples=80, deadline=None)
    @given(lattice_maps, st.data())
    def test_same_verdict_as_generic(self, f, data):
        pieces = f.pieces
        assert lattice_frame(pieces)[0] > 1
        assert preserves_measure(pieces) is _generic_preserves(pieces) is _density_by_cells(pieces) is True
        i = data.draw(st.integers(0, len(pieces) - 1))
        nudged = _with_piece(pieces, i, b=pieces[i].b + data.draw(unit_points()) - data.draw(unit_points()))
        assert preserves_measure(nudged) is _generic_preserves(nudged) is _density_by_cells(nudged)


class TestIterate:
    def test_doubling_orbit(self, doubling):
        orbit = iterate(doubling, Fraction(1, 5), 4)
        assert orbit == [
            Fraction(1, 5),
            Fraction(2, 5),
            Fraction(4, 5),
            Fraction(3, 5),
            Fraction(1, 5),
        ]

    def test_domain_check(self, doubling):
        with pytest.raises(ValueError):
            doubling(Fraction(3, 2))

    def test_piece_bookkeeping_through_rotation(self):
        ranking = CyclicRanking((1, 3, 2))
        f = permutation_map(ranking)
        x = Fraction(1, 7)  # inside the rank-1 piece [0, 1/3)
        orbit = iterate(f, x, 3)
        pieces = [f.piece_index(v) for v in orbit]
        # Piece order 1 -> 3 -> 2 -> 1 in piece-index terms (0-based bands).
        bands = [int(float(v) * 3) for v in orbit]
        assert bands == [0, 2, 1, 0]
        assert isinstance(orbit[-1], (Fraction, Sqrt2))


class TestBlockSum:
    def test_same_map_is_idempotent_in_distribution(self, rotation_3_10):
        from orderflow.analysis import exact_distribution

        combined = block_sum(rotation_3_10, rotation_3_10, Fraction(1, 2))
        for n in (2, 3):
            assert exact_distribution(combined, n).distribution == (
                exact_distribution(rotation_3_10, n).distribution
            )

    def test_boundary_weight_rejected(self, doubling, tent):
        with pytest.raises(ValueError):
            block_sum(doubling, tent, 0)
        with pytest.raises(ValueError):
            block_sum(doubling, tent, 1)

    def test_convex_combination_exact(self, doubling, tent):
        from orderflow.analysis import exact_distribution

        t = Fraction(1, 3)
        combined = block_sum(doubling, tent, t)
        mu = exact_distribution(combined, 3).distribution
        a = exact_distribution(doubling, 3).distribution
        b = exact_distribution(tent, 3).distribution
        for s in all_perms(3):
            assert mu(s) == t * a(s) + (1 - t) * b(s)


class TestCyclicLift:
    def test_three_loop(self, loop_132_321_213):
        ranking = cyclic_lift(loop_132_321_213)
        assert ranking.rank == (1, 3, 2)
        assert ranking_realizes(ranking, loop_132_321_213)

    def test_drifting_loops_obstructed(self):
        with pytest.raises(CyclicObstruction):
            cyclic_lift(path(2, ["123"]))
        with pytest.raises(CyclicObstruction):
            cyclic_lift(path(2, ["132", "213"]))

    def test_nine_edge_loop(self, nine_edge_loop):
        ranking = cyclic_lift(nine_edge_loop)
        assert ranking_realizes(ranking, nine_edge_loop)

    def test_cap(self, loop_132_321_213, monkeypatch):
        monkeypatch.setattr("orderflow.maps.CYCLIC_LIFT_MAX", 2)
        with pytest.raises(CapExceeded):
            cyclic_lift(loop_132_321_213)

    def test_ranking_is_checked(self, nine_edge_loop):
        # The sorted ranking is checked against every window before it is returned.
        with mock.patch("orderflow.maps.ranking_realizes", return_value=False) as check:
            with pytest.raises(InvariantViolation, match="does not reproduce the loop's windows"):
                cyclic_lift(nine_edge_loop)
        check.assert_called_once()


def _outcome(fn, *args):
    """The value, or the domain error's type and text."""
    try:
        return fn(*args)
    except (CyclicObstruction, CapExceeded, InvariantViolation) as exc:
        return type(exc), str(exc)


def _lift_cases() -> list[DiPath]:
    """Loops of G_2 up to length 6 and embedded loops of G_3, with loops synthesized from the driftless ones.

    Each driftless loop's edge set, and the union of two driftless G_3 loops
    that does not drift, gets a synthesized totally driftless loop; a loop
    followed by the loop synthesized on its edges, the shape ``realize_flow``
    ranks, is added too.
    """
    loops = [p for length in range(1, 7) for p in all_paths(2, length) if p.is_loop]
    loops += [DiPath(3, es) for es in embedded_loops(PermDigraph(3).full_subgraph())]
    driftless = [g for g in loops if classify_loop(g) in (DRIFTLESS, TOTALLY_DRIFTLESS)]
    synthesized = [synthesize_totally_driftless_loop(Subgraph(g.n, frozenset(g.edges))) for g in driftless]
    g3_driftless = [g for g in driftless if g.n == 3]
    for i, a in enumerate(g3_driftless):
        for b in g3_driftless[i + 1 :]:
            H = Subgraph(3, frozenset(a.edges) | frozenset(b.edges))
            if set(a.vertices()) & set(b.vertices()) and not subgraph_drifts(H).drifts:
                synthesized.append(synthesize_totally_driftless_loop(H))
    repeated = []
    for g, d in zip(driftless, synthesized):
        k = g.vertices().index(d.first_vertex)  # synthesis starts at the least vertex
        repeated.append(DiPath(g.n, (g.edges[k:] + g.edges[:k]) * 3 + d.edges))
    return loops + synthesized + repeated


class TestOnePassRanking:
    """cyclic_lift and ranking_realizes against the all-pairs build and the order-pattern check."""

    @pytest.fixture(scope="class")
    def cases(self):
        return _lift_cases()

    def test_same_ranking_as_all_pairs(self, cases):
        outcomes = [(_outcome(cyclic_lift, g), _outcome(oracle_cyclic_lift, g)) for g in cases]
        assert all(mine == oracle for mine, oracle in outcomes)
        rankings = [mine for mine, _ in outcomes if isinstance(mine, CyclicRanking)]
        assert len(rankings) > 600 and max(r.length for r in rankings) > 40
        assert {mine[0] for mine, _ in outcomes if isinstance(mine, tuple)} == {CyclicObstruction}

    def test_realizes_agrees_with_order_patterns(self, cases):
        rng = random.Random(43)
        verdicts = []
        for g in cases:
            r = _outcome(cyclic_lift, g)
            if not isinstance(r, CyclicRanking):
                continue
            rank = list(r.rank)
            i, j = rng.sample(range(len(rank)), 2) if len(rank) > 1 else (0, 0)
            rank[i], rank[j] = rank[j], rank[i]
            shuffled = rng.sample(r.rank, len(r.rank))
            longer = CyclicRanking(r.rank + (r.length + 1,))
            swapped, shuffled = CyclicRanking(tuple(rank)), CyclicRanking(tuple(shuffled))
            for candidate in (r, swapped, shuffled, longer):
                verdict = ranking_realizes(candidate, g)
                assert verdict == oracle_ranking_realizes(candidate, g)
                verdicts.append(verdict)
        assert verdicts.count(True) > 600 and verdicts.count(False) > 1200

    @pytest.mark.parametrize(
        "n, edges", [(2, ["123"]), (2, ["321"]), (2, ["231", "312"]), (3, ["1234"]), (3, ["2341", "3412", "4123"])]
    )
    def test_loops_shorter_than_a_window(self, n, edges):
        # Every window of a loop no longer than n repeats a rank, whatever the ranking.
        g = path(n, edges)
        for rank in itertools.permutations(range(1, len(edges) + 1)):
            assert ranking_realizes(CyclicRanking(rank), g) is oracle_ranking_realizes(CyclicRanking(rank), g) is False

    def test_drift_refused_before_a_lower_cap(self, cases, monkeypatch):
        # Over a cap of 4 edges a drifting loop is still refused by its drift class, a driftless one by the cap.
        monkeypatch.setattr("orderflow.maps.CYCLIC_LIFT_MAX", 4)
        monkeypatch.setattr("cyclic_oracle.CYCLIC_LIFT_MAX", 4)
        long = [g for g in cases if g.length > 4]
        outcomes = [(_outcome(cyclic_lift, g), _outcome(oracle_cyclic_lift, g)) for g in long]
        assert all(mine == oracle for mine, oracle in outcomes)
        classes = [classify_loop(g) for g in long]
        drifting = [cls not in (DRIFTLESS, TOTALLY_DRIFTLESS) for cls in classes]
        assert sum(drifting) > 20 and len(drifting) - sum(drifting) > 20
        for g, cls, drifts, (mine, _) in zip(long, classes, drifting, outcomes):
            if drifts:
                assert mine == (CyclicObstruction, f"loop classifies as {cls}; it cannot close up cyclically")
            else:
                assert mine == (CapExceeded, f"loop length {g.length} exceeds cyclic ranking cap 4")

    def test_short_and_cyclic_refusals_name_the_drift_first(self, cases):
        # A loop shorter than its window, or one whose windows close a cycle, reports its drift class if it drifts.
        # Every short loop drifts (x_0 and x_l share the first window), so its fallback error never shows.
        seen = {"short drifts": 0, "chain drifts": 0, "chain driftless": 0}
        for g in cases:
            cls = classify_loop(g)
            mine = _outcome(cyclic_lift, g)
            assert mine == _outcome(oracle_cyclic_lift, g)
            drifts = cls not in (DRIFTLESS, TOTALLY_DRIFTLESS)
            if drifts:
                assert mine == (CyclicObstruction, f"loop classifies as {cls}; it cannot close up cyclically")
            short = g.length < g.n + 1
            assert drifts or not short
            seen[("short " if short else "chain ") + ("drifts" if drifts else "driftless")] += 1
        assert min(seen.values()) > 40

    def test_a_short_loop_that_did_not_drift_breaks_an_invariant(self, cases, monkeypatch):
        # The fallback after the drift class: were a short loop driftless, the proof that it drifts would be wrong.
        short = [g for g in cases if g.length < g.n + 1]
        monkeypatch.setattr("orderflow.maps.classify_loop", lambda g: DRIFTLESS)
        monkeypatch.setattr("cyclic_oracle.classify_loop", lambda g: DRIFTLESS)
        for g in short:
            text = f"a loop of length {g.length} shorter than its window must drift"
            assert _outcome(cyclic_lift, g) == _outcome(oracle_cyclic_lift, g) == (InvariantViolation, text)
        assert len(short) > 40

    def test_lifted_loops_are_not_classified(self, cases, monkeypatch):
        # A ranking that realizes every window proves the loop driftless, so a lift that succeeds never classifies.
        lifted = [g for g in cases if isinstance(_outcome(cyclic_lift, g), CyclicRanking)]
        assert all(classify_loop(g) in (DRIFTLESS, TOTALLY_DRIFTLESS) for g in lifted)
        calls = []
        monkeypatch.setattr("orderflow.maps.classify_loop", lambda g: calls.append(g) or DRIFTLESS)
        assert all(cyclic_lift(g) == oracle_cyclic_lift(g) for g in lifted)
        assert calls == []


class TestPermutationMap:
    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 7, 16, 17, 64, 129, 200, 257])
    def test_frame_is_the_lattice_frame(self, ell):
        rng = random.Random(ell)
        for _ in range(3):
            r = CyclicRanking(tuple(rng.sample(range(1, ell + 1), ell)))
            f = permutation_map(r)
            assert f.frame == lattice_frame(f.pieces)
            scale, pieces = f.frame
            assert scale == 2 * ell
            assert all(on_lattice(v) for p in pieces for v in (p.lo, p.hi, p.a, p.b))
            # The Q(sqrt2) pieces hold Fractions, and Sqrt2s with Fraction parts, as when they were built directly.
            values = [v for p in f.pieces for v in (p.lo, p.hi, p.a, p.b)]
            assert all(type(v) is Fraction or type(v) is Sqrt2 and type(v.a) is type(v.b) is Fraction for v in values)

    def test_counting_measure(self, loop_132_321_213):
        f = permutation_map(cyclic_lift(loop_132_321_213))
        from orderflow.analysis import exact_distribution

        mu3 = exact_distribution(f, 3).distribution
        third = Fraction(1, 3)
        assert dict(mu3.mass) == {perm("132"): third, perm("321"): third, perm("213"): third}
        assert flow_residual(mu3) == 0
        mu2 = exact_distribution(f, 2).distribution
        from orderflow.perms import HEAD, pushforward

        assert pushforward(mu3, HEAD) == mu2

    def test_flags_and_tail(self, loop_132_321_213):
        # The last transition is split in two by the irrational rotation.
        f = permutation_map(cyclic_lift(loop_132_321_213))
        assert "measure_preserving" in vars(f)  # its own check already ran the sweep
        assert f.measure_preserving
        assert len(f.pieces) == 4
        assert sum(isinstance(p.b, Sqrt2) for p in f.pieces) == 2

    def test_q_sqrt2_pieces_derived_only_when_read(self, loop_132_321_213):
        from orderflow.analysis import exact_distribution

        f = permutation_map(cyclic_lift(loop_132_321_213))
        exact_distribution(f, 3)
        map_to_json(f)
        assert "pieces" not in vars(f)
        assert len(f.pieces) == 4 and "pieces" in vars(f)
        # A single-component realization is that map itself, checked and written in its frame.
        g = realize_flow(PatternDistribution.uniform(3), 0.05)
        map_to_json(g)
        assert "pieces" not in vars(g)

    @pytest.mark.parametrize(
        "frame, error",
        [
            ((Piece(0, 2, 1, 4), Piece(3, 6, 1, -3)), "gap or overlap at 1/3 != 1/2"),
            ((Piece(0, 4, 1, 2), Piece(3, 6, 1, -3)), "gap or overlap at 2/3 != 1/2"),
            ((Piece(2, 6, 1, -2), Piece(0, 2, 1, 4), Piece(Sqrt2(6, -2), 6, 1, -4)), r"gap or overlap at 1 != Sqrt2"),
            ((Piece(0, 2, 1, 4), Piece(2, 5, 1, -2)), "pieces must cover"),
            ((Piece(1, 6, 1, -1),), "pieces must cover"),
            ((), "at least one piece"),
        ],
    )
    def test_frame_tiling_checked(self, frame, error):
        # Frames of scale 6: the tiling check runs on the lattice values and refuses as the Q(sqrt2) check does.
        with pytest.raises(ValueError, match=error):
            IntervalMap.from_frame(6, frame)

    def test_frame_pieces_must_be_nonempty(self):
        with pytest.raises(ValueError, match="is empty"):
            IntervalMap.from_frame(6, (Piece(0, 6, 1, 0), Piece(6, 6, 1, 0)))

    def test_only_the_lattice_frame(self):
        # One map, one frame: the scale-1 frame of a permutation map, or its frame at twice the scale, is refused.
        f = permutation_map(CyclicRanking((1, 3, 2)))
        assert IntervalMap.from_frame(*f.frame, f.name) == f
        with pytest.raises(ValueError, match="frame scale 1 is not the lattice scale"):
            IntervalMap.from_frame(1, f.pieces, f.name)
        doubled = [Piece(2 * p.lo, 2 * p.hi, p.a, 2 * p.b) for p in f.frame[1]]
        with pytest.raises(ValueError, match="frame scale 12 is not the lattice scale"):
            IntervalMap.from_frame(12, doubled)
        with pytest.raises(ValueError, match="frame scale 2 of a map that is not a piecewise isometry must be 1"):
            IntervalMap.from_frame(2, (Piece(0, 1, 2, 0), Piece(1, 2, 2, -2)))
        doubling = builtin("doubling")
        assert IntervalMap.from_frame(*doubling.frame, doubling.name) == doubling

    def test_held_only_as_its_frame(self, loop_132_321_213):
        # The Q(sqrt2) pieces are a cached view of the frame, not a second stored form:
        # a map stores its frame and name alone, and equality and hashing read only those.
        f = permutation_map(cyclic_lift(loop_132_321_213))
        g = IntervalMap.from_frame(*f.frame, f.name)
        assert set(vars(g)) == {"frame", "name"}
        assert f.pieces and f.measure_preserving
        assert set(vars(f)) == {"frame", "name", "pieces", "measure_preserving"}
        assert f == g and hash(f) == hash(g) == hash((f.frame, f.name))
        assert f != IntervalMap.from_frame(*f.frame, f.name + "'")
        cls = ast.parse(inspect.getsource(IntervalMap)).body[0]
        defined = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
        assert defined.isdisjoint({"__setattr__", "__eq__", "__hash__", "__repr__", "frame"})

    def test_frame_built_map_equals_piece_built(self, loop_132_321_213):
        f = permutation_map(cyclic_lift(loop_132_321_213))
        g = IntervalMap(f.pieces, name=f.name)
        assert f == g and hash(f) == hash(g) and f.frame == g.frame
        with pytest.raises(AttributeError):
            f.name = "renamed"

    def test_measure_check_raises(self):
        # The map checks its own measure preservation, through the property, with the sweep run once.
        calls = []
        with mock.patch("orderflow.maps._density_is_one", lambda one, pieces: calls.append(one) or False):
            with pytest.raises(InvariantViolation, match="permutation map of 3 pieces does not preserve measure"):
                permutation_map(CyclicRanking((1, 3, 2)))
        assert calls == [6]


class TestRealizeFlow:
    def test_uniform(self):
        target = PatternDistribution.uniform(3)
        f = realize_flow(target, 0.05)
        from orderflow.analysis import exact_distribution

        mu = exact_distribution(f, 3).distribution
        gap = max(abs(mu(s) - target(s)) for s in all_perms(3))
        assert gap <= Fraction(1, 20)
        assert f.measure_preserving

    def test_flow_is_validated_once(self, monkeypatch):
        from orderflow import flows

        calls = []
        residual = flows.flow_residual
        monkeypatch.setattr(flows, "flow_residual", lambda mu: calls.append(mu) or residual(mu))
        realize_flow(PatternDistribution.uniform(3), 0.05)
        assert len(calls) == 1

    def test_components_found_once(self):
        # Two driftless components on disjoint vertex triples of G_3, glued by one block sum.
        mu = interior_flow(subgraph(3, ["1234", "2341", "3412", "4123", "1324", "2431", "3142", "4213"]))
        scc = digraph.strongly_connected_components
        with mock.patch.object(digraph, "strongly_connected_components", wraps=scc) as counted:
            f = realize_flow(mu, 0.05)
        assert counted.call_count == 1
        assert f.name.startswith("block_sum(permutation_map(")

    def test_vertices_not_realizable(self):
        with pytest.raises(NotRealizable):
            realize_flow(PatternDistribution.point_mass(perm("123")), 0.05)

    def test_drifting_two_component_flow(self):
        mu = PatternDistribution(
            3, {perm("123"): Fraction(1, 2), perm("321"): Fraction(1, 2)}
        )
        with pytest.raises(NotRealizable):
            realize_flow(mu, 0.05)

    def test_unreachable_tolerance_refused(self):
        with pytest.raises(CapExceeded, match=r"reaching tolerance 1e-06 needs a loop of 666668 edges, cap 4096$"):
            realize_flow(PatternDistribution.uniform(3), 1e-6)

    @pytest.mark.parametrize(
        "lam, edges",
        [(Fraction(123457, 10**6), 6000008), (Fraction(62831853, 2 * 10**8), 1200000008)],
    )
    def test_cap_checked_before_the_euler_walk(self, lam, edges, monkeypatch):
        # lam * uniform + (1 - lam) * the loop 132 321 213: denominators of 10^6 and more are refused
        # from the multiplicities alone, before the walk would list millions of edges.
        monkeypatch.setattr("orderflow.maps._euler_circuit", mock.Mock(side_effect=RuntimeError("the walk ran")))
        with pytest.raises(CapExceeded, match=rf"^reaching tolerance 0.05 needs a loop of {edges} edges, cap 4096$"):
            realize_flow(_uniform_and_triple(lam), 0.05)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 10**6), min_size=5, max_size=5),
        st.sampled_from([0.05, 0.01, 1e-3, 2.5, Fraction(1, 3), Fraction(2, 7)]),
    )
    @example([6, 4, 2, 8, 10], 0.05)  # a common factor in the weights
    def test_loop_length_is_the_fraction_formula(self, weights, tol):
        # Five loops of G_2 with random weights cover all of G_2, one driftless component.  With the cap
        # at 0 the loop length the ints give is reported; it must be the one worked out in Fractions.
        loops = [["132", "321", "213"], ["123"], ["321"], ["231", "312"], ["132", "213"]]
        count = {}
        for w, loop in zip(weights, loops):
            for e in loop:
                count[perm(e)] = count.get(perm(e), 0) + w
        mu = PatternDistribution(3, {e: Fraction(c, sum(count.values())) for e, c in count.items()})
        delta = synthesize_totally_driftless_loop(Subgraph(2, frozenset(mu.mass)))
        denom = math.lcm(*(x.denominator for x in mu.mass.values()))
        m = {e: int(x * denom) for e, x in mu.mass.items()}
        T, D = sum(m.values()), delta.length
        C = max(abs(delta.edges.count(e) * T - m[e] * D) for e in m)
        reps = max(1, math.ceil((C / (T * Fraction(tol)) - D) / T))
        with mock.patch("orderflow.maps.CYCLIC_LIFT_MAX", 0):
            with pytest.raises(CapExceeded) as refused:
                realize_flow(mu, tol)
        assert str(refused.value) == f"reaching tolerance {tol} needs a loop of {reps * T + D} edges, cap 0"

    @pytest.mark.parametrize("tol", [0, -0.1, float("nan"), float("inf")])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError):
            realize_flow(PatternDistribution.uniform(3), tol)

    def test_realization_is_checked_exactly(self, doubling):
        # The self-check reads the realized map's exact masses on its lattice; doubling's miss uniform(3) by 1/12.
        from orderflow import analysis

        masses = analysis.lattice_masses
        with mock.patch.object(analysis, "lattice_masses", lambda f, n: masses(doubling, n)):
            with pytest.raises(InvariantViolation, match="realization missed tolerance"):
                realize_flow(PatternDistribution.uniform(3), 0.05)

    def test_euler_walk_checks_it_used_every_edge(self):
        # 321 is a self-loop at 21, unreachable from the base vertex 12.
        with pytest.raises(InvariantViolation):
            _euler_circuit(subgraph(2, ["123", "321"]), {perm("123"): 1, perm("321"): 1})

    def test_interior_of_an_edge_face(self, driftless_triple):
        mu = interior_flow(driftless_triple)
        f = realize_flow(mu, Fraction(1, 50))
        from orderflow.analysis import exact_distribution

        got = exact_distribution(f, 3).distribution
        gap = max(abs(got(s) - mu(s)) for s in all_perms(3))
        assert gap <= Fraction(1, 50)
        assert got.support() == mu.support()


EMBEDDED_LOOPS = {n: embedded_loops(PermDigraph(n).full_subgraph()) for n in (2, 3)}


@st.composite
def realizable_flows(draw):
    """Flows on faces of G_2 and G_3: positive mixes of one to three embedded loops whose support does not drift."""
    n = draw(st.sampled_from([2, 3]))
    counts = {}
    for loop in draw(st.lists(st.sampled_from(EMBEDDED_LOOPS[n]), min_size=1, max_size=3, unique=True)):
        w = draw(st.integers(1, 3))
        for e in loop:
            counts[e] = counts.get(e, 0) + w
    total = sum(counts.values())
    mu = PatternDistribution(n + 1, {e: Fraction(c, total) for e, c in counts.items()})
    assume(face_realizable(support_face(mu)))
    return mu


TOLERANCES = [Fraction(1, 50), Fraction(1, 20), Fraction(1, 5)]


def _field_gap(f: IntervalMap, mu: PatternDistribution):
    """The second route: the sup gap in Q(sqrt2) between f's exact distribution and mu."""
    from orderflow.analysis import exact_distribution

    achieved = exact_distribution(f, mu.n).distribution
    return max(abs(achieved(s) - mu(s)) for s in set(achieved.mass) | set(mu.mass))


def _lattice_gap(masses, mu: PatternDistribution):
    """The gap ``_flow_gap`` reads off lattice masses and mu's integer weights, back in Q(sqrt2)."""
    scale = lattice_scale(mu.mass.values())
    return from_lattice(*_flow_gap(*masses, {e: to_lattice(m, scale) for e, m in mu.mass.items()}, scale))


class TestLatticeSelfCheck:
    """realize checks its map in lattice ints; the gap in Q(sqrt2), from the exact distribution, is the second route."""

    @settings(max_examples=40, deadline=None)
    @given(realizable_flows(), st.sampled_from(TOLERANCES), st.sampled_from(TOLERANCES))
    def test_verdict_and_gap_match_the_field_route(self, mu, built_at, tol):
        from orderflow import analysis

        f = realize_flow(mu, built_at)
        gap = _field_gap(f, mu)
        masses = analysis.lattice_masses(f, mu.n)
        assert gap <= built_at and _lattice_gap(masses, mu) == gap
        # The map built at one tolerance, checked against another.
        with mock.patch.object(analysis, "lattice_masses", lambda g, n: masses):
            if gap > tol:
                with pytest.raises(InvariantViolation) as missed:
                    realize_flow(mu, tol)
                assert str(missed.value) == f"realization missed tolerance: {float(gap)} > {tol}"
            else:
                assert realize_flow(mu, tol).frame[0] > 1

    @pytest.mark.parametrize(
        "mu",
        [PatternDistribution.uniform(n) for n in (2, 3, 4)]
        + [PatternDistribution(3, {perm(e): Fraction(1, 3) for e in ("132", "321", "213")})],
    )
    def test_irrational_masses(self, mu):
        # The rotation by sqrt2 - 1 has Sqrt2 masses, so its gap to these flows is irrational too;
        # it realizes none of the loop 132 321 213, so there every mass is off the flow's support.
        from orderflow.analysis import lattice_masses

        f = builtin("rotation", exact(-1, 1))
        gap = _field_gap(f, mu)
        assert type(gap) is Sqrt2 and _lattice_gap(lattice_masses(f, mu.n), mu) == gap


def _uniform_and_triple(lam: Fraction) -> PatternDistribution:
    """lam * uniform(3) + (1 - lam) * the counting measure of the loop 132 321 213."""
    loop = {perm("132"), perm("321"), perm("213")}
    return PatternDistribution(3, {s: lam / 6 + ((1 - lam) / 3 if s in loop else 0) for s in all_perms(3)})


def _piece_text(f: IntervalMap) -> str:
    """Map JSON written from the Q(sqrt2) pieces: the second route for the frame writer."""
    pieces = []
    for p in f.pieces:
        rec = {"lo": exact_str(p.lo), "hi": exact_str(p.hi), "a": exact_str(p.a), "b": exact_str(p.b)}
        if p.c != 0:
            rec["c"] = exact_str(p.c)
        pieces.append(rec)
    return json.dumps({"name": f.name, "measure_preserving": f.measure_preserving, "pieces": pieces}, sort_keys=True)


class TestSerialization:
    @settings(max_examples=100)
    @given(lattice_maps)
    def test_frame_text_is_the_piece_text(self, f):
        assert lattice_frame(f.pieces)[0] > 1
        text = map_to_json(f)
        assert text == _piece_text(f)
        assert map_from_json(text) == f

    @settings(max_examples=60)
    @given(st.integers(1, 257).flatmap(lambda ell: st.permutations(range(1, ell + 1))))
    def test_permutation_map_text_is_the_piece_text(self, rank):
        f = permutation_map(CyclicRanking(tuple(rank)))
        text = map_to_json(f)
        assert "pieces" not in vars(f)
        assert text == _piece_text(f)
        assert map_from_json(text) == f

    def test_other_maps_text_is_the_piece_text(self, doubling, tent):
        cantor = assemble_truncated_map(build_interval_tree(uniform_tower(3)), 8)
        for f in (doubling, tent, builtin("logistic"), block_sum(doubling, tent, Fraction(1, 3)), cantor):
            assert map_to_json(f) == _piece_text(f)
            assert map_from_json(map_to_json(f)) == f

    def test_round_trip_rational(self, doubling):
        again = map_from_json(map_to_json(doubling))
        assert again.pieces == doubling.pieces

    def test_round_trip_with_tail(self, loop_132_321_213):
        # Earlier map files mark the rotated transition with a "tail" key; it is read past, not written.
        f = permutation_map(cyclic_lift(loop_132_321_213))
        payload = json.loads(map_to_json(f))
        assert "tail" not in payload and map_from_json(json.dumps(payload)) == f
        for tail in ({"piece": 3}, {"piece": None}, {"piece": 99}, 0):
            payload["tail"] = tail
            assert map_from_json(json.dumps(payload)) == f

    def test_flag_key_ignored(self, doubling):
        # Earlier map files carry an "almost_aperiodic" flag; it is read past, not written.
        payload = json.loads(map_to_json(doubling))
        assert "almost_aperiodic" not in payload
        payload["almost_aperiodic"] = True
        assert map_from_json(json.dumps(payload)) == doubling

    @pytest.mark.parametrize("claim", [True, False, "true", "false", None, 1])
    def test_measure_preserving_key_ignored(self, doubling, claim):
        # The key is worked out from the pieces when a map is written and ignored when one is read.
        squash = IntervalMap((Piece(Fraction(0), Fraction(1), Fraction(1, 2), Fraction(0)),), name="squash")
        for f, preserving in ((squash, False), (doubling, True)):
            payload = json.loads(map_to_json(f))
            assert payload["measure_preserving"] is preserving
            payload["measure_preserving"] = claim
            loaded = map_from_json(json.dumps(payload))
            assert loaded == f and loaded.measure_preserving is preserving

    def test_round_trip_quadratic(self):
        lg = builtin("logistic")
        again = map_from_json(map_to_json(lg))
        assert again.pieces == lg.pieces

    def test_errors(self):
        with pytest.raises(FormatError):
            map_from_json("{}")
        with pytest.raises(FormatError):
            map_from_json('{"pieces": [{"lo": "0", "hi": "1", "a": "1"}]}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"pieces": null}',
            '{"pieces": [5]}',
            '{"pieces": [{"lo": null, "hi": "1", "a": "1", "b": "0"}]}',
            '{"pieces": [{"lo": "0", "hi": "1", "a": 1, "b": "0"}]}',
        ],
    )
    def test_malformed_values(self, text):
        with pytest.raises(FormatError):
            map_from_json(text)
