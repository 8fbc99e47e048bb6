import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderflow.analysis import exact_distribution
from orderflow.errors import CapExceeded, DuplicateValue, FormatError, LengthMismatch, LengthTooSmall
from orderflow.perms import (
    HEAD,
    TAIL,
    PatternDistribution,
    Perm,
    all_perms,
    distribution_from_csv,
    distribution_to_csv,
    is_compatible,
    order_pattern,
    perm,
    preimages,
    push_mass,
    pushforward,
    restrict,
    _trusted,
)
from orderflow.exactnum import exact
from orderflow.maps import builtin

words = st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1)).map(tuple))


class TestOrderPattern:
    @pytest.mark.parametrize(
        "values,expected",
        [
            ((0.3, 0.1, 0.9), "213"),
            ((0.1, 0.2, 0.3), "123"),
            ((2, 4, 1), "231"),
            ((5,), "1"),
        ],
    )
    def test_examples(self, values, expected):
        assert order_pattern(values) == perm(expected)

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateValue):
            order_pattern((1, 3, 1))

    def test_idempotent_on_permutations_exhaustive(self):
        for n in range(1, 8):
            for sigma in all_perms(n):
                assert order_pattern(sigma.word) == sigma


class TestRestrict:
    @pytest.mark.parametrize(
        "sigma,head_result,tail_result",
        [
            ("2413", "231", "312"),
            ("4231", "312", "231"),
            ("132", "12", "21"),
        ],
    )
    def test_examples(self, sigma, head_result, tail_result):
        assert restrict(perm(sigma), HEAD) == perm(head_result)
        assert restrict(perm(sigma), TAIL) == perm(tail_result)

    def test_too_short(self):
        with pytest.raises(LengthTooSmall):
            restrict(perm("1"), HEAD)

    def test_preimage_counts_exhaustive(self):
        # Each pattern has exactly n+1 one-longer extensions per side.
        for n in range(1, 7):
            by_head: dict[Perm, int] = {}
            by_tail: dict[Perm, int] = {}
            for tau in all_perms(n + 1):
                by_head[restrict(tau, HEAD)] = by_head.get(restrict(tau, HEAD), 0) + 1
                by_tail[restrict(tau, TAIL)] = by_tail.get(restrict(tau, TAIL), 0) + 1
            for sigma in all_perms(n):
                assert by_head[sigma] == n + 1
                assert by_tail[sigma] == n + 1

    def test_preimages_helper_agrees(self):
        for sigma in all_perms(3):
            for side in (HEAD, TAIL):
                expected = {t for t in all_perms(4) if restrict(t, side) == sigma}
                assert set(preimages(sigma, side)) == expected


class TestPerm:
    def test_text_forms(self):
        assert str(perm("2413")) == "2413"
        long = Perm(tuple([10, 1, 2, 3, 4, 5, 6, 7, 8, 9]))
        assert str(long) == "10,1,2,3,4,5,6,7,8,9"
        assert Perm.parse(str(long)) == long

    def test_validation(self):
        with pytest.raises(ValueError):
            Perm((1, 1, 2))
        with pytest.raises(ValueError):
            Perm(())

    def test_cap(self):
        # A Perm has no length cap; only listing S_n has one.
        long = Perm(tuple(range(1, 44)))
        assert long.n == 43 and Perm.parse(str(long)) == long
        with pytest.raises(CapExceeded, match=r"^S_13 enumeration exceeds cap 12$"):
            all_perms(13)

    @pytest.mark.parametrize("raw", ["14", "5", "abc", "0"])
    def test_cap_env_is_ignored_at_import(self, raw):
        # The environment sets no cap, at import or later: PERM_CAP is a
        # constant, which tests patch.
        code = "import orderflow.caps, orderflow.perms as p; print(orderflow.caps.PERM_CAP, p.PERM_CAP)"
        env = {**os.environ, "ORDERFLOW_CAP": raw, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["12", "12"]

    def test_cap_env_override(self, set_perm_cap):
        set_perm_cap(5)
        assert len(list(all_perms(5))) == 120
        with pytest.raises(CapExceeded, match=r"^S_6 enumeration exceeds cap 5$"):
            all_perms(6)


class TestDistributions:
    @settings(max_examples=100)
    @given(st.lists(st.integers(1, 9), min_size=2, max_size=6), st.booleans(), st.integers(0, 2))
    def test_exact_total_on_one_denominator(self, weights, irrational, shift):
        # Rational or Q(sqrt2) masses, their total off 1 by shift/7: the total
        # is checked on the lattice, and the text names the sum in Q(sqrt2).
        masses = [Fraction(w, sum(weights)) for w in weights]
        if irrational:
            moved = masses[0] * exact(-1, 1) / 10
            masses[0], masses[1] = masses[0] - moved, masses[1] + moved
        masses[-1] += Fraction(shift, 7)
        table = dict(zip(all_perms(3), masses))
        if shift == 0:
            assert PatternDistribution(3, table).mass == table
        else:
            with pytest.raises(ValueError) as caught:
                PatternDistribution(3, table)
            assert str(caught.value) == f"total mass {sum(masses, Fraction(0))} != 1"

    def test_pushforward_uniform(self):
        assert pushforward(PatternDistribution.uniform(3), HEAD).close_to(
            PatternDistribution.uniform(2)
        )

    def test_pushforward_point_mass(self):
        mu = PatternDistribution.point_mass(perm("132"))
        assert pushforward(mu, HEAD) == PatternDistribution.point_mass(perm("12"))
        assert pushforward(mu, TAIL) == PatternDistribution.point_mass(perm("21"))

    def test_pushforward_three_pattern_example(self):
        third = Fraction(1, 3)
        mu = PatternDistribution(3, {perm("123"): third, perm("132"): third, perm("213"): third})
        down = pushforward(mu, HEAD)
        assert down(perm("12")) == Fraction(2, 3)
        assert down(perm("21")) == Fraction(1, 3)

    def test_pushforward_preserves_mass_and_sign(self):
        rng = random.Random(7)
        for _ in range(20):
            weights = [rng.randint(0, 10) for _ in range(24)]
            total = sum(weights) or 1
            mu = PatternDistribution(
                4,
                {
                    s: Fraction(w, total)
                    for s, w in zip(all_perms(4), weights)
                    if w
                },
            )
            for side in (HEAD, TAIL):
                down = pushforward(mu, side)
                assert sum(down.mass.values()) == 1
                assert all(m > 0 for m in down.mass.values())

    def test_is_compatible(self):
        assert is_compatible(PatternDistribution.uniform(2), PatternDistribution.uniform(3))
        assert not is_compatible(
            PatternDistribution.point_mass(perm("12")), PatternDistribution.uniform(3)
        )
        third = Fraction(1, 3)
        mu3 = PatternDistribution(3, {perm("123"): third, perm("132"): third, perm("213"): third})
        mu2 = PatternDistribution(2, {perm("12"): Fraction(2, 3), perm("21"): Fraction(1, 3)})
        assert is_compatible(mu2, mu3)

    def test_is_compatible_length_check(self):
        with pytest.raises(LengthMismatch):
            is_compatible(PatternDistribution.uniform(2), PatternDistribution.uniform(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            PatternDistribution(2, {perm("12"): Fraction(1, 2)})
        with pytest.raises(ValueError):
            PatternDistribution(2, {perm("12"): Fraction(3, 2), perm("21"): Fraction(-1, 2)})
        with pytest.raises(LengthMismatch):
            PatternDistribution(2, {perm("123"): Fraction(1)})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_mass(self, bad):
        # NaN compares False both to 0 and to the total, so only an explicit check stops it.
        with pytest.raises(ValueError, match=f"^non-finite mass {bad} on 12$"):
            PatternDistribution(2, {perm("12"): bad, perm("21"): 0.5})

    def test_float_mode(self):
        mu = PatternDistribution(2, {perm("12"): 0.5, perm("21"): 0.5})
        assert mu.close_to(PatternDistribution(2, {perm("12"): 0.5 + 1e-12, perm("21"): 0.5 - 1e-12}))


@st.composite
def distributions(draw, coefficients):
    """An exact distribution on S_n, 3 <= n <= 5, with masses a + b*sqrt2 over their total."""
    n = draw(st.integers(3, 5))
    support = draw(st.lists(st.sampled_from(list(all_perms(n))), min_size=1, max_size=12, unique=True))
    weights = [exact(draw(st.integers(1, 9)), draw(coefficients)) for _ in support]
    total = sum(weights, Fraction(0))
    return PatternDistribution(n, {s: w / total for s, w in zip(support, weights)})


rational = distributions(st.just(0))
quadratic = distributions(st.integers(0, 9))


@st.composite
def mixed_masses(draw):
    """Masses on S_3 summing to 1, each an int, a Fraction, a Sqrt2 or a float."""
    weights = draw(st.lists(st.integers(0, 5), min_size=6, max_size=6).filter(any))
    masses = [Fraction(w, sum(weights)) for w in weights]
    positive = [k for k, m in enumerate(masses) if m > 0]
    if len(positive) > 1 and draw(st.booleans()):
        # Move c (sqrt2 - 1) < c from one positive mass to another: both stay positive.
        i, j = draw(st.permutations(positive))[:2]
        c = min(masses[i], masses[j]) / 2
        masses[i] += exact(-c, c)
        masses[j] -= exact(-c, c)
    for k in range(6):
        kind = draw(st.sampled_from(["int", "exact", "float"]))
        if kind == "int" and type(masses[k]) is Fraction and masses[k].denominator == 1:
            masses[k] = int(masses[k])
        elif kind == "float":
            masses[k] = float(masses[k])
    return dict(zip(all_perms(3), masses))


class TestExactness:
    """A distribution is exact exactly when no mass is a float, zero masses included."""

    @settings(max_examples=200)
    @given(mixed_masses())
    def test_exact_iff_no_float_mass(self, masses):
        mu = PatternDistribution(3, masses)
        assert mu.exact == (not any(isinstance(m, float) for m in masses.values()))
        assert all(isinstance(m, float) != mu.exact for m in mu.mass.values())

    def test_float_masses_are_written_as_decimals(self):
        mu = PatternDistribution(2, {perm("12"): 0.1, perm("21"): 0.9})
        assert not mu.exact
        assert distribution_to_csv(mu) == "perm,mass\n12,0.1\n21,0.9\n"

    def test_one_float_mass_makes_every_mass_a_float(self):
        mu = PatternDistribution(2, {perm("12"): Fraction(1, 4), perm("21"): 0.75})
        assert not mu.exact and mu.mass == {perm("12"): 0.25, perm("21"): 0.75}
        assert not PatternDistribution(2, {perm("12"): Fraction(1), perm("21"): 0.0}).exact


class TestPushforwardProperties:
    """Pushforward keeps the mass and composes, on Fraction and Q(sqrt2) masses."""

    @settings(max_examples=60)
    @given(st.one_of(rational, quadratic), st.sampled_from([HEAD, TAIL]))
    def test_mass_is_kept(self, mu, side):
        pushed = push_mass(mu.mass, side)
        assert sum(pushed.values(), Fraction(0)) == sum(mu.mass.values(), Fraction(0)) == 1
        down = pushforward(mu, side)
        assert down.n == mu.n - 1 and down.mass == pushed

    @settings(max_examples=60)
    @given(st.one_of(rational, quadratic), st.sampled_from([HEAD, TAIL]), st.sampled_from([HEAD, TAIL]))
    def test_twice_is_the_two_step_restriction(self, mu, first, second):
        two_step: dict = {}
        for sigma, m in mu.mass.items():
            tgt = restrict(restrict(sigma, first), second)
            two_step[tgt] = two_step.get(tgt, 0) + m
        assert pushforward(pushforward(mu, first), second).mass == two_step

    @settings(max_examples=30)
    @given(quadratic)
    def test_head_and_tail_commute(self, mu):
        assert pushforward(pushforward(mu, HEAD), TAIL) == pushforward(pushforward(mu, TAIL), HEAD)


class TestCsv:
    def test_round_trip_exact(self):
        mu = PatternDistribution(2, {perm("12"): Fraction(2, 3), perm("21"): Fraction(1, 3)})
        again = distribution_from_csv(distribution_to_csv(mu))
        assert again == mu and again.exact

    def test_round_trip_float(self):
        mu = PatternDistribution(2, {perm("12"): 0.25, perm("21"): 0.75})
        again = distribution_from_csv(distribution_to_csv(mu))
        assert not again.exact
        assert again.close_to(mu)

    def test_header_required(self):
        with pytest.raises(FormatError):
            distribution_from_csv("oops,mass\n12,1\n")

    @pytest.mark.parametrize("text", ["perm,mass\n", "perm,mass\n\n\n", "perm,mass"])
    def test_header_without_rows_is_a_format_error(self, text):
        with pytest.raises(FormatError, match="^distribution CSV has no rows$"):
            distribution_from_csv(text)


class TestFastPaths:
    """The trusted constructor and the memoised restriction against their plain routes."""

    @settings(max_examples=200)
    @given(words)
    def test_trusted_perm_is_a_validated_perm(self, word):
        sigma = _trusted(word)
        assert sigma == Perm(word) and hash(sigma) == hash(Perm(word))
        assert Perm(word) == sigma and not sigma < Perm(word)
        assert str(sigma) == str(Perm(word)) and Perm.parse(str(sigma)) == sigma

    @settings(max_examples=300)
    @given(words, words)
    def test_stored_hash_and_comparisons_follow_the_word(self, v, w):
        # The stored hash is the one the dataclass would compute, so sets of patterns keep their order.
        assert hash(Perm(w)) == hash(_trusted(w)) == hash((w,))
        assert (Perm(v) == Perm(w)) == (_trusted(v) == Perm(w)) == (v == w)
        assert (Perm(v) != Perm(w)) == (v != w)
        assert (Perm(v) < Perm(w)) == (_trusted(v) < _trusted(w)) == (v < w)
        assert (Perm(v) <= Perm(w)) == (v <= w)
        assert Perm(w) != w and not Perm(w) == w and w != Perm(w)
        assert [s.word for s in {Perm(v), Perm(w)}] == [t[0] for t in {(v,), (w,)}]

    @settings(max_examples=200)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=9, unique=True))
    def test_order_pattern_is_a_validated_perm(self, values):
        sigma = order_pattern(values)
        assert sigma == Perm(sigma.word) and hash(sigma) == hash(Perm(sigma.word))

    @settings(max_examples=200)
    @given(words.filter(lambda w: len(w) >= 2), st.sampled_from([HEAD, TAIL]))
    def test_restrict_routes_agree(self, word, side):
        sigma = Perm(word)
        kept = word[:-1] if side == HEAD else word[1:]
        expected = order_pattern(kept)
        assert restrict(sigma, side) == restrict.__wrapped__(sigma, side) == expected
        # A second, cached call answers the same.
        assert restrict(sigma, side) == expected

    @settings(max_examples=100)
    @given(st.lists(st.integers(0, 5), min_size=2, max_size=9).filter(lambda v: len(set(v)) < len(v)))
    def test_order_pattern_refuses_ties(self, values):
        with pytest.raises(DuplicateValue):
            order_pattern(values)

    @pytest.mark.parametrize("cap", [3, 5])
    def test_trusted_paths_keep_the_cap(self, set_perm_cap, cap):
        # Of the paths that build Perms without validating them, only all_perms,
        # which lists S_n, keeps the cap, and it refuses at the call.
        set_perm_cap(cap)
        with pytest.raises(CapExceeded, match=rf"^S_{cap + 1} enumeration exceeds cap {cap}$"):
            all_perms(cap + 1)
        assert order_pattern(range(cap + 1)).n == cap + 1
        assert len(preimages(Perm(tuple(range(1, cap + 1))), HEAD)) == cap + 1
        assert exact_distribution(builtin("doubling"), cap + 1).n == cap + 1

    def test_all_perms_and_preimages_are_validated_perms(self):
        for sigma in all_perms(4):
            assert sigma == Perm(sigma.word)
            for side in (HEAD, TAIL):
                for tau in preimages(sigma, side):
                    assert tau == Perm(tau.word) and restrict(tau, side) == sigma
