"""The package's immutable value classes behave as frozen records.

Each class is pinned with its fields in order: an instance equals exactly the
instances of its own class with equal fields, hashes as the tuple of its
fields (or refuses to hash when a field does), is never equal to that tuple,
shows its fields in its repr, survives copy and pickle, and refuses to assign
or delete a field.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orderflow.analysis import ExclusionRow, PatternReport
from orderflow.cantor import IntervalRec, IntervalTree, SeparatorTree, VerificationReport, VerificationRow
from orderflow.digraph import Component, PermDigraph, Subgraph, subgraph
from orderflow.drift import DriftMatrix, DriftProfile, DriftVerdict
from orderflow.flows import CensusRow
from orderflow.maps import CyclicRanking, IntervalMap, Piece, builtin
from orderflow.paths import DiPath, PathPoset, path
from orderflow.perms import (
    HEAD, PatternDistribution, Perm, _trusted, all_perms, order_pattern, perm, preimages, restrict,
)

HALF = Fraction(1, 2)


def _dist(word: str, mass=Fraction(1)) -> PatternDistribution:
    return PatternDistribution(len(word), {perm(word): mass})


def _uniform2() -> PatternDistribution:
    return PatternDistribution(2, {perm("12"): HALF, perm("21"): HALF})


# class -> (its fields in order, three instances: the first two equal and built apart, the third different)
RECORDS = {
    Perm: (("word",), lambda: [Perm((2, 1, 3)), perm("213"), Perm((1, 2, 3))]),
    PatternDistribution: (("n", "mass", "exact"), lambda: [_dist("1"), _dist("1"), _dist("1", 1.0)]),
    PermDigraph: (("n",), lambda: [PermDigraph(2), PermDigraph(2), PermDigraph(3)]),
    Subgraph: (("n", "edges"), lambda: [subgraph(2, ["132", "321"]), subgraph(2, ["321", "132"]),
                                        subgraph(2, ["132"])]),
    Component: (("vertices", "edges"), lambda: [
        Component(frozenset({perm("12")}), frozenset()), Component(frozenset({perm("12")}), frozenset()),
        Component(frozenset({perm("21")}), frozenset()),
    ]),
    DiPath: (("n", "edges", "start"), lambda: [
        path(2, ["132", "321", "213"]), path(2, ["132", "321", "213"], start="12"), DiPath(2, (), perm("21")),
    ]),
    PathPoset: (("leq",), lambda: [PathPoset((3, 2)), PathPoset((3, 2)), PathPoset((1, 2))]),
    DriftProfile: (("start", "end", "maxmap", "minmap"), lambda: [
        DriftProfile(perm("12"), perm("12"), (1, 2), (1, 2)), DriftProfile(perm("12"), perm("12"), (1, 2), (1, 2)),
        DriftProfile(perm("12"), perm("12"), (1, 2), (0, 1)),
    ]),
    DriftMatrix: (("entries",), lambda: [DriftMatrix((("+",),)), DriftMatrix((("+",),)), DriftMatrix((("0",),))]),
    DriftVerdict: (("witness",), lambda: [DriftVerdict(), DriftVerdict(None), DriftVerdict((perm("12"), 1, "+"))]),
    CensusRow: (("dimension", "total", "realizable"), lambda: [CensusRow(0, 4, 2), CensusRow(0, 4, 2),
                                                              CensusRow(1, 4, 2)]),
    Piece: (("lo", "hi", "a", "b", "c"), lambda: [Piece(0, HALF, 2, 0), Piece(0, HALF, 2, 0, 0),
                                                  Piece(0, HALF, 2, 0, 1)]),
    IntervalMap: (("frame", "name"), lambda: [builtin("doubling"), builtin("doubling"), builtin("tent")]),
    CyclicRanking: (("rank",), lambda: [CyclicRanking((2, 1, 3)), CyclicRanking((2, 1, 3)),
                                        CyclicRanking((1, 2, 3))]),
    PatternReport: (("distribution", "samples", "counts"), lambda: [
        PatternReport(_uniform2(), None), PatternReport(_uniform2(), None, None),
        PatternReport(_uniform2(), 2, {perm("12"): 1, perm("21"): 1}),
    ]),
    ExclusionRow: (("m", "missing", "extra"), lambda: [ExclusionRow(3, 0, 0), ExclusionRow(3, 0, 0),
                                                      ExclusionRow(4, 1, 0)]),
    IntervalRec: (("lo", "hi"), lambda: [IntervalRec(HALF, 1), IntervalRec(HALF, Fraction(1)),
                                         IntervalRec(0, HALF)]),
    IntervalTree: (("intervals",), lambda: [
        IntervalTree({perm("1"): IntervalRec(0, 1)}), IntervalTree({perm("1"): IntervalRec(0, 1)}),
        IntervalTree({perm("1"): IntervalRec(0, HALF)}),
    ]),
    SeparatorTree: (("intervals",), lambda: [
        SeparatorTree({perm("1"): IntervalRec(0, 1)}), SeparatorTree({perm("1"): IntervalRec(0, 1)}),
        SeparatorTree({perm("1"): IntervalRec(0, HALF)}),
    ]),
    VerificationRow: (("n", "deviation", "bound"), lambda: [
        VerificationRow(1, 0.0, 0.1), VerificationRow(1, 0.0, 0.1), VerificationRow(1, 0.2, 0.1),
    ]),
    VerificationReport: (("rows", "samples", "excluded"), lambda: [
        VerificationReport([VerificationRow(1, 0.0, 0.1)], 100, 0),
        VerificationReport([VerificationRow(1, 0.0, 0.1)], 100, 0), VerificationReport([], 100, 0),
    ]),
}


def _values(record, fields) -> tuple:
    return tuple(getattr(record, name) for name in fields)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_frozen_record(cls):
    fields, build = RECORDS[cls]
    pool = build()
    assert all(type(r) is cls for r in pool)
    assert pool[0] == pool[1] and pool[0] != pool[2]
    for x in pool:
        for y in pool:
            # Equality is field by field.
            assert (x == y) == (_values(x, fields) == _values(y, fields)) != (x != y)
    for x in pool:
        values = _values(x, fields)
        assert x != values and values != x
        try:
            expected = hash(values)
        except TypeError:  # a dict or list field: the record is unhashable too
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == expected
        assert repr(x) == f"{cls.__name__}({', '.join(f'{name}={v!r}' for name, v in zip(fields, values))})"
        assert copy.copy(x) == x == pickle.loads(pickle.dumps(x))
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(x, name, getattr(x, name))
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert _values(x, fields) == values


def test_equal_fields_of_another_class_are_unequal():
    intervals = {perm("1"): IntervalRec(0, 1)}
    assert IntervalTree(intervals) != SeparatorTree(intervals)
    assert PermDigraph(2) != DriftVerdict(2)


def test_derived_fields_and_defaults():
    # ``exact`` is derived from the masses, not passed; ``Piece.c`` defaults to 0.
    with pytest.raises(TypeError):
        PatternDistribution(1, {perm("1"): Fraction(1)}, True)
    assert _dist("1").exact and not _dist("1", 1.0).exact
    assert Piece(0, 1, 1, 0).c == 0 and Piece(0, 1, 1, 0).affine


@given(st.lists(st.permutations(range(1, 6)).map(tuple), max_size=12))
def test_perms_sort_by_their_words(words):
    perms = [Perm(w) for w in words]
    assert [p.word for p in sorted(perms)] == sorted(words)
    for p in perms:
        for q in perms:
            assert (p < q, p <= q, p > q, p >= q) == (p.word < q.word, p.word <= q.word, p.word > q.word,
                                                      p.word >= q.word)


def test_perm_orders_only_perms():
    with pytest.raises(TypeError):
        perm("12") < (1, 2)
    with pytest.raises(TypeError):
        sorted([perm("12"), CyclicRanking((1, 2))])


def test_post_init_runs_once_per_validated_construction(monkeypatch):
    runs = []
    post_init = Perm.__post_init__

    def counted(sigma):
        runs.append(sigma.word)
        post_init(sigma)

    monkeypatch.setattr(Perm, "__post_init__", counted)
    Perm((2, 1))
    perm("312")
    Perm.parse("1,2")
    perm((1,))
    assert runs == [(2, 1), (3, 1, 2), (1, 2), (1,)]
    runs.clear()
    sigma = _trusted((2, 4, 1, 3))
    order_pattern((0.5, 0.1, 0.9))
    restrict.__wrapped__(sigma, HEAD)
    preimages(sigma, HEAD)
    list(all_perms(3))
    assert runs == []


@given(st.lists(st.integers(-2, 9), max_size=8).filter(lambda w: sorted(w) != list(range(1, len(w) + 1))))
def test_perm_rejects_non_permutations(word):
    expected = f"{tuple(word)} is not a permutation of 1..{len(word)}" if word else "a permutation needs length at least 1"
    with pytest.raises(ValueError) as raised:
        Perm(tuple(word))
    assert str(raised.value) == expected
