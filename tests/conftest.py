import random
import sys

import pytest
from hypothesis import settings

from orderflow.digraph import PermDigraph, Subgraph, subgraph
from orderflow.maps import builtin
from orderflow.paths import DiPath, path

from fractions import Fraction

# Every run draws the same examples: the seed is derived from each test, and
# no example database is replayed.  Per-test settings keep their max_examples.
settings.register_profile("orderflow", derandomize=True, deadline=None)
settings.load_profile("orderflow")


@pytest.fixture
def set_perm_cap(monkeypatch):
    """A setter of the cap on listing S_n in every orderflow module that binds ``PERM_CAP``.

    The cap is a constant that nothing reads from the environment, so a test changes it.
    """

    def set_cap(cap: int) -> None:
        for name, module in list(sys.modules.items()):
            if (name == "orderflow" or name.startswith("orderflow.")) and hasattr(module, "PERM_CAP"):
                monkeypatch.setattr(module, "PERM_CAP", cap)

    return set_cap


@pytest.fixture(scope="session")
def G2() -> PermDigraph:
    return PermDigraph(2)


@pytest.fixture(scope="session")
def G2_full(G2) -> Subgraph:
    return G2.full_subgraph()


@pytest.fixture(scope="session")
def driftless_triple() -> Subgraph:
    return subgraph(2, ["132", "321", "213"])


@pytest.fixture(scope="session")
def two_cycle() -> Subgraph:
    return subgraph(2, ["132", "213"])


@pytest.fixture(scope="session")
def loop_132_321_213() -> DiPath:
    return path(2, ["132", "321", "213"])


@pytest.fixture(scope="session")
def figure_loop() -> DiPath:
    # Length-5 loop on level 3 with one free diagonal index.
    return path(3, ["2134", "1342", "2314", "3241", "2314"])


@pytest.fixture(scope="session")
def nine_edge_loop() -> DiPath:
    return path(
        4,
        ["23451", "34512", "45132", "41325", "13254", "31542", "15423", "54123", "51234"],
    )


@pytest.fixture(scope="session")
def doubling():
    return builtin("doubling")


@pytest.fixture(scope="session")
def rotation_3_10():
    return builtin("rotation", Fraction(3, 10))


@pytest.fixture(scope="session")
def tent():
    return builtin("tent")


def all_paths(n: int, length: int):
    """Every path of the given length on level n (generator)."""
    from orderflow.perms import all_perms
    from orderflow.digraph import head, tail

    if length == 0:
        for v in all_perms(n):
            yield DiPath(n, (), v)
        return
    by_head = {}
    for e in all_perms(n + 1):
        by_head.setdefault(head(e), []).append(e)

    def extend(edges, last):
        if len(edges) == length:
            yield DiPath(n, tuple(edges))
            return
        for e in by_head.get(last, []):
            edges.append(e)
            yield from extend(edges, tail(e))
            edges.pop()

    for v in sorted(by_head):
        yield from extend([], v)


def random_path(rng: random.Random, n: int, length: int) -> DiPath:
    from orderflow.perms import all_perms
    from orderflow.digraph import head, tail

    by_head = {}
    for e in all_perms(n + 1):
        by_head.setdefault(head(e), []).append(e)
    v = rng.choice(sorted(by_head))
    edges = []
    for _ in range(length):
        e = rng.choice(by_head[v])
        edges.append(e)
        v = tail(e)
    return DiPath(n, tuple(edges))
