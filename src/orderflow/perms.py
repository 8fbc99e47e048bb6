"""Permutations, order patterns, restrictions, and pattern distributions.

A ``Perm`` is a permutation of [n] in one-line notation: ``word[i]`` is the
rank of the i-th entry among all n entries.  Order patterns of real tuples,
the head/tail restrictions (drop the last or first entry and re-rank), and
probability distributions on S_n are the currency every other module trades
in.

``Perm(...)``, ``Perm.parse`` and ``perm`` validate their input; words the
package builds as permutations itself (order patterns, S_n enumeration,
preimages) skip that check.  Only ``all_perms``, which lists S_n, caps a
length, at ``caps.PERM_CAP``.  Either way a ``Perm`` stores its hash when it
is built, the hash of its fields that ``_Record`` would compute on every
lookup, so sets and dicts of patterns keep their order.  ``restrict`` is
memoised in a bounded cache that holds both restrictions of every edge of
G_6, so walking a digraph edge by edge re-ranks each edge once.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .caps import PERM_CAP
from .errors import CapExceeded, DuplicateValue, FormatError, LengthMismatch, LengthTooSmall
from .exactnum import Exact, exact_str, lattice_scale, parse_exact, to_lattice

HEAD = "head"
TAIL = "tail"

# Tolerances for floating-point distributions.
FLOAT_TOTAL_TOL = 1e-12
FLOAT_ENTRY_TOL = 1e-9


class _Record:
    """Base of the package's immutable value classes, each a plain class whose annotations name its fields.

    A record equals only a record of its own class with equal fields, hashes
    as the tuple of its fields, shows them in its repr, and refuses to assign
    or delete an attribute; its ``__init__`` sets the fields through
    ``object.__setattr__``.  Plain classes keep the package's import free of
    generated code.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        """Restore the fields past the refusal to assign when ``copy`` or ``pickle`` rebuilds a record.

        The state is the ``__dict__`` of a class without slots, else (None, slot values).
        """
        for name, value in (state[1] if isinstance(state, tuple) else state).items():
            object.__setattr__(self, name, value)


class Perm(_Record):
    """A permutation of [n] = {1, ..., n} in one-line notation."""

    __slots__ = ("word", "_hash")
    word: tuple[int, ...]

    def __init__(self, word: tuple[int, ...]):
        object.__setattr__(self, "word", word)
        self.__post_init__()

    def __post_init__(self):
        n = len(self.word)
        if n < 1:
            raise ValueError("a permutation needs length at least 1")
        if sorted(self.word) != list(range(1, n + 1)):
            raise ValueError(f"{self.word} is not a permutation of 1..{n}")
        object.__setattr__(self, "_hash", hash((self.word,)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is Perm:
            return self.word == other.word
        return NotImplemented

    # Perms sort by their words; p > q and p >= q reflect to q < p and q <= p.
    def __lt__(self, other) -> bool:
        if other.__class__ is Perm:
            return self.word < other.word
        return NotImplemented

    def __le__(self, other) -> bool:
        if other.__class__ is Perm:
            return self.word <= other.word
        return NotImplemented

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        """The rank sigma(i), 1-indexed."""
        return self.word[i - 1]

    def position_of(self, rank: int) -> int:
        """sigma^{-1}(rank), 1-indexed."""
        return self.word.index(rank) + 1

    def __str__(self) -> str:
        return ("" if len(self.word) <= 9 else ",").join(map(str, self.word))

    @classmethod
    def parse(cls, text: str) -> "Perm":
        s = text.strip()
        return cls(tuple(map(int, s.split(",") if "," in s else s)))


def _trusted(word: tuple[int, ...]) -> Perm:
    """A Perm of a nonempty word the package built as a permutation.

    Skips ``Perm.__post_init__``; the public constructors validate instead.
    """
    sigma = object.__new__(Perm)
    object.__setattr__(sigma, "word", word)
    object.__setattr__(sigma, "_hash", hash((word,)))
    return sigma


def perm(spec) -> Perm:
    """Convenience constructor: perm('2413'), perm((2,4,1,3)) or perm(p)."""
    if isinstance(spec, Perm):
        return spec
    if isinstance(spec, str):
        return Perm.parse(spec)
    return Perm(tuple(spec))


def order_pattern(values: Sequence) -> Perm:
    """The permutation ranking a tuple of pairwise distinct values.

    Entry i of the result is the rank of ``values[i]`` (1 = smallest).
    """
    n = len(values)
    if n < 1:
        raise ValueError("a permutation needs length at least 1")
    order = sorted(range(n), key=values.__getitem__)
    for a, b in zip(order, order[1:]):
        if not values[a] < values[b]:
            raise DuplicateValue(f"values at positions {a} and {b} compare equal")
    ranks = [0] * n
    for r, i in enumerate(order, start=1):
        ranks[i] = r
    return _trusted(tuple(ranks))


@functools.lru_cache(maxsize=1 << 14)
def restrict(sigma: Perm, side: str) -> Perm:
    """Drop the last (head) or first (tail) entry and re-rank.

    These are the two endpoint maps of the permutation digraph: an edge
    sigma in S_{n+1} runs from restrict(sigma, HEAD) to restrict(sigma, TAIL).
    Re-ranking lowers every rank above the dropped one by one.
    """
    word = sigma.word
    if len(word) < 2:
        raise LengthTooSmall("cannot restrict a permutation of length 1")
    if side == HEAD:
        dropped, kept = word[-1], word[:-1]
    elif side == TAIL:
        dropped, kept = word[0], word[1:]
    else:
        raise ValueError(f"side must be {HEAD!r} or {TAIL!r}, got {side!r}")
    return _trusted(tuple(r - 1 if r > dropped else r for r in kept))


def all_perms(n: int) -> Iterator[Perm]:
    """S_n in lexicographic order, listed lazily; n is checked against ``PERM_CAP`` at the call."""
    if n > PERM_CAP:
        raise CapExceeded(f"S_{n} enumeration exceeds cap {PERM_CAP}")
    if n < 1:
        raise ValueError("a permutation needs length at least 1")
    return map(_trusted, itertools.permutations(range(1, n + 1)))


def preimages(sigma: Perm, side: str) -> list[Perm]:
    """The n+1 permutations of S_{n+1} restricting to sigma on the given side.

    For the head side these append a new final rank v and bump all existing
    ranks >= v; for the tail side they prepend.
    """
    n = sigma.n
    if side not in (HEAD, TAIL):
        raise ValueError(f"side must be {HEAD!r} or {TAIL!r}, got {side!r}")
    out = []
    for v in range(1, n + 2):
        bumped = tuple(w + 1 if w >= v else w for w in sigma.word)
        out.append(_trusted(bumped + (v,) if side == HEAD else (v,) + bumped))
    return out


def _validate_masses(n: int, mass: Mapping[Perm, object]) -> tuple[dict, bool]:
    """The nonzero masses and whether the table is exact: one float mass makes it all float."""
    clean = {}
    exact = True
    for sigma, m in mass.items():
        if sigma.n != n:
            raise LengthMismatch(f"mass on {sigma} in a length-{n} distribution")
        if isinstance(m, float) and not math.isfinite(m):
            raise ValueError(f"non-finite mass {m} on {sigma}")
        if m < 0:
            raise ValueError(f"negative mass {m} on {sigma}")
        exact = exact and not isinstance(m, float)
        if m != 0:
            clean[sigma] = m
    if exact:
        scale = lattice_scale(clean.values())
        if sum(to_lattice(m, scale) for m in clean.values()) != scale:
            raise ValueError(f"total mass {sum(clean.values(), Fraction(0))} != 1")
        return clean, exact
    clean = {s: float(m) for s, m in clean.items()}
    total = math.fsum(clean.values())
    if abs(total - 1.0) > FLOAT_TOTAL_TOL:
        raise ValueError(f"total mass {total} deviates from 1 beyond {FLOAT_TOTAL_TOL}")
    return clean, exact


class PatternDistribution(_Record):
    """A probability distribution on S_n.

    ``exact`` is derived from the masses: int, Fraction and Q(sqrt2) masses
    make an exact distribution, compared with exact equality; one float mass
    makes every mass a float, compared within the module tolerances.  Zero
    masses are not stored.
    """

    __slots__ = ("n", "mass", "exact")
    n: int
    mass: Mapping[Perm, Exact | float]
    exact: bool

    def __init__(self, n: int, mass: Mapping[Perm, Exact | float]):
        clean, exact = _validate_masses(n, mass)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mass", clean)
        object.__setattr__(self, "exact", exact)

    def __call__(self, sigma: Perm):
        zero = Fraction(0) if self.exact else 0.0
        return self.mass.get(sigma, zero)

    def support(self) -> frozenset[Perm]:
        return frozenset(self.mass)

    @classmethod
    def point_mass(cls, sigma: Perm) -> "PatternDistribution":
        return cls(sigma.n, {sigma: Fraction(1)})

    @classmethod
    def uniform(cls, n: int) -> "PatternDistribution":
        perms = list(all_perms(n))
        w = Fraction(1, len(perms))
        return cls(n, {s: w for s in perms})

    def close_to(self, other: "PatternDistribution") -> bool:
        """Entrywise equality: exact when both sides are exact, else within ``FLOAT_ENTRY_TOL``."""
        if self.n != other.n:
            raise LengthMismatch(f"lengths {self.n} and {other.n}")
        keys = set(self.mass) | set(other.mass)
        if self.exact and other.exact:
            return all(self(s) == other(s) for s in keys)
        return all(abs(float(self(s)) - float(other(s))) <= FLOAT_ENTRY_TOL for s in keys)


def pushforward(mu: PatternDistribution, side: str) -> PatternDistribution:
    """Project a distribution on S_{n+1} down to S_n along a restriction.

    The mass of sigma is the total mass of its preimages, so the result is
    again a probability distribution.
    """
    if mu.n < 2:
        raise LengthTooSmall("cannot push a length-1 distribution down")
    return PatternDistribution(mu.n - 1, push_mass(mu.mass, side))


def push_mass(mass: Mapping[Perm, object], side: str) -> dict[Perm, object]:
    """Masses (or sample counts) on S_{n+1}, summed onto S_n along a restriction."""
    out: dict[Perm, object] = {}
    for sigma, m in mass.items():
        tgt = restrict(sigma, side)
        out[tgt] = out.get(tgt, 0) + m
    return out


def is_compatible(mu: PatternDistribution, mu_next: PatternDistribution) -> bool:
    """Whether mu is the head-pushforward of mu_next (lengths n and n+1)."""
    if mu_next.n != mu.n + 1:
        raise LengthMismatch(f"lengths {mu.n} and {mu_next.n} do not differ by one")
    return pushforward(mu_next, HEAD).close_to(mu)


# -- CSV interchange -------------------------------------------------------
#
# Header ``perm,mass``; one row per permutation with nonzero mass; masses are
# 'p/q' rational or 'a+b*sqrt2' strings (exact) or decimal strings (float).


def distribution_rows(mu: PatternDistribution) -> list[tuple[str, str]]:
    """mu's CSV rows, each pattern and its mass as text, in pattern-word order.

    An exact mass is written by ``exact_str``, a float one (a float table
    holds floats) by ``repr``.  The rows sort on the words themselves, not
    through ``Perm.__lt__``, a Python call per comparison.
    """
    show = exact_str if mu.exact else repr
    return [(str(s), show(m)) for s, m in sorted(mu.mass.items(), key=lambda item: item[0].word)]


def rows_to_csv(rows: Iterable[tuple[str, str]]) -> str:
    """The distribution CSV of (pattern text, mass text) rows, in the order given."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["perm", "mass"])
    w.writerows(rows)
    return buf.getvalue()


def distribution_to_csv(mu: PatternDistribution) -> str:
    return rows_to_csv(distribution_rows(mu))


def _digit_limit() -> int:
    """Python's limit on the digits of integer text, 0 for none (as before it had one)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def load_json(text: str, what: str, required: set[str]) -> dict:
    """The JSON object in ``text``, which must carry the required keys; else FormatError."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("invalid JSON: nested too deeply to parse") from exc
    except ValueError as exc:  # the one other ValueError: int() refusing a number token's digits
        limit = _digit_limit()
        raise FormatError(f"invalid JSON: an integer has more than {limit} digits, Python's limit") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{what} JSON must be an object")
    missing = required - set(payload)
    if missing:
        raise FormatError(f"{what} JSON missing keys {sorted(missing)}")
    return payload


def json_length(payload: dict, what: str) -> int:
    """The pattern length ``payload["n"]``, which must be a positive integer; else FormatError."""
    n = payload["n"]
    if type(n) is not int or n < 1:
        raise FormatError(f"{what} JSON 'n' must be a positive integer, got {n!r}")
    return n


def parse_mass(raw, where: str) -> Exact | float:
    """A mass: 'p/q', integer and 'a+b*sqrt2' text are exact, other numbers floats.

    Anything that is not a finite number is a FormatError naming ``where``.
    """
    try:
        if isinstance(raw, str) and ("/" in raw or "sqrt2" in raw or raw.lstrip("+-").isdigit()):
            return parse_exact(raw)
        if isinstance(raw, bool):  # JSON true / false, which float() reads as 1.0 / 0.0
            raise TypeError("a boolean is not a mass")
        value = float(raw)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        limit = _digit_limit()
        if limit and isinstance(raw, str) and re.search(r"\d{%d}" % (limit + 1), raw):
            raise FormatError(f"{where}: mass has more than {limit} digits in a row, Python's limit") from exc
        raise FormatError(f"{where}: mass {raw!r} is not a number") from exc
    if not math.isfinite(value):
        raise FormatError(f"{where}: mass {raw!r} is not finite")
    return value


def distribution_from_csv(text: str) -> PatternDistribution:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or [c.strip() for c in rows[0]] != ["perm", "mass"]:
        raise FormatError("distribution CSV must start with header 'perm,mass'")
    mass: dict[Perm, object] = {}
    n = None
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise FormatError(f"distribution CSV line {line}: expected 'perm,mass', got {len(row)} fields")
        try:
            sigma = Perm.parse(row[0])
        except ValueError as exc:
            raise FormatError(f"distribution CSV line {line}: {exc}") from exc
        n = sigma.n if n is None else n
        mass[sigma] = parse_mass(row[1].strip(), f"distribution CSV line {line}")
    if n is None:
        raise FormatError("distribution CSV has no rows")
    return parsed_distribution(n, mass)


def parsed_distribution(n: int, mass: dict) -> PatternDistribution:
    """A parsed distribution; its schema errors are FormatErrors."""
    try:
        return PatternDistribution(n, mass)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
