"""The patterns of the doubling map by Elizalde's count for shifts, kept as a test oracle.

The doubling map x -> 2x mod 1 has the order patterns of the binary shift.
Elizalde (2009, "The number of permutations realized by a shift") gives the
least number of symbols N(pi) a shift needs to realize pi as
N(pi) = 1 + des(pi^) + eps(pi^).  Here pi^ is the cycle
(pi(1), pi(2), ..., pi(n)) written in one-line notation, and des(pi^) counts
the descents of that word once the entry pi(1) is removed.  So pi is
realized by the doubling map exactly when N(pi) <= 2.

Only the case N <= 2 is used here, and there eps(pi^) is 1 exactly when pi
ends in the values n-1, n or 2, 1: then pi^ ends in n, pi(1) or begins with
pi(1), 1.  No subdivision is involved, so this is a route to the doubling
map's realized sets that shares nothing with the exact one.
"""

from __future__ import annotations

from orderflow.perms import Perm, all_perms


def cycle_word(word: tuple[int, ...]) -> tuple[int, ...]:
    """pi^ in one-line notation: pi^(pi(i)) = pi(i + 1), and pi^(pi(n)) = pi(1)."""
    n = len(word)
    hat = [0] * n
    for i, v in enumerate(word):
        hat[v - 1] = word[(i + 1) % n]
    return tuple(hat)


def shift_realizes(word: tuple[int, ...]) -> bool:
    """Whether the binary shift, hence the doubling map, realizes the pattern ``word``: N(pi) <= 2."""
    n = len(word)
    rest = [v for v in cycle_word(word) if v != word[0]]
    descents = sum(a > b for a, b in zip(rest, rest[1:]))
    eps = n >= 2 and word[-2:] in ((n - 1, n), (2, 1))
    return 1 + descents + eps <= 2


def doubling_patterns(n: int) -> frozenset[Perm]:
    """The length-n patterns the doubling map realizes, by :func:`shift_realizes`."""
    return frozenset(s for s in all_perms(n) if shift_realizes(s.word))
