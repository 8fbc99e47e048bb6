"""Length-by-length statistics, kept as a test oracle.

This is the straightforward route to the statistics over several pattern
lengths: every length gets its own exact subdivision or its own sampling
run (``sample_oracle.oracle_sampled``).  The package serves all lengths
from one pass to the longest and projects down; tests compare the two
exactly.

The lift and exclusion-preimage oracles scan all of S_m, window by window,
where the package grows patterns one last value at a time.
"""

from __future__ import annotations

import math

from orderflow.analysis import PatternReport, exact_distribution
from orderflow.digraph import Subgraph
from orderflow.perms import all_perms, order_pattern
from sample_oracle import oracle_sampled


def oracle_report(f, n: int, mode: str, samples: int = 100_000, seed=0) -> PatternReport:
    if mode == "exact":
        return exact_distribution(f, n)
    return oracle_sampled(f, n, samples, seed)


def oracle_realized(f, lengths, mode, samples=100_000, seed=0) -> dict:
    return {n: oracle_report(f, n, mode, samples, seed).realized for n in sorted(set(lengths))}


def oracle_entropy(f, n_max, mode="exact", samples=100_000, seed=0):
    rows = []
    for n in range(2, n_max + 1):
        realized = oracle_report(f, n, mode, samples, seed).realized
        rows.append((n, len(realized), math.log(len(realized)) / (n - 1)))
    return rows


def oracle_forbidden(f, n, mode="exact", samples=100_000, seed=0):
    realized_by_len = {k: oracle_report(f, k, mode, samples, seed).realized for k in range(2, n + 1)}
    forbidden = frozenset(s for s in all_perms(n) if s not in realized_by_len[n])
    basic = frozenset(
        sigma
        for sigma in forbidden
        if all(
            order_pattern(sigma.word[off : off + width]) in realized_by_len[width]
            for width in range(2, n)
            for off in range(n - width + 1)
        )
    )
    return forbidden, basic


def oracle_exclusion(f, n, m_max, mode="exact", samples=100_000, seed=0):
    """(m, preimage, realized) per m, each length from its own run."""
    H = Subgraph(n, oracle_report(f, n + 1, mode, samples, seed).realized)
    rows = []
    for m in range(n + 1, m_max + 1):
        realized = oracle_report(f, m, mode, samples, seed).realized
        preimage = frozenset(
            sigma
            for sigma in all_perms(m)
            if all(order_pattern(sigma.word[i : i + n + 1]) in H.edges for i in range(m - n))
        )
        rows.append((m, preimage, realized))
    return rows


def oracle_lifts(p) -> list:
    """The lifts of path p in S_m's lexicographic order, by scanning all of S_m.

    Every pair in every (n+1)-window of a candidate is compared with the
    matching edge; no order pattern is taken.
    """
    if not p.edges:
        return [p.start]
    w = p.n + 1
    pairs = [(a, b) for a in range(w) for b in range(a + 1, w)]
    return [
        sigma
        for sigma in all_perms(p.length + p.n)
        if all(
            (sigma.word[off + a] < sigma.word[off + b]) == (e.word[a] < e.word[b])
            for off, e in enumerate(p.edges)
            for a, b in pairs
        )
    ]
