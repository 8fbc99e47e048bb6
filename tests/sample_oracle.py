"""The sampler's first route, kept as a test oracle.

Each draw hashes its whole text f"{seed}:{i}" afresh and converts its own
digest with ``int.from_bytes(...) / 2**64``; each orbit step evaluates
(c*x + a)*x + b whatever the piece; and each length gets its own run, which
iterates, checks and ranks every orbit afresh.  The package hashes the
prefix once, unpacks digests in blocks, steps affine maps as a*x + b and
serves all lengths from one pass; tests compare the two bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import blake2b

from orderflow.analysis import PatternReport
from orderflow.errors import SamplesDiscarded
from orderflow.perms import PatternDistribution, order_pattern


def oracle_unit_samples(seed, count: int):
    """Sample i: the 8-byte blake2b digest of f"{seed}:{i}" as a big-endian integer over 2**64."""
    prefix = f"{seed}:".encode()
    for i in range(count):
        digest = blake2b(prefix + b"%d" % i, digest_size=8).digest()
        yield int.from_bytes(digest, "big") / 2**64


def oracle_sampled(f, n: int, samples: int, seed) -> PatternReport:
    """One sampling run at length n: iterate, check and rank every orbit."""
    if samples < 1:
        raise ValueError("need at least one sample")
    los = [float(p.lo) for p in f.pieces]
    his = [float(p.hi) for p in f.pieces]
    polys = [(float(p.c), float(p.a), float(p.b)) for p in f.pieces]
    counts = {}
    discards = 0
    for x in oracle_unit_samples(seed, samples):
        values = [x]
        ok = True
        for _ in range(n - 1):
            v = values[-1]
            idx = bisect_right(los, v) - 1
            if idx < 0 or v >= his[idx]:
                ok = False
                break
            c, a, b = polys[idx]
            values.append((c * v + a) * v + b)
        if not ok or len(set(values)) != n:
            discards += 1
            continue
        sigma = order_pattern(values)
        counts[sigma] = counts.get(sigma, 0) + 1
    kept = samples - discards
    if kept == 0:
        raise SamplesDiscarded("all samples were discarded")
    dist = PatternDistribution(n, {s: c / kept for s, c in counts.items()})
    return PatternReport(dist, samples, counts)
