"""Machine-speed calibration for the timed phase.

The benchmark's host shares its cores: for seconds to minutes at a time it
runs the same Python code up to about 1.6x faster or slower, in CPU time as
much as in wall time.  Runs of identical code then differ by more than any
optimisation worth measuring.  To take that out, a fixed piece of work that
belongs to the benchmark, not to orderflow, is timed between every two jobs,
and each job's time is scaled by ``REFERENCE_S`` over the calibration times
measured around it.  The end-to-end times are therefore seconds at the
reference speed: the time a job would take on a machine that runs the
calibration work in exactly ``REFERENCE_S``.  A change to orderflow moves
them in full, since the calibration work does not touch orderflow.

The work mixes what the workloads spend their time on: ``Fraction``
arithmetic, dict and tuple traffic, sorting, float loops, blake2b, and a
reachability search over the pattern digraph G_3 like the drift layer's.
The cyclic collector is off while it runs, so the heap orderflow leaves
behind does not change its cost.  A job is scaled by the samples taken
right before and right after it: the host's speed changes within seconds,
so nearer samples track it better than a wider window of them.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import time
from fractions import Fraction

# A round figure inside the range of sample() medians (0.003-0.005 s, with
# the host's load) on a 2-vCPU x86-64 virtual machine with Python 3.11.
REFERENCE_S = 0.004


def _work() -> tuple:
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, 3 * i + 1) * Fraction(7, i + 2)
    counts: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    x = 0.3
    for _ in range(3000):
        x = 3.9 * x * (1.0 - x)
    digest = hashlib.blake2b(digest_size=8)
    for i in range(800):
        digest.update(i.to_bytes(4, "little"))
    return total, ranked[0], x, digest.hexdigest(), [_reachable(3) for _ in range(4)]


def _rank(values) -> tuple[int, ...]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    for r, i in enumerate(order):
        ranks[i] = r
    return tuple(ranks)


def _reachable(n: int) -> int:
    """States (vertex, first, last) reachable in G_n from every vertex."""
    succ: dict[tuple, list] = {}
    for e in itertools.permutations(range(n + 1)):
        succ.setdefault(_rank(e[:-1]), []).append(_rank(e[1:]))
    total = 0
    for start in sorted(succ):
        seen = {(start, start[0], start[-1])}
        todo = list(seen)
        while todo:
            v, first, last = todo.pop()
            for w in succ[v]:
                state = (w, min(first, w[0]), max(last, w[-1]))
                if state not in seen:
                    seen.add(state)
                    todo.append(state)
        total += len(seen)
    return total


def sample() -> float:
    """Seconds taken by one run of the calibration work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples: list[float], i: int) -> float:
    """Factor that turns the seconds of job ``i`` into reference seconds.

    ``samples[i]`` was taken right before job ``i`` and ``samples[i + 1]``
    right after it.
    """
    return 2 * REFERENCE_S / (samples[i] + samples[i + 1])
