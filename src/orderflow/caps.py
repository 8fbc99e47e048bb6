"""Global size caps.

Everything downstream of S_n enumeration blows up factorially, so the caps
here are deliberate and the operations that honor them raise
:class:`~orderflow.errors.CapExceeded` rather than grind.  The pattern-length
cap can be overridden with the ``ORDERFLOW_CAP`` environment variable, which
is read once, when this module is imported.
"""

from __future__ import annotations

import os

DEFAULT_PERM_CAP = 12

# Most patterns one level of ``paths.lifts`` may hold: 9! = 362880, all of
# S_9; also the most states one step of the transfer count may hold, for
# ``paths.lift_count`` and ``paths.allowed_counts``.
LIFT_LEVEL_MAX = 362_880

# Building every edge of G_n: `digraph --n 7` (40,320 edges) writes in ~4 s
# on a 2-vCPU VM under Python 3.11, `--n 8` (362,880 edges) in ~40 s.
FULL_DIGRAPH_N_MAX = 7

# Embedded-loop DFS refuses subgraphs with more vertices than this.
LOOP_ENUM_VERTEX_MAX = 24

# Cyclic ranking construction is polynomial, so this cap is generous; it
# bounds the length of the loop a realization ranks and turns into a map.
CYCLIC_LIFT_MAX = 4096

# Longest pattern length in an entropy estimate's table.
ENTROPY_N_MAX = 10

# Cells of [0,1) (intervals where the iterates keep one order) in one exact
# subdivision, checked after each iterate is added.
SUBDIVISION_MAX = 500_000

# The face census walks all 2^(n!) edge masks of G_{n-1}: 2^24 at n = 4, 2^120 at n = 5.
CENSUS_N_MAX = 4

SEPARATOR_DEPTH_MAX = 6
SCALE_DEPTH_MAX = 24

# The drift decision itself needs no cap: its reachability search visits at
# most |V| (n+2)^2 index states per (vertex, index).  Only the loops that
# synthesis concatenates from the search's shortest loops are bounded.
SYNTHESIS_LENGTH_MAX = 100_000


def perm_cap_setting() -> int:
    """The pattern-length cap ``ORDERFLOW_CAP`` sets, or the default when it is unset.

    A value that is not a positive integer is a ValueError.
    """
    raw = os.environ.get("ORDERFLOW_CAP")
    if raw is None:
        return DEFAULT_PERM_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"ORDERFLOW_CAP must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"ORDERFLOW_CAP must be positive, got {raw!r}")
    return value


# The pattern-length cap, read once.  A malformed setting leaves the default
# here, so that importing the package never fails; ``cli.main`` reads the
# setting again and refuses it with a usage error.
try:
    PERM_CAP = perm_cap_setting()
except ValueError:
    PERM_CAP = DEFAULT_PERM_CAP
