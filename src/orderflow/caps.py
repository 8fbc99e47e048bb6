"""Global size caps, one per route, each on the quantity that makes it expensive.

An operation past a cap raises :class:`~orderflow.errors.CapExceeded`, naming
the quantity, the value reached and the cap, rather than grind.  Only listing
S_n is bounded by n; every other route by its own work (cell entries, states,
ranks, orbit values, edges, loop lengths).  Timings: 2-vCPU VM, Python 3.11.
"""

# Longest n that ``perms.all_perms`` lists S_n for: 12! = 479,001,600
# permutations.  Every route that lists S_n has a tighter cap of its own
# (``forbidden`` LIFT_LEVEL_MAX, the full digraph FULL_DIGRAPH_N_MAX, the
# cantor towers SEPARATOR_DEPTH_MAX), so this one refuses n > 12 first, with
# its own message, and bounds library callers of ``all_perms``.
PERM_CAP = 12

# Most states one step of the transfer count may hold (9! = 362,880), as windows
# of n ranks (``paths.lift_count``, ``paths.allowed_counts``), or as many ranks
# in whole patterns (``paths.lifts``): (132, 321, 213)^4 on G_2 is refused at
# 60,484 patterns of S_12 in ~0.2 s and ~30 MiB.  A window step may also make
# at most 10 x 9! transitions (states x allowed ranks), what 9! states of a
# step into S_10 can make: after the zig-zag (132, 312)^300 132 the count of
# (321, 213, 132)^3 is refused in S_606 in ~3 s; unbounded, it ran past 25 s.
# It also bounds the S_n that ``analysis.forbidden_patterns`` scans, to n <= 9:
# at n = 10 the scan ran out of 1 GiB of address space after ~14 s.
LIFT_LEVEL_MAX = 362_880

# Building every edge of G_n: `digraph --n 7` (40,320 edges) writes in ~4 s,
# `--n 8` (362,880 edges) in ~40 s.
FULL_DIGRAPH_N_MAX = 7

# Embedded-loop DFS refuses subgraphs with more vertices than this.
LOOP_ENUM_VERTEX_MAX = 24

# Cyclic ranking construction is polynomial, so this cap is generous; it
# bounds the length of the loop a realization ranks and turns into a map.
CYCLIC_LIFT_MAX = 4096

# Cell entries of one exact subdivision: each cell adds the iterates it
# carries, so length n needs at least n (n + 1) / 2.  Doubling at n = 14
# makes 2.12M entries (~9 s), the rotation by sqrt2 - 1 at n = 200 2.67M
# (~0.5 s); a refusal at the cap takes up to ~10 s (block sum, n = 14).
SUBDIVISION_MAX = 3_000_000

# Orbit values of one sampling pass: each sample's pattern at every length
# of the pass, samples x (n_min + ... + n_max); 100,000 samples reach n = 10.
# At the cap 1.2M orbits of length 5 take ~4 s, one of length 6M ~20 s, 1 GiB.
ORBIT_VALUES_MAX = 6_000_000

# The face census walks all 2^(n!) edge masks of G_{n-1}: 2^24 at n = 4, 2^120 at n = 5.
CENSUS_N_MAX = 4

SEPARATOR_DEPTH_MAX = 6
SCALE_DEPTH_MAX = 24

# The drift decision itself needs no cap: its reachability search visits at
# most |V| (n+2)^2 index states per (vertex, index).  Only the loops that
# synthesis concatenates from the search's shortest loops are bounded.
SYNTHESIS_LENGTH_MAX = 100_000
