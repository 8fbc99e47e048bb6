"""Order patterns of interval maps.

Combinatorial machinery for distributions of order patterns: permutation
digraphs and their paths, the drift obstruction, the flow polytope with its
realizability criterion, constructive realization by measure-preserving
interval maps, and pattern statistics with exact and Monte-Carlo routes.
"""

from .perms import (
    HEAD,
    TAIL,
    PatternDistribution,
    Perm,
    all_perms,
    is_compatible,
    order_pattern,
    perm,
    preimages,
    pushforward,
    restrict,
)
from .digraph import (
    PermDigraph,
    Subgraph,
    build,
    embedded_loops,
    face_dimension,
    is_face_subgraph,
    strongly_connected_components,
    subgraph,
)
from .paths import (
    DiPath,
    PathPoset,
    build_poset,
    comparability,
    concat,
    lifts,
    linear_extensions,
    path,
    project,
)
from .drift import (
    DriftMatrix,
    DriftProfile,
    classify_loop,
    compose,
    edge_profile,
    loop_drift,
    path_profile,
    subgraph_drifts,
    synthesize_totally_driftless_loop,
)
from .flows import (
    as_flow,
    census,
    cycle_decompose,
    face_realizable,
    flow_residual,
    interior_flow,
    polytope_dimension,
    support_face,
)
from .maps import (
    CyclicRanking,
    IntervalMap,
    Piece,
    block_sum,
    builtin,
    cyclic_lift,
    iterate,
    permutation_map,
    realize_flow,
)
from .analysis import (
    PatternReport,
    empirical_distribution,
    entropy_estimate,
    exact_distribution,
    exclusion_type_test,
    forbidden_patterns,
    growth_check,
    partially_driftless_in,
    pattern_graph,
    realized_patterns,
)
from .cantor import (
    IntervalTree,
    SeparatorTree,
    assemble_truncated_map,
    build_interval_tree,
    build_separator_tree,
    verify_construction,
)

__version__ = "0.1.0"
