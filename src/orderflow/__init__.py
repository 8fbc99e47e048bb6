"""Order patterns of interval maps.

Combinatorial machinery for distributions of order patterns: permutation
digraphs and their paths, the drift obstruction, the flow polytope with its
realizability criterion, constructive realization by measure-preserving
interval maps, and pattern statistics with exact and Monte-Carlo routes.

Importing the package loads none of its modules.  A name below is imported
from its module on first access (PEP 562), so ``from orderflow import census``
loads ``flows`` and what it needs, and nothing else.
"""

import importlib

_EXPORTS = {
    "perms": (
        "HEAD", "TAIL", "PatternDistribution", "Perm", "all_perms", "is_compatible",
        "order_pattern", "perm", "preimages", "pushforward", "restrict",
    ),
    "digraph": (
        "PermDigraph", "Subgraph", "build", "embedded_loops", "is_face_subgraph", "strongly_connected_components",
        "subgraph",
    ),
    "paths": (
        "DiPath", "PathPoset", "build_poset", "comparability", "concat", "lift_count", "lifts", "path",
        "project",
    ),
    "drift": (
        "DriftMatrix", "DriftProfile", "classify_loop", "compose", "edge_profile", "loop_drift",
        "path_profile", "subgraph_drifts", "synthesize_totally_driftless_loop",
    ),
    "flows": (
        "as_flow", "census", "cycle_decompose", "face_realizable", "flow_residual", "support_face",
    ),
    "maps": (
        "CyclicRanking", "IntervalMap", "Piece", "block_sum", "builtin", "cyclic_lift", "iterate",
        "permutation_map", "realize_flow",
    ),
    "analysis": (
        "PatternReport", "empirical_distribution", "entropy_estimate", "exact_distribution",
        "exclusion_type_test", "forbidden_patterns", "realized_patterns",
    ),
    "cantor": (
        "IntervalTree", "SeparatorTree", "assemble_truncated_map", "build_interval_tree",
        "build_separator_tree", "verify_construction",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules that ``orderflow.<name>`` reaches without importing them first.
_SUBMODULES = frozenset(_EXPORTS) | {"caps", "errors", "exactnum"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
