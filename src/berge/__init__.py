"""Berge paths and cycles in linear {2,3}-uniform hypergraphs.

Exact solvers, extremal construction generators, structural checks around
longest Berge cycles, and exhaustive small-instance verification of the
edge and shadow-edge bounds for path-free linear hypergraphs.
"""

from .errors import (
    BadParityError,
    BadResidueError,
    BadSharingPatternError,
    BergeError,
    CapExceededError,
    DuplicateEdgeError,
    EdgeSizeError,
    FormatError,
    InstanceTooLargeError,
    LinearityError,
    TripleTouchesCycleError,
    VertexOnCycleError,
    VertexOutOfRangeError,
)
from .hypergraph import (
    LinearHypergraph,
    ShadowGraph,
    degree,
    disjoint_union,
    format_hg,
    load_hg,
    parse_hg,
    shadow,
    shadow_degree,
    validate,
)
from .solver import (
    BergeCycle,
    BergePath,
    all_longest_berge_cycles,
    has_berge_path,
    is_valid_berge_cycle,
    is_valid_berge_path,
    longest_berge_cycle,
    longest_berge_path,
    oracle_longest_cycle,
    oracle_longest_path,
)

__all__ = [
    "BadParityError",
    "BadResidueError",
    "BadSharingPatternError",
    "BergeCycle",
    "BergeError",
    "BergePath",
    "CapExceededError",
    "DuplicateEdgeError",
    "EdgeSizeError",
    "FormatError",
    "InstanceTooLargeError",
    "LinearHypergraph",
    "LinearityError",
    "ShadowGraph",
    "TripleTouchesCycleError",
    "VertexOnCycleError",
    "VertexOutOfRangeError",
    "all_longest_berge_cycles",
    "degree",
    "disjoint_union",
    "format_hg",
    "has_berge_path",
    "is_valid_berge_cycle",
    "is_valid_berge_path",
    "load_hg",
    "longest_berge_cycle",
    "longest_berge_path",
    "oracle_longest_cycle",
    "oracle_longest_path",
    "parse_hg",
    "shadow",
    "shadow_degree",
    "validate",
]

__version__ = "0.1.0"
