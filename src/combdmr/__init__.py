"""Realise integer distance matrices by unweighted graphs.

Decides whether an n x n integer distance matrix is the anchor metric of an
unweighted graph on at most n + k vertices (exactly for k in {0, 1, 2}, by
exhaustive search for general small k), decides tree realisability, and
builds colourability gadget instances.
"""

from .matrix import (
    DistanceMatrix,
    RawMatrix,
    ValidationError,
    ViolationKind,
    distance_matrix,
    validate,
)
from .graph import (
    INF,
    Realisation,
    SimpleGraph,
    WeightedSkeleton,
    anchor_distances,
    bfs_apsp,
    expand_elementary_paths,
    q_skeleton,
    q_zero,
    skeleton_distances,
    unit_graph,
    verify_realisation,
)
from .solvers import (
    SearchSpaceTooLarge,
    bounds,
    build_phi1,
    build_phi2,
    build_phi2_prime,
    solve_exact,
    solve_k0,
    solve_k1,
    solve_k2,
)
from .tree import (
    WeightedTree,
    build_weighted_tree,
    check_zareckii,
    solve_tree,
)
from .reduction import (
    Colouring,
    DisconnectedInput,
    ImproperColouring,
    MalformedRealisation,
    chromatic_number_bruteforce,
    extract_colouring,
    proper_colouring,
    realise_from_colouring,
    reduce,
)

__all__ = [
    "Colouring",
    "DisconnectedInput",
    "DistanceMatrix",
    "INF",
    "ImproperColouring",
    "MalformedRealisation",
    "RawMatrix",
    "Realisation",
    "SearchSpaceTooLarge",
    "SimpleGraph",
    "ValidationError",
    "ViolationKind",
    "WeightedSkeleton",
    "WeightedTree",
    "anchor_distances",
    "bfs_apsp",
    "bounds",
    "build_phi1",
    "build_phi2",
    "build_phi2_prime",
    "build_weighted_tree",
    "check_zareckii",
    "chromatic_number_bruteforce",
    "distance_matrix",
    "expand_elementary_paths",
    "extract_colouring",
    "proper_colouring",
    "q_skeleton",
    "q_zero",
    "realise_from_colouring",
    "reduce",
    "skeleton_distances",
    "solve_exact",
    "solve_k0",
    "solve_k1",
    "solve_k2",
    "solve_tree",
    "unit_graph",
    "validate",
    "verify_realisation",
]
