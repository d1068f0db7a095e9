"""Marked permutation graphs: cubic graphs whose distinguished perfect
matching leaves two chordless cycles.

The package builds crossing graphs of the standard two-row drawing,
extracts certified Petersen subdivisions through a prescribed matching
edge, enumerates all matched 4-cycles and, by an exhaustive rank-pattern
search, all Petersen witnesses, generates the extremal G_k family, and
ships executable checkers for the structural lemmas at desk scale.
"""

__version__ = "0.1.0"

from .census import (
    CensusReport,
    census_report,
    check_lower_bound,
    check_redrawing,
    check_replace,
    check_zhang,
    count_per_edge,
    enumerate_m_p10,
    exhaustive_scan,
    random_instance,
)
from .cograph import InducedPath4, find_induced_p4
from .core import (
    PETERSEN,
    PRISM,
    FourCycle,
    MarkedPermutationGraph,
    SuppressedGraph,
    apply_symmetry,
    enumerate_m_c4,
    find_cyclic_cut,
    girth,
    is_cyclically_5_edge_connected,
    is_petersen,
    parse_instance,
    parse_instances,
    relabel_witness,
    suppress_match,
    validate,
)
from .crossing import (
    CrossingGraph,
    build_crossing_graph,
    standard_drawing,
)
from .family import (
    EdgeClass,
    EdgeClassification,
    GkInstance,
    classify_edge,
    generate_gk,
    verify_gk,
)
from .witness import (
    C4ReduceStep,
    P4FoundStep,
    PetersenWitness,
    find_p10_through,
    p10_from_p4,
    replay_trace,
    witness_report_dict,
)

__all__ = [
    "__version__",
    "C4ReduceStep",
    "CensusReport",
    "CrossingGraph",
    "EdgeClass",
    "EdgeClassification",
    "FourCycle",
    "GkInstance",
    "InducedPath4",
    "MarkedPermutationGraph",
    "P4FoundStep",
    "PETERSEN",
    "PRISM",
    "PetersenWitness",
    "SuppressedGraph",
    "apply_symmetry",
    "build_crossing_graph",
    "census_report",
    "check_lower_bound",
    "check_redrawing",
    "check_replace",
    "check_zhang",
    "classify_edge",
    "count_per_edge",
    "enumerate_m_c4",
    "enumerate_m_p10",
    "exhaustive_scan",
    "find_cyclic_cut",
    "find_induced_p4",
    "find_p10_through",
    "generate_gk",
    "girth",
    "is_cyclically_5_edge_connected",
    "is_petersen",
    "p10_from_p4",
    "parse_instance",
    "parse_instances",
    "random_instance",
    "relabel_witness",
    "replay_trace",
    "standard_drawing",
    "suppress_match",
    "validate",
    "verify_gk",
    "witness_report_dict",
]
