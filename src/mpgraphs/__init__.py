"""Marked permutation graphs: cubic graphs whose distinguished perfect
matching leaves two chordless cycles.

The package builds crossing graphs of the standard two-row drawing,
extracts certified Petersen subdivisions through a prescribed matching
edge, enumerates all matched 4-cycles and, by an exhaustive rank-pattern
search, all Petersen witnesses, generates the extremal G_k family, and
ships executable checkers for the structural lemmas at desk scale.

``import mpgraphs`` loads the census module, with the core and errors
modules it needs, and no other.  Every other public name is read from its
module by ``__getattr__`` (PEP 562), which imports that module on first
use and leaves the package namespace as it is.
"""

__version__ = "0.1.0"

import importlib

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

# the module that defines each public name the census module does not bind
_MODULE_OF = {
    name: module
    for module, names in {
        "cograph": ("InducedPath4", "find_induced_p4"),
        "core": (
            "PETERSEN",
            "PRISM",
            "FourCycle",
            "MarkedPermutationGraph",
            "PetersenWitness",
            "SuppressedGraph",
            "apply_symmetry",
            "enumerate_m_c4",
            "find_cyclic_cut",
            "girth",
            "is_cyclically_5_edge_connected",
            "is_petersen",
            "parse_instance",
            "parse_instances",
            "relabel_witness",
            "suppress_match",
            "validate",
        ),
        "crossing": ("CrossingGraph", "build_crossing_graph", "standard_drawing"),
        "family": (
            "EdgeClass",
            "EdgeClassification",
            "GkInstance",
            "classify_edge",
            "generate_gk",
            "verify_gk",
        ),
        "witness": (
            "C4ReduceStep",
            "P4FoundStep",
            "find_p10_through",
            "p10_from_p4",
            "replay_trace",
            "witness_report_dict",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})


__all__ = [
    "__version__",
    "CensusReport",
    "census_report",
    "check_lower_bound",
    "check_redrawing",
    "check_replace",
    "check_zhang",
    "count_per_edge",
    "enumerate_m_p10",
    "exhaustive_scan",
    "random_instance",
    *_MODULE_OF,
]
