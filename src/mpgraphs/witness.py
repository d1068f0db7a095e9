"""Constructive extraction of a Petersen subdivision through a matching edge.

Given an edge contained in every matched 4-cycle, the engine repeats one
of two moves until a certificate appears:

* a matched 4-cycle through the edge is removed and its degree-2 ends
  suppressed (``c4_reduce``);
* otherwise the crossing graph at the edge has an induced P4, and the
  anchor plus the path vertices are the witness (``p10_from_p4``).

The second move cannot fail, by this lemma: a 5-subset X containing a is a
Petersen witness iff X - a induces a P4 in the crossing graph H_a.  Both
sides depend only on the rank pattern of sigma on X and on a's place in
it, so the 600 cases at m = 5, checked in the tests, prove it for every m.
The paper's theorem gives every 4-cycle-free state a witness through its
anchor, hence an induced P4 in H_a; a P4-free one would refute the theorem
and raises InternalInvariantViolated.

Each reduction records an index map, so the witness found downstream lifts
to the original instance, where it is re-verified before being returned.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .cograph import InducedPath4, find_induced_p4
from .core import (
    FourCycle,
    MarkedPermutationGraph,
    _check_index,
    _subset_is_petersen,
    enumerate_m_c4,
    validate,
)
from .crossing import CrossingGraph, build_crossing_graph
from .errors import (
    InternalInvariantViolated,
    NotAC4ThroughE,
    NotAnInducedP4,
    PreconditionViolated,
    TooSmall,
)

PetersenWitness = tuple[int, int, int, int, int]


class C4ReduceStep(NamedTuple):
    z: int

    def to_json_dict(self) -> dict:
        return {"step": "C4Reduce", "z": self.z}


class P4FoundStep(NamedTuple):
    a: int
    path: InducedPath4

    def to_json_dict(self) -> dict:
        return {"step": "P4Found", "a": self.a, "path": list(self.path.vertices())}


TraceStep = Union[C4ReduceStep, P4FoundStep]


class ReductionTrace(NamedTuple):
    """The proof steps behind a witness.  Each step's indices refer to the
    instance current at that point of a replay; the last step is P4Found."""

    steps: tuple[TraceStep, ...]

    def to_json_dict(self) -> list[dict]:
        return [s.to_json_dict() for s in self.steps]


def witness_report_dict(witness: PetersenWitness, trace: ReductionTrace) -> dict:
    return {"edges": list(witness), "trace": trace.to_json_dict()}


def p10_from_p4(H: CrossingGraph, p: InducedPath4) -> PetersenWitness:
    """Anchor plus the four path vertices certify a Petersen subdivision.

    The path must be an induced P4 of the crossing graph H (checked;
    NotAnInducedP4 otherwise).  The two geometric cases behind this fact
    need not be distinguished: the result is verified by the rank-pattern
    test (core._subset_is_petersen) and a failure would abort loudly.
    """
    G, a = H.graph, H.anchor
    quad = p.vertices()
    if len(set(quad)) != 4 or any(v not in H.vertices for v in quad):
        raise NotAnInducedP4("path vertices must be 4 distinct non-anchor indices", path=list(quad), anchor=a)
    required = [(p.x, p.y), (p.y, p.z), (p.z, p.w)]
    forbidden = [(p.x, p.z), (p.x, p.w), (p.y, p.w)]
    for u, v in required:
        if not H.has_edge(u, v):
            raise NotAnInducedP4(f"missing edge {u}-{v}", path=list(quad), anchor=a, missing=[u, v])
    for u, v in forbidden:
        if H.has_edge(u, v):
            raise NotAnInducedP4(f"chord {u}-{v}", path=list(quad), anchor=a, chord=[u, v])
    X = tuple(sorted((a,) + quad))
    if not _subset_is_petersen(G, X):
        raise InternalInvariantViolated(
            "induced P4 did not yield a Petersen subdivision",
            instance=G.to_text(),
            anchor=a,
            path=list(quad),
        )
    return X  # type: ignore[return-value]


class C4Reduction(NamedTuple):
    graph: MarkedPermutationGraph
    index_map: tuple[int, ...]  # new A-index -> old A-index


def c4_reduce(G: MarkedPermutationGraph, a: int, z: int) -> C4Reduction:
    """Remove matching edge z of the 4-cycle a,z,z',a' and suppress the two
    degree-2 ends.  Surviving A-indices keep their cyclic order, so
    witnesses lift through the returned index map unchanged."""
    _check_index(G, a, "edge")
    _check_index(G, z, "edge")
    if G.m == 3:
        raise TooSmall("cannot reduce below the 6-vertex instance", m=3)
    m, sigma = G.m, G.sigma
    if z not in ((a + 1) % m, (a - 1) % m) or (sigma[z] - sigma[a]) % m not in (1, m - 1):
        raise NotAC4ThroughE(f"edges {a} and {z} do not span a matched 4-cycle", a=a, z=z)
    survivors = [i for i in range(m) if i != z]
    sz = sigma[z]
    new_sigma = [sigma[i] - (1 if sigma[i] > sz else 0) for i in survivors]
    return C4Reduction(validate(m - 1, new_sigma), tuple(survivors))


class _Run(NamedTuple):
    """An engine run or replay: the current instance, the anchor's index in
    it, its A-index -> original A-index map, the steps applied so far and,
    after P4Found, the witness in the original instance."""

    graph: MarkedPermutationGraph
    a: int
    to_orig: tuple[int, ...]
    steps: tuple[TraceStep, ...] = ()
    witness: PetersenWitness | None = None


def _apply_step(run: _Run, step: TraceStep, H: CrossingGraph | None) -> _Run:
    """The run after ``step``, with the step appended; H is the current
    instance's crossing graph at the anchor, None for C4Reduce.  P4Found
    sets the witness, lifted to the original instance.  A step of any
    other type raises InternalInvariantViolated."""
    cur, a, to_orig, steps, _ = run
    if isinstance(step, C4ReduceStep):
        graph, index_map = c4_reduce(cur, a, step.z)
        return _Run(graph, index_map.index(a), tuple(to_orig[old] for old in index_map), steps + (step,))
    if not isinstance(step, P4FoundStep):
        raise InternalInvariantViolated("unknown trace step", step=repr(step))
    if step.a != a:
        raise InternalInvariantViolated("trace anchor mismatch", expected=a, recorded=step.a)
    local = p10_from_p4(H, step.path)
    witness = tuple(sorted(to_orig[v] for v in local))
    return run._replace(steps=steps + (step,), witness=witness)


def find_p10_through(
    G: MarkedPermutationGraph, e: int
) -> tuple[PetersenWitness, ReductionTrace]:
    """Certified Petersen subdivision through matching edge ``e``.

    Requires e to lie in every matched 4-cycle; otherwise
    PreconditionViolated carries a counterexample cycle.  Each iteration
    chooses a step and applies it, with the crossing graph it chose from,
    by the code replay_trace uses, so the trace replays to the same
    witness.  The returned witness is re-verified in the original
    instance.  A 4-cycle-free state whose crossing graph at the anchor is
    P4-free would refute the paper's theorem and raises
    InternalInvariantViolated.
    """
    return _find_p10_through(G, e, enumerate_m_c4(G))


def _find_p10_through(
    G: MarkedPermutationGraph, e: int, c4s: list[FourCycle]
) -> tuple[PetersenWitness, ReductionTrace]:
    """find_p10_through(G, e), given c4s = enumerate_m_c4(G) by a caller
    that has listed them already."""
    _check_index(G, e, "edge")
    for c4 in c4s:
        if not c4.contains_edge(e):
            raise PreconditionViolated(
                f"matched 4-cycle ({c4.i},{c4.j}) avoids edge {e}",
                c4=[c4.i, c4.j],
                edge=e,
            )
    run = _Run(G, e, tuple(range(G.m)))
    while run.witness is None:
        cur, a = run.graph, run.a
        for c4 in c4s:
            if not c4.contains_edge(a):
                raise InternalInvariantViolated(
                    "a reduction step broke the every-C4-through-e invariant",
                    instance=cur.to_text(),
                    edge=a,
                    c4=[c4.i, c4.j],
                    trace=[s.to_json_dict() for s in run.steps],
                )
        if cur.m == 3:
            raise InternalInvariantViolated(
                "reached the 6-vertex base case with the precondition intact",
                instance=cur.to_text(),
                edge=a,
            )
        H = None
        if c4s:
            # deterministic choice: reduce the partner with smallest index
            step = C4ReduceStep(min(c4.i if c4.j == a else c4.j for c4 in c4s))
        else:
            H = build_crossing_graph(cur, a)
            p4 = find_induced_p4(H)
            if p4 is None:
                raise InternalInvariantViolated(
                    "4-cycle-free state with a P4-free crossing graph at the "
                    "anchor: a counterexample to the extraction theorem",
                    instance=cur.to_text(),
                    anchor=a,
                )
            step = P4FoundStep(a, p4)
        run = _apply_step(run, step, H)
        c4s = enumerate_m_c4(run.graph) if run.witness is None else []
    witness = run.witness
    if e not in witness or not _subset_is_petersen(G, witness):
        raise InternalInvariantViolated(
            "lifted witness failed re-verification in the original instance",
            instance=G.to_text(),
            edge=e,
            witness=list(witness),
            trace=[s.to_json_dict() for s in run.steps],
        )
    return witness, ReductionTrace(run.steps)


def replay_trace(
    G: MarkedPermutationGraph, e: int, trace: ReductionTrace
) -> PetersenWitness:
    """Re-apply the recorded steps from the original instance, with the
    engine's own step code, and return the witness of the first P4Found
    lifted to G; for a trace the engine wrote, that is the witness it
    returned.  A recorded anchor that differs from the current one, a step
    that is neither C4Reduce nor P4Found, or a trace without P4Found,
    raises InternalInvariantViolated.  Only P4Found needs a crossing
    graph."""
    run = _Run(G, e, tuple(range(G.m)))
    for step in trace.steps:
        H = build_crossing_graph(run.graph, run.a) if isinstance(step, P4FoundStep) else None
        run = _apply_step(run, step, H)
        if run.witness is not None:
            return run.witness
    raise InternalInvariantViolated("trace ended without P4Found", steps=len(trace.steps))
