"""Constructive extraction of a Petersen subdivision through a matching edge.

Given an edge e in every matched 4-cycle, the paper deletes a matched
4-cycle through e and suppresses its ends until none is left; then the
crossing graph at e has an induced P4, and e plus the path is the witness.
The precondition is one pass over the m - 2 pairs of A-neighbours that
avoid e, the consecutive pairs of the A-row read from e + 1 round to
e - 1, for a value step of 1 mod m; only a refusal lists the matched
4-cycles, to name the first that avoids e.

The engine builds no reduced instance.  Each deletion removes a partner
of e, an A-neighbour of e whose value is next to sigma[e], so four counts
are the whole state (_Peel): the partners peeled left and right of e on
the A-row, and below and above sigma[e].  Each is recorded as C4Reduce(z),
z its current index, i.e. its rank among the survivors.  Then one crossing
graph, H_e of G, is searched for its first induced P4 among the survivors
only, which is the P4 the reduced instance gives, by steps 1-4; step 5
pins the witness to the census:

1. X containing a is a witness iff X - a induces a P4 in H_a.  Both sides
   depend only on the rank pattern of sigma on X and a's place in it, so
   the 600 cases at m = 5, checked in the tests, prove it for every m.
2. A partner z of a is next to a on both rows of the drawing anchored at
   a, so it crosses every other segment or none: it is isolated or
   universal in H_a and lies in no induced P4, so in no witness through a.
3. Deleting z keeps the survivors' order on both rows, read from a, so
   the reduced crossing graph is H_a - z relabelled monotonically; after
   the peel, it is H_e induced on the survivors: H_e, its rows untouched,
   with the survivors as its vertices.  The peeled indices are the cyclic
   interval e - l .. e + r, so the survivors are the indices outside it,
   two ranges, and the survivor t places after e, counting survivors
   only, has current index (a + t) mod n, with a e's current index and n
   the number of survivors.  The search reads a few of H_e's rows, so
   each is computed, in O(m), when it is first read: O(rows read * m)
   time and memory, not the m^2/8 bytes of every row.  Below a crossover
   in m, measured, one walk that builds them all is faster
   (crossing._engine_crossing_graph).
4. find_induced_p4 returns the lexicographically least induced P4,
   oriented from its smaller end, and a monotone relabelling keeps both.
5. The witness is min(X for X in enumerate_m_p10(G) if e in X).  A
   peeled partner is isolated or universal once the partners peeled
   before it are gone, so, by induction, no induced P4 of H_e contains
   one, and the survivors' first P4 is H_e's own first P4.  Inserting e
   into two sorted 4-sets keeps their lexicographic order, so by step 1
   e plus that P4 is the least witness through e.  P4Found records the
   path in current indices by step 3's map, which replay_trace inverts.

The witness is certified in G.  The paper's theorem gives every
4-cycle-free state a witness through its anchor, hence an induced P4; a
P4-free one would refute it and raises InternalInvariantViolated.
replay_trace re-runs the same peel and certifies the path from the five
points alone, as p10_from_p4 does: the anchor and the four path points
are placed once in the drawing anchored at e, each of the six pairs is
then two comparisons of those positions, and the rank pattern is one
sort of five values.  So replay makes no crossing graph, and an engine
call computes only the rows its search reads.
"""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple

from .cograph import InducedPath4, find_induced_p4
from .core import (
    MarkedPermutationGraph,
    PetersenWitness,
    _check_index,
    _subset_is_petersen,
    enumerate_m_c4,
)
from .crossing import CrossingGraph, _engine_crossing_graph
from .errors import (
    InternalInvariantViolated,
    NotAC4ThroughE,
    NotAnInducedP4,
    PreconditionViolated,
)


class C4ReduceStep(NamedTuple):
    z: int


class P4FoundStep(NamedTuple):
    a: int
    path: InducedPath4


def witness_report_dict(witness: PetersenWitness, steps: tuple[C4ReduceStep | P4FoundStep, ...]) -> dict:
    """The witness document: the edges, and each step as its name, the
    class name less ``Step``, with its fields.  json.dumps writes the
    path, a tuple, as an array."""
    return {
        "edges": list(witness),
        "trace": [{"step": type(s).__name__.removesuffix("Step"), **s._asdict()} for s in steps],
    }


def p10_from_p4(H: CrossingGraph, p: InducedPath4) -> PetersenWitness:
    """Anchor plus the four path vertices certify a Petersen subdivision.

    The path is read as four indices by unpacking, each through
    operator.index, so any 4-tuple of integers serves; it must be an
    induced P4 of the crossing graph H.  NotAnInducedP4 otherwise, with
    the path's repr if it is not four indices.  Its six pairs are tested
    on H.graph at H.anchor, within H.vertices, from the four points'
    positions in the drawing, each computed once: ``H.adj`` is not read,
    so hand-edited rows are not consulted.  The two geometric cases
    behind this fact need not be distinguished: the result is verified by
    the rank-pattern test (core._subset_is_petersen) and a failure would
    abort loudly.  That test sorts the five indices by value once, which
    gives the inverse of the rank pattern; PETERSEN_PATTERNS holds the
    inverse of each of its patterns, so the verdict is the pattern's own.
    """
    return _certify(H.graph, H.anchor, p, H.vertices.__contains__)


def _certify(G: MarkedPermutationGraph, a: int, p: InducedPath4, is_vertex: Callable[[int], bool]) -> PetersenWitness:
    """p10_from_p4 on the crossing graph of G at a whose vertices are
    those is_vertex accepts.  The path's points are placed once on the two
    rows of the drawing anchored at a, at (v - a) mod m and
    (sigma[v] - sigma[a]) mod m, and two of them cross iff the rows order
    them oppositely: each of the six pairs is two comparisons, and no row
    is computed."""
    try:
        x, y, z, w = path = tuple(map(operator.index, p))
    except (TypeError, ValueError):
        raise NotAnInducedP4("path must be 4 integer indices", path=repr(p), anchor=a) from None
    if len(set(path)) != 4 or not all(map(is_vertex, path)):
        raise NotAnInducedP4("path vertices must be 4 distinct non-anchor indices", path=list(path), anchor=a)
    m, sigma = G.m, G.sigma
    s = sigma[a]
    px, py, pz, pw = (x - a) % m, (y - a) % m, (z - a) % m, (w - a) % m
    qx, qy, qz, qw = (sigma[x] - s) % m, (sigma[y] - s) % m, (sigma[z] - s) % m, (sigma[w] - s) % m
    # the path edges x-y, y-z, z-w, then the chords x-z, x-w, y-w, each
    # tested only when the ones before it pass
    if (px < py) == (qx < qy):
        raise NotAnInducedP4(f"missing edge {x}-{y}", path=list(path), anchor=a, missing=[x, y])
    if (py < pz) == (qy < qz):
        raise NotAnInducedP4(f"missing edge {y}-{z}", path=list(path), anchor=a, missing=[y, z])
    if (pz < pw) == (qz < qw):
        raise NotAnInducedP4(f"missing edge {z}-{w}", path=list(path), anchor=a, missing=[z, w])
    if (px < pz) != (qx < qz):
        raise NotAnInducedP4(f"chord {x}-{z}", path=list(path), anchor=a, chord=[x, z])
    if (px < pw) != (qx < qw):
        raise NotAnInducedP4(f"chord {x}-{w}", path=list(path), anchor=a, chord=[x, w])
    if (py < pw) != (qy < qw):
        raise NotAnInducedP4(f"chord {y}-{w}", path=list(path), anchor=a, chord=[y, w])
    X = tuple(sorted((a, *path)))
    if not _subset_is_petersen(G, X):
        raise InternalInvariantViolated(
            "induced P4 did not yield a Petersen subdivision",
            instance=G.to_text(),
            anchor=a,
            path=list(path),
        )
    return X  # type: ignore[return-value]


class _Peel(NamedTuple):
    """The partners of e deleted so far: l and r of them left and right of
    e on the A-row, d and u of them below and above sigma[e] in value."""

    l: int = 0
    r: int = 0
    d: int = 0
    u: int = 0


_NO_PEEL = _Peel()


def _partners(G: MarkedPermutationGraph, e: int, p: _Peel) -> tuple[int, dict[int, _Peel]]:
    """e's current index and, by current index, each partner left after p,
    with the peel after deleting it.  The peeled A-interval is lo .. hi - 1
    mod m, lo = e - l and hi = e + r + 1, so e's current index counts the
    indices 0 .. lo - 1, less hi - m of them if the interval wraps past
    m - 1.  e's current A-neighbours lie just outside the peeled A-interval,
    and a partner's value just outside the peeled value interval.  At 3
    edges every pair is a matched 4-cycle, so no peel meeting the
    precondition gets there: InternalInvariantViolated."""
    m, sigma = G.m, G.sigma
    l, r, d, u = p
    n = m - l - r
    if n <= 3:
        raise InternalInvariantViolated("the peel reached the 6-vertex base case", instance=G.to_text(), edge=e)
    lo, hi = e - l, e + r + 1
    a = (lo if lo > 0 else 0) - (hi - m if hi > m else 0)
    v = sigma[e]
    below, above = (v - d - 1) % m, (v + u + 1) % m
    partners = {}
    s = sigma[lo - 1]  # lo - 1 > -m: a negative index reads from the end, as mod m
    if s == below or s == above:
        partners[(a - 1) % n] = _Peel(l + 1, r, d + (s == below), u + (s == above))
    s = sigma[hi % m]
    if s == below or s == above:
        partners[(a + 1) % n] = _Peel(l, r + 1, d + (s == below), u + (s == above))
    return a, partners


def _survivor_graph(G: MarkedPermutationGraph, e: int, p: _Peel) -> CrossingGraph:
    """H_e with the survivors less e as ``vertices``: the indices outside
    the peeled cyclic interval e - l .. e + r, ascending, which is one
    range if the interval wraps past 0 or past m - 1, and two if not.
    crossing._engine_crossing_graph makes H_e, with every index but e as
    its vertices: whole below a crossover in m, and from it on with each
    row computed, in O(m), when it is first read, so O(rows read * m) time
    and memory.  With nothing peeled that graph is the survivors' own;
    else its rows are, with the survivors sliced from its vertices, where
    index v sits at v below e and at v - 1 above.  Rows keep the peeled
    vertices' bits, which no reader needs masked: find_induced_p4 walks
    only ``vertices`` and orients its path from survivors' bits of
    survivors' rows, its candidate mask names only vertices completing an
    induced P4 of H_e, none peeled (step 5), and p10_from_p4 reads no row."""
    H = _engine_crossing_graph(G, e)
    if not p.l + p.r:
        return H
    m, vs = G.m, H.vertices
    lo, hi = e - p.l, e + p.r + 1
    if lo < 0:  # the interval wraps past 0: the survivors are hi .. m + lo - 1
        vs = vs[hi - 1 : m + lo - 1]
    elif hi > m:  # past m - 1: hi - m .. lo - 1
        vs = vs[hi - m : lo]
    else:
        vs = vs[:lo] + vs[hi - 1 :]
    return CrossingGraph(e, G, vs, H.adj)


def find_p10_through(
    G: MarkedPermutationGraph, e: int
) -> tuple[PetersenWitness, tuple[C4ReduceStep | P4FoundStep, ...]]:
    """Certified Petersen subdivision through matching edge ``e``, and the
    proof steps behind it.

    Requires e to lie in every matched 4-cycle; otherwise
    PreconditionViolated carries a counterexample cycle.  The peel deletes
    the partner with the least current index first, as the chain does.
    Each step's indices are current ones: those of the instance reduced by
    the C4Reduce steps before it, its survivors ranked in ascending order.
    The steps end with P4Found, the survivors' first P4, and replay to the
    same witness (see the module docstring).
    """
    e = _check_index(G, e, "edge")
    m, sigma = G.m, G.sigma
    # the pairs (i, i + 1 mod m) that avoid e are the consecutive pairs of
    # the A-row read from e + 1 round to e - 1; one is a matched 4-cycle iff
    # its values differ by 1 mod m
    ring = sigma[e + 1 :] + sigma[:e]
    if not {1, -1, m - 1, 1 - m}.isdisjoint(map(operator.sub, ring[1:], ring)):
        c4 = next(c4 for c4 in enumerate_m_c4(G) if e not in c4)
        raise PreconditionViolated(
            f"matched 4-cycle ({c4.i},{c4.j}) avoids edge {e}",
            c4=[c4.i, c4.j],
            edge=e,
        )
    p, steps = _NO_PEEL, []
    a, partners = _partners(G, e, p)
    while partners:
        z = min(partners)
        steps.append(C4ReduceStep(z))
        p = partners[z]
        a, partners = _partners(G, e, p)
    H = _survivor_graph(G, e, p)
    path = find_induced_p4(H)
    if path is None:
        raise InternalInvariantViolated(
            "4-cycle-free state with a P4-free crossing graph at the "
            "anchor: a counterexample to the extraction theorem",
            instance=G.to_text(),
            anchor=e,
        )
    witness = p10_from_p4(H, path)
    if not steps:  # nothing peeled: every index is its own current index
        return witness, (P4FoundStep(e, path),)
    # step 3's map: survivor v is (v - o) mod m survivors after e, o = e + r,
    # and a is e's current index among the n survivors
    n, o = m - p.l - p.r, e + p.r
    x, y, z, w = path
    path = InducedPath4(
        (a + (x - o) % m) % n, (a + (y - o) % m) % n, (a + (z - o) % m) % n, (a + (w - o) % m) % n
    )
    steps.append(P4FoundStep(a, path))
    return witness, tuple(steps)


def replay_trace(
    G: MarkedPermutationGraph, e: int, steps: tuple[C4ReduceStep | P4FoundStep, ...]
) -> PetersenWitness:
    """Re-run the engine's peel by the recorded steps and return the
    witness of the first P4Found, certified in G; for the steps the engine
    wrote, that is the witness it returned.  e is checked as the engine
    checks it (IndexOutOfRange).  A C4Reduce z that is no
    current partner raises NotAC4ThroughE.  P4Found is checked as a path
    of the survivors' crossing graph: a path index naming no survivor raises
    NotAnInducedP4, and p10_from_p4's checks the rest, in G's indices.  A
    wrong anchor, a step of another type, or no P4Found raises
    InternalInvariantViolated.  No crossing graph is made and no row
    computed: the path's pairs are read off the points, in O(1) each."""
    e = _check_index(G, e, "edge")
    p, a = _NO_PEEL, e
    for step in steps:
        if isinstance(step, C4ReduceStep):
            a, partners = _partners(G, e, p)
            if step.z not in partners:
                raise NotAC4ThroughE(f"edges {a} and {step.z} do not span a matched 4-cycle", a=a, z=step.z)
            p = partners[step.z]
            a -= step.z < a  # deleting a partner below e moves e down one
        elif isinstance(step, P4FoundStep):
            m = G.m
            n = m - p.l - p.r
            if step.a != a:
                raise InternalInvariantViolated("trace anchor mismatch", expected=a, recorded=step.a)
            try:
                path = list(map(operator.index, step.path))
            except TypeError:  # not a sequence of indices: the certifier refuses it
                return _certify(G, e, step.path, e.__ne__)
            if path and (min(path) < 0 or max(path) >= n):
                raise NotAnInducedP4(f"path index outside 0..{n - 1}", path=path, anchor=a)
            if n < m:
                # the survivors in cyclic order from e are e, then (e + r + t) mod m
                # for t = 1 .. n - 1, and their current indices (a + t) mod n
                path = [e if v == a else (e + p.r + (v - a) % n) % m for v in path]
            return _certify(G, e, tuple(path), e.__ne__)
        else:
            raise InternalInvariantViolated("unknown trace step", step=repr(step))
    raise InternalInvariantViolated("trace ended without P4Found", steps=len(steps))
