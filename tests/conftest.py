"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms: girth is
re-derived by exhaustive simple-cycle enumeration, Petersen recognition by
a networkx isomorphism test against the reference graph, P4-freeness
by twin elimination, crossing rows by a pair loop, drawn crossings by a
geometric recount of the segments, a crossing-graph pair by the two
points' rotated positions, the first induced P4 by
a scan over 4-subsets, the number of induced P4s by counting the ends of
each middle edge on bitmasks, the witness engine by the paper's chain of
reduced instances (c4_reduce), the P4 certificate by one that reads the
path's six pairs off the crossing graph's rows, the cyclic cut by a search over every set
of at most 4 edges (with a union-find pass, or a count of vertices and
edges per component, for each), the replace lemma by a scan over 4-sets,
and the
census by the triple walk that takes three bisects and a slice for every
triple, and the census blocks by the walk that visits every triple and
reads its slice bounds from a per-position rank table, the census pair
stage by its two side masks, the text
reader by one that strips and splits each line, the instance text by a
join of m strs, and the family G_k by one dict table of every index.
"""

from __future__ import annotations

import inspect
import itertools
import operator
import random
import re
import sys
from bisect import bisect
from collections import Counter
from pathlib import Path
from typing import Iterator, NamedTuple

import networkx as nx
import pytest
from hypothesis import strategies as st

from mpgraphs import (
    PETERSEN,
    PRISM,
    EdgeClass,
    EdgeClassification,
    GkInstance,
    InducedPath4,
    MarkedPermutationGraph,
    SuppressedGraph,
    build_crossing_graph,
    enumerate_m_c4,
    find_induced_p4,
    generate_gk,
    p10_from_p4,
    validate,
)
from mpgraphs.census import Block
from mpgraphs.core import PETERSEN_PATTERNS, _check_index, _subset_is_petersen
from mpgraphs.errors import (
    InstanceTextError,
    InternalInvariantViolated,
    NotAC4ThroughE,
    NotAnInducedP4,
    PreconditionViolated,
    TooSmall,
)
from mpgraphs.witness import C4ReduceStep, P4FoundStep, PetersenWitness

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "fixtures"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def prism():
    return PRISM


@pytest.fixture
def petersen():
    return PETERSEN


@pytest.fixture(scope="session")
def gk1():
    return generate_gk(1)


@pytest.fixture(scope="session")
def gk2():
    return generate_gk(2)


@pytest.fixture(scope="session")
def gk300():
    """G_300 (m = 907), where a census that visits Theta(m^3) x2s takes
    seconds and one that visits only x2s that yield blocks takes well
    under one."""
    return generate_gk(300)


def line_runs(func, line_text: str, run) -> int:
    """How many times run() executes the one line of func whose stripped
    text is line_text: a clock-free count of one step of func, read by a
    line tracer that follows func's frames and no others."""
    return line_counts(func, [line_text], run)[0]


def line_counts(func, line_texts, run) -> list[int]:
    """line_runs for several lines of func at once, in one run: how many
    times run() executes each, in the order given."""
    counts = [0] * len(line_texts)

    def hit(n, frame):
        counts[n] += 1

    _trace_lines(func, line_texts, hit, run)
    return counts


def line_locals(func, line_text: str, names, run) -> list[tuple]:
    """The values of func's locals ``names`` each time run() reaches the
    one line of func whose stripped text is line_text, just before that
    line runs."""
    seen = []
    _trace_lines(func, [line_text], lambda n, frame: seen.append(tuple(frame.f_locals[k] for k in names)), run)
    return seen


def _trace_lines(func, line_texts, hit, run) -> None:
    """Run run() under a line tracer that follows func's frames and no
    others, and call hit(n, frame) whenever one is about to execute the
    line whose stripped text is line_texts[n]."""
    lines, first = inspect.getsourcelines(func)
    targets = {}
    for n, text in enumerate(line_texts):
        (line,) = [first + i for i, line in enumerate(lines) if line.strip() == text]
        targets[line] = n
    code = func.__code__

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in targets:
            hit(targets[frame.f_lineno], frame)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        run()
    finally:
        sys.settrace(previous)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def girth_by_cycle_enumeration(S: SuppressedGraph) -> int | None:
    """Minimum simple-cycle length by exhaustive DFS over edge-distinct
    closed walks without repeated intermediate vertices.  None if acyclic.
    Only suitable for the tiny multigraphs used in tests."""
    edges = list(enumerate(S.edges))
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(S.n)}
    for eid, (u, v) in edges:
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    best: int | None = None

    def extend(start: int, current: int, used_edges: set[int], visited: set[int], length: int):
        nonlocal best
        if best is not None and length >= best:
            return
        for nxt, eid in adj[current]:
            if eid in used_edges:
                continue
            if nxt == start and length >= 1:
                if best is None or length + 1 < best:
                    best = length + 1
                continue
            if nxt in visited:
                continue
            extend(start, nxt, used_edges | {eid}, visited | {nxt}, length + 1)

    for v in range(S.n):
        extend(v, v, set(), {v}, 0)
    return best


def to_networkx(S: SuppressedGraph) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(range(S.n))
    g.add_edges_from(S.edges)
    return g


def is_petersen_by_isomorphism(S: SuppressedGraph) -> bool:
    if S.n != 10 or len(S.edges) != 15:
        return False
    return nx.is_isomorphic(to_networkx(S), nx.petersen_graph())


def p4_free_by_twin_elimination(H) -> bool:
    """Repeatedly delete one vertex of a twin pair; P4-free iff the graph
    reduces to a single vertex (an induced P4 never contains twins, so a
    deletion preserves the verdict)."""
    active = list(H.vertices)
    while len(active) > 1:
        found = None
        for i, x in enumerate(active):
            for y in active[i + 1 :]:
                # named to keep clear of the networkx import
                nbr_x = {v for v in active if v != x and v != y and H.has_edge(x, v)}
                nbr_y = {v for v in active if v != x and v != y and H.has_edge(y, v)}
                if nbr_x == nbr_y:
                    found = x
                    break
            if found is not None:
                break
        if found is None:
            return False
        active.remove(found)
    return True


def crossing_adj_by_pairs(G, a: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The crossing graph's (vertices, adj) rows by the O(m^2) pair loop:
    x ~ y iff the rotated top and bottom positions order x, y oppositely."""
    m = G.m
    top = [(x - a) % m for x in range(m)]
    bot = [(G.sigma[x] - G.sigma[a]) % m for x in range(m)]
    adj = [0] * m
    verts = tuple(x for x in range(m) if x != a)
    for i, x in enumerate(verts):
        for y in verts[i + 1 :]:
            if (top[x] - top[y]) * (bot[x] - bot[y]) < 0:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return verts, tuple(adj)


Point = tuple[float, float]
Segment = tuple[Point, Point]


def _ccw(p: Point, q: Point, r: Point) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def count_segment_crossings(segments: list[Segment]) -> int:
    """Pairwise proper intersections (shared endpoints do not count): the
    geometric recount of drawn segments, O(len(segments)^2).  The drawing
    counts its crossings as the inversions of pi_a."""
    count = 0
    for i, (p, q) in enumerate(segments):
        for r, s in segments[i + 1 :]:
            d1 = _ccw(r, s, p)
            d2 = _ccw(r, s, q)
            d3 = _ccw(p, q, r)
            d4 = _ccw(p, q, s)
            if d1 * d2 < 0 and d3 * d4 < 0:
                count += 1
    return count


def crosses_by_positions(G, a: int, x: int, y: int) -> bool:
    """x ~ y in H_a, in O(1): the rotated positions (x - a) mod m and
    (sigma[x] - sigma[a]) mod m order x and y oppositely on the two rows."""
    m, sigma = G.m, G.sigma
    s = sigma[a]
    return ((x - a) % m < (y - a) % m) != ((sigma[x] - s) % m < (sigma[y] - s) % m)


def induced_path_order(H, quad):
    """If the 4 vertices induce a path, return it oriented from its
    smaller endpoint; otherwise None.  Degrees are counted pair by pair."""
    pairs = [(u, v) for i, u in enumerate(quad) for v in quad[i + 1 :]]
    edges = [(u, v) for u, v in pairs if H.has_edge(u, v)]
    if len(edges) != 3:
        return None
    deg = {v: 0 for v in quad}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    ends = sorted(v for v in quad if deg[v] == 1)
    if len(ends) != 2 or sorted(deg.values()) != [1, 1, 2, 2]:
        return None  # 3 edges but wrong degrees: triangle plus isolated vertex
    x, w = ends
    y = next(v for v in quad if v not in (x, w) and H.has_edge(x, v))
    z = next(v for v in quad if v not in (x, y, w))
    if not (H.has_edge(y, z) and H.has_edge(z, w)):
        return None
    return InducedPath4(x, y, z, w)


def first_p4_by_quads(H):
    """The first 4-subset of H.vertices, in lexicographic order, that
    induces a path, oriented by induced_path_order; None if H is P4-free.
    O(n^4)."""
    for quad in itertools.combinations(H.vertices, 4):
        p = induced_path_order(H, quad)
        if p is not None:
            return p
    return None


def induced_p4_count_by_bitmask(H) -> int:
    """The number of 4-subsets of H.vertices that induce a path, read off
    the adjacency bitmasks alone.  An induced path x-y-z-w has exactly one
    middle edge yz, and x-y-z-w is induced iff x is a neighbour of y off
    z's closed neighbourhood, w a neighbour of z off y's, and x misses w.
    So each edge y < z adds, over every such x, the number of such w that
    x misses.  O(n^3) big-int steps."""
    adj = H.adj
    within = sum(1 << v for v in H.vertices)
    total = 0
    for y, z in itertools.combinations(H.vertices, 2):
        if not adj[y] >> z & 1:
            continue
        ends_y = adj[y] & ~adj[z] & ~(1 << z) & within
        ends_z = adj[z] & ~adj[y] & ~(1 << y) & within
        while ends_y:
            low = ends_y & -ends_y
            ends_y ^= low
            total += (ends_z & ~adj[low.bit_length() - 1]).bit_count()
    return total


def p10_from_p4_by_rows(H, p) -> PetersenWitness:
    """p10_from_p4 reading the path's six pairs off H's rows by
    H.has_edge: the same checks, in the same order, with the same
    messages and certificates."""
    G, a = H.graph, H.anchor
    try:
        x, y, z, w = path = tuple(map(operator.index, p))
    except (TypeError, ValueError):
        raise NotAnInducedP4("path must be 4 integer indices", path=repr(p), anchor=a) from None
    if len(set(path)) != 4 or any(v not in H.vertices for v in path):
        raise NotAnInducedP4("path vertices must be 4 distinct non-anchor indices", path=list(path), anchor=a)
    for u, v in ((x, y), (y, z), (z, w)):
        if not H.has_edge(u, v):
            raise NotAnInducedP4(f"missing edge {u}-{v}", path=list(path), anchor=a, missing=[u, v])
    for u, v in ((x, z), (x, w), (y, w)):
        if H.has_edge(u, v):
            raise NotAnInducedP4(f"chord {u}-{v}", path=list(path), anchor=a, chord=[u, v])
    X = tuple(sorted((a, *path)))
    if not _subset_is_petersen(G, X):
        raise InternalInvariantViolated(
            "induced P4 did not yield a Petersen subdivision", instance=G.to_text(), anchor=a, path=list(path)
        )
    return X


class C4Reduction(NamedTuple):
    graph: MarkedPermutationGraph
    index_map: tuple[int, ...]  # new A-index -> old A-index


def c4_reduce(G: MarkedPermutationGraph, a: int, z: int) -> C4Reduction:
    """Remove matching edge z of the 4-cycle a,z,z',a' and suppress the two
    degree-2 ends.  Surviving A-indices keep their cyclic order, so
    witnesses lift through the returned index map unchanged."""
    a = _check_index(G, a, "edge")
    z = _check_index(G, z, "edge")
    if G.m == 3:
        raise TooSmall("cannot reduce below the 6-vertex instance", m=3)
    m, sigma = G.m, G.sigma
    if z not in ((a + 1) % m, (a - 1) % m) or (sigma[z] - sigma[a]) % m not in (1, m - 1):
        raise NotAC4ThroughE(f"edges {a} and {z} do not span a matched 4-cycle", a=a, z=z)
    survivors = [i for i in range(m) if i != z]
    sz = sigma[z]
    new_sigma = [sigma[i] - (1 if sigma[i] > sz else 0) for i in survivors]
    return C4Reduction(validate(m - 1, new_sigma), tuple(survivors))


def find_p10_through_by_chain(G, e: int):
    """find_p10_through by the paper's chain: while the current instance
    has a matched 4-cycle, each through the anchor, c4_reduce the partner
    with the least index and re-list the 4-cycles; then lift the first
    induced P4 of the reduced instance's crossing graph through the index
    maps.  Returns (witness, steps) as the engine does.  O(m) per step."""
    c4s = enumerate_m_c4(G)
    for c4 in c4s:
        if e not in c4:
            raise PreconditionViolated(f"matched 4-cycle ({c4.i},{c4.j}) avoids edge {e}", c4=[c4.i, c4.j], edge=e)
    cur, a, to_orig, steps = G, e, tuple(range(G.m)), []
    while c4s:
        assert all(a in c4 for c4 in c4s), (cur, a)
        z = min(c4.i if c4.j == a else c4.j for c4 in c4s)
        steps.append(C4ReduceStep(z))
        cur, index_map = c4_reduce(cur, a, z)
        a = index_map.index(a)
        to_orig = tuple(to_orig[old] for old in index_map)
        c4s = enumerate_m_c4(cur)
    H = build_crossing_graph(cur, a)
    path = find_induced_p4(H)
    witness = tuple(sorted(to_orig[v] for v in p10_from_p4(H, path)))
    return witness, tuple(steps) + (P4FoundStep(a, path),)


def long_chain_instance(m: int) -> MarkedPermutationGraph:
    """An instance whose chain from edge a = m - 1 - k, k = m // 4, takes
    2k C4Reduce steps: sigma(a) = 0 and, for i = 1..k, sigma(a + i) =
    2i - 1 and sigma(a - i) = 2i, so the partners alternate right and
    left.  The other values are shuffled by random.Random(1) and redrawn
    until every matched 4-cycle holds a."""
    k = m // 4
    a = m - 1 - k
    sigma = [0] * m
    for i in range(1, k + 1):
        sigma[a + i], sigma[a - i] = 2 * i - 1, 2 * i
    rest = list(range(a - k))
    rng = random.Random(1)
    while True:
        values = list(range(2 * k + 1, m))
        rng.shuffle(values)
        for x, v in zip(rest, values):
            sigma[x] = v
        G = validate(m, sigma)
        if all(a in c4 for c4 in enumerate_m_c4(G)):
            return G


def graph_edges(G) -> list:
    """Every edge of G as a ("A", i), ("A'", i) or ("M", i) label: the
    A-edges 0..m-1, then the A'-edges, then the matching edges."""
    m = G.m
    return (
        [("A", i) for i in range(m)]
        + [("A'", i) for i in range(m)]
        + [("M", i) for i in range(m)]
    )


def _edge_endpoints(G, e) -> tuple[int, int]:
    # vertices 0..m-1 are the A-cycle, m..2m-1 the A'-cycle
    kind, i = e
    m = G.m
    if kind == "A":
        return i, (i + 1) % m
    if kind == "A'":
        return m + i, m + (i + 1) % m
    return i, m + G.sigma[i]


def cyclic_cut_by_subsets(G):
    """find_cyclic_cut by exhaustive search: the first of all C(3m, <=4)
    subsets of graph_edges, by size and then in combinations order, whose
    removal leaves two components that each contain a cycle.  Each subset
    costs one O(m) union-find pass, in which an edge inside a component
    marks its root cyclic and a union carries the mark to the surviving
    root."""
    all_edges = graph_edges(G)
    endpoints = [_edge_endpoints(G, e) for e in all_edges]
    for size in range(1, 5):
        for cut in itertools.combinations(range(len(all_edges)), size):
            parent = list(range(2 * G.m))
            cyclic: set[int] = set()  # roots of components holding a cycle
            for eidx, (u, v) in enumerate(endpoints):
                if eidx in cut:
                    continue
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                parent[u] = v
                if u == v or u in cyclic:
                    cyclic.discard(u)
                    cyclic.add(v)
            if len(cyclic) >= 2:
                return tuple(all_edges[i] for i in cut)
    return None


def cyclic_cut_by_counting(G):
    """find_cyclic_cut by its first algorithm: for each subset, in the order
    of cyclic_cut_by_subsets, join the other edges' ends, then count vertices and edges per
    component; a component holds a cycle when it has as many edges as
    vertices."""
    all_edges = graph_edges(G)
    endpoints = [_edge_endpoints(G, e) for e in all_edges]
    nv = 2 * G.m
    idx = range(len(all_edges))
    for size in range(1, 5):
        for cut in itertools.combinations(idx, size):
            cutset = set(cut)
            parent = list(range(nv))

            def root(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for eidx, (u, v) in enumerate(endpoints):
                if eidx in cutset:
                    continue
                ru, rv = root(u), root(v)
                if ru != rv:
                    parent[ru] = rv
            vcount: Counter = Counter(root(v) for v in range(nv))
            ecount: Counter = Counter()
            for eidx, (u, v) in enumerate(endpoints):
                if eidx not in cutset:
                    ecount[root(u)] += 1
            cyclic = sum(1 for r, vc in vcount.items() if ecount[r] >= vc)
            if cyclic >= 2:
                return tuple(all_edges[i] for i in cut)
    return None


def replace_by_four_sets(G, a: int, b: int, is_witness):
    """check_replace by its first algorithm, with the certification test
    ``is_witness`` (a sorted 5-tuple -> bool) passed in: a 5-set through
    both edges, else every 4-set F avoiding both in lexicographic order,
    comparing F+{a} with F+{b}."""
    from mpgraphs.census import ReplaceVerdict

    rest = [v for v in range(G.m) if v != a and v != b]
    if any(is_witness(tuple(sorted(T + (a, b)))) for T in itertools.combinations(rest, 3)):
        return ReplaceVerdict(ok=True, branch="shared_witness", counterexample=None)
    for F in itertools.combinations(rest, 4):
        if is_witness(tuple(sorted(F + (a,)))) != is_witness(tuple(sorted(F + (b,)))):
            return ReplaceVerdict(ok=False, branch=None, counterexample=F)
    return ReplaceVerdict(ok=True, branch="swap_equivalent", counterexample=None)


def redrawing_by_pairs(Ha, Hb):
    """check_redrawing by its first algorithm, on the crossing graphs Ha
    and Hb at anchors a and b: clause (i) one x at a time, then clause
    (ii) one pair at a time in combinations order, with three has_edge
    calls and a parity sum per pair, Theta(m^2) steps."""
    from mpgraphs.census import RedrawingVerdict

    a, b = Ha.anchor, Hb.anchor
    others = [v for v in range(Ha.graph.m) if v not in (a, b)]
    for x in others:
        if Hb.has_edge(a, x) != Ha.has_edge(b, x):
            return RedrawingVerdict(ok=False, failing_clause=1, counterexample=(x,))
    for x, y in itertools.combinations(others, 2):
        odd = (
            int(Ha.has_edge(b, x)) + int(Ha.has_edge(b, y)) + int(Ha.has_edge(x, y))
        ) % 2 == 1
        if Hb.has_edge(x, y) != odd:
            return RedrawingVerdict(ok=False, failing_clause=2, counterexample=(x, y))
    return RedrawingVerdict(ok=True, failing_clause=None, counterexample=None)


def replace_by_census(census, a: int, b: int):
    """check_replace read off a whole census in one pass: a witness through
    both edges, else the witnesses through a with a removed against those
    through b with b removed."""
    from mpgraphs.census import ReplaceVerdict

    if any(a in X and b in X for X in census):
        return ReplaceVerdict(ok=True, branch="shared_witness", counterexample=None)
    with_a = {tuple(x for x in X if x != a) for X in census if a in X}
    with_b = {tuple(x for x in X if x != b) for X in census if b in X}
    if with_a != with_b:
        return ReplaceVerdict(ok=False, branch=None, counterexample=min(with_a ^ with_b))
    return ReplaceVerdict(ok=True, branch="swap_equivalent", counterexample=None)

def _arc_table() -> dict[tuple[bool, bool, bool], tuple[int, int, int, int]]:
    """The arcs of petersen_by_sorted_slices, read off PETERSEN_PATTERNS.

    Order of (x0, x1, x2), as (s0 < s1, s0 < s2, s1 < s2) for their sigma
    values, -> (a3, b3, a4, b4): sigma[x3] must fill one of gaps
    a3..b3-1 and sigma[x4] one of gaps a4..b4-1.  Gap g lies between the
    g-th and (g+1)-th smallest of s0, s1, s2: gap 0 below all three, gap 3
    above all three.  Read cyclically, gap 3 is followed by gap 0 again,
    numbered 4 so that every arc is a range.

    In cyclic value order a Petersen pattern reads x0, x3, x1, x4, x2 or
    its reverse, so sigma[x3] must sit on the arc from s0 to s1 that avoids
    s2, and sigma[x4] on the arc from s1 to s2 that avoids s0.  The two
    arcs are independent: every choice of one gap from each is a Petersen
    pattern, and the 6 triple orders hold the 10 patterns between them.
    """
    gaps: dict[tuple[bool, bool, bool], tuple[set[int], set[int]]] = {}
    for P in PETERSEN_PATTERNS:
        order = (P[0] < P[1], P[0] < P[2], P[1] < P[2])
        x3_gaps, x4_gaps = gaps.setdefault(order, (set(), set()))
        x3_gaps.add(sum(v < P[3] for v in P[:3]))
        x4_gaps.add(sum(v < P[4] for v in P[:3]))

    def arc(gs: set[int]) -> tuple[int, int]:
        first = next(g for g in gs if (g - 1) % 4 not in gs)
        return first, first + len(gs)

    return {order: (*arc(g3), *arc(g4)) for order, (g3, g4) in gaps.items()}


_ARCS = _arc_table()


def petersen_by_sorted_slices(sigma: tuple[int, ...]) -> list[PetersenWitness]:
    """The census by its first triple walk: every Petersen 5-subset, in
    lexicographic order, with three bisects and a slice for every triple.

    x0 < x1 < x2 run over all triples.  The triple's order fixes the arcs
    of values open to x3 and to x4 (see _arc_table).  The indices after x2
    with values on an arc are one slice of a list of those indices in
    cyclic value order, and every x3 < x4 from the two slices completes a
    witness.
    """
    m = len(sigma)
    inv = [0] * m
    for i, v in enumerate(sigma):
        inv[v] = i
    # later[p]: the values sigma[q] for q > p, ascending; ring[p]: those q
    # in the same order, twice over, so that an arc across the top of the
    # value range is still one slice
    later = [sorted(sigma[p + 1:]) for p in range(m)]
    ring = [[inv[v] for v in vals] * 2 for vals in later]
    out: list[PetersenWitness] = []
    for x0 in range(m):
        s0 = sigma[x0]
        for x1 in range(x0 + 1, m - 3):
            s1 = sigma[x1]
            for x2 in range(x1 + 1, m - 2):
                s2 = sigma[x2]
                a3, b3, a4, b4 = _ARCS[s0 < s1, s0 < s2, s1 < s2]
                vals = later[x2]
                lo, mid, hi = sorted((s0, s1, s2))
                c1 = bisect(vals, lo)
                cut = (0, c1, bisect(vals, mid), bisect(vals, hi), len(vals), len(vals) + c1)
                x4s = ring[x2][cut[a4]:cut[b4]]
                if not x4s:
                    continue
                x4s.sort()
                x3s = sorted(ring[x2][cut[a3]:cut[b3]])
                out += [(x0, x1, x2, x3, x4) for x3 in x3s for x4 in x4s[bisect(x4s, x3):]]
    return out


def petersen_blocks_by_rank_table(sigma: tuple[int, ...]) -> Iterator[Block]:
    """Every triple that some Petersen 5-subset extends, in lexicographic
    order, as a block ``(x0, x1, x2, x3s, x4s)``: the witnesses extending
    x0 < x1 < x2 are (x0, x1, x2, x3, x4) for x3 in x3s and x4 in x4s with
    x3 < x4, and both slices are sorted tuples.

    x0 < x1 < x2 run over all triples.  In cyclic value order a Petersen
    pattern reads x0, x3, x1, x4, x2 or its reverse, so sigma[x3] must sit
    on the arc of values from s0 to s1 that avoids s2, sigma[x4] on the arc
    from s1 to s2 that avoids s0, and every x3 < x4 after x2 with values on
    those arcs completes a witness.  The indices after x2 with values on an
    arc are one slice of ring[x2], and below[x2] gives the slice's bounds.
    The two arcs are disjoint, so no index is in both slices.

    A triple is dropped at the first of three tests it fails: its x4 arc
    is empty (two lookups in below[x2]), its x3 arc is empty (two more, and
    equal bounds), or no x3 precedes an x4 (min of the x3 slice above max
    of the x4 slice).  Only triples that pass the first two are sliced, and
    only those that pass all three are sorted and yielded, each slice less
    its dead entries, which complete no witness: the x3s after the last
    x4 and the x4s before the first x3, dropped by comparison after the
    sorts.  The tables take O(m^2) time and memory, and the walk holds one
    block at a time.
    """
    m = len(sigma)
    inv = [0] * m
    for i, v in enumerate(sigma):
        inv[v] = i
    # below[p][v]: how many q > p have sigma[q] < v; ring[p]: those q in
    # ascending order of sigma[q], twice over, so that an arc across the
    # top of the value range is still one slice
    below = [[0] * (m + 1)]
    for s in reversed(sigma[1:]):
        prev = below[-1]
        below.append(prev[: s + 1] + [c + 1 for c in prev[s + 1 :]])
    below.reverse()
    ring = [[q for q in inv if q > p] * 2 for p in range(m)]
    for x0 in range(m):
        s0 = sigma[x0]
        for x1 in range(x0 + 1, m - 3):
            s1 = sigma[x1]
            lo3, hi3 = (s0, s1) if s0 < s1 else (s1, s0)
            for x2 in range(x1 + 1, m - 2):
                s2 = sigma[x2]
                row = below[x2]
                # the values open to x4 are those between lo4 and hi4, or,
                # when s0 lies between them, those above hi4 and then below
                # lo4, which run on into ring's second copy
                lo4, hi4 = (s1, s2) if s1 < s2 else (s2, s1)
                i4, j4 = row[lo4], row[hi4]
                if lo4 < s0 < hi4:
                    i4, j4 = j4, m - 1 - x2 + i4
                if i4 == j4:
                    continue
                i3, j3 = row[lo3], row[hi3]
                if lo3 < s2 < hi3:
                    i3, j3 = j3, m - 1 - x2 + i3
                if i3 == j3:
                    continue
                x3s = ring[x2][i3:j3]
                x4s = ring[x2][i4:j4]
                if min(x3s) > max(x4s):
                    continue
                x4s.sort()
                x3s.sort()
                live3 = tuple(x3 for x3 in x3s if x3 < x4s[-1])
                live4 = tuple(x4 for x4 in x4s if x4 > x3s[0])
                yield x0, x1, x2, live3, live4


def pair_ok_by_side_masks(sigma: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """The census pair stage by its two side masks: for every pair
    x0 < x1 < m - 3, the mask of the x2s after x1 that an other-side index
    follows, with a same-side index after that one.

    The pair splits the indices after x1 into ``inner``, whose values lie
    between s0 and s1, and ``outer``, the rest.  Let ``tail`` be the side
    that holds the last index, m - 1.  A tail-side x2 qualifies iff it
    precedes the other side's last index, and an other-side x2 iff it
    precedes the last qualifying tail index.
    """
    m = len(sigma)
    inv = [0] * m
    for i, v in enumerate(sigma):
        inv[v] = i
    vmask = [0] * (m + 1)
    for v in range(m):
        vmask[v + 1] = vmask[v] | 1 << inv[v]
    under = [0] + [(1 << k) - 1 for k in range(m)]
    last = sigma[-1]
    oks = {}
    for x0 in range(m - 4):
        s0 = sigma[x0]
        for x1 in range(x0 + 1, m - 3):
            s1 = sigma[x1]
            lo, hi = (s0, s1) if s0 < s1 else (s1, s0)
            later = -(2 << x1) & vmask[m]
            inner = (vmask[hi] ^ vmask[lo + 1]) & later
            outer = later ^ inner
            tail, other = (inner, outer) if lo < last < hi else (outer, inner)
            ok = tail & under[other.bit_length()]
            ok |= other & under[ok.bit_length()]
            oks[x0, x1] = ok
    return oks


def instance_to_networkx(G) -> nx.MultiGraph:
    """The full cubic graph: A-cycle on 0..m-1, A'-cycle on m..2m-1,
    matching i -- m+sigma[i]."""
    m = G.m
    g = nx.MultiGraph()
    g.add_nodes_from(range(2 * m))
    for i in range(m):
        g.add_edge(i, (i + 1) % m)
        g.add_edge(m + i, m + (i + 1) % m)
        g.add_edge(i, m + G.sigma[i])
    return g


def cyclic_components_after(G, cut) -> list[set[int]]:
    """The vertex sets of the components of instance_to_networkx(G) that
    still hold a cycle once the edges in ``cut`` are removed."""
    g = instance_to_networkx(G)
    for e in cut:
        g.remove_edge(*_edge_endpoints(G, e))
    return [
        comp
        for comp in nx.connected_components(g)
        if g.subgraph(comp).number_of_edges() >= len(comp)
    ]


# ---------------------------------------------------------------------------
# Scan faults: every check the scan records, made to fail on one instance
# ---------------------------------------------------------------------------

# PETERSEN is instance 10 of exhaustive_scan(5), and all five of its edges
# qualify for the witness engine
SCAN_FAULT_INDEX = 10


def inject_scan_faults(monkeypatch, *kinds: str) -> None:
    """Rebind the names exhaustive_scan reads at call time so that, on
    PETERSEN only, each violation kind in ``kinds`` is recorded once:
    ``zhang_fail`` by a failing Zhang verdict, ``witness_error`` by an
    engine that raises at edge 1, and ``witness_unsound`` by one that
    returns the witness reversed, which is no census entry, at edge 3."""
    import mpgraphs.census as census_module
    import mpgraphs.witness as witness_module

    engine, zhang = witness_module.find_p10_through, census_module._zhang
    calls = []

    def faulty_zhang(c4_count, p10_count):
        calls.append(None)  # one call per instance, in scan order
        verdict = zhang(c4_count, p10_count)
        return verdict._replace(ok=False) if len(calls) == SCAN_FAULT_INDEX + 1 else verdict

    def faulty_engine(G, e):
        X, trace = engine(G, e)
        if G == PETERSEN and e == 1 and "witness_error" in kinds:
            raise RuntimeError("injected engine fault")
        if G == PETERSEN and e == 3 and "witness_unsound" in kinds:
            return X[::-1], trace
        return X, trace

    if "zhang_fail" in kinds:
        monkeypatch.setattr(census_module, "_zhang", faulty_zhang)
    monkeypatch.setattr(witness_module, "find_p10_through", faulty_engine)


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def tokens_by_split(text: str) -> Iterator[int]:
    """The text reader's integers, read from copies of the text: each of
    str.splitlines' lines stripped and split, a line whose first token
    starts with '#' skipped, and every other token matched in full against
    [+-]?[0-9]+ before int() reads it."""
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        for tok in stripped.split():
            try:
                if not _DECIMAL.fullmatch(tok):
                    raise ValueError(tok)
                yield int(tok)  # ValueError past int's digit limit
            except ValueError:
                raise InstanceTextError(f"non-integer token {tok!r}", token=tok) from None


def to_text_by_join(G: MarkedPermutationGraph) -> str:
    return f"{G.m} " + " ".join(str(v) for v in G.sigma)


def gk_by_table(k: int) -> tuple[GkInstance, dict]:
    """G_k from one dict table of (sigma value, class) per index, filled
    from the 0-based transcription of the 1-based construction tables,
    and its classification JSON from four filtered passes; k >= 1.
      vertical  sigma[2i-2]    = i-1        for 1 <= i <= k
                sigma[2k+i+2]  = k+2i+2     for 1 <= i <= k
      skew      sigma[2i-1]    = 3k+3-2i    for 1 <= i <= k-1
      special   group 1 at indices 2k-1..2k+2   -> k+1, k+3, k, k+2
                group 2 at indices 3k+3..3k+6   -> 3k+4, 3k+6, 3k+3, 3k+5
    """
    m = 3 * k + 7
    vertical, skew = EdgeClassification(EdgeClass.VERTICAL), EdgeClassification(EdgeClass.SKEW)
    table: dict[int, tuple[int, EdgeClassification]] = {}  # index -> (sigma value, class)
    for i in range(1, k + 1):
        table[2 * i - 2] = (i - 1, vertical)
        table[2 * k + i + 2] = (k + 2 * i + 2, vertical)
    for i in range(1, k):
        table[2 * i - 1] = (3 * k + 3 - 2 * i, skew)
    group1 = {2 * k - 1: k + 1, 2 * k: k + 3, 2 * k + 1: k, 2 * k + 2: k + 2}
    group2 = {
        3 * k + 3: 3 * k + 4,
        3 * k + 4: 3 * k + 6,
        3 * k + 5: 3 * k + 3,
        3 * k + 6: 3 * k + 5,
    }
    for group, values in ((1, group1), (2, group2)):
        special = EdgeClassification(EdgeClass.SPECIAL, group=group)
        for idx, val in values.items():
            table[idx] = (val, special)
    sigma, cls = zip(*(table[i] for i in range(m)))  # KeyError on an index the tables miss
    document = {
        "k": k,
        "m": m,
        "vertical": [i for i, c in enumerate(cls) if c.kind is EdgeClass.VERTICAL],
        "skew": [i for i, c in enumerate(cls) if c.kind is EdgeClass.SKEW],
        "special_group_1": [i for i, c in enumerate(cls) if c.kind is EdgeClass.SPECIAL and c.group == 1],
        "special_group_2": [i for i, c in enumerate(cls) if c.kind is EdgeClass.SPECIAL and c.group == 2],
    }
    return GkInstance(k=k, graph=validate(m, sigma), classification=cls), document


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

def instances(min_m: int = 3, max_m: int = 9):
    """Random valid instances with m in the given range."""
    return st.integers(min_m, max_m).flatmap(
        lambda m: st.permutations(list(range(m))).map(lambda sigma: validate(m, sigma))
    )


def all_instances(m: int):
    for sigma in itertools.permutations(range(m)):
        yield validate(m, sigma)


def seeded_instances(m: int) -> list:
    """Four seeded random instances of half-order m; seeds 2 and 4 are
    drawn 4-cycle-free."""
    from mpgraphs.census import random_instance

    return [random_instance(m, seed=s, require_c4_free=s % 2 == 0) for s in (1, 2, 3, 4)]
