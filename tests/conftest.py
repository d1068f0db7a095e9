"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms: girth is
re-derived by exhaustive simple-cycle enumeration, Petersen recognition by
a networkx isomorphism test against the reference graph, P4-freeness
by twin elimination, crossing rows by a pair loop, the first induced P4 by
a scan over 4-subsets, the cyclic cut by counting vertices and edges per
component, the replace lemma by a scan over 4-sets, and the census by the
triple walk that takes three bisects and a slice for every triple.
"""

from __future__ import annotations

import itertools
from bisect import bisect
from collections import Counter
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import strategies as st

from mpgraphs import PETERSEN, PRISM, InducedPath4, SuppressedGraph, generate_gk, validate
from mpgraphs.core import PETERSEN_PATTERNS
from mpgraphs.witness import PetersenWitness

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


def cyclic_cut_by_counting(G):
    """find_cyclic_cut by its first algorithm: for each subset, in the same
    order, join the other edges' ends, then count vertices and edges per
    component; a component holds a cycle when it has as many edges as
    vertices."""
    from mpgraphs.core import _edge_endpoints, graph_edges

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
