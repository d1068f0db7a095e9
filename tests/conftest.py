"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms: girth is
re-derived by exhaustive simple-cycle enumeration, Petersen recognition by
a networkx isomorphism test against the reference graph, and P4-freeness
by twin elimination.
"""

from __future__ import annotations

import importlib
import itertools
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import strategies as st

from mpgraphs import PETERSEN, PRISM, SuppressedGraph, generate_gk, validate

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


@pytest.fixture
def recording_pool(monkeypatch):
    """Stand in for multiprocessing.Pool, as the census module sees it:
    each pool records its requested size in the returned list and runs its
    tasks in this process, so no worker is ever started."""
    sizes: list[int] = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return list(itertools.starmap(fn, tasks))

    census_module = importlib.import_module("mpgraphs.census")
    monkeypatch.setattr(census_module.multiprocessing, "Pool", RecordingPool)
    return sizes


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
