"""Induced-P4 search and twin detection on crossing graphs.

Twins here use the adjacency-closed reading N(x)\\{y} = N(y)\\{x}, which
covers both non-adjacent (false) and adjacent (true) twins; with the
open-neighbourhood reading alone, complete graphs would have no twins at
all and the P4-free dichotomy below would fail on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .crossing import CrossingGraph
from .errors import TooFewVertices


@dataclass(frozen=True)
class InducedPath4:
    """Induced path x-y-z-w: edges exactly xy, yz, zw."""

    x: int
    y: int
    z: int
    w: int

    def vertices(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.z, self.w)


class TwinKind(Enum):
    FALSE_TWINS = "false_twins"  # non-adjacent
    TRUE_TWINS = "true_twins"  # adjacent


@dataclass(frozen=True)
class TwinPair:
    x: int
    y: int
    kind: TwinKind


def _path_order(H: CrossingGraph, quad: tuple[int, ...]) -> InducedPath4:
    """The path that the ascending 4-tuple ``quad`` is known to induce,
    oriented from its smaller endpoint.  The ends are the two vertices
    whose row within the quad has one bit, the end's one neighbour."""
    mask = sum(1 << v for v in quad)
    rows = {v: H.adj[v] & mask for v in quad}
    x, w = (v for v in quad if rows[v].bit_count() == 1)
    return InducedPath4(x, rows[x].bit_length() - 1, rows[w].bit_length() - 1, w)


def find_induced_p4(H: CrossingGraph) -> InducedPath4 | None:
    """Lexicographically smallest induced P4 (by sorted vertex set, then
    oriented from the smaller endpoint), or None if H is P4-free.

    Three vertices of an induced P4 induce a path p-b-q or an edge u-v
    plus an isolated w.  So for each triple i<j<k, in order, the fourth
    vertices are one mask: (N(p) ^ N(q)) & ~N(b), or N(w) & (N(u) ^ N(v));
    a triple with 0 or 3 edges has none.  H.vertices ascend, so the lowest
    candidate above vertex k completes the first 4-set.  O(n^3) mask
    operations in the worst case, one triple when a P4 starts at the first
    three vertices."""
    verts, adj = H.vertices, H.adj
    n = len(verts)
    for i, x in enumerate(verts):
        for j in range(i + 1, n):
            y = verts[j]
            xy = adj[x] >> y & 1
            for k in range(j + 1, n):
                z = verts[k]
                xz, yz = adj[x] >> z & 1, adj[y] >> z & 1
                edges = xy + xz + yz
                if edges == 0 or edges == 3:
                    continue
                # the odd vertex is the one off the pair in the minority
                # state: the path's centre, or the isolated vertex
                minority = 1 if edges == 1 else 0
                if yz == minority:
                    odd, r, s = x, y, z
                elif xz == minority:
                    odd, r, s = y, x, z
                else:
                    odd, r, s = z, x, y
                side = adj[odd] if minority else ~adj[odd]
                cand = (adj[r] ^ adj[s]) & side & -(2 << z)
                if cand:
                    l = (cand & -cand).bit_length() - 1
                    return _path_order(H, (x, y, z, l))
    return None


def is_twin_pair(H: CrossingGraph, x: int, y: int) -> bool:
    """N(x)\\{y} = N(y)\\{x}: the two rows differ at most in bits x and y."""
    return ((H.adj[x] ^ H.adj[y]) & ~(1 << x | 1 << y)) == 0


def find_twins(H: CrossingGraph) -> TwinPair | None:
    """Lexicographically smallest twin pair, tagged true/false by
    adjacency; None if twin-free."""
    verts = H.vertices
    if len(verts) < 2:
        raise TooFewVertices(f"{len(verts)} vertex", vertices=list(verts))
    for i, x in enumerate(verts):
        for y in verts[i + 1 :]:
            if is_twin_pair(H, x, y):
                kind = TwinKind.TRUE_TWINS if H.has_edge(x, y) else TwinKind.FALSE_TWINS
                return TwinPair(x, y, kind)
    return None


def is_p4_free(H: CrossingGraph) -> bool:
    """True iff H has no induced P4, i.e. H is a cograph.  The tests check
    this against twin elimination, the characterisation the engine's twin
    branch relies on."""
    return find_induced_p4(H) is None
