"""Induced-P4 search on crossing graphs."""

from __future__ import annotations

from typing import NamedTuple

from .crossing import CrossingGraph


class InducedPath4(NamedTuple):
    """Induced path x-y-z-w: edges exactly xy, yz, zw."""

    x: int
    y: int
    z: int
    w: int


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
