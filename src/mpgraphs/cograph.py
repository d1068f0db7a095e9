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


def _path_order(quad: tuple[int, int, int, int], rows: tuple[int, int, int]) -> InducedPath4:
    """The path that the ascending 4-tuple ``quad`` is known to induce,
    oriented from its smaller endpoint, from ``rows``, the rows of its
    first three vertices: the fourth vertex's row within the quad is its
    bits in those three, so its own row is never read.  The ends are the
    two vertices whose row within the quad has one bit, the end's one
    neighbour."""
    x, y, z, l = quad
    nx, ny, nz = rows
    mask = 1 << x | 1 << y | 1 << z | 1 << l
    row_l = (nx >> l & 1) << x | (ny >> l & 1) << y | (nz >> l & 1) << z
    within = {x: nx & mask, y: ny & mask, z: nz & mask, l: row_l}
    p, q = (v for v in quad if within[v].bit_count() == 1)
    return InducedPath4(p, within[p].bit_length() - 1, within[q].bit_length() - 1, q)


def find_induced_p4(H: CrossingGraph) -> InducedPath4 | None:
    """Lexicographically smallest induced P4 (by sorted vertex set, then
    oriented from the smaller endpoint), or None if H is P4-free.

    Three vertices of an induced P4 induce a path p-b-q or an edge u-v
    plus an isolated w.  So for each triple i<j<k, in order, the fourth
    vertices are one mask: (N(p) ^ N(q)) & ~N(b), or N(w) & (N(u) ^ N(v));
    a triple with 0 or 3 edges has none.  H.vertices ascend, so the lowest
    candidate above vertex k completes the first 4-set.  O(n^3) mask
    operations in the worst case, one triple when a P4 starts at the first
    three vertices.  It reads x's row once per x, y's once per pair and
    z's once per triple with one or two edges, and never the fourth
    vertex's; the witness engine's H computes each row on its first read,
    so there the search also pays O(m) per distinct row it reads."""
    verts, adj = H.vertices, H.adj
    n = len(verts)
    for i in range(n - 2):
        x = verts[i]
        nx = adj[x]
        for j in range(i + 1, n - 1):
            y = verts[j]
            ny, xy = adj[y], nx >> y & 1
            for k in range(j + 1, n):
                z = verts[k]
                xz, yz = nx >> z & 1, ny >> z & 1
                edges = xy + xz + yz
                if edges == 0 or edges == 3:
                    continue
                # the odd vertex is the one off the pair in the minority
                # state: the path's centre, or the isolated vertex
                nz, minority = adj[z], 1 if edges == 1 else 0
                if yz == minority:
                    odd, r, s = nx, ny, nz
                elif xz == minority:
                    odd, r, s = ny, nx, nz
                else:
                    odd, r, s = nz, nx, ny
                side = odd if minority else ~odd
                cand = (r ^ s) & side & -(2 << z)
                if cand:
                    l = (cand & -cand).bit_length() - 1
                    return _path_order((x, y, z, l), (nx, ny, nz))
    return None
