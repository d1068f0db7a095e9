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


def find_induced_p4(H: CrossingGraph) -> InducedPath4 | None:
    """Lexicographically smallest induced P4 (by sorted vertex set, then
    oriented from the smaller endpoint), or None if H is P4-free.

    Three vertices of an induced P4 induce a path p-b-q or an edge u-v
    plus an isolated w.  So for each triple i<j<k, in order, the fourth
    vertices are one mask: (N(p) ^ N(q)) & ~N(b), or N(w) & (N(u) ^ N(v));
    a triple with 0 or 3 edges has none.  H.vertices ascend, so the lowest
    candidate above vertex k completes the first 4-set.  The triple's
    three rows also orient the path: with u the vertex of the pair that
    the fourth vertex l is joined to and v the other, it is v-b-u-l or
    v-u-l-w, reversed if it ends below where it starts.  O(n^3) mask
    operations in the worst case, one triple when a P4 starts at the first
    three vertices.  It reads x's row once per x, y's once per pair and
    z's once per triple with one or two edges, and never l's; the witness
    engine's H computes each row on its first read, so there the search
    also pays O(m) per distinct row it reads."""
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
                # the odd vertex o is the one off the pair in the minority
                # state: the path's centre, or the isolated vertex
                nz, minority = adj[z], 1 if edges == 1 else 0
                if yz == minority:
                    o, r, s = x, y, z
                    no, nr, ns = nx, ny, nz
                elif xz == minority:
                    o, r, s = y, x, z
                    no, nr, ns = ny, nx, nz
                else:
                    o, r, s = z, x, y
                    no, nr, ns = nz, nx, ny
                cand = (nr ^ ns) & (no if minority else ~no) & -(2 << z)
                if cand:
                    l = (cand & -cand).bit_length() - 1
                    u, v = (r, s) if nr >> l & 1 else (s, r)
                    path = (v, u, l, o) if minority else (v, o, u, l)
                    return InducedPath4(*path) if path[0] < path[3] else InducedPath4(*path[::-1])
    return None
