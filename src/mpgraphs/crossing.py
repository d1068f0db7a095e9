"""Crossing graphs and the two-row standard drawing.

Anchoring at an A-vertex ``a`` linearizes both cycles.  Two matching
segments cross exactly when their endpoint orders on the two rows
disagree; the crossing graph records that relation on A - {a}.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import MarkedPermutationGraph, _check_index
from .errors import UnsupportedFormat

Point = tuple[float, float]
Segment = tuple[Point, Point]

ROW_GAP = 10  # vertical units between the two rows


class CrossingGraph(NamedTuple):
    """The crossing relation of ``graph`` on the m-1 A-indices other than
    the anchor, one Python-int bitmask per row: bit y of ``adj[x]`` is set
    iff x ~ y.  Row ``anchor`` is 0 and no row has bit ``anchor`` set.
    It equals any tuple with the same fields; its repr leaves out adj."""

    anchor: int
    graph: MarkedPermutationGraph
    vertices: tuple[int, ...]
    adj: tuple[int, ...]

    def __repr__(self) -> str:
        return f"CrossingGraph(anchor={self.anchor!r}, graph={self.graph!r}, vertices={self.vertices!r})"

    def has_edge(self, x: int, y: int) -> bool:
        return bool(self.adj[x] >> y & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(x, y) for x in self.vertices for y in self.vertices if x < y and self.has_edge(x, y)]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def build_crossing_graph(G: MarkedPermutationGraph, a: int) -> CrossingGraph:
    """x ~ y iff the rotated positions (x-a) mod m and (sigma[x]-sigma[a])
    mod m order the pair oppositely on the two rows.  The anchor segment
    crosses nothing and is excluded.

    Row x is (the indices after x on the top row) XOR (the indices after x
    on the bottom row), so each row is read off by one walk from its far
    end: O(m) big-int operations, no pair loop."""
    a = _check_index(G, a, "anchor")
    m = G.m
    adj = [0] * m
    later = 0
    for p in range(m - 1, 0, -1):
        x = (a + p) % m
        adj[x] = later
        later |= 1 << x
    inv, base = G.inverse(), G.sigma[a]
    later = 0
    for p in range(m - 1, 0, -1):
        x = inv[(base + p) % m]
        adj[x] ^= later
        later |= 1 << x
    verts = tuple(x for x in range(m) if x != a)
    return CrossingGraph(anchor=a, graph=G, vertices=verts, adj=tuple(adj))


def _ccw(p: Point, q: Point, r: Point) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def count_segment_crossings(segments: list[Segment]) -> int:
    """Pairwise proper intersections (shared endpoints do not count): the
    geometric reference that the tests recount drawn segments with.  It
    is O(len(segments)^2), and no drawing calls it."""
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


def _crossing_count(G: MarkedPermutationGraph, a: int) -> int:
    """build_crossing_graph(G, a).edge_count() without the graph: the pairs
    of segments whose columns are ordered oppositely on the two rows, the
    inversions of pi_a.  The walk takes the A-columns right to left and
    counts, in a Fenwick tree over the A'-columns, the segments already
    passed that end in a column to the left: O(m log m) time, O(m) memory."""
    m, sigma, b = G.m, G.sigma, G.sigma[a]
    tree = [0] * (m + 1)  # tree[i] counts the passed columns in (i & (i - 1)) .. i - 1
    count = 0
    for t in range(m - 1, 0, -1):
        col = (sigma[(a + t) % m] - b) % m
        i = col
        while i:
            count += tree[i]
            i &= i - 1
        i = col + 1
        while i <= m:
            tree[i] += 1
            i += i & -i
    return count


def standard_drawing(G: MarkedPermutationGraph, a: int, format: str = "svg") -> str:
    """Render the standard drawing as an SVG 1.1 or DOT document.

    A-vertex x sits in column (x - a) mod m of the A-row and A'-vertex v
    in column (v - sigma[a]) mod m of the A'-row, so column t holds
    (a + t) mod m and (sigma[a] + t) mod m and every coordinate is an
    integer.  Wraparound cycle edges are never drawn, so all drawn
    segments are straight.  The embedded ``crossings:`` comment, for
    harness parsing, is the crossing graph's edge count, counted as the
    inversions of pi_a without building the graph.
    """
    a = _check_index(G, a, "anchor")
    fmt = format.lower() if isinstance(format, str) else None
    if fmt not in ("svg", "dot"):
        raise UnsupportedFormat(f"unsupported drawing format {format!r}", format=format)
    m, sigma, b = G.m, G.sigma, G.sigma[a]
    top = [(x - a) % m for x in range(m)]
    bot = [(v - b) % m for v in range(m)]
    crossings = _crossing_count(G, a)
    header = f"instance: {G.to_text()} | anchor: {a}"
    if fmt == "dot":
        lines = [
            f"// crossings: {crossings}",
            f"// {header}",
            "graph standard_drawing {",
            "  layout=neato;",
            "  splines=line;",
            '  node [shape=circle, fixedsize=true, width=0.35];',
        ]
        lines += [f'  "A{x}" [pos="{top[x]},{ROW_GAP}!"];' for x in range(m)]
        lines += [f'  "A\'{v}" [pos="{bot[v]},0!"];' for v in range(m)]
        lines += [f'  "A{(a + t) % m}" -- "A{(a + t + 1) % m}";' for t in range(m - 1)]
        lines += [f'  "A\'{(b + t) % m}" -- "A\'{(b + t + 1) % m}";' for t in range(m - 1)]
        lines += [f'  "A{x}" -- "A\'{sigma[x]}" [kind=matching];' for x in range(m)]
        lines.append("}")
        return "\n".join(lines) + "\n"

    scale, margin = 40, 30  # column t is at x = margin + scale * t
    y_top, y_bot = margin, margin + scale * ROW_GAP
    width, height = 2 * margin + scale * (m - 1), y_bot + margin
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">',
        f"<!-- crossings: {crossings} -->",
        f"<!-- {header} -->",
    ]
    for row, y in (("A", y_top), ("Ap", y_bot)):
        lines += [
            f'<line class="cycle-{row}" x1="{margin + scale * t}" y1="{y}" x2="{margin + scale * (t + 1)}" '
            f'y2="{y}" stroke="#999" stroke-width="1"/>'
            for t in range(m - 1)
        ]
    lines += [
        f'<line class="matching" x1="{margin + scale * top[x]}" y1="{y_top}" '
        f'x2="{margin + scale * bot[sigma[x]]}" y2="{y_bot}" stroke="#000" stroke-width="1.5"/>'
        for x in range(m)
    ]
    for name, cols, y in (("A", top, y_top), ("A'", bot, y_bot)):
        for v in range(m):
            cx = margin + scale * cols[v]
            lines.append(f'<circle cx="{cx}" cy="{y}" r="9" fill="#fff" stroke="#000"/>')
            lines.append(f'<text x="{cx}" y="{y + 3}" font-size="8" text-anchor="middle">{name}{v}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
