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

    @property
    def m(self) -> int:
        return self.graph.m

    def has_edge(self, x: int, y: int) -> bool:
        return bool(self.adj[x] >> y & 1)

    def neighbors(self, x: int) -> tuple[int, ...]:
        return tuple(y for y in range(self.m) if self.adj[x] >> y & 1)

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
    _check_index(G, a, "anchor")
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
    """Pairwise proper intersections (shared endpoints do not count)."""
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


def _layout(G: MarkedPermutationGraph, a: int) -> tuple[list[Point], list[Point], list[Segment]]:
    """Unit-spaced coordinates: A-row at y=0 starting with the anchor,
    A'-row at y=ROW_GAP starting with the anchor's friend.  Wraparound
    cycle edges are never drawn, so all drawn segments are straight."""
    m = G.m
    top = [(float((x - a) % m), 0.0) for x in range(m)]
    bot = [(float((v - G.sigma[a]) % m), float(ROW_GAP)) for v in range(m)]
    matching = [(top[x], bot[G.sigma[x]]) for x in range(m)]
    return top, bot, matching


def standard_drawing(G: MarkedPermutationGraph, a: int, format: str = "svg") -> str:
    """Render the standard drawing as an SVG 1.1 or DOT document.

    The pairwise crossing count of the emitted matching segments is
    computed geometrically and embedded as a comment line for harness
    parsing; it equals the crossing graph's edge count.
    """
    _check_index(G, a, "anchor")
    fmt = format.lower()
    if fmt not in ("svg", "dot"):
        raise UnsupportedFormat(f"unsupported drawing format {format!r}", format=format)
    m = G.m
    top, bot, matching = _layout(G, a)
    crossings = count_segment_crossings(matching)
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
        for x in range(m):
            px, py = top[x]
            lines.append(f'  "A{x}" [pos="{px:g},{ROW_GAP - py:g}!"];')
        for v in range(m):
            px, py = bot[v]
            lines.append(f'  "A\'{v}" [pos="{px:g},{ROW_GAP - py:g}!"];')
        order_top = sorted(range(m), key=lambda x: top[x][0])
        order_bot = sorted(range(m), key=lambda v: bot[v][0])
        for t in range(m - 1):
            lines.append(f'  "A{order_top[t]}" -- "A{order_top[t + 1]}";')
        for t in range(m - 1):
            lines.append(f'  "A\'{order_bot[t]}" -- "A\'{order_bot[t + 1]}";')
        for x in range(m):
            lines.append(f'  "A{x}" -- "A\'{G.sigma[x]}" [kind=matching];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    scale, margin = 40.0, 30.0

    def sx(p: Point) -> tuple[float, float]:
        return margin + scale * p[0], margin + scale * p[1]

    width = 2 * margin + scale * (m - 1)
    height = 2 * margin + scale * ROW_GAP
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width:g}" height="{height:g}">',
        f"<!-- crossings: {crossings} -->",
        f"<!-- {header} -->",
    ]
    order_top = sorted(range(m), key=lambda x: top[x][0])
    order_bot = sorted(range(m), key=lambda v: bot[v][0])
    for row, order, pts in (("A", order_top, top), ("Ap", order_bot, bot)):
        for t in range(m - 1):
            (x1, y1), (x2, y2) = sx(pts[order[t]]), sx(pts[order[t + 1]])
            lines.append(
                f'<line class="cycle-{row}" x1="{x1:g}" y1="{y1:g}" x2="{x2:g}" y2="{y2:g}" '
                'stroke="#999" stroke-width="1"/>'
            )
    for x in range(m):
        (x1, y1), (x2, y2) = sx(matching[x][0]), sx(matching[x][1])
        lines.append(
            f'<line class="matching" x1="{x1:g}" y1="{y1:g}" x2="{x2:g}" y2="{y2:g}" '
            'stroke="#000" stroke-width="1.5"/>'
        )
    for x in range(m):
        cx, cy = sx(top[x])
        lines.append(f'<circle cx="{cx:g}" cy="{cy:g}" r="9" fill="#fff" stroke="#000"/>')
        lines.append(
            f'<text x="{cx:g}" y="{cy + 3:g}" font-size="8" text-anchor="middle">A{x}</text>'
        )
    for v in range(m):
        cx, cy = sx(bot[v])
        lines.append(f'<circle cx="{cx:g}" cy="{cy:g}" r="9" fill="#fff" stroke="#000"/>')
        lines.append(
            f"<text x=\"{cx:g}\" y=\"{cy + 3:g}\" font-size=\"8\" text-anchor=\"middle\">A'{v}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
