"""Crossing graphs and the two-row standard drawing.

Anchoring at an A-vertex ``a`` linearizes both cycles.  Two matching
segments cross exactly when their endpoint orders on the two rows
disagree; the crossing graph records that relation on A - {a}.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple

from .core import MarkedPermutationGraph, _check_index
from .errors import UnsupportedFormat

ROW_GAP = 10  # vertical units between the two rows


class CrossingGraph(NamedTuple):
    """The crossing relation of ``graph`` on the m-1 A-indices other than
    the anchor, one Python-int bitmask per row: bit y of ``adj[x]`` is set
    iff x ~ y.  Row ``anchor`` is 0 and no row has bit ``anchor`` set.
    build_crossing_graph makes ``adj`` a tuple of all m rows, O(m) big-int
    operations and m^2/8 bytes; the witness engine's own graphs
    (_engine_crossing_graph), from a crossover in m on, hold a
    _RowsOnDemand there, which computes a row in O(m) when it is first
    read, and so cost O(rows read * m).  Either way, read ``adj`` by
    index, at the vertices.
    It equals any tuple with the same fields; its repr leaves out adj."""

    anchor: int
    graph: MarkedPermutationGraph
    vertices: tuple[int, ...]
    adj: tuple[int, ...] | Mapping[int, int]

    def __repr__(self) -> str:
        return f"CrossingGraph(anchor={self.anchor!r}, graph={self.graph!r}, vertices={self.vertices!r})"

    def has_edge(self, x: int, y: int) -> bool:
        return bool(self.adj[x] >> y & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(x, y) for x in self.vertices for y in self.vertices if x < y and self.has_edge(x, y)]

    def edge_count(self) -> int:
        return sum(self.adj[x].bit_count() for x in self.vertices) // 2


def build_crossing_graph(G: MarkedPermutationGraph, a: int) -> CrossingGraph:
    """x ~ y iff the rotated positions (x-a) mod m and (sigma[x]-sigma[a])
    mod m order the pair oppositely on the two rows.  The anchor segment
    crosses nothing and is excluded.

    Row x is (the indices between a and x on the top row) XOR (the same on
    the bottom row): within the m - 2 other indices these are the
    complements of the indices after x on each row, whose XOR is the same.
    The top-row set is the cyclic arc a + 1 .. x - 1 of indices, one
    big-int operation on x's bit; the bottom-row set is the indices that
    one walk over the values, from sigma[a] + 1 up, has passed before x:
    O(m) big-int operations in one walk, no pair loop."""
    a = _check_index(G, a, "anchor")
    m, sigma = G.m, G.sigma
    adj = [0] * m
    inv, b = G.inverse(), sigma[a]
    # the top-row arc is (1 << x) - low for x > a, and wrap + (1 << x) for x < a
    low, wrap = 2 << a, (1 << m) - (2 << a) - 1
    before = 0
    for x in inv[b + 1 :] + inv[:b]:
        bit = 1 << x
        adj[x] = (bit - low if x > a else wrap + bit) ^ before
        before |= bit
    return CrossingGraph(a, G, (*range(a), *range(a + 1, m)), tuple(adj))


_BINARY = bytes.maketrans(b"\0\1", b"01")  # a 0/1 byte per index -> its binary digit


# From this m on, _engine_crossing_graph computes each row of H_a when the
# search first reads it, so the memory is O(rows read * m), not m^2/8
# bytes; below it, the one walk that builds them all is cheaper, as
# measured on find_p10_through alone (replay_trace makes no graph) at
# every edge of five 4-cycle-free random instances per m, seeds 1-5, best
# of 48 alternating runs, walk against on demand (2-core VM, Python
# 3.11.7): 11.3 against 14.7 us at m = 8, 14.8 / 18.1 at m = 24,
# 16.5 / 18.9 at m = 30, 17.9 / 18.3 at m = 32, 19.6 / 23.8 at m = 36,
# 22.4 / 20.5 at m = 60 and 38.6 / 50.6 at m = 100, where a few edges
# read most rows.  The walk also leads at m = 40 to 48, and on demand at
# m = 52 and 56 (other runs, same setup), so no one crossover in m puts
# every size on its faster side.
_ROWS_ON_DEMAND_FROM_M = 32


def _engine_crossing_graph(G: MarkedPermutationGraph, a: int) -> CrossingGraph:
    """H_a for the witness engine, with every index but a as its vertices:
    build_crossing_graph's own graph below _ROWS_ON_DEMAND_FROM_M, and from
    it on one whose rows are a _RowsOnDemand, O(rows read * m) time and
    memory.  The search reads about 3 rows a graph on random instances with
    m = 60..100, and every row on G_k, where computing them one at a time
    costs a few % of its triple walk (4 % on G_10, under 1 % on G_30).  a
    is a checked anchor."""
    m = G.m
    if m < _ROWS_ON_DEMAND_FROM_M:
        return build_crossing_graph(G, a)
    return CrossingGraph(a, G, (*range(a), *range(a + 1, m)), _RowsOnDemand(G, a))


class _RowsOnDemand(dict):
    """The rows of H_a that build_crossing_graph(G, a) walks, each computed
    on its first read, in O(m): the ``adj`` of a CrossingGraph whose
    reader reads a few of them.  Iterating it gives the rows read so far.

    Row x is (the indices after x on the top row) XOR (the indices after x
    on the bottom row), read from a; complementing both sets within the
    m - 2 other indices gives the same row as (the indices between a and x
    on the top row) XOR (the same on the bottom row).  Either way the
    top-row set is one cyclic arc of indices, a few big-int operations.
    The bottom-row set is the indices of a cyclic arc of values; the
    shorter arc of the two sides is written one byte per index into a
    bytearray, which reads back as one base-2 integer, linear in m."""

    __slots__ = ("m", "sigma", "inv", "a")

    def __init__(self, G: MarkedPermutationGraph, a: int):
        super().__init__({a: 0})
        self.m, self.sigma, self.inv, self.a = G.m, G.sigma, G.inverse(), a

    def __missing__(self, x: int) -> int:
        m, sigma, a = self.m, self.sigma, self.a
        n = (sigma[a] - sigma[x] - 1) % m  # values after sigma[x], before sigma[a]
        if 2 * n <= m - 2:
            i, k, lo = (x + 1) % m, (a - x - 1) % m, (sigma[x] + 1) % m
        else:  # the side between a and x holds the other m - 2 - n values
            i, k, lo, n = (a + 1) % m, (x - a - 1) % m, (sigma[a] + 1) % m, m - 2 - n
        if i + k <= m:  # the indices i .. i + k - 1, mod m
            top = ((1 << k) - 1) << i
        else:
            top = (1 << (i + k - m)) - 1 | (1 << m) - (1 << i)
        digits = bytearray(m)
        inv = self.inv
        for y in inv[lo : lo + n]:
            digits[y] = 1
        if lo + n > m:
            for y in inv[: lo + n - m]:
                digits[y] = 1
        row = self[x] = top ^ int(digits.translate(_BINARY)[::-1], 2)
        return row


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
    return "".join(_drawing_lines(G, a, format))


def _drawing_lines(G: MarkedPermutationGraph, a: int, format: str) -> Iterator[str]:
    """The lines of standard_drawing(G, a, format), each with its newline,
    made one at a time as they are read, so a writer holds O(m) integers
    and one line, not the document.  The arguments are checked, and the
    crossings counted, before the first line."""
    a = _check_index(G, a, "anchor")
    fmt = format.lower() if isinstance(format, str) else None
    if fmt not in ("svg", "dot"):
        raise UnsupportedFormat(f"unsupported drawing format {format!r}", format=format)
    m, sigma, b = G.m, G.sigma, G.sigma[a]
    crossings = _crossing_count(G, a)
    header = f"instance: {G.to_text()} | anchor: {a}"
    if fmt == "dot":
        yield f"// crossings: {crossings}\n"
        yield f"// {header}\n"
        yield "graph standard_drawing {\n"
        yield "  layout=neato;\n"
        yield "  splines=line;\n"
        yield '  node [shape=circle, fixedsize=true, width=0.35];\n'
        for x in range(m):
            yield f'  "A{x}" [pos="{(x - a) % m},{ROW_GAP}!"];\n'
        for v in range(m):
            yield f'  "A\'{v}" [pos="{(v - b) % m},0!"];\n'
        for t in range(m - 1):
            yield f'  "A{(a + t) % m}" -- "A{(a + t + 1) % m}";\n'
        for t in range(m - 1):
            yield f'  "A\'{(b + t) % m}" -- "A\'{(b + t + 1) % m}";\n'
        for x in range(m):
            yield f'  "A{x}" -- "A\'{sigma[x]}" [kind=matching];\n'
        yield "}\n"
        return

    scale, margin = 40, 30  # column t is at x = margin + scale * t
    y_top, y_bot = margin, margin + scale * ROW_GAP
    width, height = 2 * margin + scale * (m - 1), y_bot + margin
    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">\n'
    yield f"<!-- crossings: {crossings} -->\n"
    yield f"<!-- {header} -->\n"
    for row, y in (("A", y_top), ("Ap", y_bot)):
        for t in range(m - 1):
            yield (
                f'<line class="cycle-{row}" x1="{margin + scale * t}" y1="{y}" x2="{margin + scale * (t + 1)}" '
                f'y2="{y}" stroke="#999" stroke-width="1"/>\n'
            )
    for x in range(m):
        yield (
            f'<line class="matching" x1="{margin + scale * ((x - a) % m)}" y1="{y_top}" '
            f'x2="{margin + scale * ((sigma[x] - b) % m)}" y2="{y_bot}" stroke="#000" stroke-width="1.5"/>\n'
        )
    for name, offset, y in (("A", a, y_top), ("A'", b, y_bot)):
        for v in range(m):
            cx = margin + scale * ((v - offset) % m)
            yield f'<circle cx="{cx}" cy="{y}" r="9" fill="#fff" stroke="#000"/>\n'
            yield f'<text x="{cx}" y="{y + 3}" font-size="8" text-anchor="middle">{name}{v}</text>\n'
    yield "</svg>\n"
